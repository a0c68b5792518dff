"""Aggregated open-loop arrivals (the million-client load).

N independent Poisson client processes become one superposed-Poisson
generator per region (equivalent in law; see
:mod:`repro.workload.arrivals`), minting arrivals in columnar slabs.
The one pump that injects them, :class:`repro.shard.ShardedWorkload`,
feeds every open-loop run, one group or many, through the batched
submit path (:class:`~repro.smr.client.SubmitTxBatch` →
:meth:`~repro.smr.mempool.Mempool.submit_batch`) without materializing
per-transaction Python objects.
"""

from .arrivals import (
    DEFAULT_SLAB_ROWS,
    VIRTUAL_CLIENT_BASE,
    RegionSpec,
    SuperposedArrivals,
    split_regions,
)

__all__ = [
    "DEFAULT_SLAB_ROWS",
    "RegionSpec",
    "SuperposedArrivals",
    "VIRTUAL_CLIENT_BASE",
    "split_regions",
]

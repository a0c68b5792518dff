"""Aggregated open-loop workload generation (the million-client engine).

Replaces N independent Poisson client processes with one
superposed-Poisson generator per region (equivalent in law; see
:mod:`repro.workload.arrivals`), minting arrivals in columnar slabs
that flow through the batched submit path
(:class:`~repro.smr.client.SubmitTxBatch` →
:meth:`~repro.smr.mempool.Mempool.submit_batch`) without materializing
per-transaction Python objects.
"""

from .arrivals import DEFAULT_SLAB_ROWS, SuperposedArrivals
from .engine import (
    VIRTUAL_CLIENT_BASE,
    WORKLOAD_PID,
    RegionSpec,
    WorkloadEngine,
    attach_workload,
    split_regions,
)

__all__ = [
    "DEFAULT_SLAB_ROWS",
    "SuperposedArrivals",
    "VIRTUAL_CLIENT_BASE",
    "WORKLOAD_PID",
    "RegionSpec",
    "WorkloadEngine",
    "attach_workload",
    "split_regions",
]

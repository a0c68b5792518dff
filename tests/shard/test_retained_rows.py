"""Guard: what a committed row keeps alive after a sharded open-loop run.

A decided block's slab segments hold packed keys (a tuple of ints, or a
``range`` for the filler), a payload size and an op column: no numpy
column and no per-instance ``__dict__`` for caches to grow in.  The
run's retained bytes per committed row are bounded with ``tracemalloc``
on a k=2 open run with 2PC; a segment that went back to carrying id or
submit-time columns, or a dedup window that went back to one FIFO slot
per key, crosses the bound.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.experiments import run_sharded

from .test_hot_path_2pc import CONFIG

RETAINED = dataclasses.replace(
    CONFIG, offered_tps=6000.0, virtual_clients=100_000, max_sim_time=1.0
)

#: Bytes still allocated at the end of the run, per row committed by the
#: reference replicas.  Measured on CPython 3.11: 506 with numpy id and
#: submit-time columns per segment and a FIFO slot per key, 411 with
#: packed keys and one FIFO entry per slab.
MAX_RETAINED_BYTES_PER_ROW = 460


@pytest.fixture(scope="module")
def traced_run():
    # A short run first, so one-time allocations (lazy numpy and module
    # state) fall outside the trace.
    run_sharded(dataclasses.replace(RETAINED, max_sim_time=0.2))
    gc.collect()
    tracemalloc.start()
    try:
        run = run_sharded(RETAINED)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return run, retained


def test_committed_segments_hold_no_array_and_no_dict(traced_run):
    run, _ = traced_run
    segments = [
        seg
        for cluster in run.clusters
        for replica in cluster.replicas
        for block in replica.log.blocks
        for seg in block.txs.segments
    ]
    assert any(seg.ops is not None for seg in segments)  # 2PC markers
    assert any(type(seg.packed) is tuple and seg.ops is None for seg in segments)
    for seg in segments:
        assert not hasattr(seg, "__dict__")
        fields = [getattr(seg, f.name) for f in dataclasses.fields(seg)]
        assert not any(isinstance(value, np.ndarray) for value in fields)
        assert type(seg.packed) in (tuple, range)


def test_retained_bytes_per_committed_row(traced_run):
    run, retained = traced_run
    rows = sum(cluster.replicas[0].log.txs_executed for cluster in run.clusters)
    assert rows > 5_000
    assert retained / rows < MAX_RETAINED_BYTES_PER_ROW, (retained, rows)

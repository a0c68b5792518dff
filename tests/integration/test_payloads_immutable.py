"""Every payload a run sends is immutable all the way down.

A multicast hands the same payload object to every receiver (the
network never copies), so a payload that could change after it was
sent would let one replica alter what the others already received.
"""

import dataclasses

import numpy as np
import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.faults import every_kth_view, forced_execution_factory
from repro.protocols.registry import REGISTRY

LEAVES = (type(None), bool, int, float, str, bytes)


def _frozen_dataclass(obj) -> bool:
    return dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen


def _mutable_parts(obj, path, seen):
    """Paths under ``obj`` that are not immutable (each object walked once)."""
    if isinstance(obj, LEAVES) or id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, (tuple, frozenset)):
        for i, item in enumerate(obj):
            yield from _mutable_parts(item, f"{path}[{i}]", seen)
    elif isinstance(obj, np.ndarray):
        if obj.flags.writeable:
            yield f"{path}: writeable ndarray"
    elif _frozen_dataclass(obj):
        for field in dataclasses.fields(obj):
            value = getattr(obj, field.name)
            yield from _mutable_parts(value, f"{path}.{field.name}", seen)
    else:
        yield f"{path}: {type(obj).__name__}"


@pytest.mark.parametrize("view_sync", [False, True])
@pytest.mark.parametrize("protocol", sorted(REGISTRY))
def test_every_handled_message_type_is_a_frozen_dataclass(protocol, view_sync):
    table = REGISTRY[protocol].replica_cls.handler_table(view_sync)
    assert [t.__name__ for t in table if not _frozen_dataclass(t)] == []


BASE = dict(f=1, deployment="local", payload_bytes=256, warmup_blocks=0,
            target_blocks=4, seed=3)
RUNS = {p: (ExperimentConfig(protocol=p, **BASE), None) for p in sorted(REGISTRY)}
for mode in ("catchup", "piggyback"):
    RUNS[f"oneshot-{mode}"] = (
        ExperimentConfig(**{**BASE, "f": 2, "timeout_base": 0.06, "target_blocks": 8}),
        forced_execution_factory(mode, every_kth_view(3)),
    )
# Open loop: SubmitTxBatch slabs and blocks carry read-only numpy columns.
RUNS["oneshot-open"] = (
    ExperimentConfig(**{**BASE, "target_blocks": 8}, workload="open",
                     offered_tps=20_000.0, virtual_clients=1_000),
    None,
)


@pytest.mark.parametrize("name", RUNS)
def test_every_sent_payload_is_immutable(name):
    config, factory = RUNS[name]
    run = run_experiment(config, replica_factory=factory, enable_message_log=True)
    seen: set[int] = set()
    bad = [
        p
        for i, env in enumerate(run.network.message_log)
        for p in _mutable_parts(env.payload, f"#{i} {type(env.payload).__name__}", seen)
    ]
    assert run.network.message_log
    assert bad == []

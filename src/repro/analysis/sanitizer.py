"""Runtime sanitizers: determinism replay and an equivocation oracle.

The static rules in :mod:`repro.analysis.rules` catch *sources* of
nondeterminism; this module catches the *symptom*.  It runs one
:class:`~repro.experiments.ExperimentConfig` twice through
:func:`~repro.experiments.run_experiment`, fingerprints each run (hash
of the full message timeline plus hash of the decided chain), and fails
loudly on any divergence — which is exactly what a stray ``time.time()``
or an unseeded generator produces.

The equivocation gate runs a config, reads its decision records and
asserts the TEE guarantee the protocols are built on (Sec. IV): no two
conflicting blocks are certified/decided in the same view, and all
replicas decide prefix-consistent chains.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..experiments import ExperimentConfig, run_experiment
from ..fuzz import RunFingerprint, find_equivocations, fingerprint_of

#: ``instrument(sim, network, cluster)``, as :func:`run_experiment` takes it.
Instrument = Callable[..., None]


class DeterminismViolation(AssertionError):
    """Two same-seed runs produced different traces."""


class EquivocationDetected(AssertionError):
    """Conflicting blocks were decided in the same view."""


def check_determinism(
    config: ExperimentConfig,
    runs: int = 2,
    instrument: Optional[Instrument] = None,
) -> RunFingerprint:
    """Replay ``config`` ``runs`` times; raise on divergence.

    ``instrument`` is called on every run's freshly built world — which
    is how the test suite installs a deliberately nondeterministic
    clock and proves the sanitizer catches it.
    """
    if runs < 2:
        raise ValueError("need at least two runs to compare")
    first: Optional[RunFingerprint] = None
    for i in range(runs):
        run = run_experiment(config, enable_message_log=True, instrument=instrument)
        fp = fingerprint_of(
            config.protocol, config.seed, run.sim, run.network, run.collector
        )
        if first is None:
            first = fp
        elif fp != first:
            diffs = [
                name
                for name in (
                    "events",
                    "messages",
                    "decisions",
                    "timeline_hash",
                    "chain_hash",
                )
                if getattr(fp, name) != getattr(first, name)
            ]
            raise DeterminismViolation(
                f"run {i + 1} of {config.protocol!r} (seed {config.seed}) "
                f"diverged from run 1 in: {', '.join(diffs)}"
            )
    assert first is not None
    return first


def assert_no_equivocation(
    config: ExperimentConfig, instrument: Optional[Instrument] = None
) -> None:
    """Run ``config``; raise :class:`EquivocationDetected` if any two of
    its decision records conflict — also when the run then crashed, as
    a fork routinely makes a correct replica refuse the conflicting
    chain: the fork is the finding."""
    collectors = []

    def capture(sim, network, cluster) -> None:
        collectors.append(cluster.collector)
        if instrument is not None:
            instrument(sim, network, cluster)

    try:
        run_experiment(config, instrument=capture)
    finally:
        problems = find_equivocations(collectors[0]) if collectors else []
        if problems:
            raise EquivocationDetected("; ".join(problems))


__all__ = [
    "DeterminismViolation",
    "EquivocationDetected",
    "check_determinism",
    "assert_no_equivocation",
]

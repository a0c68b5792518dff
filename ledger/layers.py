"""Which layer owns a source file: one prefix table, longest match wins.

Layers are the ``src/repro`` packages.  A protocol's trusted services
live beside its replica (``*/tee_services.py``) but are TEE work, so
those files are listed by full path and win over their package prefix.
Anything under ``src/repro`` that matches no entry is ``other``; its
share is printed so that rot in this table is visible.
"""

from __future__ import annotations

import os

#: Reported for every workload, in this order.  ``other`` is last.
LAYERS = (
    "sim",
    "net",
    "crypto",
    "tee",
    "smr",
    "core",
    "protocols",
    "metrics",
    "workload",
    "shard",
    "faults",
    "fuzz",
    "analysis",
    "experiments",
    "other",
)

#: Path prefix relative to ``src/`` -> layer.
PREFIXES = {
    "repro/sim/": "sim",
    "repro/net/": "net",
    "repro/crypto/": "crypto",
    "repro/tee/": "tee",
    "repro/core/tee_services.py": "tee",
    "repro/protocols/damysus/tee_services.py": "tee",
    "repro/protocols/hotstuff/tee_services.py": "tee",
    "repro/smr/": "smr",
    "repro/core/": "core",
    "repro/protocols/": "protocols",
    "repro/metrics/": "metrics",
    "repro/workload/": "workload",
    "repro/shard/": "shard",
    "repro/faults/": "faults",
    "repro/fuzz/": "fuzz",
    "repro/analysis/": "analysis",
    "repro/experiments/": "experiments",
}

_BY_LENGTH = sorted(PREFIXES, key=len, reverse=True)


def layer_of(filename: str, src_root: str, harness_root: str) -> str | None:
    """Layer of a frame's file.

    ``None`` means the file belongs to neither the program nor the
    harness (standard library, numpy): such a frame works on behalf of
    whoever called it and is charged to the caller's layer, exactly as
    a C builtin is.  The harness's own frames are ``other``.
    """
    if filename.startswith(src_root):
        rel = filename[len(src_root):].lstrip(os.sep).replace(os.sep, "/")
        for prefix in _BY_LENGTH:
            if rel.startswith(prefix):
                return PREFIXES[prefix]
        return "other"
    if filename.startswith(harness_root):
        return "other"
    return None

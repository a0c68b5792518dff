"""Every script under ``examples/`` runs to completion.

Each example runs in its own interpreter, as a reader would run it
(``python examples/<name>.py``), with ``src/`` on the path; a non-zero
exit fails the test with the script's stderr.  An example that prints a
verdict (``kv_store``, ``fault_injection``, ``execution_types``) exits
non-zero when the verdict is false, so this also checks what it claims.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_exits_cleanly(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]

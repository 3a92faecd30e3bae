"""Every ``examples/*.py`` script runs to completion with exit status 0.

The examples drive the fabric interactively — switch FIFOs, SIF tables,
forged injections — so an internal change that breaks one shows up here
and not only when a reader runs it.  Each script runs in a fresh
interpreter with ``src`` on ``PYTHONPATH``, the way the README runs them.

Select with ``pytest -m tier2_examples``; also runs in the tier-1 suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.tier2_examples

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_exits_zero(script):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip(), "example printed nothing"

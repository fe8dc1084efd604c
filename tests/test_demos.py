"""Every demo script runs to completion against the library in src/, and
its stdout names no path of the checkout it runs in."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    # two checkouts of one commit print the same bytes
    assert str(ROOT) not in proc.stdout

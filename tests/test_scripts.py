"""Smoke runs of the demo scripts: each exits 0 without a traceback."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["scripts/ghd_spread.py", "--edges", "5", "--limit", "4"],
    ["scripts/blowup_demo.py", "--fan", "50"],
])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True, encoding="utf-8",
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr

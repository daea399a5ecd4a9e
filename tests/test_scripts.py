"""Smoke runs of the demo scripts and of the benchmark's self-check: each
exits 0 without a traceback."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT,
                          capture_output=True, text=True, encoding="utf-8",
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


@pytest.mark.parametrize("argv", [
    ["scripts/ghd_spread.py", "--edges", "5", "--limit", "4"],
    ["scripts/blowup_demo.py", "--fan", "50"],
])
def test_script_runs(argv):
    out = _run(argv).stdout
    if argv[0] == "scripts/blowup_demo.py":
        # the 50 live rows, from the staged SQL and the original on sqlite3
        assert "staged SQL (generic): 50 rows in " in out
        assert re.search(r"original query: +(50 rows in |gave up after )", out)


def test_perfbench_selfcheck():
    # the benchmark parses `yansql exec --stats` output: an engine change
    # that breaks that parsing fails here
    assert "selfcheck passed" in _run(["perfbench/selfcheck.py"]).stdout

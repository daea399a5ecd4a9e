#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark, in a few seconds.

    python3 perfbench/selfcheck.py

Every workload runs untraced and traced on tiny inputs and must print
exactly the metrics BENCHMARK.json declares, with their units, report its
own figures, and pass every correctness gate.  Each gate must also catch,
on its own, a workload corrupted in the one way it guards against, and a
copy of the benchmark without the program's sources must exit non-zero
without printing a result.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from collections import Counter

import run

SEED, SECONDS = 3, 0.2
WORK = run.HERE / ".work" / "tiny"


def require(ok: bool, what):
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


# figures that exist on one workload only and so are in the readable
# report, not the JSON result: (workload, trace) -> names
REPORTED = {
    ("skew_path", 0): ("fail_rate", "max_input_rows"),
    ("agg_fanout", 0): ("fail_rate", "sqlite_staged_s", "sqlite_original_s"),
    ("rewrite_corpus", 0): ("fail_rate", "ghd_s", "verify_per_s",
                            "depth_checks_per_s",
                            "decomposition.tree_tables_s"),
    ("skew_path", 1): ("trace.overhead_share",),
    ("agg_fanout", 1): ("trace.overhead_share", "sqlite.original_s",
                        *(f"sqlite.{st}_s" for st in run.STAGES)),
    ("rewrite_corpus", 1): ("trace.overhead_share", "engine.eval_naive_s",
                            "engine.bag_equal_s",
                            "engine.naive_to_plan_max_rows",
                            "decomposition.find_ghd_s",
                            "decomposition.ghd_to_join_tree_s",
                            "decomposition.flat_gyo_us",
                            "decomposition.is_valid_join_tree_us",
                            "decomposition.min_depth_oracle_us",
                            "decomposition.tree_tables_s"),
}


def _run(argv) -> tuple:
    """(JSON result, names in the readable report) of one run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    require(code == 0, f"{argv}: exit {code}")
    lines = buf.getvalue().strip().splitlines()
    return json.loads(lines[-1]), {line.split()[0] for line in lines[:-1]
                                   if line.startswith("  ")}


def check_metrics(spec):
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res, reported = _run(["--workload", wl["name"], "--seed",
                                  str(SEED), "--seconds", str(SECONDS),
                                  "--trace", str(trace), "--tiny"])
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            require(got == declared, (wl["name"], trace, got, declared))
            missing = set(REPORTED[wl["name"], trace]) - reported
            require(not missing, (wl["name"], trace, "not reported", missing))
            require(res["correct"] and res["failed"] == 0, res)
            require(res["attempted"] >= 1, res)
            for m, v in res["metrics"].items():
                require(isinstance(v["value"], (int, float)), (m, v))
                if key == "end_to_end":
                    require(v["value"] > 0, (wl["name"], m, v))
            print(f"ok   {wl['name']:15s} trace={trace} "
                  f"{len(got)} metrics, {res['attempted']} checks")


def _failures_with(name, corrupt) -> list:
    """Failed checks of one pass after `corrupt` edits the workload."""
    from workloads import TINY, WORKLOADS, Pass, fresh_dir

    wl = WORKLOADS[name](TINY, SEED, fresh_dir(WORK / name))
    try:
        wl.reset()
        wl.setup()
        wl.prepare()
        corrupt(wl)
        p = Pass()
        wl.run_pass(p)
    finally:
        wl.close()
    return p.failures


def _drop_one(expected):
    line = next(iter(expected.lines))
    expected.lines = expected.lines - Counter([line])


def _cyclic(wl):
    from yansql.hypergraph import Hypergraph

    wl.depth[0] = Hypergraph({"r": {"a", "b"}, "s": {"b", "c"},
                              "t": {"c", "a"}})


def _other_plan(wl):
    wl.ghd_plans[0] = "a different plan"


def _missing_db(wl):
    wl.verify[0] = (wl.dir / "missing", wl.verify[0][1])


def _set(obj, attr, key, value):
    setattr(obj, attr, {**getattr(obj, attr), key: value})


# (workload, what is wrong, how to make it wrong, the one check that must
# catch it: every failure message starts with this)
GATE_CASES = [
    ("skew_path", "exec rows differ from the closed form",
     lambda wl: _drop_one(wl.ref), "exec "),
    ("skew_path", "an intermediate larger than the largest input",
     lambda wl: setattr(wl, "max_input", 1), "max intermediate"),
    ("skew_path", "rewrite output differs from the library",
     lambda wl: wl.rewrites.update(
         {k: v + "x" for k, v in wl.rewrites.items()}), "rewrite "),
    ("agg_fanout", "exec runs another query than the reference's",
     lambda wl: _set(wl, "sql_paths", "count", wl.sql_paths["sum"]),
     "exec "),
    ("agg_fanout", "staged sqlite runs another query's plan",
     lambda wl: _set(wl, "staged", "count", wl.staged["sum"]),
     "staged sqlite"),
    ("agg_fanout", "original sqlite runs another query",
     lambda wl: _set(wl, "QUERIES", "count", wl.QUERIES["sum"]),
     "original sqlite"),
    ("rewrite_corpus", "depth check on a cyclic hypergraph", _cyclic,
     "depth"),
    ("rewrite_corpus", "GHD plan differs from the reference", _other_plan,
     "ghd"),
    ("rewrite_corpus", "compare on a missing database", _missing_db,
     "compare"),
]


def check_gates():
    for name, what, corrupt, check in GATE_CASES:
        failures = _failures_with(name, corrupt)
        require(failures and all(f.startswith(check) for f in failures),
                f"{name}: '{what}' should fail only '{check}': {failures}")
        print(f"ok   {name:15s} '{check}' catches: {what} "
              f"({len(failures)} failed)")


def check_bare_copy():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "skew_path",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    require(proc.returncode != 0 and not proc.stdout.strip(), proc)
    print(f"ok   without src/ the benchmark exits {proc.returncode}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metrics(spec)
    check_gates()
    check_bare_copy()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

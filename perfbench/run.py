#!/usr/bin/env python3
"""yansql benchmark: one workload per run, in one process and one thread.

    python3 perfbench/run.py --workload skew_path --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With `--workload all` each workload runs in a child process of its own,
one after another, so each reports its own peak memory.  Run from anywhere; the program is imported from src/ next to this
directory.  Inputs are generated from --seed under perfbench/.work/.  The
last line of standard output is one JSON object: with --trace 0 the
end-to-end metrics, measured with nothing wrapped; with --trace 1 the
per-layer metrics, from passes that alternate between traced and
untraced, so the tracing overhead is measured in the same run.  The lines
before it are a readable report, and the traced run also writes its spans
and a per-layer self-time table under perfbench/.work/full/trace/.

Exit code 0 means the run finished (read "correct" for the verdict); 2
means the program could not be found or imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("skew_path", "agg_fanout", "rewrite_corpus")

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "exec_s": "s",
    "compile_ms_p50": "ms",
    "compile_ms_p95": "ms",
    "max_intermediate_rows": "rows",
    "peak_rss_mb": "MB",
}

STAGES = ("SETUP", "SEMIJOIN_UP", "SEMIJOIN_DOWN", "JOIN", "FINALIZE")

# rewrite-op layer figures: per `yansql rewrite` call, the self time of
# these spans added up
COMPILE_LAYERS = {
    "sql_frontend.parse_ms": ("sql_frontend.parse_query",
                              "sql_frontend.extract_cq"),
    "hypergraph.build_ms": ("hypergraph.build_hypergraph",
                            "hypergraph.components"),
    "decomposition.flat_gyo_ms": ("decomposition.flat_gyo",),
    "classification.classify_ms": ("classification.normalize_aggregation",
                                   "classification.classify_0ma"),
    "plan_builder.build_plan_ms": ("plan_builder.build_plan",
                                   "plan_builder.covering_subtree",
                                   "plan_builder.select_root"),
    "sql_emitter.emit_ms": ("sql_emitter.emit_plan",),
}

PER_LAYER = {
    "cli.self_s": "s",
    "pipeline.compile_sql_s": "s",
    "engine.load_csv_s": "s",
    "engine.eval_plan_s": "s",
    **{f"engine.{st}_s": "s" for st in STAGES},
    **{f"engine.{st}_rows": "rows" for st in STAGES},
    "engine.reducer_survival": "ratio",
    "engine.join_rows_per_output_row": "ratio",
    **{f"{name}_p50": "ms" for name in COMPILE_LAYERS},
    "plan_builder.build_plan_ms_p95": "ms",
    "sql_emitter.statements": "count",
    "sql_emitter.script_bytes": "bytes",
    "trace.overhead_s": "s",
}

# operations whose spans count towards the engine-side figures
EXEC_OPS = ("exec", "compare")


def _median(values):
    return statistics.median(values) if values else 0.0


def _quantile(values, q: int):
    """q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


# ---------------------------------------------------------------------------
# Tracing targets: public functions, at the attribute their callers use
# ---------------------------------------------------------------------------

def _eval_attrs(args, kwargs, result):
    from yansql.plan_builder import StageKind

    plan, rows = args[0], result.stats.statement_rows

    def stage_rows(kind):
        return sum(rows.get(s.name, 0) for s in plan.stage(kind))

    return {
        "stage_micros": dict(result.stats.stage_micros),
        "stage_max_rows": dict(result.stats.stage_max_rows),
        "setup_rows": stage_rows(StageKind.SETUP),
        "reduced_rows": sum(rows.get(h, 0)
                            for h in plan.node_relations.values()),
        "join_rows": stage_rows(StageKind.JOIN),
        "output_rows": result.relation.cardinality(),
    }


def _emit_attrs(args, kwargs, result):
    return {"statements": len(result),
            "bytes": sum(len(s) + 2 for s in result)}


def _compare_attrs(args, kwargs, result):
    return {"naive_max": result.naive_max_intermediate,
            "plan_max": result.plan_max_intermediate}


def trace_targets():
    from yansql import (classification, cli, decomposition, pipeline,
                        plan_builder)

    return [
        (cli, "main", "cli.main", None),
        (cli, "compile_sql", "pipeline.compile_sql", None),
        (pipeline, "compile_sql", "pipeline.compile_sql", None),
        (cli, "load_csv", "engine.load_csv", None),
        (cli, "eval_plan", "engine.eval_plan", _eval_attrs),
        (cli, "emit_plan", "sql_emitter.emit_plan", _emit_attrs),
        (pipeline, "compare_on_db", "pipeline.compare_on_db",
         _compare_attrs),
        (pipeline, "parse_query", "sql_frontend.parse_query", None),
        (pipeline, "extract_cq", "sql_frontend.extract_cq", None),
        (pipeline, "build_hypergraph", "hypergraph.build_hypergraph", None),
        (pipeline, "components", "hypergraph.components", None),
        (pipeline, "flat_gyo", "decomposition.flat_gyo", None),
        (pipeline, "find_ghd", "decomposition.find_ghd", None),
        (pipeline, "ghd_to_join_tree", "decomposition.ghd_to_join_tree",
         None),
        (pipeline, "select_root", "plan_builder.select_root", None),
        (pipeline, "eval_naive_traced", "engine.eval_naive", None),
        (pipeline, "eval_plan", "engine.eval_plan", _eval_attrs),
        (pipeline, "bag_equal", "engine.bag_equal", None),
        (classification, "normalize_aggregation",
         "classification.normalize_aggregation", None),
        (classification, "classify_0ma", "classification.classify_0ma",
         None),
        (plan_builder, "build_plan", "plan_builder.build_plan", None),
        (plan_builder, "covering_subtree", "plan_builder.covering_subtree",
         None),
        (decomposition, "flat_gyo", "decomposition.flat_gyo", None),
        (decomposition, "is_valid_join_tree",
         "decomposition.is_valid_join_tree", None),
        (decomposition, "min_depth_oracle",
         "decomposition.min_depth_oracle", None),
    ]


# ---------------------------------------------------------------------------
# Running one workload
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, sizes, work_root):
    """Set up, then run passes, each followed by set-ups, until `seconds`
    are spent; returns the workload, its set-up times, the passes as
    (Pass, traced) and the tracer (None when untraced)."""
    from tracing import Tracer
    from workloads import WORKLOADS, Pass, fresh_dir

    wl = WORKLOADS[name](sizes, seed, fresh_dir(work_root / name))
    setups = []

    def set_up():
        # emptying the work directories and collecting the previous
        # set-up's garbage are not set-up work
        wl.reset()
        gc.collect()
        started = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - started)
        return setups[-1]

    try:
        set_up()
        wl.prepare()
        tracer = Tracer() if trace else None
        targets = trace_targets() if trace else []
        passes = []
        deadline = time.perf_counter() + seconds
        while len(passes) < (2 if trace else 1) \
                or time.perf_counter() < deadline:
            traced = bool(trace) and len(passes) % 2 == 0
            p = Pass(tracer if traced else None)
            if traced:
                tracer.pass_no = len(passes)
                tracer.install(targets)
            try:
                wl.run_pass(p)
            finally:
                if traced:
                    tracer.uninstall()
            passes.append((p, traced))
            # set-up again: the same seed gives the same inputs, so the
            # passes that follow see no change.  `seconds` counts passes only
            budget = sizes.setup_share * p.total(wl.pass_kinds)
            started = time.perf_counter()
            spent = set_up()
            while spent < budget:
                spent += set_up()
            deadline += time.perf_counter() - started
    finally:
        wl.close()
    return wl, setups, passes, tracer


def end_to_end(wl, setups, passes) -> dict:
    runs = [p for p, _ in passes]
    compile_ms = [s * 1000 for p in runs for s in p.seconds["rewrite"]]
    return {
        "setup_s": _median(setups),
        "pass_s": _median([p.total(wl.pass_kinds) for p in runs]),
        "exec_s": _median([p.total(wl.exec_kinds) for p in runs]),
        "compile_ms_p50": _median(compile_ms),
        "compile_ms_p95": _quantile(compile_ms, 95),
        "max_intermediate_rows": max(p.max_rows for p in runs),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def workload_report(wl, passes) -> dict:
    """The workload's own figures: name -> (value, unit)."""
    runs = [p for p, _ in passes]

    def per_pass(kind):
        return _median([p.total((kind,)) for p in runs])

    def rate(kind):
        return _median([len(p.seconds[kind]) / p.total((kind,))
                        for p in runs if p.total((kind,))])

    out = {}
    if wl.name == "agg_fanout":
        staged, original = per_pass("sqlite"), per_pass("original")
        out["sqlite_staged_s"] = (staged, "s")
        out["sqlite_original_s"] = (original, "s")
        out["sqlite_staged_per_original"] = (staged / original, "ratio")
        out["input_rows"] = (wl.input_rows, "rows")
        for q, mode in wl.modes.items():
            out[f"mode.{q}"] = (mode, "")
    if wl.name == "rewrite_corpus":
        out["ghd_s"] = (per_pass("ghd"), "s")
        out["verify_per_s"] = (rate("compare"), "1/s")
        out["depth_checks_per_s"] = (rate("depth"), "1/s")
        out["naive_max_intermediate_rows"] = (
            max(p.naive_max_rows for p in runs), "rows")
        out["decomposition.tree_tables_s"] = (wl.tree_tables_s, "s")
    if wl.name == "skew_path":
        out["max_input_rows"] = (wl.max_input, "rows")
    out["passes"] = (len(runs), "count")
    return out


def per_layer(tracer, passes, wl) -> tuple:
    """(JSON per-layer metrics, further workload-specific figures,
    per-span self-time table rows)."""
    selfs = tracer.self_seconds()
    kinds = tracer.op_kinds()
    traced = [i for i, (_, t) in enumerate(passes) if t]
    acc = {i: defaultdict(float) for i in traced}
    compile_ops = {metric: defaultdict(float) for metric in COMPILE_LAYERS}
    depth_calls = defaultdict(list)
    by_name = defaultdict(lambda: [0, 0.0])
    for s in tracer.spans:
        a, kind = acc[s.pass_no], kinds.get(s.op)
        by_name[s.name][0] += 1
        by_name[s.name][1] += selfs[s.span_id]
        if s.name == "cli.main":
            a["cli.self_s"] += selfs[s.span_id]
        elif s.name.startswith("sqlite."):
            a[f"{s.name}_s"] += s.seconds
        elif s.name == "sql_emitter.emit_plan" and s.attrs:
            a["sql_emitter.statements"] += s.attrs["statements"]
            a["sql_emitter.script_bytes"] += s.attrs["bytes"]
        if kind == "rewrite":
            for metric, names in COMPILE_LAYERS.items():
                if s.name in names:
                    compile_ops[metric][s.op] += selfs[s.span_id] * 1000
        elif kind == "depth" and s.name.startswith("decomposition."):
            depth_calls[s.name].append(s.seconds * 1e6)
        elif kind == "ghd" and s.name in ("decomposition.find_ghd",
                                          "decomposition.ghd_to_join_tree"):
            a[f"{s.name}_s"] += s.seconds
        elif kind in EXEC_OPS:
            if s.name in ("pipeline.compile_sql", "engine.load_csv",
                          "engine.eval_naive", "engine.bag_equal"):
                a[f"{s.name}_s"] += s.seconds
            elif s.name == "engine.eval_plan":
                a["engine.eval_plan_s"] += s.seconds
                for st in STAGES:
                    a[f"engine.{st}_s"] += \
                        s.attrs["stage_micros"].get(st, 0) / 1e6
                    a[f"engine.{st}_rows"] = max(
                        a[f"engine.{st}_rows"],
                        s.attrs["stage_max_rows"].get(st, 0))
                for key in ("setup_rows", "reduced_rows", "join_rows",
                            "output_rows"):
                    a[key] += s.attrs[key]
            elif s.name == "pipeline.compare_on_db" and s.attrs:
                a["naive_max"] += s.attrs["naive_max"]
                a["plan_max"] += s.attrs["plan_max"]
    for a in acc.values():
        a["engine.reducer_survival"] = \
            a["reduced_rows"] / a["setup_rows"] if a["setup_rows"] else 0.0
        a["engine.join_rows_per_output_row"] = \
            a["join_rows"] / a["output_rows"] if a["output_rows"] else 0.0

    def over_passes(metric):
        values = [acc[i][metric] for i in traced]
        return max(values) if metric.endswith("_rows") else _median(values)

    pass_s = {t: _median([p.total(wl.pass_kinds)
                          for p, tr in passes if tr == t])
              for t in (True, False)}
    metrics = {m: over_passes(m) for m in PER_LAYER
               if not m.endswith(("_p50", "_p95", "overhead_s"))}
    for metric, per_op in compile_ops.items():
        metrics[f"{metric}_p50"] = _median(list(per_op.values()))
    metrics["plan_builder.build_plan_ms_p95"] = _quantile(
        list(compile_ops["plan_builder.build_plan_ms"].values()), 95)
    metrics["trace.overhead_s"] = pass_s[True] - pass_s[False]

    extra = {"trace.overhead_share": (
        metrics["trace.overhead_s"] / pass_s[False], "ratio")}
    seen = set().union(*(acc[i].keys() for i in traced))
    for m in ("engine.eval_naive_s", "engine.bag_equal_s",
              "decomposition.find_ghd_s", "decomposition.ghd_to_join_tree_s",
              *(f"sqlite.{st}_s" for st in STAGES)):
        if m in seen:
            extra[m] = (over_passes(m), "s")
    if "plan_max" in seen:
        naive, plan = over_passes("naive_max"), over_passes("plan_max")
        extra["engine.naive_to_plan_max_rows"] = (
            naive / plan, f"ratio of {naive:.0f} to {plan:.0f} rows")
    for name, calls in depth_calls.items():
        extra[f"{name}_us"] = (_median(calls), "us")
    if wl.name == "rewrite_corpus":
        # timed in set-up, where nothing is traced
        extra["decomposition.tree_tables_s"] = (wl.tree_tables_s, "s")
    if passes[0][0].seconds.get("original"):
        extra["sqlite.original_s"] = (_median(
            [p.total(("original",)) for p, tr in passes if tr]), "s")

    n = len(traced)
    table = sorted(((name, calls / n, total / n, total / n / pass_s[True])
                    for name, (calls, total) in by_name.items()),
                   key=lambda row: -row[2])
    return metrics, extra, table


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_one(name, seed, seconds, trace, sizes, work_root) -> dict:
    wl, setups, passes, tracer = run_workload(name, seed, seconds, trace,
                                              sizes, work_root)
    attempted = sum(p.attempted for p, _ in passes)
    failures = [f for p, _ in passes for f in p.failures]
    for line in failures[:20]:
        sys.stderr.write(f"check failed: {line}\n")
    print(f"# {name} seed={seed} trace={trace} "
          f"passes={len(passes)} seconds={seconds}")
    if trace:
        metrics, extra, table = per_layer(tracer, passes, wl)
        units = PER_LAYER
        out_dir = work_root / "trace" / f"{name}-seed{seed}"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(out_dir / "spans.jsonl")
        with open(out_dir / "layers.tsv", "w", encoding="utf-8") as fh:
            fh.write("span\tcalls_per_pass\tself_s_per_pass\tshare\n")
            for row in table:
                fh.write("\t".join(_fmt(v) for v in row) + "\n")
        report = {**{m: (v, units[m]) for m, v in metrics.items()}, **extra}
        (out_dir / "summary.json").write_text(json.dumps(
            {m: {"value": v, "unit": u} for m, (v, u) in report.items()},
            indent=1) + "\n", encoding="utf-8")
        print("# self time per traced pass, by span")
        for span, calls, self_s, share in table:
            print(f"  {span:40s} {calls:10.1f} calls {self_s:10.4f} s "
                  f"{100 * share:6.2f} %")
        print(f"# spans and tables written to {out_dir}")
    else:
        metrics = end_to_end(wl, setups, passes)
        units = END_TO_END
        report = {**{m: (v, units[m]) for m, v in metrics.items()},
                  **workload_report(wl, passes)}
        report["setups"] = (len(setups), "count")
        report["fail_rate"] = (len(failures) / attempted,
                               f"{len(failures)}/{attempted} failed")
    for metric, (value, unit) in report.items():
        print(f"  {metric:40s} {_fmt(value):>14s} {unit}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's self-check")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "yansql" / "__init__.py").is_file():
        sys.stderr.write(f"error: no yansql sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import yansql: {exc}\n")
        return 2
    if args.workload == "all":
        code = 0
        for name in WORKLOAD_NAMES:
            child = [sys.executable, __file__, "--workload", name,
                     "--seed", str(args.seed), "--seconds", str(args.seconds),
                     "--trace", str(args.trace)] + (["--tiny"] * args.tiny)
            sys.stdout.flush()
            code = max(code, subprocess.run(child).returncode)
        return code
    sizes = workloads.TINY if args.tiny else workloads.FULL
    result = run_one(args.workload, args.seed, args.seconds, args.trace,
                     sizes, HERE / ".work" / ("tiny" if args.tiny else "full"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

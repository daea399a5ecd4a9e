"""Command-line driver: analyze, rewrite, exec, ghd, compare.

Exit codes: 0 success, 1 verification failure (compare found a mismatch),
2 input error (bad SQL, missing files, infeasible options).

The argument parser is built once per process, on the first `main` call,
and reused: parsing does not change it, so `main` is reentrant.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import pipeline
from .decomposition import (CyclicReport, enumerate_ghds, flat_gyo,
                            ghd_from_json, ghd_to_json, validate_ghd)
from .engine import IoError, Relation, eval_plan, load_csv
from .errors import YansqlError
from .hypergraph import build_hypergraph, components
from .pipeline import CyclicQuery, compile_sql
from .sql_emitter import get_dialect, emit_plan


def _read_text(path: str) -> str:
    """UTF-8 text of a file, or of stdin for "-"; IoError if it is not."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        name = "<stdin>" if path == "-" else path
        raise IoError(f"{name}: not UTF-8 text: {exc.reason}") from exc


def _load_db(cfg: argparse.Namespace, cq) -> dict:
    db = {}
    base = Path(cfg.db_dir)
    for atom in cq.atoms:
        if atom.relation in db:
            continue
        db[atom.relation] = load_csv(base / f"{atom.relation}.csv")
    return db


def _print_relation(rel: Relation, fmt: str, out):
    sep, null = ("\t", "") if fmt == "tsv" else (" | ", "NULL")
    rows = rel.expanded()
    try:  # all-string rows join in C
        lines = list(map(sep.join, rows))
    except TypeError:
        lines = [sep.join(null if v is None else str(v) for v in row)
                 for row in rows]
    lines.insert(0, sep.join(rel.schema))
    if fmt != "tsv":
        lines.append(f"({len(rows)} row(s))")
    out.write("\n".join(lines) + "\n")


def _print_stats(stats, out):
    out.write("statement\trows\tmicros\n")
    out.write(stats.to_text() + "\n")
    if stats.skipped_stages:
        out.write("skipped: " + " ".join(stats.skipped_stages) + "\n")


def _compile(cfg: argparse.Namespace):
    sql = _read_text(cfg.sql_path)
    ghd = None
    if cfg.ghd_path:
        ghd = ghd_from_json(_read_text(cfg.ghd_path))
    return compile_sql(
        sql,
        mode=cfg.mode,
        join_group_cap=cfg.join_group_cap,
        ghd_width=cfg.ghd_width,
        ghd=ghd,
        root_override=cfg.root,
        seed=cfg.seed,
    )


def cmd_analyze(cfg: argparse.Namespace, out) -> int:
    sql = _read_text(cfg.sql_path)
    from .classification import classify_0ma, normalize_aggregation
    from .sql_frontend import extract_cq, parse_query

    cq = extract_cq(parse_query(sql))
    h = build_hypergraph(cq)
    out.write("hypergraph:\n")
    out.write(h.dump() + "\n")
    for comp in components(h):
        result = flat_gyo(comp)
        if isinstance(result, CyclicReport):
            out.write("join tree: none (cyclic)\n")
            out.write("residual hypergraph:\n")
            out.write(result.residual.dump() + "\n")
            out.write("hint: rerun rewrite/exec with --ghd-width 2\n")
        else:
            out.write("join tree:\n")
            out.write(result.pretty() + "\n")
    report = classify_0ma(normalize_aggregation(cq))
    out.write(report.to_text() + "\n")
    if cq.statically_empty:
        out.write("statically empty: contradictory constant selections\n")
    return 0


def cmd_rewrite(cfg: argparse.Namespace, out) -> int:
    compiled = _compile(cfg)
    dialect = get_dialect(cfg.dialect)
    if cfg.semijoin_style:
        style = {"rowin": "RowIn", "exists": "Exists"}[cfg.semijoin_style]
        dialect = dialect.with_style(style, forced=True)
    for warning in compiled.warnings:
        sys.stderr.write(f"warning: {warning}\n")
    for stmt in emit_plan(compiled.plan, dialect, prefix=cfg.prefix,
                          with_cleanup=cfg.with_cleanup):
        out.write(stmt + ";\n")
    return 0


def cmd_exec(cfg: argparse.Namespace, out) -> int:
    compiled = _compile(cfg)
    db = _load_db(cfg, compiled.cq)
    result = eval_plan(compiled.plan, db)
    _print_relation(result.relation, cfg.format, out)
    if cfg.stats:
        _print_stats(result.stats, out)
    return 0


def cmd_ghd(cfg: argparse.Namespace, out) -> int:
    sql = _read_text(cfg.sql_path)
    from .sql_frontend import extract_cq, parse_query

    cq = extract_cq(parse_query(sql))
    h = build_hypergraph(cq)
    if cfg.ghd_path:
        ghd = ghd_from_json(_read_text(cfg.ghd_path))
        ok = validate_ghd(h, ghd)
        out.write(f"valid: {'yes' if ok else 'no'} (width {ghd.width})\n")
        return 0 if ok else 2
    if cfg.width is None:
        sys.stderr.write("error: ghd needs --width or --ghd-file\n")
        return 2
    width = cfg.width
    limit = cfg.enumerate if cfg.enumerate is not None else 1
    if limit < 1:
        sys.stderr.write(f"error: --enumerate must be at least 1, "
                         f"got {limit}\n")
        return 2
    found = enumerate_ghds(h, width, limit=limit, seed=cfg.seed)
    if not found:
        out.write(f"no decomposition of width {width}\n")
        return 2
    for i, ghd in enumerate(found):
        if i:
            out.write("\n")
        out.write(ghd_to_json(ghd) + "\n")
    return 0


def cmd_compare(cfg: argparse.Namespace, out) -> int:
    compiled = _compile(cfg)
    db = _load_db(cfg, compiled.cq)
    cmp = pipeline.compare_on_db(compiled, db)
    out.write(f"bag-equal: {'true' if cmp.equal else 'false'}\n")
    out.write(f"naive max intermediate: {cmp.naive_max_intermediate}\n")
    out.write(f"plan max intermediate: {cmp.plan_max_intermediate}\n")
    if cfg.stats:
        _print_stats(cmp.plan_result.stats, out)
    return 0 if cmp.equal else 1


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="yansql",
        description="Rewrite SQL join queries into staged semi-join plans "
                    "and verify them against a brute-force oracle.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, db=False):
        p.add_argument("sql_path", help="SQL file, or - for stdin")
        p.add_argument("--mode", choices=["auto", "fullenum", "zeroma", "partial"],
                       default="auto")
        p.add_argument("--join-group-cap", type=int, default=12)
        p.add_argument("--ghd-width", type=int, default=None)
        p.add_argument("--ghd-file", dest="ghd_path", default=None)
        p.add_argument("--root", default=None,
                       help="override the join-tree root (for 0MA: a guard)")
        p.add_argument("--seed", type=int, default=None)
        if db:
            p.add_argument("--db", dest="db_dir", required=True,
                           help="directory with <relation>.csv files")
            p.add_argument("--stats", action="store_true")
            p.add_argument("--format", choices=["text", "tsv"], default="text")

    p = sub.add_parser("analyze", help="hypergraph, join tree, 0MA report")
    p.add_argument("sql_path")

    p = sub.add_parser("rewrite", help="emit the rewritten SQL statements")
    common(p)
    p.add_argument("--dialect", choices=["postgres", "duckdb", "spark", "generic"],
                   default="postgres")
    p.add_argument("--semijoin-style", choices=["rowin", "exists"], default=None)
    p.add_argument("--prefix", default="")
    p.add_argument("--with-cleanup", action="store_true")

    p = sub.add_parser("exec", help="run the plan on a CSV database")
    common(p, db=True)

    p = sub.add_parser("ghd", help="find, enumerate, or validate decompositions")
    p.add_argument("sql_path")
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--enumerate", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--ghd-file", dest="ghd_path", default=None)

    p = sub.add_parser("compare", help="plan vs brute-force oracle")
    common(p, db=True)

    return ap


_COMMANDS = {
    "analyze": cmd_analyze,
    "rewrite": cmd_rewrite,
    "exec": cmd_exec,
    "ghd": cmd_ghd,
    "compare": cmd_compare,
}


def run(config: argparse.Namespace, out=None) -> int:
    """Execute one parsed command; 0 ok, 1 verification failure, 2 input error."""
    out = out or sys.stdout
    try:
        return _COMMANDS[config.command](config, out)
    except CyclicQuery as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except YansqlError as exc:
        sys.stderr.write(f"error: {exc.__class__.__name__}: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


_parser = functools.cache(build_arg_parser)


def main(argv=None, out=None) -> int:
    return run(_parser().parse_args(argv), out)


if __name__ == "__main__":
    sys.exit(main())

"""Desk-scale demonstration of intermediate-result blow-up.

Builds a 3-relation path query over skewed data (hub values fanning out)
and contrasts the naive declaration-order join pipeline with the staged
semi-join plan.  The naive plan materializes the full hub cross product
before the third relation kills it; the staged plan never grows past the
input size.  Then it times the staged SQL (generic dialect) and the
original query on in-memory sqlite3, giving up on either after 10 s.

    python scripts/blowup_demo.py --fan 100
"""

import argparse
import sqlite3
import time

from yansql.engine import Relation, eval_naive_traced, eval_plan
from yansql.pipeline import compile_cq
from yansql.sql_emitter import GENERIC, emit_plan
from yansql.sql_frontend import extract_cq, parse_query
from yansql.testing import sqlite_database, sqlite_rows

SQL = ("SELECT r.a, r.b, s.c, t.d FROM r, s, t "
       "WHERE r.b = s.b AND s.c = t.c")
SQLITE_BUDGET_S = 10


def build_db(fan: int) -> dict:
    return {
        "r": Relation.from_rows(
            ("a", "b"),
            [(f"r{i}", "hub_b") for i in range(fan)] + [("r_live", "live_b")]),
        "s": Relation.from_rows(
            ("b", "c"),
            [("hub_b", f"dead{i}") for i in range(fan)]
            + [("live_b", "hub_c")]),
        "t": Relation.from_rows(
            ("c", "d"), [("hub_c", f"t{i}") for i in range(fan)]),
    }


def time_on_sqlite(db: dict, statements) -> str:
    """Rows and seconds of the statements on a fresh in-memory sqlite3
    database, cut off after SQLITE_BUDGET_S."""
    con = sqlite_database(db)
    deadline = time.perf_counter() + SQLITE_BUDGET_S
    con.set_progress_handler(lambda: time.perf_counter() > deadline, 10_000)
    start = time.perf_counter()
    try:
        rows = sqlite_rows(con, statements)
        return f"{len(rows)} rows in {time.perf_counter() - start:.3f} s"
    except sqlite3.OperationalError as exc:
        if str(exc) != "interrupted":
            raise
        return f"gave up after {SQLITE_BUDGET_S} s"
    finally:
        con.close()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fan", type=int, default=100,
                    help="hub fan-out per relation")
    args = ap.parse_args()

    cq = extract_cq(parse_query(SQL))
    db = build_db(args.fan)
    max_input = max(rel.cardinality() for rel in db.values())

    naive_rel, naive_stats = eval_naive_traced(cq, db)
    compiled = compile_cq(cq, mode="fullenum")
    res = eval_plan(compiled.plan, db)

    print(f"inputs: " + ", ".join(
        f"{name}={rel.cardinality()}" for name, rel in sorted(db.items())))
    print(f"output rows: {naive_rel.cardinality()}")
    print()
    print("naive join steps (declaration order):")
    for i, rows in enumerate(naive_stats.step_rows, start=1):
        print(f"  after atom {i}: {rows} rows")
    print()
    print("staged plan statements:")
    for name, rows in res.stats.statement_rows.items():
        micros = res.stats.statement_micros[name]
        print(f"  {name}\t{rows} rows\t{micros} us")
    print()
    gap = naive_stats.max_intermediate / max(res.stats.max_intermediate(), 1)
    print(f"naive max intermediate: {naive_stats.max_intermediate}")
    print(f"plan  max intermediate: {res.stats.max_intermediate()} "
          f"(max input {max_input})")
    print(f"blow-up factor avoided: {gap:.1f}x")
    print()
    print("sqlite3, in memory:")
    print(f"  staged SQL (generic): "
          f"{time_on_sqlite(db, emit_plan(compiled.plan, GENERIC))}")
    print(f"  original query:       {time_on_sqlite(db, [SQL])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

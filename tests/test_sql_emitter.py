import os
from pathlib import Path

import pytest

from yansql.classification import normalize_aggregation
from yansql.decomposition import JoinTree, base_atom
from yansql.hypergraph import build_hypergraph
from yansql.plan_builder import (BaseScan, Finalize, Mode, NaturalJoin,
                                 OutputColumn, PlanStatement, SemiJoin,
                                 SemiJoinFilter, StageKind, StagePlan,
                                 build_plan)
from yansql.sql_emitter import (DUCKDB, GENERIC, POSTGRES, SPARK, EmitError,
                                UnsupportedInDialect, _handle_columns,
                                emit_plan, emit_script)
from yansql.sql_frontend import extract_cq, parse_query

from conftest import UNIVERSITY_SQL

GOLDEN_DIR = Path(__file__).parent / "golden"


def university_plan():
    cq = extract_cq(parse_query(UNIVERSITY_SQL))
    h = build_hypergraph(cq)
    nodes = ("enrolled", "exams", "courses", "tutors")
    tree = JoinTree(
        "enrolled",
        {"exams": "enrolled", "courses": "exams", "tutors": "exams"},
        {n: base_atom(n) for n in nodes},
        {n: h.edges[n] for n in nodes},
    )
    return build_plan(tree, normalize_aggregation(cq), Mode.FULL_ENUM)


GOLDEN_CASES = {
    "university_postgres_rowin.sql": (POSTGRES, "RowIn"),
    "university_postgres_exists.sql": (POSTGRES, "Exists"),
    "university_duckdb_rowin.sql": (DUCKDB, "RowIn"),
    "university_duckdb_exists.sql": (DUCKDB, "Exists"),
    "university_spark.sql": (SPARK, "Exists"),
}


def check_golden(name: str, text: str):
    path = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDENS"):
        path.write_text(text, encoding="utf-8")
    assert path.exists(), f"golden {name} missing; run with UPDATE_GOLDENS=1"
    assert text == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_university_goldens(name):
    dialect, style = GOLDEN_CASES[name]
    plan = university_plan()
    text = emit_script(plan, dialect.with_style(style, forced=True))
    check_golden(name, text)


def test_golden_contains_literal_shapes():
    plan = university_plan()
    rowin = emit_script(plan, POSTGRES.with_style("RowIn", forced=True))
    assert ("CREATE VIEW courses_setup AS SELECT cid FROM courses "
            "WHERE faculty='ComputerScience'") in rowin
    assert "cid IN (SELECT cid FROM courses_setup)" in rowin
    assert "(cid, student) IN (SELECT cid, student FROM tutors_setup)" in rowin
    # the exams semi-join temp references both child handles in one statement
    exams_stmt = next(s for s in rowin.splitlines() if "exams_sjup AS" in s)
    assert "courses_setup" in exams_stmt and "tutors_setup" in exams_stmt


def test_spark_emits_views_only():
    plan = university_plan()
    statements = emit_plan(plan, SPARK)
    assert all(s.startswith("CREATE OR REPLACE TEMP VIEW")
               for s in statements[:-1])
    assert statements[-1].startswith("SELECT ")
    assert "CREATE TEMP TABLE" not in "\n".join(statements)


def test_plan_ir_golden():
    check_golden("university_plan_ir.txt", university_plan().pretty() + "\n")


def test_rowin_and_exists_come_from_one_plan():
    plan = university_plan()
    rowin = emit_plan(plan, POSTGRES.with_style("RowIn", forced=True))
    exists = emit_plan(plan, POSTGRES.with_style("Exists"))
    assert rowin != exists
    assert len(rowin) == len(exists)
    # same underlying IR: names and creation kinds line up one to one
    assert [s.split(" AS ")[0] for s in rowin[:-1]] == \
        [s.split(" AS ")[0] for s in exists[:-1]]


def test_reemission_byte_identical():
    plan = university_plan()
    assert emit_script(plan, POSTGRES) == emit_script(plan, POSTGRES)
    assert emit_script(plan, SPARK) == emit_script(plan, SPARK)


def test_statement_order_defines_before_use():
    plan = university_plan()
    statements = emit_plan(plan, POSTGRES)
    names = {stmt.name for stmt in plan.statements() if stmt.kind != "select"}
    defined = set()
    for s in statements:
        created = s.split(" AS ")[0].split()[-1] \
            if s.startswith("CREATE") else None
        referenced = {n for n in names
                      if n != created and f" {n}" in s}
        assert referenced <= defined, f"used before definition in: {s}"
        if created:
            defined.add(created)


def test_prefix_applies_to_created_objects_only():
    plan = university_plan()
    statements = emit_plan(plan, POSTGRES, prefix="tmp42")
    joined = "\n".join(statements)
    assert "tmp42_exams_sjup" in joined
    assert "FROM exams" in joined  # base table names untouched
    assert "tmp42_exams " not in joined
    assert "CREATE VIEW tmp42_courses_setup AS SELECT cid FROM courses" \
        in joined


def test_with_cleanup_drops_in_reverse_order():
    plan = university_plan()
    statements = emit_plan(plan, POSTGRES, with_cleanup=True)
    drops = [s for s in statements if s.startswith("DROP")]
    assert drops[0] == "DROP TABLE IF EXISTS group1_join"
    assert drops[-1] == "DROP VIEW IF EXISTS courses_setup"


def test_forced_rowin_fails_on_generic_multicolumn():
    plan = university_plan()
    with pytest.raises(UnsupportedInDialect):
        emit_plan(plan, GENERIC.with_style("RowIn", forced=True))
    # unforced falls back to EXISTS for the multi-column case only; that
    # is the generic default, while the other dialects default to EXISTS
    relaxed = emit_plan(plan, GENERIC.with_style("RowIn", forced=False))
    assert emit_plan(plan, GENERIC) == relaxed
    joined = "\n".join(relaxed)
    assert "cid IN (SELECT cid FROM courses_setup)" in joined
    assert "EXISTS (SELECT 1 FROM tutors_setup" in joined
    for dialect in (POSTGRES, DUCKDB, SPARK):
        default = "\n".join(emit_plan(plan, dialect))
        assert " IN (" not in default
        assert "EXISTS (SELECT 1 FROM courses_setup" in default


def test_zeroma_emission_has_distinct_subquery(ex1_cq):
    from yansql.pipeline import compile_cq

    compiled = compile_cq(ex1_cq)
    final = emit_plan(compiled.plan, POSTGRES)[-1]
    assert final == ("SELECT student, MIN(grade) AS min_grade FROM "
                     "(SELECT DISTINCT student, grade FROM exams_sjup) "
                     "AS reduced GROUP BY student")


def test_having_and_distinct_render():
    from yansql.pipeline import compile_sql

    compiled = compile_sql(
        "SELECT r.a, SUM(r.b) FROM r, s WHERE r.k = s.k "
        "GROUP BY r.a HAVING SUM(r.b) > 10")
    final = emit_plan(compiled.plan, POSTGRES)[-1]
    assert final.endswith("GROUP BY a HAVING SUM(b)>10")
    compiled2 = compile_sql("SELECT COUNT(DISTINCT r.a) FROM r, s WHERE r.k = s.k")
    final2 = emit_plan(compiled2.plan, POSTGRES)[-1]
    assert "COUNT(DISTINCT a) AS count_distinct_a" in final2


def test_quoting_non_plain_identifiers():
    from yansql.pipeline import compile_sql

    compiled = compile_sql('SELECT r.a FROM r WHERE r.a = 1')
    statements = emit_plan(compiled.plan, POSTGRES, prefix="Weird Name")
    assert '"Weird Name_r_setup"' in statements[0]


def _chain_plan(join_inputs=("t_sjup", "s_sjdown", "r_sjdown")):
    """Path t(a,b) - s(b,c) - r(c,d) rooted at t, written out by hand: the
    handle of s goes SETUP -> SEMIJOIN_UP -> SEMIJOIN_DOWN before the JOIN
    reads it."""
    def scan(rel, *cols):
        return BaseScan(rel, (), (), tuple((c, c) for c in cols))

    def semi(name, source, handle, keys, stage, node):
        return PlanStatement("temp", name, SemiJoin(
            source, (SemiJoinFilter(handle, keys),)), stage, node)

    up, down = StageKind.SEMIJOIN_UP, StageKind.SEMIJOIN_DOWN
    stages = {
        StageKind.SETUP: tuple(
            PlanStatement("view", f"{n}_setup", scan(n, *cols),
                          StageKind.SETUP, n)
            for n, cols in (("r", "cd"), ("s", "bc"), ("t", "ab"))),
        up: (semi("s_sjup", "s_setup", "r_setup", ("c",), up, "s"),
             semi("t_sjup", "t_setup", "s_sjup", ("b",), up, "t")),
        down: (semi("s_sjdown", "s_sjup", "t_sjup", ("b",), down, "s"),
               semi("r_sjdown", "r_setup", "s_sjdown", ("c",), down, "r")),
        StageKind.JOIN: (PlanStatement(
            "temp", "group1_join", NaturalJoin(join_inputs, ("a", "d")),
            StageKind.JOIN, None),),
        StageKind.FINALIZE: (PlanStatement(
            "select", "result", Finalize(
                "group1_join", ("a", "d"), False, (), (), None, False,
                (OutputColumn("var", "a"), OutputColumn("var", "d"))),
            StageKind.FINALIZE, None),),
    }
    return StagePlan(Mode.FULL_ENUM, stages,
                     {"t": "t_sjup", "s": "s_sjdown", "r": "r_sjdown"},
                     ("a", "d"), None, ("t",))


def test_join_columns_resolve_through_semijoin_chain():
    plan = _chain_plan()
    assert _handle_columns(plan) == {
        "r_setup": ("c", "d"), "s_setup": ("b", "c"), "t_setup": ("a", "b"),
        "s_sjup": ("b", "c"), "t_sjup": ("a", "b"), "s_sjdown": ("b", "c"),
        "r_sjdown": ("c", "d"), "group1_join": ("a", "d")}
    join = emit_plan(plan, GENERIC)[-2]
    assert join == (
        "CREATE TEMP TABLE group1_join AS SELECT t_sjup.a AS a, "
        "r_sjdown.d AS d FROM t_sjup, s_sjdown, r_sjdown "
        "WHERE t_sjup.b=s_sjdown.b AND s_sjdown.c=r_sjdown.c")


def test_join_over_unknown_handle_is_an_emit_error():
    plan = _chain_plan(join_inputs=("t_sjup", "nowhere"))
    with pytest.raises(EmitError, match="unknown handle 'nowhere'"):
        emit_plan(plan, GENERIC)

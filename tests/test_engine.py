import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yansql.engine import (AggregateTypeError, ArityMismatch, IoError,
                           MissingRelation, Relation, SchemaMismatch,
                           UnknownAttribute, aggregate, bag_equal,
                           eval_naive, eval_naive_traced, eval_plan,
                           full_reducer_holds, load_csv, natural_join,
                           render_fraction, semi_join, write_csv)
from yansql.engine import _row_sort_key, _sorted_rows
from yansql.pipeline import compile_cq, compile_sql
from yansql.plan_builder import Mode, StageKind
from yansql.sql_frontend import AggregateCall, extract_cq, parse_query
from yansql.testing import random_acyclic_cq, random_database


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------

def test_load_csv_duplicates_preserved(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("a,b\n1,2\n1,2\n", encoding="utf-8")
    rel = load_csv(p)
    assert rel.schema == ("a", "b")
    assert rel.rows == {(1, 2): 2}


def test_load_csv_empty_field_is_null(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("a\n\n", encoding="utf-8")
    rel = load_csv(p)
    assert rel.rows == {(None,): 1}


def test_load_csv_header_only(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("a,b\n", encoding="utf-8")
    rel = load_csv(p)
    assert rel.schema == ("a", "b") and rel.cardinality() == 0


def test_load_csv_type_parsing(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("a,b,c\n-5,05x,007\n", encoding="utf-8")
    rel = load_csv(p)
    assert list(rel.rows) == [(-5, "05x", 7)]


@pytest.mark.parametrize("text", ["\u00b2", "-\u00b2", "\u0663", "1" * 5000,
                                  "-", "+5"])
def test_load_csv_only_ascii_integers_parse(tmp_path, text):
    # str.isdigit() accepts the first four, but int() rejects '\u00b2' and
    # more than 4300 digits
    p = tmp_path / "r.csv"
    p.write_text(f"a\n{text}\n", encoding="utf-8")
    assert load_csv(p).rows == {(text,): 1}


def test_load_csv_errors(tmp_path):
    missing = tmp_path / "absent.csv"
    with pytest.raises(IoError):
        load_csv(missing)
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1\n", encoding="utf-8")
    with pytest.raises(ArityMismatch):
        load_csv(bad)
    ok = tmp_path / "ok.csv"
    ok.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(SchemaMismatch):
        load_csv(ok, declared_schema=("a", "c"))


def test_from_rows_checks_arity():
    with pytest.raises(ArityMismatch):
        Relation.from_rows(("a", "b"), [(1, 2), (3,)])


def test_csv_roundtrip(tmp_path):
    rel = Relation.from_rows(("a", "b"), [(1, "x"), (1, "x"), (None, 2)])
    p = tmp_path / "out.csv"
    write_csv(rel, p)
    assert load_csv(p) == rel


# ---------------------------------------------------------------------------
# semi_join / natural_join
# ---------------------------------------------------------------------------

def test_semi_join_preserves_multiplicity():
    l = Relation.from_rows(("a", "b"), [(1, 2)] * 3 + [(9, 9)])
    r = Relation.from_rows(("a",), [(1,)])
    out = semi_join(l, r, [("a", "a")])
    assert out.rows == {(1, 2): 3}


def test_semi_join_empty_right():
    l = Relation.from_rows(("a",), [(1,)])
    out = semi_join(l, Relation(("a",)), [("a", "a")])
    assert out.cardinality() == 0


def test_semi_join_null_never_matches():
    l = Relation.from_rows(("a", "b"), [(None, 5)])
    r = Relation.from_rows(("a",), [(None,)])
    assert semi_join(l, r, [("a", "a")]).cardinality() == 0


def test_semi_join_unknown_attribute():
    l = Relation.from_rows(("a",), [(1,)])
    with pytest.raises(UnknownAttribute):
        semi_join(l, l, [("z", "a")])


def test_semi_join_never_grows():
    rng = random.Random(4)
    for _ in range(50):
        l = Relation.from_rows(
            ("a", "b"),
            [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(20)])
        r = Relation.from_rows(
            ("a",), [(rng.randint(0, 3),) for _ in range(5)])
        assert semi_join(l, r, [("a", "a")]).cardinality() <= l.cardinality()


def test_natural_join_multiplicity_product():
    l = Relation.from_rows(("a", "b"), [(1, 2)] * 2)
    r = Relation.from_rows(("a", "c"), [(1, 7)] * 3)
    out = natural_join(l, r)
    assert out.schema == ("a", "b", "c")
    assert out.rows == {(1, 2, 7): 6}


def test_natural_join_disjoint_is_cross_product():
    l = Relation.from_rows(("a",), [(1,), (2,)])
    r = Relation.from_rows(("b",), [(7,)])
    out = natural_join(l, r)
    assert out.rows == {(1, 7): 1, (2, 7): 1}


def test_natural_join_triangle_hand_enumeration():
    r = Relation.from_rows(("a", "b"), [(1, 2)])
    s = Relation.from_rows(("b", "c"), [(2, 3)])
    t = Relation.from_rows(("c", "a"), [(3, 1)])
    out = natural_join(natural_join(r, s), t)
    assert out.rows == {(1, 2, 3): 1}


def test_natural_join_null_key_never_matches():
    l = Relation.from_rows(("a", "b"), [(None, 1), (2, 2)])
    r = Relation.from_rows(("a", "c"), [(None, 9), (2, 9)])
    out = natural_join(l, r)
    assert out.rows == {(2, 2, 9): 1}


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------

MIN_GRADE = AggregateCall("MIN", "grade", False)


def test_aggregate_min_by_group():
    rel = Relation.from_rows(("student", "grade"),
                             [("s1", 3), ("s1", 5), ("s2", 4)])
    out = aggregate(rel, ("student",), (MIN_GRADE,))
    assert out.schema == ("student", "min_grade")
    assert out.rows == {("s1", 3): 1, ("s2", 4): 1}


def test_aggregate_min_is_duplicate_insensitive():
    rel = Relation.from_rows(("student", "grade"), [("s1", 3)] * 4)
    plain = aggregate(rel, ("student",), (MIN_GRADE,))
    deduped = aggregate(rel, ("student",), (MIN_GRADE,), distinct_input=True)
    assert plain == deduped


def test_aggregate_sum_is_not_duplicate_insensitive():
    rel = Relation.from_rows(("student", "grade"), [("s1", 3)] * 2)
    call = AggregateCall("SUM", "grade", False)
    with_dups = aggregate(rel, ("student",), (call,))
    deduped = aggregate(rel, ("student",), (call,), distinct_input=True)
    assert with_dups.rows == {("s1", 6): 1}
    assert deduped.rows == {("s1", 3): 1}


def test_aggregate_nulls_skipped_count_zero():
    rel = Relation.from_rows(("g", "x"), [("a", None), ("a", None)])
    out = aggregate(rel, ("g",),
                    (AggregateCall("MIN", "x", False),
                     AggregateCall("COUNT", "x", False)))
    assert out.rows == {("a", None, 0): 1}


def test_aggregate_global_empty_input():
    rel = Relation(("x",))
    out = aggregate(rel, (), (AggregateCall("SUM", "x", False),
                              AggregateCall("COUNT", "x", False)))
    assert out.rows == {(None, 0): 1}
    # grouped: no group is emitted
    grouped = aggregate(Relation(("g", "x")), ("g",),
                        (AggregateCall("SUM", "x", False),))
    assert grouped.cardinality() == 0


def test_aggregate_avg_decimal_string():
    rel = Relation.from_rows(("x",), [(1,), (2,)])
    out = aggregate(rel, (), (AggregateCall("AVG", "x", False),))
    assert out.rows == {("1.500000",): 1}


def test_aggregate_distinct_call():
    rel = Relation.from_rows(("g", "x"), [("a", 2), ("a", 2), ("a", 3)])
    out = aggregate(rel, ("g",), (AggregateCall("COUNT", "x", True),
                                  AggregateCall("SUM", "x", True)))
    assert out.rows == {("a", 2, 5): 1}


def test_aggregate_mixed_types_error():
    rel = Relation.from_rows(("x",), [(1,), ("a",)])
    with pytest.raises(AggregateTypeError):
        aggregate(rel, (), (AggregateCall("MIN", "x", False),))
    with pytest.raises(AggregateTypeError):
        aggregate(rel, (), (AggregateCall("SUM", "x", False),))
    ok = aggregate(Relation.from_rows(("x",), [("a",), ("b",)]), (),
                   (AggregateCall("MAX", "x", False),))
    assert ok.rows == {("b",): 1}


def _expanded_aggregates(pairs):
    """COUNT, SUM and AVG of x per group, one list entry per duplicate."""
    groups: dict = {}
    for g, x in pairs:
        groups.setdefault(g, [])
        if x is not None:
            groups[g].append(x)
    return {(g, len(xs), sum(xs) if xs else None,
             render_fraction(Fraction(sum(xs), len(xs))) if xs else None): 1
            for g, xs in groups.items()}


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab"),
                          st.one_of(st.none(), st.integers(-5, 5))),
                max_size=12),
       st.lists(st.integers(1, 4), min_size=12, max_size=12))
def test_weighted_aggregates_equal_expanded(rows, counts):
    pairs = [row for row, n in zip(rows, counts) for _ in range(n)]
    rel = Relation.from_rows(("g", "x"), pairs)
    calls = tuple(AggregateCall(f, "x", False) for f in ("COUNT", "SUM", "AVG"))
    out = aggregate(rel, ("g",), calls)
    assert out.rows == _expanded_aggregates(pairs)


# ---------------------------------------------------------------------------
# row order
# ---------------------------------------------------------------------------

CELLS = st.one_of(st.none(), st.integers(-3, 3), st.text("ab", max_size=2))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(CELLS, CELLS), max_size=30))
def test_fast_row_order_equals_key_order(rows):
    expected = sorted(rows, key=_row_sort_key)
    assert _sorted_rows(rows) == expected
    assert Relation.from_rows(("a", "b"), rows).expanded() == expected


def test_row_order_mixed_column():
    rows = [("x", 2), (None, 1), (3, None), ("x", None), (1, "y")]
    assert _sorted_rows(rows) == [(None, 1), (1, "y"), (3, None),
                                  ("x", None), ("x", 2)]


# ---------------------------------------------------------------------------
# bag_equal
# ---------------------------------------------------------------------------

def test_bag_equal_column_reorder():
    a = Relation.from_rows(("a", "b"), [(1, 2)] * 2)
    b = Relation.from_rows(("b", "a"), [(2, 1)] * 2)
    assert bag_equal(a, b)


def test_bag_equal_multiplicity_matters():
    a = Relation.from_rows(("a", "b"), [(1, 2)] * 2)
    b = Relation.from_rows(("a", "b"), [(1, 2)])
    assert not bag_equal(a, b)


def test_bag_equal_empty():
    assert bag_equal(Relation(("a",)), Relation(("a",)))
    assert not bag_equal(Relation(("a",)), Relation(("b",)))


# ---------------------------------------------------------------------------
# eval_naive
# ---------------------------------------------------------------------------

def test_eval_naive_ex1(ex1_cq, ex1_db):
    out = eval_naive(ex1_cq, ex1_db)
    assert out.schema == ("student", "min_grade")
    assert out.rows == {("s1", 3): 1}


def test_eval_naive_boolean_one_row():
    cq = extract_cq(parse_query("SELECT 1 FROM r, s WHERE r.a = s.a"))
    db = {"r": Relation.from_rows(("a",), [(1,), (1,)]),
          "s": Relation.from_rows(("a",), [(1,)])}
    out = eval_naive(cq, db)
    assert out.schema == ("one",) and out.rows == {(1,): 1}
    empty_db = {"r": Relation(("a",)), "s": Relation.from_rows(("a",), [(1,)])}
    assert eval_naive(cq, empty_db).cardinality() == 0


def test_eval_naive_statically_empty():
    cq = extract_cq(parse_query("SELECT r.a FROM r WHERE r.a = 1 AND r.a = 2"))
    out = eval_naive(cq, {"r": Relation.from_rows(("a",), [(1,)])})
    assert out.schema == ("a",) and out.cardinality() == 0


def test_eval_naive_missing_relation(ex1_cq):
    with pytest.raises(MissingRelation):
        eval_naive(ex1_cq, {})


def test_eval_naive_traced_reports_intermediates(university_cq, university_db):
    _, stats = eval_naive_traced(university_cq, university_db)
    assert len(stats.step_rows) == 4
    assert stats.max_intermediate >= max(stats.step_rows)


# ---------------------------------------------------------------------------
# eval_plan
# ---------------------------------------------------------------------------

def test_eval_plan_ex1_zeroma(ex1_cq, ex1_db):
    compiled = compile_cq(ex1_cq)
    assert compiled.mode is Mode.ZERO_MA
    res = eval_plan(compiled.plan, ex1_db)
    assert res.relation.rows == {("s1", 3): 1}
    assert res.stats.statement_rows["exams_sjup"] == 2


def test_eval_plan_fullenum_matches_naive(university_cq, university_db):
    compiled = compile_cq(university_cq, mode="fullenum")
    res = eval_plan(compiled.plan, university_db)
    assert bag_equal(res.relation, eval_naive(university_cq, university_db))


def test_eval_plan_partial_matches_naive(university_cq, university_db):
    compiled = compile_cq(university_cq, mode="partial")
    res = eval_plan(compiled.plan, university_db)
    assert bag_equal(res.relation, eval_naive(university_cq, university_db))


def test_eval_plan_statically_empty():
    compiled = compile_sql("SELECT r.a FROM r WHERE r.a = 1 AND r.a = 2")
    res = eval_plan(compiled.plan, {})
    assert res.relation.cardinality() == 0
    assert all(v == 0 for k, v in res.stats.statement_rows.items()
               if k != "result")


def test_eval_plan_undefined_handle(ex1_cq, ex1_db):
    compiled = compile_cq(ex1_cq)
    broken = dict(ex1_db)
    del broken["courses"]
    with pytest.raises(MissingRelation):
        eval_plan(compiled.plan, broken)


def test_eval_plan_short_circuit(university_cq, university_db):
    db = dict(university_db)
    db["courses"] = Relation.from_rows(("cid", "faculty"), [("x", "Law")])
    compiled = compile_cq(university_cq, mode="fullenum")
    res = eval_plan(compiled.plan, db, short_circuit=True)
    assert res.relation.cardinality() == 0
    assert "SEMIJOIN_DOWN" in res.stats.skipped_stages
    assert "JOIN" in res.stats.skipped_stages
    # without the flag the stages run and the result is identical
    full = eval_plan(compiled.plan, db)
    assert bag_equal(res.relation, full.relation)


def test_eval_plan_short_circuit_global_aggregate_keeps_null_row():
    cq = extract_cq(parse_query(
        "SELECT MIN(r.a) FROM r, s WHERE r.k = s.k"))
    compiled = compile_cq(cq, mode="fullenum")
    db = {"r": Relation.from_rows(("a", "k"), [(1, 5)]),
          "s": Relation(("k",))}
    res = eval_plan(compiled.plan, db, short_circuit=True)
    assert res.relation.rows == {(None,): 1}
    assert bag_equal(res.relation, eval_naive(cq, db))


# ---------------------------------------------------------------------------
# full reducer
# ---------------------------------------------------------------------------

def path3_fixture():
    cq = extract_cq(parse_query(
        "SELECT r.a, s.b, t.c FROM r, s, t WHERE r.b = s.b AND s.c = t.c"))
    db = {
        "r": Relation.from_rows(("a", "b"), [(1, 2), (9, 9)]),
        "s": Relation.from_rows(("b", "c"), [(2, 3)]),
        "t": Relation.from_rows(("c",), [(3,)]),
    }
    return cq, db


def test_full_reducer_after_both_passes(university_cq, university_db):
    compiled = compile_cq(university_cq, mode="fullenum")
    res = eval_plan(compiled.plan, university_db)
    handles = {
        node: res.handles[compiled.plan.node_relations[node]]
        for node in compiled.plan.node_relations
    }
    assert full_reducer_holds(handles, university_cq, university_db)


def test_full_reducer_can_fail_after_up_pass_alone():
    cq, db = path3_fixture()
    compiled = compile_cq(cq, mode="fullenum")
    res = eval_plan(compiled.plan, db)
    plan = compiled.plan
    after_up = {
        node: res.handles[plan.node_handle_after(node, StageKind.SEMIJOIN_UP)]
        for node in plan.node_relations
    }
    # leaf r still contains the dangling tuple (9, 9)
    assert not full_reducer_holds(after_up, cq, db)
    after_down = {
        node: res.handles[plan.node_relations[node]]
        for node in plan.node_relations
    }
    assert full_reducer_holds(after_down, cq, db)


def test_full_reducer_single_relation_trivial():
    cq = extract_cq(parse_query("SELECT r.a FROM r"))
    db = {"r": Relation.from_rows(("a",), [(1,), (2,)])}
    compiled = compile_cq(cq, mode="fullenum")
    res = eval_plan(compiled.plan, db)
    handles = {n: res.handles[h] for n, h in compiled.plan.node_relations.items()}
    assert full_reducer_holds(handles, cq, db)


# ---------------------------------------------------------------------------
# randomized equivalences
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_random_fullenum_plan_bag_equals_naive(seed):
    rng = random.Random(seed)
    cq = random_acyclic_cq(rng, max_atoms=5)
    db = random_database(rng, cq, max_rows=20)
    compiled = compile_cq(cq, mode="fullenum")
    res = eval_plan(compiled.plan, db)
    assert bag_equal(res.relation, eval_naive(cq, db))


PATH_QUERIES = [
    "SELECT r.a, r.b, s.c, t.d FROM r, s, t WHERE r.b = s.b AND s.c = t.c",
    "SELECT s.b, COUNT(t.d), AVG(t.d) FROM r, s, t "
    "WHERE r.b = s.b AND s.c = t.c GROUP BY s.b",
    "SELECT s.b, MIN(s.c) FROM r, s WHERE r.b = s.b GROUP BY s.b",
    "SELECT DISTINCT r.a FROM r, s WHERE r.b = s.b AND s.c > 0",
    "SELECT 1 FROM r, s WHERE r.b = s.b",
    "SELECT r.a, r.b FROM r",
]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(PATH_QUERIES),
       st.sampled_from(["auto", "fullenum"]))
def test_evaluation_leaves_database_unchanged(seed, sql, mode):
    # scans without selections share the base relations' row maps, and
    # semi-joins that drop nothing return their input
    rng = random.Random(seed)
    db = {name: Relation.from_rows(schema, [
              (rng.randint(0, 2), rng.randint(0, 2))
              for _ in range(rng.randint(0, 6))])
          for name, schema in (("r", ("a", "b")), ("s", ("b", "c")),
                               ("t", ("c", "d")))}
    before = copy.deepcopy(db)
    compiled = compile_sql(sql, mode=mode)
    eval_plan(compiled.plan, db)
    eval_naive(compiled.cq, db)
    assert db == before


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_random_zeroma_plan_equals_naive(seed):
    rng = random.Random(seed)
    cq = random_acyclic_cq(rng, max_atoms=5,
                           aggregate=rng.choice(["minmax", "distinct"]))
    db = random_database(rng, cq, max_rows=20)
    compiled = compile_cq(cq)
    res = eval_plan(compiled.plan, db)
    assert bag_equal(res.relation, eval_naive(cq, db))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_random_semijoin_statements_never_grow(seed):
    rng = random.Random(seed)
    cq = random_acyclic_cq(rng, max_atoms=5)
    db = random_database(rng, cq, max_rows=20)
    compiled = compile_cq(cq, mode="fullenum")
    res = eval_plan(compiled.plan, db)
    for stmt in compiled.plan.statements():
        if stmt.stage.value.startswith("SEMIJOIN"):
            # the semi-join source is always an earlier statement
            source_rows = res.stats.statement_rows[stmt.body.source]
            assert res.stats.statement_rows[stmt.name] <= source_rows


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_random_setsafe_queries_across_auto_modes(seed):
    """Spreading the aggregate variable over a random atom makes some
    queries unguarded, exercising the partial path on random inputs."""
    rng = random.Random(seed)
    cq = random_acyclic_cq(rng, max_atoms=5, aggregate="minmax")
    all_vars = sorted(cq.variables())
    from dataclasses import replace
    call = cq.aggregates[0]
    cq = replace(cq, aggregates=(replace(call, var=rng.choice(all_vars)),))
    db = random_database(rng, cq, max_rows=20)
    compiled = compile_cq(cq)
    res = eval_plan(compiled.plan, db)
    assert bag_equal(res.relation, eval_naive(cq, db))

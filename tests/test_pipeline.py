import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yansql.decomposition import (GHDecomposition, connectedness_holds,
                                  find_ghd, ghd_to_join_tree, validate_ghd)
from yansql.engine import Relation, bag_equal, eval_naive, eval_plan
from yansql.hypergraph import Hypergraph
from yansql.pipeline import (CyclicQuery, PipelineError, compare_on_db,
                             compile_cq, compile_sql)
from yansql.plan_builder import Mode, StageKind
from yansql.sql_emitter import GENERIC, emit_plan
from yansql.sql_frontend import (AggregateCall, extract_cq, parse_query,
                                 render_sql)
from yansql.testing import (cq_from_hypergraph, random_acyclic_cq,
                            random_cyclic_hypergraph, random_database,
                            sqlite_database, sqlite_rows)
from conftest import EX1_SQL, UNIVERSITY_SQL, run_on_sqlite


def test_auto_mode_selection_matrix():
    assert compile_sql(EX1_SQL).mode is Mode.ZERO_MA
    assert compile_sql(UNIVERSITY_SQL).mode is Mode.PARTIAL
    assert compile_sql(
        "SELECT r.a, SUM(r.b) FROM r, s WHERE r.k = s.k GROUP BY r.a"
    ).mode is Mode.FULL_ENUM
    # set-safe but no proper covering subtree: every node needed
    assert compile_sql(
        "SELECT DISTINCT r.a, s.b FROM r, s WHERE r.k = s.k"
    ).mode is Mode.FULL_ENUM


def test_auto_mode_disconnected_0ma_falls_back():
    compiled = compile_sql("SELECT MIN(r.a) FROM r, s")
    assert compiled.report.is_0ma
    assert compiled.mode is Mode.FULL_ENUM
    assert any("disconnected" in w for w in compiled.warnings)
    db = {"r": Relation.from_rows(("a",), [(3,), (1,)]),
          "s": Relation.from_rows(("b",), [(9,), (9,)])}
    cmp = compare_on_db(compiled, db)
    assert cmp.equal


def test_disconnected_empty_component_empties_result():
    compiled = compile_sql("SELECT MIN(r.a) FROM r, s")
    db = {"r": Relation.from_rows(("a",), [(3,)]),
          "s": Relation(("b",))}
    cmp = compare_on_db(compiled, db)
    assert cmp.equal
    assert cmp.plan_result.relation.rows == {(None,): 1}


def test_cyclic_without_ghd_raises(triangle_cq):
    with pytest.raises(CyclicQuery):
        compile_cq(triangle_cq)


def test_cyclic_infeasible_width_errors(triangle_cq):
    with pytest.raises(PipelineError):
        compile_cq(triangle_cq, ghd_width=1)


def test_explicit_mode_passthrough(university_cq):
    assert compile_cq(university_cq, mode="fullenum").mode is Mode.FULL_ENUM
    assert compile_cq(university_cq, mode="partial").mode is Mode.PARTIAL


def test_root_override_guard(ex1_cq):
    compiled = compile_cq(ex1_cq, root_override="exams")
    assert compiled.trees[0].root == "exams"
    with pytest.raises(PipelineError):
        compile_cq(ex1_cq, root_override="courses")


def test_partial_plan_restricts_down_pass(university_cq, university_db):
    compiled = compile_cq(university_cq)
    assert compiled.mode is Mode.PARTIAL
    plan = compiled.plan
    assert len(plan.stage(StageKind.SEMIJOIN_DOWN)) == 1
    join_nodes = set()
    for stmt in plan.stage(StageKind.JOIN):
        join_nodes.update(stmt.body.inputs)
    assert not any("courses" in h or "tutors" in h for h in join_nodes)
    cmp = compare_on_db(compiled, university_db)
    assert cmp.equal


def test_imported_ghd_with_reused_atom_is_bag_equal(triangle_cq):
    # covers may reuse an atom: node views are sets and every atom is
    # counted once, at its own leaf, so r's duplicate row is not inflated
    ghd = GHDecomposition(
        root="n0",
        parent={"n1": "n0"},
        bags={"n0": frozenset({"a", "b", "c"}), "n1": frozenset({"c", "a"})},
        covers={"n0": frozenset({"r", "s"}), "n1": frozenset({"t", "r"})},
    )
    compiled = compile_cq(triangle_cq, ghd=ghd)
    assert compiled.warnings == ()
    db = {
        "r": Relation.from_rows(("a", "b"), [(1, 2), (1, 2)]),
        "s": Relation.from_rows(("b", "c"), [(2, 3)]),
        "t": Relation.from_rows(("c", "a"), [(3, 1)]),
    }
    naive = eval_naive(triangle_cq, db)
    res = eval_plan(compiled.plan, db)
    assert naive.cardinality() == 2
    assert bag_equal(res.relation, naive)
    assert run_on_sqlite(compiled.plan, db) == naive.rows


def test_width1_ghd_plan_equivalent_to_base_plan(university_cq, university_db):
    # singleton-cover decomposition of an acyclic query evaluates exactly
    # like the plan over the base join tree
    from yansql.classification import normalize_aggregation
    from yansql.decomposition import find_ghd
    from yansql.hypergraph import build_hypergraph
    from yansql.plan_builder import build_plan

    h = build_hypergraph(university_cq)
    ghd = find_ghd(h, 1)
    tree, views = ghd_to_join_tree(ghd, university_cq)
    form = normalize_aggregation(university_cq)
    view_plan = build_plan(tree, form, Mode.FULL_ENUM, views=views)
    base = compile_cq(university_cq, mode="fullenum")
    a = eval_plan(view_plan, university_db).relation
    b = eval_plan(base.plan, university_db).relation
    assert bag_equal(a, b)


def test_imported_ghd_with_shrunk_bag_projects_view():
    # a node whose bag is strictly smaller than its cover atom's variables
    # yields a projection-only local join (the atom is fully covered at
    # another node, as the bag-coverage invariant requires)
    cq = extract_cq(parse_query(
        "SELECT r.a, s.b FROM r, s WHERE r.k = s.k AND r.p > 0"))
    ghd = GHDecomposition(
        root="n0",
        parent={"n1": "n0", "n2": "n0"},
        bags={"n0": frozenset({"a", "k", "p"}), "n1": frozenset({"b", "k"}),
              "n2": frozenset({"k"})},
        covers={"n0": frozenset({"r"}), "n1": frozenset({"s"}),
                "n2": frozenset({"r"})},
    )
    compiled = compile_cq(cq, ghd=ghd)
    projections = sorted(v.projection for v in compiled.views)
    assert ("k",) in projections  # the projection-only view over r
    db = {
        "r": Relation.from_rows(("a", "k", "p"), [(1, 7, 5), (2, 8, -1)]),
        "s": Relation.from_rows(("b", "k"), [(10, 7), (10, 8)]),
    }
    res = eval_plan(compiled.plan, db)
    assert bag_equal(res.relation, eval_naive(cq, db))


def test_imported_ghd_dropping_join_var_keeps_atom_leaf(triangle_cq):
    # bag {a} for cover {t} loses the t.c join constraint at that node; t's
    # own leaf under the {a, b, c} bag keeps it, so the result stays correct
    ghd = GHDecomposition(
        root="n0",
        parent={"n1": "n0"},
        bags={"n0": frozenset({"a", "b", "c"}), "n1": frozenset({"a"})},
        covers={"n0": frozenset({"r", "s"}), "n1": frozenset({"t"})},
    )
    compiled = compile_cq(triangle_cq, ghd=ghd)
    assert len(compiled.views) == 2
    tree = compiled.trees[0]
    t_leaves = [n for n, lbl in tree.labels.items() if lbl.ref == "t"]
    assert len(t_leaves) == 1
    (leaf,) = t_leaves
    assert tree.labels[leaf].kind == "atom"
    assert tree.children(leaf) == ()
    assert tree.attrs[tree.parent[leaf]] == frozenset({"a", "b", "c"})
    db = {
        "r": Relation.from_rows(("a", "b"), [(1, 2)]),
        "s": Relation.from_rows(("b", "c"), [(2, 3)]),
        "t": Relation.from_rows(("c", "a"), [(9, 1)]),
    }
    # t joins on a but not on c: the answer must be empty
    res = eval_plan(compiled.plan, db)
    assert res.relation.cardinality() == 0
    assert bag_equal(res.relation, eval_naive(triangle_cq, db))


def test_ghd_mode_on_acyclic_query_still_works(university_cq, university_db):
    compiled = compile_cq(university_cq, ghd_width=2)
    # acyclic components never consult the decomposition search
    assert compiled.views == ()
    assert compare_on_db(compiled, university_db).equal


def test_mixed_cyclic_and_acyclic_components():
    sql = ("SELECT r.a, u.z FROM r, s, t, u "
           "WHERE r.a = t.a AND r.b = s.b AND s.c = t.c")
    cq = extract_cq(parse_query(sql))
    compiled = compile_cq(cq, ghd_width=2)
    assert len(compiled.trees) == 2
    assert any("cross product" in w for w in compiled.warnings)
    db = {
        "r": Relation.from_rows(("a", "b"), [(1, 2), (1, 2)]),
        "s": Relation.from_rows(("b", "c"), [(2, 3)]),
        "t": Relation.from_rows(("c", "a"), [(3, 1)]),
        "u": Relation.from_rows(("z",), [(7,), (8,)]),
    }
    assert compare_on_db(compiled, db).equal


def test_two_disjoint_cyclic_components():
    # each cyclic component gets its own views and atom leaves; their node
    # ids must not collide
    sql = ("SELECT r.a, u.d FROM r, s, t, u, w, x "
           "WHERE r.a = t.a AND r.b = s.b AND s.c = t.c "
           "AND u.d = x.d AND u.e = w.e AND w.f = x.f")
    cq = extract_cq(parse_query(sql))
    compiled = compile_cq(cq, ghd_width=2)
    assert len(compiled.trees) == 2
    assert len(compiled.views) == 4
    db = {
        "r": Relation.from_rows(("a", "b"), [(1, 2), (1, 2), (5, 6)]),
        "s": Relation.from_rows(("b", "c"), [(2, 3)]),
        "t": Relation.from_rows(("c", "a"), [(3, 1)]),
        "u": Relation.from_rows(("d", "e"), [(7, 8)]),
        "w": Relation.from_rows(("e", "f"), [(8, 9), (8, 9)]),
        "x": Relation.from_rows(("f", "d"), [(9, 7), (9, 4)]),
    }
    cmp = compare_on_db(compiled, db)
    assert cmp.equal
    assert cmp.naive.cardinality() == 4


TRIANGLE_MIN_SQL = ("SELECT r.a, MIN(r.b) FROM r, s, t "
                    "WHERE r.a = t.a AND r.b = s.b AND s.c = t.c GROUP BY r.a")
TRIANGLE_MIN_DB = {
    "r": Relation.from_rows(("a", "b"), [(1, 2), (1, 5), (1, 2), (4, 2)]),
    "s": Relation.from_rows(("b", "c"), [(2, 3), (5, 3)]),
    "t": Relation.from_rows(("c", "a"), [(3, 1)]),
}


def test_explicit_zeroma_over_a_decomposition_roots_at_the_guard_leaf():
    # the guard's own atom leaf can root a 0MA plan over the views
    compiled = compile_sql(TRIANGLE_MIN_SQL, ghd_width=2, mode="zeroma")
    tree = compiled.trees[0]
    assert tree.labels[tree.root].ref == "r"
    assert tree.labels[tree.root].kind == "atom"
    cmp = compare_on_db(compiled, TRIANGLE_MIN_DB)
    assert cmp.equal
    assert cmp.naive.rows == {(1, 2): 1}


def test_auto_mode_picks_zeroma_over_a_decomposition():
    compiled = compile_sql(TRIANGLE_MIN_SQL, ghd_width=2)
    assert compiled.views
    assert compiled.mode is Mode.ZERO_MA
    assert not compiled.plan.stage(StageKind.JOIN)
    naive = eval_naive(compiled.cq, TRIANGLE_MIN_DB)
    assert naive.rows == {(1, 2): 1}
    assert bag_equal(eval_plan(compiled.plan, TRIANGLE_MIN_DB).relation, naive)
    assert run_on_sqlite(compiled.plan, TRIANGLE_MIN_DB) == naive.rows


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_auto_mode_zeroma_over_random_cycles(seed):
    # MIN/MAX of a guard atom's variable, grouped by some of its variables:
    # auto mode roots the plan at the guard's atom leaf
    rng = random.Random(seed)
    h = random_cyclic_hypergraph(rng)
    guard_vars = sorted(h.edges[rng.choice(sorted(h.edges))])
    grouping = tuple(sorted(rng.sample(guard_vars, rng.randint(0, 2))))
    call = AggregateCall(rng.choice(["MIN", "MAX"]), rng.choice(guard_vars),
                         False)
    cq = replace(cq_from_hypergraph(h), output_vars=grouping,
                 grouping_vars=grouping, aggregates=(call,))
    compiled = compile_cq(cq, ghd_width=2)
    assert compiled.views
    assert compiled.mode is Mode.ZERO_MA
    db = random_database(rng, cq, max_rows=20)
    naive = eval_naive(cq, db)
    assert bag_equal(eval_plan(compiled.plan, db).relation, naive)
    assert run_on_sqlite(compiled.plan, db) == naive.rows


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**9))
def test_ghd_with_an_atom_added_to_a_cover_stays_bag_equal(seed):
    # a cover may hold an atom that another node covers too: the plan must
    # still count every atom once, in the engine and on sqlite3
    rng = random.Random(seed)
    h = random_cyclic_hypergraph(rng)
    ghd = find_ghd(h, 2)
    node = rng.choice(ghd.nodes)
    extra = rng.choice(sorted(set(h.edges) - ghd.covers[node]))
    ghd.covers[node] = ghd.covers[node] | {extra}
    assert validate_ghd(h, ghd)
    cq = cq_from_hypergraph(h)
    db = random_database(rng, cq, max_rows=20)
    plan = compile_cq(cq, ghd=ghd).plan
    naive = eval_naive(cq, db)
    assert bag_equal(eval_plan(plan, db).relation, naive)
    assert run_on_sqlite(plan, db) == naive.rows


def test_ghd_plan_keeps_null_in_a_variable_of_one_atom():
    # p belongs to r alone: the view over r must not join r's leaf on it,
    # or the row with p = NULL is lost
    h = Hypergraph({"r": {"a", "b", "p"}, "s": {"b", "c"}, "t": {"c", "a"}})
    cq = cq_from_hypergraph(h)
    db = {"r": Relation.from_rows(("a", "b", "p"), [(1, 2, None), (1, 2, 5)]),
          "s": Relation.from_rows(("b", "c"), [(2, 3)]),
          "t": Relation.from_rows(("a", "c"), [(1, 3)])}
    plan = compile_cq(cq, ghd=find_ghd(h, 2)).plan
    naive = eval_naive(cq, db)
    assert naive.cardinality() == 2
    assert bag_equal(eval_plan(plan, db).relation, naive)
    assert run_on_sqlite(plan, db) == naive.rows


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("k", [12, 16, 20])
def test_long_cycles_compile_through_ghd(k, width):
    h = Hypergraph({f"e{i}": {f"v{i}", f"v{(i + 1) % k}"} for i in range(k)})
    compiled = compile_sql(render_sql(cq_from_hypergraph(h)), ghd_width=width)
    views = compiled.views
    assert views and all(len(v.atom_ids) <= width for v in views)
    assert set().union(*(v.atom_ids for v in views)) == set(h.edges)
    assert all(connectedness_holds(tree) for tree in compiled.trees)
    db = random_database(random.Random(100 * k + width), compiled.cq,
                         max_rows=25)
    assert compare_on_db(compiled, db).equal


def _comparable_rows(rows, schema, avg_columns):
    """Rows sorted nulls first, with AVG columns as floats: sqlite returns
    a float where the engine renders six decimals."""
    avg = {schema.index(name) for name in avg_columns}
    rows = [tuple(float(v) if i in avg and v is not None else v
                  for i, v in enumerate(row)) for row in rows]
    return sorted(rows, key=lambda row: [(v is not None, v or 0) for v in row])


def _assert_rows_close(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert all(x == y or isinstance(x, float) and abs(x - y) <= 1e-6
                   for x, y in zip(a, b)), (a, b)


def _sqlite_original(sql: str, db) -> Counter:
    """Result rows of the query text itself on in-memory sqlite3."""
    con = sqlite_database(db)
    try:
        return Counter(sqlite_rows(con, [sql]))
    finally:
        con.close()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9),
       st.sampled_from(["sum", "count", "avg", "minmax", "distinct"]),
       st.booleans())
def test_aggregate_plans_agree_with_sqlite(seed, kind, grouped):
    rng = random.Random(seed)
    # one selection and a small domain, so that most results have rows
    cq = random_acyclic_cq(rng, max_atoms=5, max_selections=1, aggregate=kind)
    if not grouped:  # a global aggregate: one row, also over an empty join
        cq = replace(cq, output_vars=(), grouping_vars=())
    db = random_database(rng, cq, max_rows=20, domain=4)
    avg_columns = [c.column_name() for c in cq.aggregates if c.func == "AVG"]
    original = list(_sqlite_original(render_sql(cq), db).elements())
    for mode in ("auto", "fullenum"):
        plan = compile_cq(cq, mode=mode).plan
        ours = eval_plan(plan, db).relation
        got = _comparable_rows(ours.expanded(), ours.schema, avg_columns)
        for rows in (run_on_sqlite(plan, db).elements(), original):
            _assert_rows_close(
                got, _comparable_rows(rows, ours.schema, avg_columns))


_JOINING_DB = {"r": Relation.from_rows(("a", "k"), [(1, 1), (2, 2)]),
               "s": Relation.from_rows(("b", "k"), [(3, 1), (4, 2)])}
# what empties the join: (extra WHERE conjuncts, database)
_EMPTY_JOINS = {
    "one_attribute": (" AND r.a = 1 AND r.a = 2", _JOINING_DB),
    "one_variable": (" AND r.k = 1 AND s.k = 2", _JOINING_DB),
    "data": ("", {**_JOINING_DB,
                  "s": Relation.from_rows(("b", "k"), [(3, 5)])}),
}


@pytest.mark.parametrize("empty_by", list(_EMPTY_JOINS))
@pytest.mark.parametrize("select, having", [
    ("COUNT(r.a)", ""),
    ("SUM(r.a)", ""),
    ("AVG(r.a)", ""),
    ("MIN(r.a), MAX(s.b)", ""),
    ("COUNT(r.a)", " HAVING COUNT(r.a) = 0"),
    ("1", ""),
    ("r.a, s.b", ""),
])
def test_empty_join_answers_agree_with_sqlite(select, having, empty_by):
    # an empty join, whether contradictory constants or the data empty it,
    # gives what SQL gives: one row for a global aggregate, none otherwise
    where, db = _EMPTY_JOINS[empty_by]
    sql = f"SELECT {select} FROM r, s WHERE r.k = s.k{where}{having}"
    expected = _sqlite_original(sql, db)
    assert eval_naive(extract_cq(parse_query(sql)), db).rows == expected
    for mode in ("auto", "fullenum"):
        plan = compile_sql(sql, mode=mode).plan
        assert eval_plan(plan, db).relation.rows == expected
        assert run_on_sqlite(plan, db) == expected


@pytest.mark.parametrize("joined_by", [*_EMPTY_JOINS, "nothing"])
@pytest.mark.parametrize("having", ["COUNT(r.a) = 0", "COUNT(r.a) = 2",
                                    "MIN(s.b) = 3"])
def test_select_one_having_runs_on_sqlite(having, joined_by):
    # no aggregate in the SELECT list: sqlite rejects a plain HAVING there,
    # in the original query too, so the oracle gives the expected answer
    where, db = _EMPTY_JOINS.get(joined_by, ("", _JOINING_DB))
    sql = f"SELECT 1 FROM r, s WHERE r.k = s.k{where} HAVING {having}"
    expected = eval_naive(extract_cq(parse_query(sql)), db).rows
    for mode in ("auto", "fullenum"):
        plan = compile_sql(sql, mode=mode).plan
        assert eval_plan(plan, db).relation.rows == expected
        assert run_on_sqlite(plan, db) == expected


def _assert_semijoin_forms_agree(plan, cq, db):
    """The generic dialect's default script (single-key semi-joins as IN),
    the same plan with every semi-join forced to EXISTS, and the engine all
    give the oracle's bag."""
    naive = eval_naive(cq, db)
    assert run_on_sqlite(plan, db) == naive.rows
    assert run_on_sqlite(plan, db, GENERIC.with_style("Exists")) == naive.rows
    assert bag_equal(eval_plan(plan, db).relation, naive)


def _null_and_mixed_keys(rng, cq, db) -> dict:
    """`db` with join-key cells sometimes NULL and, where no selection or
    aggregate reads the variable, sometimes the string of their integer,
    which must not match the integer."""
    uses = Counter(v for atom in cq.atoms for v in atom.variables)
    keys = {v for v, n in uses.items() if n > 1}
    fixed = {dict(cq.atom(s.atom_id).attr_vars)[s.attr]
             for s in cq.selections} | {c.var for c in cq.aggregates}

    def cell(var, value):
        draw = rng.random()
        if var not in keys or value is None or draw >= 0.5:
            return value
        if draw < 0.15:
            return None
        return value if var in fixed else str(value)

    out = {}
    for atom in cq.atoms:
        rel = db[atom.relation]
        vars_ = [var for _, var in atom.attr_vars]
        out[atom.relation] = Relation.from_rows(rel.schema, [
            tuple(map(cell, vars_, row)) for row in rel.expanded()])
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from(["bag", "distinct", "minmax"]))
def test_in_and_exists_semijoins_agree_on_sqlite(seed, kind):
    # a positive IN drops a NULL key like EXISTS does, and compares an
    # integer with a string the way `=` does
    rng = random.Random(seed)
    cq = random_acyclic_cq(rng, max_atoms=5,
                           aggregate="minmax" if kind == "minmax" else None)
    if kind == "distinct":
        cq = replace(cq, distinct=True)
    db = _null_and_mixed_keys(
        rng, cq, random_database(rng, cq, max_rows=20, domain=4))
    for mode in ("auto", "fullenum"):
        _assert_semijoin_forms_agree(compile_cq(cq, mode=mode).plan, cq, db)


def test_in_and_exists_semijoins_agree_on_multikey_and_keyless_filters(
        university_cq, university_db):
    from yansql.classification import normalize_aggregation
    from yansql.decomposition import JoinTree, base_atom
    from yansql.hypergraph import build_hypergraph
    from yansql.plan_builder import build_plan

    # multi-key (cid, student) filter: EXISTS beside single-key IN
    db = dict(university_db)
    db["exams"] = Relation.from_rows(
        ("cid", "student", "grade"),
        university_db["exams"].expanded()
        + [(None, "ann", 0), ("db", None, 0), (1, "ann", 0)])
    db["courses"] = Relation.from_rows(
        ("cid", "faculty"),
        university_db["courses"].expanded()
        + [("1", "ComputerScience"), (None, "ComputerScience")])
    db["tutors"] = Relation.from_rows(
        ("student", "cid", "num_semesters"),
        university_db["tutors"].expanded() + [(None, "db", 5), ("ann", "1", 5)])
    for mode in ("auto", "fullenum"):
        plan = compile_cq(university_cq, mode=mode).plan
        script = "\n".join(emit_plan(plan, GENERIC))
        assert "cid IN (SELECT cid FROM" in script
        assert "EXISTS (SELECT 1 FROM tutors_setup WHERE" in script
        _assert_semijoin_forms_agree(plan, university_cq, db)

    # keyless filter: r and s share no variable, joined in one tree
    cq = extract_cq(parse_query("SELECT DISTINCT r.a FROM r, s"))
    h = build_hypergraph(cq)
    tree = JoinTree("r", {"s": "r"}, {n: base_atom(n) for n in "rs"},
                    {n: h.edges[n] for n in "rs"})
    for mode in (Mode.FULL_ENUM, Mode.PARTIAL):
        plan = build_plan(tree, normalize_aggregation(cq), mode)
        assert "EXISTS (SELECT 1 FROM s_setup)" in "\n".join(
            emit_plan(plan, GENERIC))
        r = Relation.from_rows(("a",), [(1,), (None,), ("1",), (1,)])
        for s_rows in ([], [(None,)], [(2,), (2,)]):
            db = {"r": r, "s": Relation.from_rows(("b",), s_rows)}
            _assert_semijoin_forms_agree(plan, cq, db)


def test_compiled_carries_report_and_hypergraph(ex1_cq):
    compiled = compile_cq(ex1_cq)
    assert compiled.report.is_0ma
    assert sorted(compiled.hypergraph.edges) == ["courses", "exams"]
    assert compiled.form.projection_vars == ("student", "grade")


# ---------------------------------------------------------------------------
# end-to-end semantic edge cases
# ---------------------------------------------------------------------------

def _check_all_modes(sql, db):
    cq = extract_cq(parse_query(sql))
    naive = eval_naive(cq, db)
    compiled = compile_cq(cq)
    res = eval_plan(compiled.plan, db)
    assert bag_equal(res.relation, naive), compiled.mode
    full = compile_cq(cq, mode="fullenum")
    assert bag_equal(eval_plan(full.plan, db).relation, naive)
    return compiled


def test_end_to_end_self_join():
    db = {"r": Relation.from_rows(("a", "b"),
                                  [(1, 2), (2, 3), (2, 3), (3, 1)])}
    _check_all_modes(
        "SELECT e1.a, e2.b FROM r AS e1, r AS e2 WHERE e1.b = e2.a", db)


def test_end_to_end_renamed_equi_join():
    # r.a and s.b share one variable; the setup view renames b to a
    db = {
        "r": Relation.from_rows(("a",), [(1,), (2,), (2,)]),
        "s": Relation.from_rows(("b", "c"), [(2, "x"), (9, "y")]),
    }
    compiled = _check_all_modes(
        "SELECT r.a, s.c FROM r, s WHERE r.a = s.b", db)
    from yansql.sql_emitter import POSTGRES, emit_plan
    statements = emit_plan(compiled.plan, POSTGRES)
    assert any("b AS a" in s for s in statements)


def test_end_to_end_having_post_filter():
    db = {
        "r": Relation.from_rows(("g", "x", "k"),
                                [("p", 1, 1), ("p", 2, 1), ("q", 5, 1),
                                 ("q", 5, 1), ("z", 9, 2)]),
        "s": Relation.from_rows(("k",), [(1,)]),
    }
    _check_all_modes(
        "SELECT r.g, MIN(r.x) FROM r, s WHERE r.k = s.k "
        "GROUP BY r.g HAVING MIN(r.x) < 5", db)
    # having aggregate absent from the select list
    _check_all_modes(
        "SELECT r.g FROM r, s WHERE r.k = s.k "
        "GROUP BY r.g HAVING MAX(r.x) >= 5", db)


def test_end_to_end_avg_rendering():
    db = {
        "r": Relation.from_rows(("g", "x"), [("p", 1), ("p", 2), ("q", 7)]),
        "s": Relation.from_rows(("g",), [("p",), ("q",)]),
    }
    cq = extract_cq(parse_query(
        "SELECT r.g, AVG(r.x) FROM r, s WHERE r.g = s.g GROUP BY r.g"))
    naive = eval_naive(cq, db)
    assert ("p", "1.500000") in naive.rows
    compiled = compile_cq(cq, mode="fullenum")
    assert bag_equal(eval_plan(compiled.plan, db).relation, naive)


def test_end_to_end_intra_atom_equality():
    db = {"r": Relation.from_rows(("a", "b", "c"),
                                  [(1, 1, "x"), (1, 2, "y"), (3, 3, "z")])}
    _check_all_modes("SELECT r.c FROM r WHERE r.a = r.b", db)


def test_end_to_end_distinct_aggregate_zeroma():
    db = {
        "r": Relation.from_rows(("g", "x", "k"),
                                [("p", 2, 1), ("p", 2, 1), ("p", 3, 1)]),
        "s": Relation.from_rows(("k",), [(1,), (1,)]),
    }
    cq = extract_cq(parse_query(
        "SELECT r.g, SUM(DISTINCT r.x) FROM r, s WHERE r.k = s.k "
        "GROUP BY r.g"))
    compiled = compile_cq(cq)
    assert compiled.mode is Mode.ZERO_MA
    res = eval_plan(compiled.plan, db)
    assert bag_equal(res.relation, eval_naive(cq, db))
    assert res.relation.rows == {("p", 5): 1}

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yansql.decomposition import (GHDecomposition, find_ghd, ghd_to_join_tree,
                                  validate_ghd)
from yansql.engine import Relation, bag_equal, eval_naive, eval_plan
from yansql.pipeline import (CyclicQuery, PipelineError, compare_on_db,
                             compile_cq, compile_sql)
from yansql.plan_builder import Mode, StageKind
from yansql.sql_frontend import extract_cq, parse_query
from yansql.testing import (cq_from_hypergraph, random_cyclic_hypergraph,
                            random_database)
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


def test_explicit_zeroma_over_a_decomposition_roots_at_the_guard_leaf():
    # the guard's own atom leaf can root a 0MA plan over the views
    compiled = compile_sql(
        "SELECT r.a, MIN(r.b) FROM r, s, t "
        "WHERE r.a = t.a AND r.b = s.b AND s.c = t.c GROUP BY r.a",
        ghd_width=2, mode="zeroma")
    tree = compiled.trees[0]
    assert tree.labels[tree.root].ref == "r"
    assert tree.labels[tree.root].kind == "atom"
    db = {
        "r": Relation.from_rows(("a", "b"), [(1, 2), (1, 5), (1, 2), (4, 2)]),
        "s": Relation.from_rows(("b", "c"), [(2, 3), (5, 3)]),
        "t": Relation.from_rows(("c", "a"), [(3, 1)]),
    }
    cmp = compare_on_db(compiled, db)
    assert cmp.equal
    assert cmp.naive.rows == {(1, 2): 1}


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

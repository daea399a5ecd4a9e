import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yansql.decomposition import (CyclicReport, DisconnectedInput,
                                  GHDecomposition, InvalidGHD, JoinTree,
                                  NoJoinTree, TooLarge, base_atom,
                                  connectedness_holds, enumerate_ghds,
                                  find_ghd, flat_gyo, ghd_from_json,
                                  ghd_to_join_tree, ghd_to_json,
                                  is_valid_join_tree, min_depth_oracle,
                                  validate_ghd)
from yansql.hypergraph import Hypergraph, build_hypergraph
from yansql.testing import (gyo_fixpoint_acyclic, random_acyclic_hypergraph,
                            random_hypergraph)

TRIANGLE = Hypergraph({"r": {"a", "b"}, "s": {"b", "c"}, "t": {"c", "a"}})


def university_hypergraph(university_cq):
    return build_hypergraph(university_cq)


def fig_tree(h):
    """The enrolled -> exams -> {courses, tutors} join tree."""
    return JoinTree(
        root="enrolled",
        parent={"exams": "enrolled", "courses": "exams", "tutors": "exams"},
        labels={n: base_atom(n) for n in ("enrolled", "exams", "courses", "tutors")},
        attrs={n: h.edges[n] for n in ("enrolled", "exams", "courses", "tutors")},
    )


# ---------------------------------------------------------------------------
# flat_gyo
# ---------------------------------------------------------------------------

def test_flat_gyo_university_is_flat_rooted_at_exams(university_cq):
    h = build_hypergraph(university_cq)
    tree = flat_gyo(h)
    assert isinstance(tree, JoinTree)
    # after degree-1 deletion all remaining edges are subsets of exams/tutors
    # {cid, student}; exams is the lexicographically first maximal edge
    assert tree.root == "exams"
    assert tree.children("exams") == ("courses", "enrolled", "tutors")
    assert tree.depth() == 1
    assert is_valid_join_tree(h, tree)
    # node attrs are the original edges, not the reduced ones
    assert tree.attrs["exams"] == h.edges["exams"]


def test_flat_gyo_triangle_reports_cyclic():
    report = flat_gyo(TRIANGLE)
    assert isinstance(report, CyclicReport)
    assert report.residual.edges == TRIANGLE.edges


def test_flat_gyo_single_edge():
    h = Hypergraph({"r": {"a", "b"}})
    tree = flat_gyo(h)
    assert tree.root == "r" and tree.depth() == 0
    assert is_valid_join_tree(h, tree)


def test_flat_gyo_equal_edges_attach_later_under_earlier():
    h = Hypergraph({"r": {"a", "b"}, "s": {"a", "b"}})
    tree = flat_gyo(h)
    assert tree.root == "r"
    assert tree.children("r") == ("s",)


def test_flat_gyo_disconnected_raises():
    with pytest.raises(DisconnectedInput):
        flat_gyo(Hypergraph({"r": {"a"}, "s": {"b"}}))


def test_flat_gyo_path():
    h = Hypergraph({"r": {"a", "b"}, "s": {"b", "c"}, "u": {"c", "d"}})
    tree = flat_gyo(h)
    assert is_valid_join_tree(h, tree)
    assert tree.depth() == 1
    assert tree.root == "s"


# ---------------------------------------------------------------------------
# is_valid_join_tree
# ---------------------------------------------------------------------------

def test_valid_fig_tree(university_cq):
    h = build_hypergraph(university_cq)
    assert is_valid_join_tree(h, fig_tree(h))


def test_invalid_tree_disconnected_variable(university_cq):
    h = build_hypergraph(university_cq)
    # courses as parent of enrolled: student occurs in enrolled, exams,
    # tutors but not courses, so its occurrence set is disconnected
    bad = JoinTree(
        root="exams",
        parent={"courses": "exams", "tutors": "exams", "enrolled": "courses"},
        labels={n: base_atom(n) for n in ("enrolled", "exams", "courses", "tutors")},
        attrs={n: h.edges[n] for n in ("enrolled", "exams", "courses", "tutors")},
    )
    assert not is_valid_join_tree(h, bad)


def test_single_node_tree_valid():
    h = Hypergraph({"r": {"a", "b"}})
    tree = JoinTree("r", {}, {"r": base_atom("r")}, {"r": h.edges["r"]})
    assert is_valid_join_tree(h, tree)


def test_bijection_violations_rejected():
    h = Hypergraph({"r": {"a", "b"}, "s": {"b", "c"}})
    missing = JoinTree("r", {}, {"r": base_atom("r")}, {"r": h.edges["r"]})
    assert not is_valid_join_tree(h, missing)
    doubled = JoinTree(
        "x", {"y": "x"},
        {"x": base_atom("r"), "y": base_atom("r")},
        {"x": h.edges["r"], "y": h.edges["r"]})
    assert not is_valid_join_tree(h, doubled)


def test_rerooted_preserves_validity(university_cq):
    h = build_hypergraph(university_cq)
    tree = fig_tree(h)
    for node in tree.nodes:
        assert is_valid_join_tree(h, tree.rerooted(node))


# ---------------------------------------------------------------------------
# min_depth_oracle
# ---------------------------------------------------------------------------

def test_oracle_university_depth_one(university_cq):
    assert min_depth_oracle(build_hypergraph(university_cq)) == 1


def test_oracle_path_depth_one():
    h = Hypergraph({"r": {"a", "b"}, "s": {"b", "c"}, "u": {"c", "d"}})
    assert min_depth_oracle(h) == 1


def test_oracle_single_edge_zero():
    assert min_depth_oracle(Hypergraph({"r": {"a", "b"}})) == 0


def test_oracle_cyclic_raises():
    with pytest.raises(NoJoinTree):
        min_depth_oracle(TRIANGLE)


def test_oracle_too_large():
    h = Hypergraph({f"e{i}": {f"v{i}", "w"} for i in range(8)})
    with pytest.raises(TooLarge):
        min_depth_oracle(h)


def test_oracle_long_chain_needs_depth():
    # chain of 5 edges: only path-shaped trees are valid, best root is the
    # middle, depth 2
    h = Hypergraph({f"e{i}": {f"v{i}", f"v{i+1}"} for i in range(5)})
    assert min_depth_oracle(h) == 2
    tree = flat_gyo(h)
    assert tree.depth() == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_oracle_matches_literal_tree_enumeration(seed):
    """Independent re-derivation: enumerate every labeled tree, filter with
    the literal is_valid_join_tree, take the minimum depth over roots."""
    from yansql.decomposition import _prufer_trees

    rng = random.Random(seed)
    h = random_acyclic_hypergraph(rng, rng.randint(2, 4))
    labels = sorted(h.edges)
    n = len(labels)
    best = None
    for edges in _prufer_trees(n):
        adj = {i: [] for i in range(n)}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        for root in range(n):
            parent = {}
            stack = [root]
            seen = {root}
            while stack:
                u = stack.pop()
                for nxt in adj[u]:
                    if nxt not in seen:
                        seen.add(nxt)
                        parent[labels[nxt]] = labels[u]
                        stack.append(nxt)
            tree = JoinTree(labels[root], parent,
                            {l: base_atom(l) for l in labels},
                            {l: h.edges[l] for l in labels})
            if is_valid_join_tree(h, tree):
                depth = tree.depth()
                best = depth if best is None else min(best, depth)
    assert best == min_depth_oracle(h)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_flat_gyo_depth_matches_oracle(seed):
    rng = random.Random(seed)
    h = random_acyclic_hypergraph(rng, rng.randint(1, 5))
    tree = flat_gyo(h)
    assert isinstance(tree, JoinTree)
    assert is_valid_join_tree(h, tree)
    assert tree.depth() == min_depth_oracle(h)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_flat_gyo_agrees_with_fixpoint(seed):
    rng = random.Random(seed)
    h = random_hypergraph(rng)
    if len({v for vs in h.edges.values() for v in vs}) == 0:
        return
    from yansql.hypergraph import is_connected
    if not is_connected(h):
        return
    verdict = gyo_fixpoint_acyclic(h, random.Random(seed + 1))
    result = flat_gyo(h)
    assert isinstance(result, JoinTree) == verdict


# ---------------------------------------------------------------------------
# GHDs
# ---------------------------------------------------------------------------

def test_find_ghd_triangle_width2():
    ghd = find_ghd(TRIANGLE, 2)
    assert ghd is not None
    assert validate_ghd(TRIANGLE, ghd)
    assert ghd.width == 2
    # deterministic first decomposition: {r} and {s, t}
    assert ghd.canonical() == frozenset({frozenset({"r"}),
                                         frozenset({"s", "t"})})
    bags = sorted(ghd.bags.values(), key=len)
    assert bags == [frozenset({"a", "b"}), frozenset({"a", "b", "c"})]


def test_find_ghd_triangle_width1_none():
    assert find_ghd(TRIANGLE, 1) is None


def test_find_ghd_acyclic_width1_singletons(university_cq):
    h = build_hypergraph(university_cq)
    ghd = find_ghd(h, 1)
    assert ghd is not None
    assert validate_ghd(h, ghd)
    assert ghd.width == 1
    assert all(len(c) == 1 for c in ghd.covers.values())


def test_enumerate_ghds_distinct():
    found = enumerate_ghds(TRIANGLE, 2, limit=8)
    assert 1 < len(found) <= 8
    canons = {g.canonical() for g in found}
    assert len(canons) == len(found)
    for g in found:
        assert validate_ghd(TRIANGLE, g)
    # seeded enumeration is deterministic
    again = enumerate_ghds(TRIANGLE, 2, limit=8, seed=7)
    assert [g.canonical() for g in again] == \
        [g.canonical() for g in enumerate_ghds(TRIANGLE, 2, limit=8, seed=7)]


def test_find_ghd_too_large():
    h = Hypergraph({f"e{i}": {f"a{i}", f"a{i+1}"} for i in range(13)})
    with pytest.raises(TooLarge):
        find_ghd(h, 2)
    with pytest.raises(TooLarge):
        find_ghd(TRIANGLE, 4)


def test_validate_ghd_rejects_bag_not_covered():
    ghd = GHDecomposition(
        root="n0",
        parent={"n1": "n0"},
        bags={"n0": frozenset({"a", "b", "c"}), "n1": frozenset({"a", "b"})},
        covers={"n0": frozenset({"r", "s"}), "n1": frozenset({"t"})},
    )
    # bag {a, b} is not inside t's vertices {c, a}
    assert not validate_ghd(TRIANGLE, ghd)
    good = GHDecomposition(
        root="n0",
        parent={"n1": "n0"},
        bags={"n0": frozenset({"a", "b", "c"}), "n1": frozenset({"c", "a"})},
        covers={"n0": frozenset({"r", "s"}), "n1": frozenset({"t"})},
    )
    assert validate_ghd(TRIANGLE, good)


def test_validate_ghd_rejects_connectedness_violation():
    h = Hypergraph({"r": {"a", "b"}, "s": {"b", "c"}, "u": {"c", "d"}})
    ghd = GHDecomposition(
        root="n0",
        parent={"n1": "n0", "n2": "n1"},
        bags={"n0": frozenset({"a", "b"}), "n1": frozenset({"c", "d"}),
              "n2": frozenset({"b", "c"})},
        covers={"n0": frozenset({"r"}), "n1": frozenset({"u"}),
                "n2": frozenset({"s"})},
    )
    # b occurs in n0 and n2 but not on the path node n1
    assert not validate_ghd(h, ghd)


def _atom_leaves(tree) -> list:
    """Atom refs of the tree's atom-labelled nodes, each checked a leaf."""
    refs = []
    for node, label in tree.labels.items():
        if label.kind == "atom":
            assert tree.children(node) == ()
            refs.append(label.ref)
    return sorted(refs)


def test_ghd_to_join_tree_triangle(triangle_cq):
    h = build_hypergraph(triangle_cq)
    ghd = find_ghd(h, 2)
    tree, views = ghd_to_join_tree(ghd, triangle_cq)
    assert connectedness_holds(tree)
    # one view per GHD node, then one leaf per atom
    assert [v.view_id for v in views] == ["v1", "v2"]
    assert sorted(v.atom_ids for v in views) == sorted(
        tuple(sorted(c)) for c in ghd.covers.values())
    assert all(tree.labels[v.view_id].kind == "view" for v in views)
    assert tree.root == "v1"
    assert _atom_leaves(tree) == ["r", "s", "t"]
    assert tree.nodes == ("v1", "v2", "v3", "v4", "v5")


def test_ghd_to_join_tree_covers_every_atom(triangle_cq):
    # an imported decomposition may cover an atom only via bag containment;
    # that atom still gets its own leaf
    h = build_hypergraph(triangle_cq)
    ghd = GHDecomposition(
        root="n0",
        parent={},
        bags={"n0": frozenset({"a", "b", "c"})},
        covers={"n0": frozenset({"r", "s"})},
    )
    assert validate_ghd(h, ghd)  # t is inside the bag
    tree, views = ghd_to_join_tree(ghd, triangle_cq)
    assert [(v.view_id, v.atom_ids) for v in views] == [("v1", ("r", "s"))]
    assert _atom_leaves(tree) == ["r", "s", "t"]
    assert len(tree.nodes) == 4
    assert all(tree.parent[n] == "v1" for n in tree.nodes if n != "v1")


def test_ghd_to_join_tree_projection_only(university_cq):
    # width-1 singleton covers give trivial single-atom views
    h = build_hypergraph(university_cq)
    ghd = find_ghd(h, 1)
    tree, views = ghd_to_join_tree(ghd, university_cq)
    assert all(len(v.atom_ids) == 1 for v in views)
    assert connectedness_holds(tree)


def test_ghd_to_join_tree_invalid_raises(triangle_cq):
    bad = GHDecomposition(
        root="n0", parent={},
        bags={"n0": frozenset({"a", "b"})}, covers={"n0": frozenset({"r"})})
    with pytest.raises(InvalidGHD):
        ghd_to_join_tree(bad, triangle_cq)


def test_ghd_json_roundtrip():
    ghd = find_ghd(TRIANGLE, 2)
    doc = ghd_to_json(ghd)
    again = ghd_from_json(doc)
    assert again.bags == ghd.bags
    assert again.covers == ghd.covers
    assert again.parent == ghd.parent
    assert again.root == ghd.root
    with pytest.raises(InvalidGHD):
        ghd_from_json("{not json")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9))
def test_ghd_search_results_always_validate(seed):
    rng = random.Random(seed)
    h = random_acyclic_hypergraph(rng, rng.randint(2, 5))
    for width in (1, 2):
        ghd = find_ghd(h, width, seed=seed % 5 or None)
        if ghd is not None:
            assert validate_ghd(h, ghd)
            assert ghd.width <= width

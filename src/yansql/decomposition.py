"""Join-tree construction (Flat-GYO), validation, and GHDs for cyclic queries.

Flat-GYO layers the classical GYO reduction so that each while-iteration
absorbs every edge that is a subset of some maximal edge.  The resulting
join tree has minimum depth over all join trees of the hypergraph;
`min_depth_oracle` verifies this independently by enumerating all labeled
trees.  Cyclic hypergraphs are handled by an exhaustive search for
generalized hypertree decompositions of bounded width, which convert back
to join trees over set-valued view nodes with one leaf per atom.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import YansqlError
from .hypergraph import Hypergraph, is_connected
from .sql_frontend import ConjunctiveQuery


class DecompositionError(YansqlError):
    pass


class DisconnectedInput(DecompositionError):
    pass


class TooLarge(DecompositionError):
    pass


class NoJoinTree(DecompositionError):
    pass


class InvalidGHD(DecompositionError):
    pass


# ---------------------------------------------------------------------------
# Join trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeLabel:
    kind: str  # "atom" | "view"
    ref: str


def base_atom(ref: str) -> NodeLabel:
    return NodeLabel("atom", ref)


def view_label(ref: str) -> NodeLabel:
    return NodeLabel("view", ref)


@dataclass
class JoinTree:
    root: str
    parent: dict  # child node -> parent node (root absent)
    labels: dict  # node -> NodeLabel
    attrs: dict   # node -> frozenset of variables

    @property
    def nodes(self) -> tuple:
        return tuple(sorted(self.labels))

    def children(self, node: str) -> tuple:
        return tuple(sorted(c for c, p in self.parent.items() if p == node))

    def postorder(self) -> list:
        out = []

        def walk(u):
            for c in self.children(u):
                walk(c)
            out.append(u)

        walk(self.root)
        return out

    def preorder(self) -> list:
        out = []

        def walk(u):
            out.append(u)
            for c in self.children(u):
                walk(c)

        walk(self.root)
        return out

    def depth(self) -> int:
        def walk(u):
            kids = self.children(u)
            return 0 if not kids else 1 + max(walk(c) for c in kids)

        return walk(self.root)

    def subtree_nodes(self, node: str) -> frozenset:
        out = set()
        stack = [node]
        while stack:
            u = stack.pop()
            out.add(u)
            stack.extend(self.children(u))
        return frozenset(out)

    def path(self, a: str, b: str) -> list:
        """Nodes on the path from a to b, inclusive."""
        up_a = [a]
        while up_a[-1] != self.root:
            up_a.append(self.parent[up_a[-1]])
        up_b = [b]
        while up_b[-1] != self.root:
            up_b.append(self.parent[up_b[-1]])
        ancestors_a = {n: i for i, n in enumerate(up_a)}
        for j, n in enumerate(up_b):
            if n in ancestors_a:
                return up_a[:ancestors_a[n]] + up_b[:j + 1][::-1]
        raise ValueError("nodes not in one tree")

    def rerooted(self, new_root: str) -> "JoinTree":
        """Re-root; connectedness is root-independent so validity holds."""
        if new_root not in self.labels:
            raise KeyError(new_root)
        chain = [new_root]
        while chain[-1] != self.root:
            chain.append(self.parent[chain[-1]])
        parent = dict(self.parent)
        for child in chain[:-1]:
            del parent[child]
        for child, par in zip(chain, chain[1:]):
            parent[par] = child
        return JoinTree(new_root, parent, dict(self.labels), dict(self.attrs))

    def pretty(self) -> str:
        lines = []

        def walk(u, depth):
            lines.append("  " * depth + u)
            for c in self.children(u):
                walk(c, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


@dataclass
class CyclicReport:
    """Irreducible residual hypergraph left over by Flat-GYO."""
    residual: Hypergraph


def _connected_in_tree(tree: JoinTree, nodes: frozenset) -> bool:
    if len(nodes) <= 1:
        return True
    adj: dict = {u: set() for u in nodes}
    for child, par in tree.parent.items():
        if child in nodes and par in nodes:
            adj[child].add(par)
            adj[par].add(child)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == set(nodes)


def connectedness_holds(tree: JoinTree) -> bool:
    """Each variable's occurrence set must form a connected subtree."""
    occurrences: dict = {}
    for node, vs in tree.attrs.items():
        for v in vs:
            occurrences.setdefault(v, set()).add(node)
    return all(_connected_in_tree(tree, frozenset(nodes))
               for nodes in occurrences.values())


def _is_rooted_tree(root: str, parent: dict, nodes: set) -> bool:
    """`parent` links `nodes` into one tree: every non-root reaches the
    root without a cycle."""
    if root not in nodes or set(parent) != nodes - {root}:
        return False
    for node in parent:
        seen = {node}
        cur = node
        while cur != root:
            cur = parent.get(cur)
            if cur is None or cur in seen:
                return False
            seen.add(cur)
    return True


def is_valid_join_tree(h: Hypergraph, t: JoinTree) -> bool:
    """Bijection between nodes and edges plus the connectedness condition."""
    node_refs = sorted(lbl.ref for lbl in t.labels.values())
    if node_refs != sorted(h.edges):
        return False
    if any(lbl.kind != "atom" for lbl in t.labels.values()):
        return False
    if not _is_rooted_tree(t.root, t.parent, set(t.labels)):
        return False
    if any(t.attrs.get(n) != h.edges[t.labels[n].ref] for n in t.labels):
        return False
    return connectedness_holds(t)


def flat_gyo(h: Hypergraph):
    """Deterministic layered GYO; returns a JoinTree or a CyclicReport.

    Per while-iteration: all degree-1 vertices are deleted globally, then
    maximal edges are processed in lexicographic label order and absorb each
    remaining edge that is a (non-strict) subset of them, children attaching
    in lexicographic order.
    """
    if not h.edges:
        raise DisconnectedInput("empty hypergraph")
    if not is_connected(h):
        raise DisconnectedInput("hypergraph is not connected")
    edges = dict(h.edges)
    parent: dict = {}
    while len(edges) > 1:
        degree = Counter(v for vs in edges.values() for v in vs)
        lonely = {v for v, n in degree.items() if n == 1}
        if lonely:
            edges = {label: vs - lonely for label, vs in edges.items()}
        maximal = [e for e in sorted(edges)
                   if not any(f != e and edges[e] < edges[f] for f in edges)]
        absorbed = False
        for e in maximal:
            if e not in edges:
                continue  # equal-set edge already absorbed this round
            for c in sorted(edges):
                if c != e and edges[c] <= edges[e]:
                    parent[c] = e
                    del edges[c]
                    absorbed = True
        if not absorbed and not lonely:
            return CyclicReport(Hypergraph(edges))
    root = next(iter(edges))
    nodes = set(parent) | {root}
    return JoinTree(
        root=root,
        parent=parent,
        labels={n: base_atom(n) for n in nodes},
        attrs={n: h.edges[n] for n in nodes},
    )


# ---------------------------------------------------------------------------
# Minimum-depth oracle
# ---------------------------------------------------------------------------

_ORACLE_MAX_EDGES = 7


def _prufer_trees(n: int):
    """All labeled unrooted trees on nodes 0..n-1, as edge lists."""
    if n == 1:
        yield []
        return
    if n == 2:
        yield [(0, 1)]
        return
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = []
        remaining = list(seq)
        leaves = sorted(i for i in range(n) if degree[i] == 1)
        for x in remaining:
            leaf = leaves.pop(0)
            edges.append((leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                # keep the leaf pool sorted for the canonical decode
                bisect.insort(leaves, x)
        edges.append((leaves[0], leaves[1]))
        yield edges


@lru_cache(maxsize=8)
def _tree_tables(n: int):
    """Per labeled tree on n nodes: (connected-subset table, min depth).

    The table maps a bitmask of nodes to whether that node set is connected
    in the tree; min depth is taken over all root choices.
    """
    tables = []
    for edges in _prufer_trees(n):
        adj = [[] for _ in range(n)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        conn = [False] * (1 << n)
        for mask in range(1, 1 << n):
            start = (mask & -mask).bit_length() - 1
            seen = 1 << start
            stack = [start]
            while stack:
                for nxt in adj[stack.pop()]:
                    bit = 1 << nxt
                    if mask & bit and not seen & bit:
                        seen |= bit
                        stack.append(nxt)
            conn[mask] = seen == mask
        best = n
        for root in range(n):
            depth = [0] * n
            order = [root]
            seen_nodes = {root}
            height = 0
            while order:
                u = order.pop()
                height = max(height, depth[u])
                for nxt in adj[u]:
                    if nxt not in seen_nodes:
                        seen_nodes.add(nxt)
                        depth[nxt] = depth[u] + 1
                        order.append(nxt)
            best = min(best, height)
        tables.append((conn, best))
    return tables


def min_depth_oracle(h: Hypergraph) -> int:
    """Brute-force minimum join-tree depth by enumerating all labeled trees."""
    labels = sorted(h.edges)
    n = len(labels)
    if n > _ORACLE_MAX_EDGES:
        raise TooLarge(f"oracle limited to {_ORACLE_MAX_EDGES} edges, got {n}")
    if n == 1:
        return 0
    occurrences: dict = {}
    for i, label in enumerate(labels):
        for v in h.edges[label]:
            occurrences[v] = occurrences.get(v, 0) | (1 << i)
    var_masks = list(occurrences.values())
    best = None
    for conn, depth in _tree_tables(n):
        if all(conn[mask] for mask in var_masks):
            best = depth if best is None else min(best, depth)
    if best is None:
        raise NoJoinTree("hypergraph has no join tree (cyclic)")
    return best


# ---------------------------------------------------------------------------
# Generalized hypertree decompositions
# ---------------------------------------------------------------------------

_GHD_MAX_EDGES = 12
_GHD_WIDTHS = (1, 2, 3)


@dataclass
class GHDecomposition:
    root: str
    parent: dict  # node -> parent node
    bags: dict    # node -> frozenset of variables
    covers: dict  # node -> frozenset of atom ids

    @property
    def width(self) -> int:
        return max(len(c) for c in self.covers.values())

    @property
    def nodes(self) -> tuple:
        return tuple(sorted(self.bags))

    def children(self, node: str) -> tuple:
        return tuple(sorted(c for c, p in self.parent.items() if p == node))

    def canonical(self) -> frozenset:
        return frozenset(self.covers.values())


def validate_ghd(h: Hypergraph, g: GHDecomposition) -> bool:
    """Edge coverage, bag containment, and per-variable connectedness."""
    nodes = set(g.bags)
    if set(g.covers) != nodes or not _is_rooted_tree(g.root, g.parent, nodes):
        return False
    for cover in g.covers.values():
        if not cover or any(label not in h.edges for label in cover):
            return False
    for label, vs in h.edges.items():
        if not any(vs <= bag for bag in g.bags.values()):
            return False
    for node in nodes:
        union = frozenset().union(*(h.edges[label] for label in g.covers[node]))
        if not g.bags[node] <= union:
            return False
    tree = JoinTree(g.root, dict(g.parent),
                    {n: view_label(n) for n in nodes}, dict(g.bags))
    return connectedness_holds(tree)


def _ghd_candidates(h: Hypergraph, width: int) -> list:
    labels = sorted(h.edges)
    out = []
    for size in range(1, width + 1):
        for combo in itertools.combinations(labels, size):
            bag = frozenset().union(*(h.edges[label] for label in combo))
            out.append((frozenset(combo), bag))
    return out


def enumerate_ghds(h: Hypergraph, width: int, limit: Optional[int] = None,
                   seed: Optional[int] = None) -> list:
    """Backtracking search over covers that partition the atom set.

    Candidate covers are tried by (cover size, lexicographic labels); a seed
    shuffles the candidate order to sample structurally different
    decompositions.
    """
    if len(h.edges) > _GHD_MAX_EDGES:
        raise TooLarge(f"GHD search limited to {_GHD_MAX_EDGES} edges")
    if width not in _GHD_WIDTHS:
        raise TooLarge(f"GHD search limited to widths {_GHD_WIDTHS}")
    if not is_connected(h):
        raise DisconnectedInput("GHD search requires a connected hypergraph")
    labels = sorted(h.edges)
    candidates = _ghd_candidates(h, width)
    candidates.sort(key=lambda cb: (len(cb[0]), tuple(sorted(cb[0]))))
    if seed is not None:
        random.Random(seed).shuffle(candidates)
    results: list = []
    seen: set = set()

    def build(chosen: list) -> Optional[GHDecomposition]:
        bag_edges = {f"n{i}": bag for i, (_, bag) in enumerate(chosen)}
        tree = flat_gyo(Hypergraph(bag_edges))
        if isinstance(tree, CyclicReport):
            return None
        covers = {f"n{i}": cover for i, (cover, _) in enumerate(chosen)}
        return GHDecomposition(tree.root, dict(tree.parent), bag_edges, covers)

    def search(chosen: list, used: frozenset) -> bool:
        if limit is not None and len(results) >= limit:
            return True
        uncovered = [l for l in labels if l not in used]
        if not uncovered:
            ghd = build(chosen)
            if ghd is not None and ghd.canonical() not in seen:
                seen.add(ghd.canonical())
                results.append(ghd)
                if limit is not None and len(results) >= limit:
                    return True
            return False
        first = uncovered[0]
        for cover, bag in candidates:
            if first not in cover or cover & used:
                continue
            if search(chosen + [(cover, bag)], used | cover):
                return True
        return False

    search([], frozenset())
    return results


def find_ghd(h: Hypergraph, width: int,
             seed: Optional[int] = None) -> Optional[GHDecomposition]:
    """First decomposition of at most the requested width, or None."""
    found = enumerate_ghds(h, width, limit=1, seed=seed)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# GHD -> join tree over views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ViewDefinition:
    view_id: str
    atom_ids: tuple          # cover atoms, lexicographic
    projection: tuple        # bag variables, lexicographic


def ghd_to_join_tree(g: GHDecomposition, cq: ConjunctiveQuery,
                     start: int = 1):
    """Each GHD node becomes a set-valued view, DISTINCT pi_bag(join of its
    cover atoms), and each atom is attached exactly once, as an
    atom-labelled leaf under the first node (in node order) whose bag
    contains its variables.  The views only filter; result multiplicities
    come from the atom leaves alone, so covers may overlap or reuse atoms.

    View ids are v<start>, v<start+1>, .. in preorder; the atom leaves
    continue the numbering in atom-id order.
    """
    h = Hypergraph({a.atom_id: a.variables for a in cq.atoms})
    if not validate_ghd(h, g):
        raise InvalidGHD("decomposition does not validate against the query")

    view_ids: dict = {}
    counter = itertools.count(start)

    def assign(u):
        view_ids[u] = f"v{next(counter)}"
        for c in g.children(u):
            assign(c)

    assign(g.root)

    parent = {}
    labels = {}
    attrs = {}
    views = []
    for node in g.nodes:
        vid = view_ids[node]
        labels[vid] = view_label(vid)
        attrs[vid] = g.bags[node]
        if node != g.root:
            parent[vid] = view_ids[g.parent[node]]
        views.append(ViewDefinition(
            vid,
            tuple(sorted(g.covers[node])),
            tuple(sorted(g.bags[node])),
        ))
    for atom in sorted(cq.atoms, key=lambda a: a.atom_id):
        host = next(n for n in g.nodes if atom.variables <= g.bags[n])
        leaf = f"v{next(counter)}"
        labels[leaf] = base_atom(atom.atom_id)
        attrs[leaf] = atom.variables
        parent[leaf] = view_ids[host]
    # validate_ghd checked connectedness over the bags, and each leaf's
    # variables lie inside its host's bag
    return JoinTree(view_ids[g.root], parent, labels, attrs), views


# ---------------------------------------------------------------------------
# GHD file format
# ---------------------------------------------------------------------------

def ghd_to_json(g: GHDecomposition) -> str:
    doc = {
        "root": g.root,
        "nodes": [
            {"id": n, "bag": sorted(g.bags[n]), "cover": sorted(g.covers[n])}
            for n in g.nodes
        ],
        "edges": sorted([p, c] for c, p in g.parent.items()),
    }
    return json.dumps(doc, indent=2)


def ghd_from_json(text: str) -> GHDecomposition:
    try:
        doc = json.loads(text)
        bags = {n["id"]: frozenset(n["bag"]) for n in doc["nodes"]}
        covers = {n["id"]: frozenset(n["cover"]) for n in doc["nodes"]}
        parent = {child: par for par, child in doc["edges"]}
        root = doc["root"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InvalidGHD(f"malformed decomposition document: {exc}") from exc
    if root not in bags:
        raise InvalidGHD(f"root {root!r} is not a node")
    return GHDecomposition(root, parent, bags, covers)

"""Join-tree construction (Flat-GYO), validation, and GHDs for cyclic queries.

Flat-GYO layers the classical GYO reduction so that each while-iteration
absorbs every edge that is a subset of some maximal edge; it works on
vertex bitmasks.  The resulting join tree has minimum depth over all join
trees of the hypergraph; `min_depth_oracle` verifies this independently
over all labeled trees, kept per edge count as one bitset per edge subset
(bit t: the subset is connected in tree t, trees ordered by minimum
depth), so a check ANDs one bitset per variable.  Cyclic hypergraphs go
through det-k-decomp, a memoised search for hypertree decompositions of
bounded width (bag = vars(cover) & (component | connector), plus a node
for each atom that no cover holds), which convert back to join trees over
set-valued view nodes, one leaf per atom.
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

    def child_map(self) -> dict:
        """node -> its children in label order; leaves are absent."""
        kids: dict = {}
        for child in sorted(self.parent):
            kids.setdefault(self.parent[child], []).append(child)
        return {u: tuple(cs) for u, cs in kids.items()}

    def children(self, node: str) -> tuple:
        return self.child_map().get(node, ())

    def _walk(self, reverse: bool = False):
        """(node, depth) in preorder, siblings in label order or reversed."""
        kids = self.child_map()
        stack = [(self.root, 0)]
        while stack:
            u, depth = stack.pop()
            yield u, depth
            cs = kids.get(u, ())
            stack.extend((c, depth + 1) for c in (cs if reverse else cs[::-1]))

    def postorder(self) -> list:
        # children before their parent, siblings in label order
        return [u for u, _ in self._walk(reverse=True)][::-1]

    def preorder(self) -> list:
        return [u for u, _ in self._walk()]

    def depth(self) -> int:
        """Edges on the longest path from the root down to a node."""
        depths = {self.root: 0}
        for node in self.parent:
            path = []
            while node not in depths:  # climb to a node of known depth
                path.append(node)
                node = self.parent[node]
            d = depths[node]
            for node in reversed(path):
                d += 1
                depths[node] = d
        return max(depths.values())

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
        return "\n".join("  " * d + u for u, d in self._walk())


@dataclass
class CyclicReport:
    """Irreducible residual hypergraph left over by Flat-GYO."""
    residual: Hypergraph


def connectedness_holds(tree: JoinTree) -> bool:
    """Each variable's occurrence set must form a connected subtree.

    `tree.parent` must link the nodes into a rooted tree.  Then each
    connected part of an occurrence set has exactly one node whose parent
    lacks the variable (the root lacks a parent), so the condition holds
    iff no variable is new at two nodes.
    """
    attrs, parent = tree.attrs, tree.parent
    new = [v for node, vs in attrs.items()
           for v in vs - attrs.get(parent.get(node), frozenset())]
    return len(new) == len(set(new))


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
    in lexicographic order.  Edges are vertex bitmasks throughout.
    """
    if not h.edges:
        raise DisconnectedInput("empty hypergraph")
    bits: dict = {}  # vertex -> its bit
    edges: dict = {}  # label -> vertex bitmask
    for label, vs in h.edges.items():
        edges[label] = 0
        for v in vs:
            edges[label] |= bits.setdefault(v, 1 << len(bits))
    if not _masks_connected(list(edges.values())):
        raise DisconnectedInput("hypergraph is not connected")
    parent: dict = {}
    while len(edges) > 1:
        once = twice = 0
        for vs in edges.values():
            twice |= once & vs
            once |= vs
        lonely = once & ~twice
        if lonely:
            edges = {label: vs & ~lonely for label, vs in edges.items()}
        # a strict superset has more bits, and a subset of a non-maximal
        # edge is a subset of the maximal edge above that one
        tops: list = []
        for vs in sorted(set(edges.values()), key=int.bit_count, reverse=True):
            if all(vs | top != top for top in tops):
                tops.append(vs)
        maximal = [e for e, vs in edges.items() if vs in tops]
        absorbed = False
        for e in maximal:
            if e not in edges:
                continue  # equal-set edge already absorbed this round
            top = edges[e]
            for c in [c for c, vs in edges.items() if c != e and vs | top == top]:
                parent[c] = e
                del edges[c]
                absorbed = True
        if not absorbed:  # deleting lonely vertices makes no new ones
            return CyclicReport(Hypergraph({
                label: [v for v, bit in bits.items() if vs & bit]
                for label, vs in edges.items()}))
    return JoinTree(
        root=next(iter(edges)),
        parent=parent,
        labels={n: base_atom(n) for n in h.edges},
        attrs=dict(h.edges),
    )


def _masks_connected(masks: list) -> bool:
    """True iff the edges (vertex bitmasks) form one intersection component."""
    reached, left = masks[0], masks[1:]
    while left:
        rest = []
        for vs in left:
            if vs & reached:
                reached |= vs
            else:
                rest.append(vs)
        if len(rest) == len(left):
            return False
        left = rest
    return True


# ---------------------------------------------------------------------------
# Minimum-depth oracle
# ---------------------------------------------------------------------------

_ORACLE_MAX_EDGES = 7


def _prufer_trees(n: int):
    """All labeled unrooted trees on nodes 0..n-1, as edge lists."""
    if n == 1:
        yield []
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


def _min_depth(n: int, edges: list) -> int:
    """A tree's minimum height over root choices: its radius, which is
    half its diameter rounded up."""
    adj: list = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)

    def farthest(src: int):
        dist = {src: 0}
        order = [src]
        for u in order:  # grows while it is walked: breadth-first
            for nxt in adj[u]:
                if nxt not in dist:
                    dist[nxt] = dist[u] + 1
                    order.append(nxt)
        return order[-1], dist[order[-1]]

    end, _ = farthest(0)
    return (farthest(end)[1] + 1) // 2


@lru_cache(maxsize=8)
def _tree_tables(n: int):
    """Connected-subset bitsets over every labeled tree on n nodes.

    Returns (connected, depths).  Trees t = 0, 1, .. go by minimum depth
    over root choices, depths[t], then in Pruefer order.  Bit t of
    connected[mask] says the node set `mask` is connected in tree t.  A
    set of two or more nodes is connected iff, for some node x in it, the
    set without x is connected and x has a tree neighbour in it (x a leaf
    of the subtree), so the table fills from smaller masks.
    """
    trees = [(_min_depth(n, edges), edges) for edges in _prufer_trees(n)]
    trees.sort(key=lambda tree: tree[0])
    size = len(trees)
    near = [[bytearray(size // 8 + 1) for _ in range(n)] for _ in range(n)]
    for t, (_, edges) in enumerate(trees):
        for a, b in edges:
            near[a][b][t >> 3] |= 1 << (t & 7)
            near[b][a][t >> 3] |= 1 << (t & 7)
    near = [[int.from_bytes(row, "little") for row in rows] for rows in near]
    connected = [0] * (1 << n)
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            connected[mask] = (1 << size) - 1  # every tree
            continue
        members = [x for x in range(n) if mask >> x & 1]
        for x in members:
            rest = mask ^ (1 << x)
            touch = 0
            for y in members:
                touch |= near[x][y]  # near[x][x] is empty
            connected[mask] |= connected[rest] & touch
    return connected, tuple(depth for depth, _ in trees)


def min_depth_oracle(h: Hypergraph) -> int:
    """Brute-force minimum join-tree depth over all labeled trees.

    A tree is a join tree iff each variable's occurrence mask is connected
    in it, so AND-ing those masks' tree bitsets leaves the join trees, and
    the lowest surviving bit is one of minimum depth.
    """
    labels = sorted(h.edges)
    n = len(labels)
    if n > _ORACLE_MAX_EDGES:
        raise TooLarge(f"oracle limited to {_ORACLE_MAX_EDGES} edges, got {n}")
    occurrences: dict = {}
    for i, label in enumerate(labels):
        for v in h.edges[label]:
            occurrences[v] = occurrences.get(v, 0) | (1 << i)
    connected, depths = _tree_tables(n)
    alive = connected[-1]  # every tree
    for mask in set(occurrences.values()):
        alive &= connected[mask]
    if not alive:
        raise NoJoinTree("hypergraph has no join tree (cyclic)")
    return depths[(alive & -alive).bit_length() - 1]


# ---------------------------------------------------------------------------
# Generalized hypertree decompositions
# ---------------------------------------------------------------------------

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


def _det_k_decomp(h: Hypergraph, width: int, seed: Optional[int]):
    """det-k-decomp (Gottlob & Samer, JEA 2008).  A subproblem is a
    component `comp` (a set of variables) and its connector `conn`, the
    variables comp's atoms share with the parent bag; each [bag]-component
    of comp must be strictly smaller than comp."""
    if width not in _GHD_WIDTHS:
        raise TooLarge(f"GHD search limited to widths {_GHD_WIDTHS}")
    if not h.edges or not is_connected(h):
        raise DisconnectedInput("GHD search requires a connected hypergraph")
    edges, labels, first = h.edges, sorted(h.edges), {}
    if seed is not None:
        random.Random(seed).shuffle(labels)

    def near(vs) -> list:
        return [label for label in labels if edges[label] & vs]

    def components(rest: frozenset):
        left = set(rest)
        while left:
            comp, size = {min(left)}, 0
            while size < len(comp):
                size = len(comp)
                touched = frozenset().union(*map(edges.get, near(comp)))
                comp |= touched & left
            left -= comp
            yield frozenset(comp), touched - comp

    def options(comp: frozenset, conn: frozenset):
        """(cover, bag, children) per separator whose children decompose."""
        scope, own = comp | conn, set(near(comp))
        # an atom outside scope adds nothing to the bag; the lone atom of a
        # hypergraph without variables is still a separator
        pool = near(scope) or labels
        for size in range(1, width + 1):
            for sep in sorted(itertools.combinations(pool, size),
                              key=lambda sep: not own.issuperset(sep)):
                covered = frozenset().union(*map(edges.get, sep))
                bag = covered & scope
                if not conn <= covered:
                    continue
                kids = list(components(comp - bag))
                if all(len(kid) < len(comp) and solve(kid, kid_conn)
                       for kid, kid_conn in kids):
                    yield frozenset(sep), bag, kids

    def solve(comp: frozenset, conn: frozenset):
        if (comp, conn) not in first:
            first[comp, conn] = next(
                ((sep, bag, tuple(solve(*kid) for kid in kids))
                 for sep, bag, kids in options(comp, conn)), None)
        return first[comp, conn]

    def subtrees(kids: list):
        """Every tuple of one subtree per subproblem in `kids`."""
        if not kids:
            return iter([()])
        return (((sep, bag, children),) + tail
                for sep, bag, grandkids in options(*kids[0])
                for children in subtrees(grandkids)
                for tail in subtrees(kids[1:]))

    def to_ghd(tree) -> GHDecomposition:
        g = GHDecomposition("n0", {}, {}, {})

        def add(cover, bag, children, host=None):
            node = f"n{len(g.bags)}"
            g.bags[node], g.covers[node] = bag, cover
            g.parent.update({node: host} if host else {})
            for child in children:
                add(*child, node)

        add(*tree)
        for label in sorted(set(edges).difference(*g.covers.values())):
            add(frozenset({label}), edges[label], (), next(
                n for n, bag in g.bags.items() if edges[label] <= bag))
        return g

    root = (h.vertices, frozenset())
    try:
        if solve(*root) is not None:  # the first, by the memoised search
            yield to_ghd(first[root])
            for (tree,) in itertools.islice(subtrees([root]), 1, None):
                yield to_ghd(tree)
    except RecursionError:
        raise TooLarge("decomposition deeper than the recursion limit") from None


def enumerate_ghds(h: Hypergraph, width: int, limit: Optional[int] = None,
                   seed: Optional[int] = None) -> list:
    """The first `limit` decompositions (all when None) of at most the
    requested width that det-k-decomp meets, distinct by `canonical()`.

    A separator is at most `width` atoms; they go by size, then those of
    the component's own atoms, then by label order, which a seed shuffles.
    A node's bag is vars(cover) & (component | connector).  An atom that no
    cover holds gets its own node, cover {atom} and bag vars(atom), under
    the first node (n0, n1, .. in preorder) whose bag holds its variables.
    """
    results: dict = {}
    search = _det_k_decomp(h, width, seed)
    while (limit is None or len(results) < limit) and (ghd := next(search, None)):
        results.setdefault(ghd.canonical(), ghd)
    return list(results.values())


def find_ghd(h: Hypergraph, width: int,
             seed: Optional[int] = None) -> Optional[GHDecomposition]:
    """First decomposition det-k-decomp finds (see `enumerate_ghds`), or None."""
    return next(_det_k_decomp(h, width, seed), None)


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
    A view drops the variables that only one atom has: the leaf of that
    atom keeps them, and a join on them would lose the leaf's NULLs.

    View ids are v<start>, v<start+1>, .. in preorder; the atom leaves
    continue the numbering in atom-id order.
    """
    h = Hypergraph({a.atom_id: a.variables for a in cq.atoms})
    if not validate_ghd(h, g):
        raise InvalidGHD("decomposition does not validate against the query")

    preorder = JoinTree(g.root, g.parent, {}, g.bags).preorder()
    view_ids = {u: f"v{i}" for i, u in enumerate(preorder, start)}
    counter = itertools.count(start + len(view_ids))

    atoms_of = Counter(v for a in cq.atoms for v in a.variables)
    parent, labels, attrs, views = {}, {}, {}, []
    for node in g.nodes:
        vid = view_ids[node]
        labels[vid] = view_label(vid)
        attrs[vid] = frozenset(v for v in g.bags[node] if atoms_of[v] > 1)
        if node != g.root:
            parent[vid] = view_ids[g.parent[node]]
        views.append(ViewDefinition(
            vid,
            tuple(sorted(g.covers[node])),
            tuple(sorted(attrs[vid])),
        ))
    for atom in sorted(cq.atoms, key=lambda a: a.atom_id):
        host = next(n for n in g.nodes if atom.variables <= g.bags[n])
        leaf = f"v{next(counter)}"
        labels[leaf] = base_atom(atom.atom_id)
        attrs[leaf] = atom.variables
        parent[leaf] = view_ids[host]
    # validate_ghd checked connectedness over the bags, and each leaf's
    # shared variables lie inside its host's view
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

"""Query hypergraphs: one labeled edge per atom, variables as vertices."""

from __future__ import annotations

from .sql_frontend import ConjunctiveQuery


class Hypergraph:
    """Immutable hypergraph with stable edge labels.

    Labels always refer to the originating atom even after vertex deletions
    performed by reduction algorithms (those work on copies).
    """

    def __init__(self, edges):
        self.edges = {label: frozenset(vs) for label, vs in sorted(dict(edges).items())}

    @property
    def vertices(self) -> frozenset:
        out = set()
        for vs in self.edges.values():
            out |= vs
        return frozenset(out)

    def __eq__(self, other):
        return isinstance(other, Hypergraph) and self.edges == other.edges

    def __repr__(self):
        return f"Hypergraph({self.edges!r})"

    def dump(self) -> str:
        """One line per edge, `label: v1 v2 ..`, labels sorted."""
        lines = []
        for label in sorted(self.edges):
            vs = " ".join(sorted(self.edges[label]))
            lines.append(f"{label}: {vs}".rstrip())
        return "\n".join(lines)


def build_hypergraph(cq: ConjunctiveQuery) -> Hypergraph:
    """One edge per atom, containing exactly that atom's variables."""
    return Hypergraph({a.atom_id: a.variables for a in cq.atoms})


def is_connected(h: Hypergraph) -> bool:
    """True iff the edge-intersection graph is connected."""
    labels = sorted(h.edges)
    if not labels:
        return True
    seen = {labels[0]}
    frontier = [labels[0]]
    while frontier:
        cur = frontier.pop()
        cur_vs = h.edges[cur]
        for other in labels:
            if other not in seen and cur_vs & h.edges[other]:
                seen.add(other)
                frontier.append(other)
    return len(seen) == len(labels)


def components(h: Hypergraph) -> list:
    """Connected components, ordered by their lexicographically first label.

    Edges with no vertices intersect nothing and form singleton components.
    """
    holders: dict = {}  # vertex -> labels of the edges holding it
    for label, vs in h.edges.items():
        for v in vs:
            holders.setdefault(v, []).append(label)
    out, seen = [], set()
    for label in h.edges:  # in label order
        if label in seen:
            continue
        comp = [label]
        seen.add(label)
        for cur in comp:  # grows while it is walked
            for v in h.edges[cur]:
                reached = [o for o in holders.pop(v, ()) if o not in seen]
                seen.update(reached)
                comp.extend(reached)
        out.append(Hypergraph({l: h.edges[l] for l in comp}))
    return out

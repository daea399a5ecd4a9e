"""Seeded generators for randomized verification.

Random acyclic conjunctive queries are built from a random tree over atoms
with join variables threaded along tree edges (optionally extended down
connected paths, so variables may span more than two atoms while occurrence
sets stay connected).  Databases use small domains with duplicates injected,
which makes dangling tuples and bag-semantics effects common.

`gyo_fixpoint_acyclic` is the independent straightforward acyclicity check:
remove degree-1 vertices and subset edges one at a time in a (seeded)
arbitrary order until nothing applies.

`run_on_sqlite` runs a plan's emitted SQL on in-memory sqlite3, the real
engine that differential tests and `scripts/blowup_demo.py` compare with.
"""

from __future__ import annotations

import random
import sqlite3
from collections import Counter
from typing import Optional

from .engine import Relation
from .hypergraph import Hypergraph
from .sql_emitter import GENERIC, emit_plan
from .sql_frontend import (AggregateCall, Atom, ConjunctiveQuery,
                           ConstantSelection)


# ---------------------------------------------------------------------------
# Independent GYO fixpoint
# ---------------------------------------------------------------------------

def gyo_fixpoint_acyclic(h: Hypergraph, rng: Optional[random.Random] = None) -> bool:
    """Classical any-order GYO reduction; acyclic iff at most one edge is left."""
    rng = rng or random.Random(0)
    edges = {label: set(vs) for label, vs in h.edges.items()}
    while True:
        labels = list(edges)
        rng.shuffle(labels)
        changed = False
        # one degree-1 vertex at a time, in shuffled order
        degree = Counter(v for vs in edges.values() for v in vs)
        vertices = sorted({v for vs in edges.values() for v in vs})
        rng.shuffle(vertices)
        for v in vertices:
            if degree[v] == 1:
                for vs in edges.values():
                    vs.discard(v)
                changed = True
                break
        if changed:
            continue
        for label in labels:
            absorber = next(
                (other for other in labels
                 if other != label and other in edges and label in edges
                 and edges[label] <= edges[other]),
                None,
            )
            if absorber is not None:
                del edges[label]
                changed = True
                break
        if not changed:
            break
    return len(edges) <= 1


# ---------------------------------------------------------------------------
# Random hypergraphs
# ---------------------------------------------------------------------------

def random_hypergraph(rng: random.Random, max_edges: int = 6,
                      max_vertices: int = 8) -> Hypergraph:
    n_vertices = rng.randint(2, max_vertices)
    vertices = [f"v{i}" for i in range(n_vertices)]
    n_edges = rng.randint(1, max_edges)
    edges = {}
    for i in range(n_edges):
        size = rng.randint(1, min(4, n_vertices))
        edges[f"e{i}"] = frozenset(rng.sample(vertices, size))
    return Hypergraph(edges)


def random_acyclic_hypergraph(rng: random.Random, n_edges: int,
                              extra_vars: int = 2) -> Hypergraph:
    """Edges threaded along a random tree: edge i>0 shares one fresh variable
    with its tree parent, optionally extended to deeper descendants."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"x{counter[0]}"

    members = [set() for _ in range(n_edges)]
    parent = {}
    for i in range(1, n_edges):
        parent[i] = rng.randrange(i)
    for i in range(1, n_edges):
        v = fresh()
        members[parent[i]].add(v)
        members[i].add(v)
        # sometimes extend the variable down a path below i
        cur = i
        while rng.random() < 0.3:
            kids = [j for j, p in parent.items() if p == cur]
            if not kids:
                break
            cur = rng.choice(kids)
            members[cur].add(v)
    for i in range(n_edges):
        for _ in range(rng.randint(0 if members[i] else 1, extra_vars)):
            members[i].add(fresh())
    return Hypergraph({f"e{i}": frozenset(vs) for i, vs in enumerate(members)})


def random_cyclic_hypergraph(rng: random.Random, max_edges: int = 8) -> Hypergraph:
    """Random cycle of binary edges plus optional chords/extra vertices."""
    n = rng.randint(3, max(3, max_edges))
    vertices = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(n):
        edges[f"e{i}"] = frozenset({vertices[i], vertices[(i + 1) % n]})
    return Hypergraph(edges)


# ---------------------------------------------------------------------------
# Random conjunctive queries and databases
# ---------------------------------------------------------------------------

def cq_from_hypergraph(h: Hypergraph, output_vars=None,
                       selections=()) -> ConjunctiveQuery:
    """Plain enumeration CQ whose atoms mirror the hypergraph edges; each
    vertex becomes an attribute of the same name."""
    atoms = tuple(
        Atom(label, label, tuple((v, v) for v in sorted(vs)))
        for label, vs in sorted(h.edges.items())
    )
    if output_vars is None:
        output_vars = tuple(sorted(h.vertices))
    return ConjunctiveQuery(
        atoms=atoms,
        selections=tuple(selections),
        output_vars=tuple(output_vars),
        grouping_vars=(),
        aggregates=(),
        having=None,
        distinct=False,
        select_one=False,
        statically_empty=False,
    )


def random_acyclic_cq(rng: random.Random, min_atoms: int = 2,
                      max_atoms: int = 8, max_selections: int = 3,
                      aggregate: Optional[str] = None) -> ConjunctiveQuery:
    """Random acyclic CQ with 1-3 constant selections.

    With `aggregate` in {"minmax", "distinct", "sum", "count", "avg"},
    grouping variables are forced inside one atom and a matching aggregate
    call is added; otherwise the query enumerates a random subset of its
    variables.
    """
    n_atoms = rng.randint(min_atoms, max_atoms)
    h = random_acyclic_hypergraph(rng, n_atoms)
    all_vars = sorted(h.vertices)
    atoms = tuple(
        Atom(label, label, tuple((v, v) for v in sorted(vs)))
        for label, vs in sorted(h.edges.items())
    )

    selections = []
    used = set()
    for _ in range(rng.randint(1, max_selections)):
        atom = rng.choice(atoms)
        if not atom.attr_vars:
            continue
        attr, _ = rng.choice(atom.attr_vars)
        if (atom.atom_id, attr) in used:
            continue  # avoid contradictory constants on one attribute
        used.add((atom.atom_id, attr))
        comparator = rng.choice(["=", "<", "<=", ">", ">=", "<>"])
        selections.append(ConstantSelection(
            atom.atom_id, attr, comparator, rng.randint(0, 7)))

    grouping: tuple = ()
    aggregates: tuple = ()
    output: tuple = ()
    if aggregate is None:
        k = rng.randint(1, min(4, len(all_vars)))
        output = tuple(sorted(rng.sample(all_vars, k)))
    else:
        guard = rng.choice([a for a in atoms if a.attr_vars])
        guard_vars = sorted(guard.variables)
        k = rng.randint(1, min(2, len(guard_vars)))
        grouping = tuple(sorted(rng.sample(guard_vars, k)))
        agg_var = rng.choice(guard_vars)
        if aggregate == "minmax":
            call = AggregateCall(rng.choice(["MIN", "MAX"]), agg_var, False)
        elif aggregate == "distinct":
            call = AggregateCall(rng.choice(["SUM", "COUNT", "AVG"]), agg_var, True)
        elif aggregate in ("sum", "count", "avg"):
            call = AggregateCall(aggregate.upper(), agg_var, False)
        else:
            raise ValueError(aggregate)
        aggregates = (call,)
        output = grouping
    return ConjunctiveQuery(
        atoms=atoms,
        selections=tuple(selections),
        output_vars=output,
        grouping_vars=grouping,
        aggregates=aggregates,
        having=None,
        distinct=False,
        select_one=False,
        statically_empty=False,
    )


def random_database(rng: random.Random, cq: ConjunctiveQuery,
                    max_rows: int = 50, domain: int = 8,
                    max_naive_rows: int = 200_000) -> dict:
    """Random relations with small domains and duplicates injected.

    Row counts shrink deterministically until the estimated naive join size
    stays below `max_naive_rows`, keeping oracle runs desk-scale while
    respecting the <=`max_rows`, <=`domain`-values shape.
    """
    rows_cap = max_rows
    while True:
        db = {}
        for atom in cq.atoms:
            arity = len(atom.attr_vars)
            schema = tuple(attr for attr, _ in atom.attr_vars)
            n = rng.randint(1, rows_cap)
            rows = [
                tuple(rng.randint(0, domain - 1) for _ in range(arity))
                for _ in range(n)
            ]
            # inject duplicates and the occasional null
            for _ in range(rng.randint(0, max(1, n // 4))):
                rows.append(rng.choice(rows))
            if arity and rng.random() < 0.3:
                base = list(rng.choice(rows))
                base[rng.randrange(arity)] = None
                rows.append(tuple(base))
            db[atom.relation] = Relation.from_rows(schema, rows)
        if _estimated_join_rows(cq, db, domain) <= max_naive_rows or rows_cap <= 4:
            return db
        rows_cap = max(4, rows_cap // 2)


def _estimated_join_rows(cq: ConjunctiveQuery, db: dict, domain: int) -> float:
    estimate = 1.0
    seen_vars: set = set()
    for atom in cq.atoms:
        rows = db[atom.relation].cardinality()
        shared = atom.variables & seen_vars
        estimate *= rows / (domain ** len(shared)) if shared else rows
        seen_vars |= atom.variables
        if estimate > 1e12:
            return estimate
    return max(estimate, 1.0)


def write_db_csv(db: dict, directory):
    from .engine import write_csv

    for name, rel in db.items():
        write_csv(rel, directory / f"{name}.csv")


def sqlite_database(db: dict) -> sqlite3.Connection:
    """In-memory sqlite3 database with one untyped table per relation."""
    con = sqlite3.connect(":memory:")
    for name, rel in db.items():
        con.execute(f"CREATE TABLE {name} ({', '.join(rel.schema)})")
        con.executemany(
            f"INSERT INTO {name} VALUES "
            f"({', '.join('?' for _ in rel.schema)})", rel.expanded())
    return con


def sqlite_rows(con: sqlite3.Connection, statements) -> list:
    """Run the statements in order; the rows of the last one."""
    for stmt in statements[:-1]:
        con.execute(stmt)
    return con.execute(statements[-1]).fetchall()


def run_on_sqlite(plan, db: dict, dialect=GENERIC) -> Counter:
    """Result rows of the plan's SQL (generic dialect by default) on
    in-memory sqlite3."""
    con = sqlite_database(db)
    try:
        return Counter(sqlite_rows(con, emit_plan(plan, dialect)))
    finally:
        con.close()

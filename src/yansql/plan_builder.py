"""Compile a rooted join tree and aggregation form into the staged plan IR.

A plan runs in five stages: SETUP (one view per tree node, with constant
selections, attribute-to-variable renaming, and early projection),
SEMIJOIN_UP (bottom-up pass reducing each non-leaf node by its children),
SEMIJOIN_DOWN (top-down pass, skipped for 0MA plans, restricted to the
covering subtree for partial plans), JOIN (greedy grouping of the in-scope
tree into connected subtrees of bounded size, one join statement each plus a
combining statement), and FINALIZE (grouping, aggregates, duplicate
elimination, HAVING post-filter, output ordering).

Each node's relation handle is threaded through the stages: a statement
always references the latest handle of the nodes it touches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

from . import classification
from .decomposition import JoinTree, ViewDefinition
from .errors import YansqlError
from .sql_frontend import AggregateCall, HavingFilter


class PlanError(YansqlError):
    pass


class ModeMismatch(PlanError):
    pass


class EmptyTree(PlanError):
    pass


class GuardNotInTree(PlanError):
    pass


class Mode(str, Enum):
    FULL_ENUM = "fullenum"
    ZERO_MA = "zeroma"
    PARTIAL = "partial"


class StageKind(str, Enum):
    SETUP = "SETUP"
    SEMIJOIN_UP = "SEMIJOIN_UP"
    SEMIJOIN_DOWN = "SEMIJOIN_DOWN"
    JOIN = "JOIN"
    FINALIZE = "FINALIZE"


# ---------------------------------------------------------------------------
# Statement bodies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaseScan:
    """Scan of a base relation: selections, intra-atom attribute equalities,
    then projection with attribute-to-variable renaming."""
    relation: str
    selections: tuple            # ConstantSelection, on original attributes
    attr_equalities: tuple       # (attr, attr) pairs forced equal
    columns: tuple               # (source attribute, variable), by variable


@dataclass(frozen=True)
class ViewJoin:
    """Local join of several base scans (a GHD node), projected to the bag
    without duplicates."""
    scans: tuple                 # BaseScan, cover order
    project: tuple               # variables


@dataclass(frozen=True)
class SemiJoinFilter:
    handle: str
    keys: tuple                  # shared variables, lexicographic


@dataclass(frozen=True)
class SemiJoin:
    source: str
    filters: tuple               # SemiJoinFilter, child order


@dataclass(frozen=True)
class NaturalJoin:
    inputs: tuple                # handles, preorder (each joins the prefix)
    project: tuple               # variables


@dataclass(frozen=True)
class OutputColumn:
    kind: str                    # "var" | "agg" | "one"
    name: str                    # column name in the result
    agg: Optional[AggregateCall] = None


@dataclass(frozen=True)
class Finalize:
    source: Optional[str]        # None compiles an empty result
    project_first: tuple         # pi_S before anything else
    distinct_input: bool         # delta before grouping (0MA / partial)
    group_by: tuple
    aggregates: tuple            # AggregateCall, output order
    having: Optional[HavingFilter]
    distinct_output: bool
    output: tuple                # OutputColumn, final order


Body = Union[BaseScan, ViewJoin, SemiJoin, NaturalJoin, Finalize]


@dataclass(frozen=True)
class PlanStatement:
    kind: str                    # "view" | "temp" | "select"
    name: str
    body: Body
    stage: StageKind
    node: Optional[str]          # join-tree node whose handle this updates


def statement_dependencies(stmt: PlanStatement) -> tuple:
    """Handles a statement reads; base relations are not handles."""
    body = stmt.body
    if isinstance(body, SemiJoin):
        return (body.source, *(f.handle for f in body.filters))
    if isinstance(body, NaturalJoin):
        return tuple(body.inputs)
    if isinstance(body, Finalize):
        return (body.source,) if body.source else ()
    return ()


@dataclass
class StagePlan:
    mode: Mode
    stages: dict                 # StageKind -> tuple of PlanStatement
    node_relations: dict         # node -> final handle (after semi-joins)
    output_projection: tuple     # output column names, in order
    scope: Optional[frozenset]   # covering subtree for partial plans
    roots: tuple = ()            # tree root nodes
    warnings: tuple = ()

    def statements(self) -> list:
        out = []
        for kind in StageKind:
            out.extend(self.stages.get(kind, ()))
        return out

    def stage(self, kind: StageKind) -> tuple:
        return self.stages.get(kind, ())

    def node_handle_after(self, node: str, upto: StageKind) -> str:
        """Latest handle of `node` once stages up to `upto` have run."""
        handle = None
        for kind in StageKind:
            for stmt in self.stages.get(kind, ()):
                if stmt.node == node:
                    handle = stmt.name
            if kind == upto:
                break
        if handle is None:
            raise KeyError(node)
        return handle

    def pretty(self) -> str:
        lines = [f"mode: {self.mode.value}"]
        if self.scope is not None:
            lines.append("scope: " + " ".join(sorted(self.scope)))
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        for kind in StageKind:
            stmts = self.stages.get(kind, ())
            lines.append(f"[{kind.value}] {len(stmts)} statement(s)")
            for stmt in stmts:
                lines.append(f"  {stmt.name} <- {_body_text(stmt.body)}")
        lines.append("output: " + " ".join(self.output_projection))
        return "\n".join(lines)


def _body_text(body: Body) -> str:
    if isinstance(body, BaseScan):
        sels = " ".join(f"{s.attr}{s.comparator}{s.value!r}" for s in body.selections)
        eqs = " ".join(f"{a}={b}" for a, b in body.attr_equalities)
        cols = " ".join(f"{attr}->{var}" for attr, var in body.columns)
        parts = [f"scan {body.relation}", f"cols[{cols}]"]
        if sels:
            parts.append(f"where[{sels}]")
        if eqs:
            parts.append(f"eq[{eqs}]")
        return " ".join(parts)
    if isinstance(body, ViewJoin):
        inner = "; ".join(_body_text(s) for s in body.scans)
        return f"viewjoin({inner}) project[{' '.join(body.project)}]"
    if isinstance(body, SemiJoin):
        fs = " ".join(f"{f.handle}[{','.join(f.keys)}]" for f in body.filters)
        return f"{body.source} semijoin {fs}"
    if isinstance(body, NaturalJoin):
        return f"join({' '.join(body.inputs)}) project[{' '.join(body.project)}]"
    if isinstance(body, Finalize):
        parts = [f"finalize {body.source or '<empty>'}"]
        if body.project_first:
            parts.append(f"pi[{' '.join(body.project_first)}]")
        if body.distinct_input:
            parts.append("delta")
        if body.group_by:
            parts.append(f"gamma[{' '.join(body.group_by)}]")
        for agg in body.aggregates:
            parts.append(agg.column_name())
        if body.having:
            parts.append(f"having {body.having.call.column_name()}"
                         f"{body.having.comparator}{body.having.value!r}")
        if body.distinct_output:
            parts.append("distinct")
        parts.append("out[" + " ".join(c.name for c in body.output) + "]")
        return " ".join(parts)
    raise TypeError(body)


# ---------------------------------------------------------------------------
# Root selection
# ---------------------------------------------------------------------------

def covering_subtree(tree: JoinTree, variables: frozenset) -> frozenset:
    """Smallest connected subtree whose nodes cover all given variables.

    Exact over all choices of one supplying node per variable while the
    choice space stays small, greedy (first occurrence) beyond that.
    """
    needed = sorted(variables)
    if not needed:
        return frozenset({tree.root})
    occurrences = []
    for v in needed:
        occ = tuple(sorted(n for n in tree.labels if v in tree.attrs[n]))
        if not occ:
            raise PlanError(f"variable {v!r} does not occur in the tree")
        occurrences.append(occ)

    def hull(choice) -> frozenset:
        nodes = set(choice)
        base = next(iter(nodes))
        for other in list(nodes):
            nodes.update(tree.path(base, other))
        # paths to one anchor already cover every pairwise path in a tree
        return frozenset(nodes)

    total = 1
    for occ in occurrences:
        total *= len(occ)
    if total > 20000:
        return hull(tuple(occ[0] for occ in occurrences))
    best = None
    for choice in itertools.product(*occurrences):
        cand = hull(choice)
        key = (len(cand), tuple(sorted(cand)))
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def select_root(tree: JoinTree, report) -> JoinTree:
    """Re-root for the chosen evaluation mode.

    0MA: root at the guard.  Set-safe but unguarded: root inside the minimal
    subtree covering S so the bottom-up pass accounts for everything outside
    it.  Otherwise the tree is returned unchanged.
    """
    if report.is_0ma:
        target = None
        for node, label in tree.labels.items():
            if label.kind == "atom" and label.ref == report.chosen_root:
                target = node
                break
        if target is None:
            raise GuardNotInTree(f"guard {report.chosen_root!r} not in tree")
        return tree.rerooted(target)
    return tree


# ---------------------------------------------------------------------------
# Plan construction
# ---------------------------------------------------------------------------

def _join_vars(trees: Sequence[JoinTree]) -> frozenset:
    counts: dict = {}
    for tree in trees:
        for attrs in tree.attrs.values():
            for v in attrs:
                counts[v] = counts.get(v, 0) + 1
    return frozenset(v for v, n in counts.items() if n > 1)


def base_scan(atom, inner, keep: Optional[frozenset]) -> BaseScan:
    """The SETUP scan of one atom; `keep` limits the variables it keeps
    (None keeps them all)."""
    variables = sorted(atom.variables if keep is None
                       else atom.variables & keep)
    columns = tuple((atom.sources_of(v)[0], v) for v in variables)
    equalities = []
    for v in sorted(atom.variables):
        sources = atom.sources_of(v)
        for a, b in zip(sources, sources[1:]):
            equalities.append((a, b))
    return BaseScan(
        relation=atom.relation,
        selections=inner.selections_of(atom.atom_id),
        attr_equalities=tuple(equalities),
        columns=columns,
    )


def _greedy_groups(tree: JoinTree, scope: frozenset, cap: int) -> list:
    """Connected subtrees of at most `cap` nodes, closed bottom-up."""
    groups: list = []

    def walk(node: str) -> list:
        acc = [node]
        for child in tree.children(node):
            if child not in scope:
                continue
            sub = walk(child)
            if len(acc) + len(sub) <= cap:
                acc.extend(sub)
            else:
                groups.append(sub)
        return acc

    if tree.root not in scope:
        raise PlanError("join scope must contain the root")
    groups.append(walk(tree.root))
    return groups


def build_plan(trees, form, mode: Mode, join_group_cap: int = 12,
               join_attrs_only: bool = False,
               views: Sequence[ViewDefinition] = ()) -> StagePlan:
    """Compile tree(s) + aggregation form into the staged plan.

    `trees` is one JoinTree or a sequence of them (one per connected
    component); multiple trees are combined by a cross product in the final
    JOIN statement, which is flagged with a warning.  Trees with view-labeled
    nodes (from a hypertree decomposition) need the corresponding
    ViewDefinitions.
    """
    if isinstance(trees, JoinTree):
        trees = [trees]
    trees = sorted(trees, key=lambda t: t.root)
    if form.inner.statically_empty:
        return _empty_plan(form, mode)
    if not trees or any(not t.labels for t in trees):
        raise EmptyTree("plan needs at least one non-empty join tree")
    if join_group_cap < 1:
        raise PlanError("join group cap must be at least 1")

    view_map = {v.view_id: v for v in views}
    for tree in trees:
        for label in tree.labels.values():
            if label.kind == "view" and label.ref not in view_map:
                raise PlanError(f"missing view definition {label.ref!r}")

    warnings: list = []
    out_vars = None
    if join_attrs_only:
        if mode is not Mode.FULL_ENUM or form.aggregates or form.grouping_vars \
                or form.having or form.distinct or form.select_one:
            raise ModeMismatch(
                "join-attrs-only projection applies to plain full enumeration")
        out_vars = tuple(sorted(_join_vars(trees)))

    if mode is Mode.ZERO_MA:
        report = classification.classify_0ma(form)
        if not report.is_0ma:
            raise ModeMismatch("query is not 0MA")
        if len(trees) != 1:
            raise ModeMismatch("0MA execution needs a connected query")
        root_label = trees[0].labels[trees[0].root]
        if root_label.kind != "atom" or root_label.ref not in report.guards:
            raise ModeMismatch("0MA plan must be rooted at a guard")
    scope: Optional[frozenset] = None
    if mode is Mode.PARTIAL:
        safe, _, _ = classification.set_safety(form)
        if not safe:
            raise ModeMismatch("partial execution needs a set-safe query")
        if len(trees) != 1:
            raise ModeMismatch("partial execution needs a connected query")
        tree = trees[0]
        sub = covering_subtree(tree, frozenset(form.projection_vars))
        if tree.root not in sub:
            tree = tree.rerooted(min(sub))
            trees[0] = tree
            sub = covering_subtree(tree, frozenset(form.projection_vars))
        scope = sub

    projection = frozenset(out_vars) if out_vars is not None \
        else frozenset(form.projection_vars)
    keep = _join_vars(trees) | projection

    handles: dict = {}
    stages: dict = {kind: [] for kind in StageKind}
    all_nodes = sorted(n for tree in trees for n in tree.labels)
    if len(set(all_nodes)) != len(all_nodes):
        raise PlanError("node ids must be unique across trees")
    node_tree = {n: tree for tree in trees for n in tree.labels}

    for node in all_nodes:
        tree = node_tree[node]
        label = tree.labels[node]
        if label.kind == "atom":
            body: Body = base_scan(form.inner.atom(label.ref), form.inner, keep)
        else:
            view = view_map[label.ref]
            scans = tuple(base_scan(form.inner.atom(aid), form.inner, None)
                          for aid in view.atom_ids)
            body = ViewJoin(scans, tuple(v for v in view.projection if v in keep))
        stmt = PlanStatement("view", f"{node}_setup", body, StageKind.SETUP, node)
        stages[StageKind.SETUP].append(stmt)
        handles[node] = stmt.name

    def shared_keys(tree, a, b) -> tuple:
        return tuple(sorted(tree.attrs[a] & tree.attrs[b] & keep))

    for tree in trees:
        for node in tree.postorder():
            kids = tree.children(node)
            if not kids:
                continue
            filters = tuple(
                SemiJoinFilter(handles[c], shared_keys(tree, node, c))
                for c in kids
            )
            stmt = PlanStatement(
                "temp", f"{node}_sjup",
                SemiJoin(handles[node], filters),
                StageKind.SEMIJOIN_UP, node,
            )
            stages[StageKind.SEMIJOIN_UP].append(stmt)
            handles[node] = stmt.name

    if mode is not Mode.ZERO_MA:
        for tree in trees:
            down_scope = scope if scope is not None else frozenset(tree.labels)
            for node in tree.preorder():
                if node == tree.root or node not in down_scope:
                    continue
                par = tree.parent[node]
                stmt = PlanStatement(
                    "temp", f"{node}_sjdown",
                    SemiJoin(handles[node], (
                        SemiJoinFilter(handles[par],
                                       shared_keys(tree, node, par)),
                    )),
                    StageKind.SEMIJOIN_DOWN, node,
                )
                stages[StageKind.SEMIJOIN_DOWN].append(stmt)
                handles[node] = stmt.name

    node_relations = dict(handles)

    if mode is Mode.ZERO_MA:
        final_handle: Optional[str] = handles[trees[0].root]
    else:
        group_results: list = []
        group_no = itertools.count(1)
        scoped_nodes = set()
        for tree in trees:
            tree_scope = scope if scope is not None else frozenset(tree.labels)
            scoped_nodes |= tree_scope
        for tree in trees:
            tree_scope = scope if scope is not None else frozenset(tree.labels)
            for members in _greedy_groups(tree, tree_scope, join_group_cap):
                member_set = set(members)
                ordered = [n for n in tree.preorder() if n in member_set]
                inside = frozenset().union(
                    *(tree.attrs[m] for m in members)) & keep
                outside = frozenset()
                for t2 in trees:
                    for n in t2.labels:
                        if n in scoped_nodes and n not in member_set:
                            outside |= t2.attrs[n]
                project = tuple(sorted(inside & (outside | projection)))
                name = f"group{next(group_no)}_join"
                stmt = PlanStatement(
                    "temp", name,
                    NaturalJoin(tuple(handles[m] for m in ordered), project),
                    StageKind.JOIN, None,
                )
                stages[StageKind.JOIN].append(stmt)
                group_results.append((members, name))
        if len(group_results) == 1:
            final_handle = group_results[0][1]
        else:
            if len(trees) > 1:
                warnings.append(
                    "query hypergraph is disconnected; the final statement "
                    "contains a cross product")
            by_node = {m: name for members, name in group_results
                       for m in members}
            ordered_groups: list = []
            for tree in trees:
                for node in tree.preorder():
                    name = by_node.get(node)
                    if name is not None and name not in ordered_groups:
                        ordered_groups.append(name)
            stmt = PlanStatement(
                "temp", "final_join",
                NaturalJoin(tuple(ordered_groups), tuple(sorted(projection))),
                StageKind.JOIN, None,
            )
            stages[StageKind.JOIN].append(stmt)
            final_handle = stmt.name

    fin = finalize_spec(form, final_handle, mode, out_vars)
    stages[StageKind.FINALIZE].append(
        PlanStatement("select", "result", fin, StageKind.FINALIZE, None))

    return StagePlan(
        mode=mode,
        stages={kind: tuple(stmts) for kind, stmts in stages.items()},
        node_relations=node_relations,
        output_projection=tuple(c.name for c in fin.output),
        scope=scope,
        roots=tuple(t.root for t in trees),
        warnings=tuple(warnings),
    )


def finalize_spec(form, source: Optional[str], mode: Mode,
              out_vars: Optional[tuple]) -> Finalize:
    if out_vars is not None:
        return Finalize(
            source=source,
            project_first=out_vars,
            distinct_input=False,
            group_by=(),
            aggregates=(),
            having=None,
            distinct_output=False,
            output=tuple(OutputColumn("var", v) for v in out_vars),
        )
    if form.select_one:
        return Finalize(
            source=source,
            project_first=(form.having.call.var,) if form.having else (),
            distinct_input=False,
            group_by=(),
            aggregates=(),
            having=form.having,
            distinct_output=True,
            output=(OutputColumn("one", "one"),),
        )
    output = [OutputColumn("var", v) for v in form.output_vars]
    output.extend(OutputColumn("agg", a.column_name(), a)
                  for a in form.aggregates)
    return Finalize(
        source=source,
        project_first=tuple(form.projection_vars),
        distinct_input=mode in (Mode.ZERO_MA, Mode.PARTIAL),
        group_by=form.grouping_vars,
        aggregates=form.aggregates,
        having=form.having,
        distinct_output=form.distinct,
        output=tuple(output),
    )


def _empty_plan(form, mode: Mode) -> StagePlan:
    fin = finalize_spec(form, None, mode, None)
    stmt = PlanStatement("select", "result", fin, StageKind.FINALIZE, None)
    return StagePlan(
        mode=mode,
        stages={**{k: () for k in StageKind}, StageKind.FINALIZE: (stmt,)},
        node_relations={},
        output_projection=tuple(c.name for c in fin.output),
        scope=None,
        roots=(),
        warnings=("query is statically empty (contradictory constants)",),
    )

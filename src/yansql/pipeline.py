"""End-to-end compilation: SQL text -> parsed query -> CQ -> hypergraph ->
join tree(s) (or decomposition for cyclic queries) -> classification ->
staged plan.

Mode auto-selection: 0MA queries run in zero-materialisation mode; set-safe
but unguarded queries run in partial mode when a proper covering subtree
exists; everything else is full enumeration.  Disconnected queries fall back
to full enumeration since semi-joins cannot propagate across components.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional

from . import classification, plan_builder
from .decomposition import (CyclicReport, GHDecomposition, InvalidGHD,
                            find_ghd, flat_gyo, ghd_to_join_tree)
from .engine import (EvalResult, Relation, bag_equal, eval_naive_traced,
                     eval_plan)
from .errors import YansqlError
from .hypergraph import Hypergraph, build_hypergraph, components
from .plan_builder import Mode, StagePlan, select_root
from .sql_frontend import ConjunctiveQuery, extract_cq, parse_query


class PipelineError(YansqlError):
    pass


class CyclicQuery(PipelineError):
    def __init__(self, report: CyclicReport):
        self.report = report
        super().__init__(
            "query is cyclic; rerun with --ghd-width (or --ghd-file) to "
            "evaluate it via a hypertree decomposition")


@dataclass
class Compiled:
    cq: ConjunctiveQuery
    hypergraph: Hypergraph
    form: classification.AggregationForm
    report: classification.ZeroMAReport
    trees: list
    views: tuple
    mode: Mode
    plan: StagePlan
    warnings: tuple = ()


def compile_sql(sql_text: str, mode: str = "auto", join_group_cap: int = 12,
                ghd_width: Optional[int] = None,
                ghd: Optional[GHDecomposition] = None,
                root_override: Optional[str] = None,
                join_attrs_only: bool = False,
                seed: Optional[int] = None) -> Compiled:
    cq = extract_cq(parse_query(sql_text))
    return compile_cq(cq, mode=mode, join_group_cap=join_group_cap,
                      ghd_width=ghd_width, ghd=ghd,
                      root_override=root_override,
                      join_attrs_only=join_attrs_only, seed=seed)


def compile_cq(cq: ConjunctiveQuery, mode: str = "auto",
               join_group_cap: int = 12, ghd_width: Optional[int] = None,
               ghd: Optional[GHDecomposition] = None,
               root_override: Optional[str] = None,
               join_attrs_only: bool = False,
               seed: Optional[int] = None) -> Compiled:
    h = build_hypergraph(cq)
    form = classification.normalize_aggregation(cq)
    report = classification.classify_0ma(form)
    warnings: list = []

    if cq.statically_empty:
        plan = plan_builder.build_plan([], form, Mode.FULL_ENUM)
        return Compiled(cq, h, form, report, [], (), Mode.FULL_ENUM, plan,
                        plan.warnings)

    trees: list = []
    views: list = []
    if ghd is not None:
        # an explicitly imported decomposition takes precedence, acyclic
        # queries included
        if len(components(h)) != 1:
            raise PipelineError(
                "an imported decomposition needs a connected query")
        tree, comp_views = ghd_to_join_tree(ghd, cq)
        trees.append(tree)
        views.extend(comp_views)
    else:
        for comp in components(h):
            result = flat_gyo(comp)
            if isinstance(result, CyclicReport):
                if ghd_width is None:
                    raise CyclicQuery(result)
                decomposition = find_ghd(comp, ghd_width, seed=seed)
                if decomposition is None:
                    raise PipelineError(
                        f"no decomposition of width {ghd_width}")
                comp_cq = replace(cq, atoms=tuple(
                    a for a in cq.atoms if a.atom_id in comp.edges))
                try:
                    tree, comp_views = ghd_to_join_tree(
                        decomposition, comp_cq,
                        start=1 + sum(len(t.labels) for t in trees))
                except InvalidGHD:
                    raise PipelineError("decomposition does not validate")
                trees.append(tree)
                views.extend(comp_views)
            else:
                trees.append(result)

    uses_views = bool(views)
    connected = len(trees) == 1

    resolved: Mode
    if mode == "auto":
        if report.is_0ma and connected and not uses_views:
            resolved = Mode.ZERO_MA
        elif report.set_safe and connected:
            scope = plan_builder.covering_subtree(
                trees[0], frozenset(form.projection_vars))
            if len(scope) < len(trees[0].labels):
                resolved = Mode.PARTIAL
            else:
                resolved = Mode.FULL_ENUM
        else:
            resolved = Mode.FULL_ENUM
            if report.is_0ma and not connected:
                warnings.append("0MA query over a disconnected hypergraph; "
                                "falling back to full enumeration")
    else:
        resolved = Mode(mode)

    if resolved is Mode.ZERO_MA:
        target_report = report
        if root_override is not None:
            if root_override not in report.guards:
                raise PipelineError(
                    f"--root {root_override!r} is not a guard "
                    f"(guards: {', '.join(report.guards) or '-'})")
            target_report = replace(report, chosen_root=root_override)
        trees = [select_root(trees[0], target_report)]
    elif root_override is not None:
        if not connected or uses_views:
            raise PipelineError(
                "--root needs a connected query over base atoms")
        if root_override not in trees[0].labels:
            raise PipelineError(
                f"--root {root_override!r} is not an atom of the query")
        trees = [trees[0].rerooted(root_override)]

    plan = plan_builder.build_plan(
        trees, form, resolved, join_group_cap=join_group_cap,
        join_attrs_only=join_attrs_only, views=tuple(views))
    return Compiled(cq, h, form, report, trees, tuple(views), resolved, plan,
                    tuple(warnings) + plan.warnings)


@dataclass
class Comparison:
    equal: bool
    naive: Relation
    plan_result: EvalResult
    naive_max_intermediate: int

    @property
    def plan_max_intermediate(self) -> int:
        return self.plan_result.stats.max_intermediate()


def compare_on_db(compiled: Compiled, db: Mapping[str, Relation],
                  short_circuit: bool = False) -> Comparison:
    """Run the staged plan and the brute-force oracle; bag-compare."""
    naive, naive_stats = eval_naive_traced(compiled.cq, db)
    plan_result = eval_plan(compiled.plan, db, short_circuit=short_circuit)
    return Comparison(
        equal=bag_equal(naive, plan_result.relation),
        naive=naive,
        plan_result=plan_result,
        naive_max_intermediate=naive_stats.max_intermediate,
    )

"""Render a StagePlan as an ordered list of SQL statements per dialect.

Setup views become CREATE VIEW (CREATE OR REPLACE TEMP VIEW on spark, which
has no tables, so the engine can fuse everything into one plan), semi-join
and join temporaries become CREATE TEMP TABLE (again views on spark), and
FINALIZE renders as the final bare SELECT.  Semi-joins render either as row
IN subqueries or as correlated EXISTS; EXISTS is the default since IN over
keys containing NULL has three-valued-logic surprises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .errors import YansqlError
from .plan_builder import (BaseScan, Finalize, NaturalJoin, PlanStatement,
                           SemiJoin, StagePlan, ViewJoin)


class EmitError(YansqlError):
    pass


class UnsupportedInDialect(EmitError):
    pass


@dataclass(frozen=True)
class Dialect:
    name: str                    # postgres | duckdb | spark | generic
    semijoin_style: str          # RowIn | Exists
    supports_row_in: bool        # row constructors in IN predicates
    style_forced: bool = False   # error instead of falling back to EXISTS

    def with_style(self, style: str, forced: bool = True) -> "Dialect":
        return replace(self, semijoin_style=style, style_forced=forced)


POSTGRES = Dialect("postgres", "Exists", True)
DUCKDB = Dialect("duckdb", "Exists", True)
SPARK = Dialect("spark", "Exists", True)
GENERIC = Dialect("generic", "Exists", False)

DIALECTS = {d.name: d for d in (POSTGRES, DUCKDB, SPARK, GENERIC)}


def get_dialect(name: str) -> Dialect:
    try:
        return DIALECTS[name]
    except KeyError:
        raise EmitError(f"unknown dialect {name!r}") from None


_PLAIN_IDENT = re.compile(r"^[a-z_][a-z0-9_]*$")


def _quote(ident: str, dialect: Dialect) -> str:
    if _PLAIN_IDENT.match(ident):
        return ident
    if dialect.name == "spark":
        return "`" + ident.replace("`", "``") + "`"
    return '"' + ident.replace('"', '""') + '"'


def _literal(value) -> str:
    if isinstance(value, int):
        return str(value)
    return "'" + str(value).replace("'", "''") + "'"


class _Emitter:
    def __init__(self, plan: StagePlan, dialect: Dialect, prefix: str = ""):
        self.plan = plan
        self.dialect = dialect
        self.prefix = f"{prefix}_" if prefix else ""
        self.created: list = []  # (kind, name) for cleanup

    def handle(self, name: str) -> str:
        return _quote(self.prefix + name, self.dialect)

    def create(self, stmt: PlanStatement, select: str) -> str:
        name = self.handle(stmt.name)
        if self.dialect.name == "spark":
            self.created.append(("view", name))
            return f"CREATE OR REPLACE TEMP VIEW {name} AS {select}"
        if stmt.kind == "view":
            self.created.append(("view", name))
            return f"CREATE VIEW {name} AS {select}"
        self.created.append(("table", name))
        return f"CREATE TEMP TABLE {name} AS {select}"

    # -- bodies --------------------------------------------------------------

    def base_scan_select(self, body: BaseScan) -> str:
        cols = ", ".join(
            _quote(attr, self.dialect) if attr == var
            else f"{_quote(attr, self.dialect)} AS {_quote(var, self.dialect)}"
            for attr, var in body.columns
        )
        if not body.columns:
            cols = "1 AS one"
        sql = f"SELECT {cols} FROM {_quote(body.relation, self.dialect)}"
        preds = [
            f"{_quote(s.attr, self.dialect)}{s.comparator}{_literal(s.value)}"
            for s in body.selections
        ]
        preds.extend(
            f"{_quote(a, self.dialect)}={_quote(b, self.dialect)}"
            for a, b in body.attr_equalities
        )
        if preds:
            sql += " WHERE " + " AND ".join(preds)
        return sql

    def view_join_select(self, body: ViewJoin) -> str:
        # alias each scan; join conditions follow from shared variables
        aliases = [f"t{i}" for i in range(len(body.scans))]
        sources = []
        preds: list = []
        var_home: dict = {}
        for alias, scan in zip(aliases, body.scans):
            sources.append(f"{_quote(scan.relation, self.dialect)} AS {alias}")
            for sel in scan.selections:
                preds.append(f"{alias}.{_quote(sel.attr, self.dialect)}"
                             f"{sel.comparator}{_literal(sel.value)}")
            for a, b in scan.attr_equalities:
                preds.append(f"{alias}.{_quote(a, self.dialect)}"
                             f"={alias}.{_quote(b, self.dialect)}")
            for attr, var in scan.columns:
                ref = f"{alias}.{_quote(attr, self.dialect)}"
                if var in var_home:
                    preds.append(f"{var_home[var]}={ref}")
                else:
                    var_home[var] = ref
        cols = ", ".join(
            f"{var_home[v]} AS {_quote(v, self.dialect)}"
            for v in body.project
        ) or "1 AS one"
        sql = f"SELECT DISTINCT {cols} FROM {', '.join(sources)}"
        if preds:
            sql += " WHERE " + " AND ".join(preds)
        return sql

    def semi_join_select(self, body: SemiJoin) -> str:
        source = self.handle(body.source)
        preds = []
        for f in body.filters:
            preds.append(self.semi_join_predicate(source, f.handle, f.keys))
        sql = f"SELECT * FROM {source}"
        if preds:
            sql += " WHERE " + " AND ".join(preds)
        return sql

    def semi_join_predicate(self, source: str, handle: str, keys) -> str:
        target = self.handle(handle)
        style = self.dialect.semijoin_style
        if style == "RowIn" and (not keys or
                                 (len(keys) > 1 and not self.dialect.supports_row_in)):
            if self.dialect.style_forced:
                raise UnsupportedInDialect(
                    f"dialect {self.dialect.name!r} cannot express a "
                    f"{len(keys)}-column IN semi-join")
            style = "Exists"
        if style == "RowIn":
            qkeys = [_quote(k, self.dialect) for k in keys]
            key_list = ", ".join(qkeys)
            lhs = f"({key_list})" if len(keys) > 1 else key_list
            return f"{lhs} IN (SELECT {key_list} FROM {target})"
        if not keys:
            return f"EXISTS (SELECT 1 FROM {target})"
        conds = " AND ".join(
            f"{target}.{_quote(k, self.dialect)}={source}.{_quote(k, self.dialect)}"
            for k in keys
        )
        return f"EXISTS (SELECT 1 FROM {target} WHERE {conds})"

    def natural_join_select(self, body: NaturalJoin) -> str:
        handles = [self.handle(h) for h in body.inputs]
        home: dict = {}
        preds = []
        for handle, name in zip(handles, body.inputs):
            for var in self._handle_columns(name):
                ref = f"{handle}.{_quote(var, self.dialect)}"
                if var in home:
                    preds.append(f"{home[var]}={ref}")
                else:
                    home[var] = ref
        cols = ", ".join(
            f"{home[v]} AS {_quote(v, self.dialect)}" for v in body.project
        ) or "1 AS one"
        sql = f"SELECT {cols} FROM {', '.join(handles)}"
        if preds:
            sql += " WHERE " + " AND ".join(preds)
        return sql

    def _handle_columns(self, name: str) -> tuple:
        """Variables exposed by an already-emitted handle."""
        for stmt in self.plan.statements():
            if stmt.name != name:
                continue
            body = stmt.body
            if isinstance(body, BaseScan):
                return tuple(v for _, v in body.columns)
            if isinstance(body, (ViewJoin, NaturalJoin)):
                return tuple(body.project)
            if isinstance(body, SemiJoin):
                return self._handle_columns(body.source)
        raise EmitError(f"unknown handle {name!r}")

    def finalize_select(self, fin: Finalize) -> str:
        if fin.source is None:
            cols = ", ".join(
                "1 AS one" if c.kind == "one"
                else f"NULL AS {_quote(c.name, self.dialect)}"
                for c in fin.output
            )
            return f"SELECT {cols} WHERE FALSE"
        source = self.handle(fin.source)
        if fin.project_first and fin.distinct_input:
            inner_cols = ", ".join(_quote(v, self.dialect)
                                   for v in fin.project_first)
            source = f"(SELECT DISTINCT {inner_cols} FROM {source}) AS reduced"

        def agg_sql(call) -> str:
            inner = _quote(call.var, self.dialect)
            if call.distinct:
                inner = "DISTINCT " + inner
            return f"{call.func}({inner})"

        cols = []
        for c in fin.output:
            if c.kind == "var":
                cols.append(_quote(c.name, self.dialect))
            elif c.kind == "agg":
                cols.append(f"{agg_sql(c.agg)} AS {_quote(c.name, self.dialect)}")
            else:
                cols.append("1 AS one")
        if not cols:
            cols = ["1 AS one"]
        distinct = "DISTINCT " if fin.distinct_output else ""
        sql = f"SELECT {distinct}{', '.join(cols)} FROM {source}"
        if fin.group_by:
            sql += " GROUP BY " + ", ".join(
                _quote(v, self.dialect) for v in fin.group_by)
        if fin.having is not None:
            sql += (f" HAVING {agg_sql(fin.having.call)}"
                    f"{fin.having.comparator}{_literal(fin.having.value)}")
        return sql

    # -- driver ----------------------------------------------------------------

    def emit(self, with_cleanup: bool = False) -> list:
        out = []
        for stmt in self.plan.statements():
            body = stmt.body
            if isinstance(body, Finalize):
                out.append(self.finalize_select(body))
            elif isinstance(body, BaseScan):
                out.append(self.create(stmt, self.base_scan_select(body)))
            elif isinstance(body, ViewJoin):
                out.append(self.create(stmt, self.view_join_select(body)))
            elif isinstance(body, SemiJoin):
                out.append(self.create(stmt, self.semi_join_select(body)))
            elif isinstance(body, NaturalJoin):
                out.append(self.create(stmt, self.natural_join_select(body)))
            else:
                raise EmitError(f"cannot emit {body!r}")
        if with_cleanup:
            for kind, name in reversed(self.created):
                if kind == "view":
                    out.append(f"DROP VIEW IF EXISTS {name}")
                else:
                    out.append(f"DROP TABLE IF EXISTS {name}")
        return out


def emit_plan(plan: StagePlan, dialect: Dialect, prefix: str = "",
              with_cleanup: bool = False) -> list:
    """One SQL string per plan statement (plus the final SELECT), in
    dependency order; deterministic and stable across runs."""
    return _Emitter(plan, dialect, prefix).emit(with_cleanup)


def emit_script(plan: StagePlan, dialect: Dialect, prefix: str = "",
                with_cleanup: bool = False) -> str:
    statements = emit_plan(plan, dialect, prefix, with_cleanup)
    return "\n".join(s + ";" for s in statements) + "\n"

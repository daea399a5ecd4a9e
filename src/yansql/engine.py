"""In-memory bag-semantics relational executor.

Relations are multisets stored as tuple -> count maps, so duplicate-heavy
blow-up scenarios stay cheap to measure while cardinalities remain exact.
Null semantics follow SQL: a null join or semi-join key never matches, all
comparisons against null fail, and aggregates skip nulls.

Relations are immutable: no operator changes a relation it is given, so an
operator may return its input, or share its input's row map, when the result
has the same rows.  Row arity is validated only where rows enter from
outside, in `Relation.from_rows` and `load_csv`; every operator builds rows
of its schema's width by construction.

`eval_naive` is the brute-force oracle: selections, pairwise joins in
declaration order without any reordering, projection, grouping.  `eval_plan`
interprets the staged plan IR; both scan base relations with `scan` and
funnel through the same FINALIZE semantics, so their outputs are directly
comparable with `bag_equal`.
"""

from __future__ import annotations

import csv
import operator
import time
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal
from fractions import Fraction
from typing import Mapping, Optional

from .classification import normalize_aggregation
from .errors import YansqlError
from .plan_builder import (BaseScan, Finalize, Mode, NaturalJoin, SemiJoin,
                           StageKind, StagePlan, ViewJoin, base_scan,
                           finalize_spec)
from .sql_frontend import ConjunctiveQuery


class EngineError(YansqlError):
    pass


class IoError(EngineError):
    pass


class ArityMismatch(EngineError):
    pass


class SchemaMismatch(EngineError):
    pass


class UnknownAttribute(EngineError):
    pass


class MissingRelation(EngineError):
    pass


class PlanReferenceError(EngineError):
    pass


class AggregateTypeError(EngineError):
    pass


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Relation:
    """A bag of rows.  The constructor trusts `rows` (a Counter of tuples of
    the schema's width) and takes ownership of it: never mutate it after."""
    schema: tuple
    rows: Counter = field(default_factory=Counter)

    @classmethod
    def from_rows(cls, schema, rows) -> "Relation":
        schema = tuple(schema)
        counted = Counter(map(tuple, rows))
        for row in counted:
            if len(row) != len(schema):
                raise ArityMismatch(
                    f"row {row!r} does not match schema {schema!r}")
        return cls(schema, counted)

    def cardinality(self) -> int:
        return sum(self.rows.values())

    def column(self, attr: str) -> int:
        try:
            return self.schema.index(attr)
        except ValueError:
            raise UnknownAttribute(
                f"attribute {attr!r} not in schema {self.schema!r}") from None

    def expanded(self) -> list:
        """All rows with duplicates, sorted for stable output."""
        ordered = _sorted_rows(self.rows)
        if len(ordered) == self.cardinality():  # no duplicates
            return ordered
        return [row for row in ordered for _ in range(self.rows[row])]

    def __eq__(self, other):
        return (isinstance(other, Relation)
                and self.schema == other.schema and self.rows == other.rows)


def _value_sort_key(value):
    if value is None:
        return (0, "")
    if isinstance(value, str):
        return (2, value)
    return (1, value)


def _row_sort_key(row):
    return tuple(_value_sort_key(v) for v in row)


def _sorted_rows(rows) -> list:
    """`rows` in `_row_sort_key` order: nulls, then numbers, then strings.

    A plain sort gives that same order whenever it raises no TypeError: null
    compares unequal to everything but null, and a string against a number
    raises, so every comparison that decided the order was between two
    values the key would also have compared directly."""
    try:
        return sorted(rows)
    except TypeError:
        return sorted(rows, key=_row_sort_key)


def _columns_getter(idx):
    """Row -> tuple of the values at positions `idx`; one or no position
    still gives a tuple."""
    if len(idx) == 1:
        return operator.itemgetter(slice(idx[0], idx[0] + 1))
    if not idx:
        return operator.itemgetter(slice(0))
    return operator.itemgetter(*idx)


def bag_equal(a: Relation, b: Relation) -> bool:
    """Schemas match up to column order; tuple multisets identical."""
    if sorted(a.schema) != sorted(b.schema):
        return False
    if a.schema == b.schema:
        return a.rows == b.rows
    # map each column of a to the matching occurrence in b
    positions: dict = {}
    perm = []
    for name in a.schema:
        occurrence = positions.get(name, 0)
        positions[name] = occurrence + 1
        indices = [j for j, col in enumerate(b.schema) if col == name]
        perm.append(indices[occurrence])
    key = _columns_getter(perm)
    remapped = Counter()
    for row, count in b.rows.items():
        remapped[key(row)] += count
    return a.rows == remapped


def project(rel: Relation, columns) -> Relation:
    """Bag projection: multiplicities of equal projections add up."""
    columns = tuple(columns)
    if columns == rel.schema:
        return rel
    key = _columns_getter([rel.column(c) for c in columns])
    rows = Counter()
    for row, count in rel.rows.items():
        rows[key(row)] += count
    return Relation(columns, rows)


def distinct(rel: Relation) -> Relation:
    return Relation(rel.schema, Counter(dict.fromkeys(rel.rows, 1)))


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------

def _parse_value(text: str):
    if text.isdigit() or text[:1] == "-" and text[1:].isdigit():
        if text.isascii():
            try:
                return int(text)
            except ValueError:  # longer than int() accepts: keep the text
                pass
    return text or None


def _parsed_rows(path, reader, width: int):
    for lineno, raw in enumerate(reader, start=2):
        if not raw:
            raw = [""]  # blank line: one empty field
        if len(raw) != width:
            raise ArityMismatch(
                f"{path}:{lineno}: expected {width} fields, got {len(raw)}")
        yield tuple(map(_parse_value, raw))


def load_csv(path, declared_schema=None) -> Relation:
    """First row is the header; fields of ASCII digits, with an optional
    leading '-', parse as integers, empty fields as null; duplicate rows
    increase multiplicity."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise IoError(f"{path}: missing header row") from None
            schema = tuple(col.strip().lower() for col in header)
            if declared_schema is not None \
                    and tuple(declared_schema) != schema:
                raise SchemaMismatch(
                    f"{path}: header {schema!r} does not match declared "
                    f"{tuple(declared_schema)!r}")
            rows = Counter(_parsed_rows(path, reader, len(schema)))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return Relation(schema, rows)


def write_csv(rel: Relation, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rel.schema)
        for row in rel.expanded():
            writer.writerow(["" if v is None else v for v in row])


# ---------------------------------------------------------------------------
# Core operators
# ---------------------------------------------------------------------------

_COMPARATORS = {"=": operator.eq, "<>": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
_NUMERIC = (int, Fraction)


def _compare(cell, comparator: str, value) -> bool:
    """SQL comparison: false against null and between a number and a
    string; integers and Fractions (exact AVG) are both numbers."""
    try:
        op = _COMPARATORS[comparator]
    except KeyError:
        raise EngineError(f"unknown comparator {comparator!r}") from None
    if cell is None or value is None:
        return False
    if isinstance(cell, _NUMERIC) != isinstance(value, _NUMERIC):
        return False
    return op(cell, value)


def scan(rel: Relation, selections, equalities, columns) -> Relation:
    """One pass over a base relation: constant selections, then equalities
    between its attributes, then projection to `columns`, (attribute,
    variable) pairs, with each attribute renamed to its variable."""
    tests = [(rel.column(s.attr), s.comparator, s.value) for s in selections]
    pairs = [(rel.column(a), rel.column(b)) for a, b in equalities]
    schema = tuple(var for _, var in columns)
    idx = [rel.column(attr) for attr, _ in columns]
    if not tests and not pairs and idx == list(range(len(rel.schema))):
        return Relation(schema, rel.rows)
    key = _columns_getter(idx)
    rows = Counter()
    for row, count in rel.rows.items():
        if all(_compare(row[i], comparator, value)
               for i, comparator, value in tests) \
                and all(row[a] is not None and row[a] == row[b]
                        for a, b in pairs):
            rows[key(row)] += count
    return Relation(schema, rows)


def semi_join(left: Relation, right: Relation, keys) -> Relation:
    """Left tuples with at least one right match on all keys; multiplicities
    of surviving tuples are preserved exactly.  `keys` pairs (left attribute,
    right attribute); null keys never match."""
    if not keys:
        return left if right.cardinality() else Relation(left.schema)
    left_key = _columns_getter([left.column(a) for a, _ in keys])
    right_key = _columns_getter([right.column(b) for _, b in keys])
    # a left key with a null equals no right key, since none has a null
    right_keys = {k for k in map(right_key, right.rows) if None not in k}
    rows = Counter({row: count for row, count in left.rows.items()
                    if left_key(row) in right_keys})
    if len(rows) == len(left.rows):
        return left
    return Relation(left.schema, rows)


def natural_join(left: Relation, right: Relation) -> Relation:
    """Bag join on shared attribute names; output multiplicity is the
    product of matching multiplicities; null keys never match."""
    shared = [c for c in left.schema if c in right.schema]
    right_extra = [c for c in right.schema if c not in shared]
    left_key = _columns_getter([left.column(c) for c in shared])
    right_key = _columns_getter([right.column(c) for c in shared])
    extra = _columns_getter([right.column(c) for c in right_extra])
    index: dict = {}
    for row, count in right.rows.items():
        key = right_key(row)
        if None not in key:
            index.setdefault(key, []).append((extra(row), count))
    rows = Counter()
    for row, count in left.rows.items():
        for tail, rcount in index.get(left_key(row), ()):
            rows[row + tail] += count * rcount
    return Relation(left.schema + tuple(right_extra), rows)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _agg_raw(func: str, cells: list):
    """SQL aggregate over non-null (value, multiplicity) pairs; empty -> null
    except COUNT.  AVG yields an exact Fraction."""
    if func == "COUNT":
        return sum(count for _, count in cells)
    if not cells:
        return None
    values = [value for value, _ in cells]
    if func in ("MIN", "MAX"):
        kinds = {isinstance(v, int) for v in values}
        if len(kinds) > 1:
            raise AggregateTypeError(f"{func} over mixed value types")
        return min(values) if func == "MIN" else max(values)
    if any(not isinstance(v, int) for v in values):
        raise AggregateTypeError(f"{func} needs integer input")
    total = sum(value * count for value, count in cells)
    if func == "SUM":
        return total
    if func == "AVG":
        return Fraction(total, sum(count for _, count in cells))
    raise EngineError(f"unknown aggregate {func!r}")


def render_fraction(value: Fraction) -> str:
    dec = Decimal(value.numerator) / Decimal(value.denominator)
    return str(dec.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


def _aggregate_raw(rel: Relation, grouping, aggs, distinct_input: bool):
    """Group and compute raw aggregate values (AVG stays a Fraction)."""
    if distinct_input:
        rel = distinct(rel)
    grouping = tuple(grouping)
    agg_idx = [rel.column(a.var) for a in aggs]
    group_key = _columns_getter([rel.column(a) for a in grouping])
    groups: dict = {}
    for row, count in rel.rows.items():
        groups.setdefault(group_key(row), []).append((row, count))
    out_rows = []
    if not grouping and not groups and aggs:
        # global aggregate over empty input: one row of nulls, COUNT -> 0
        out_rows.append(((), tuple(0 if a.func == "COUNT" else None
                                   for a in aggs)))
        return grouping, out_rows
    for key in _sorted_rows(groups):
        members = groups[key]
        values = []
        for pos, agg in zip(agg_idx, aggs):
            if agg.distinct:
                cells = [(cell, 1) for cell in
                         dict.fromkeys(row[pos] for row, _ in members)
                         if cell is not None]
            else:
                cells = [(row[pos], count) for row, count in members
                         if row[pos] is not None]
            values.append(_agg_raw(agg.func, cells))
        out_rows.append((key, tuple(values)))
    return grouping, out_rows


def aggregate(rel: Relation, grouping, aggs, distinct_input: bool = False) -> Relation:
    """Group by `grouping` and apply the aggregate calls; with nonempty
    grouping, empty groups never appear.  AVG renders as a decimal string
    with six fractional digits."""
    aggs = tuple(aggs)
    grouping, raw = _aggregate_raw(rel, grouping, aggs, distinct_input)
    schema = tuple(grouping) + tuple(a.column_name() for a in aggs)
    rows = Counter()
    for key, values in raw:
        rendered = tuple(render_fraction(v) if isinstance(v, Fraction) else v
                         for v in values)
        rows[key + rendered] += 1
    return Relation(schema, rows)


# ---------------------------------------------------------------------------
# Shared FINALIZE semantics
# ---------------------------------------------------------------------------

def _empty_output(fin: Finalize) -> Relation:
    return Relation(tuple(c.name for c in fin.output))

def _finalize_relation(rel: Optional[Relation], fin: Finalize) -> Relation:
    if fin.source is None or rel is None:
        return _empty_output(fin)
    if fin.project_first:
        rel = project(rel, fin.project_first)
    if fin.distinct_input:
        rel = distinct(rel)

    boolean = any(c.kind == "one" for c in fin.output)
    calls = list(fin.aggregates)
    if fin.having is not None and fin.having.call not in calls:
        calls.append(fin.having.call)

    if fin.group_by or calls:
        grouping, raw = _aggregate_raw(rel, fin.group_by, tuple(calls), False)
        agg_pos = {c.column_name(): i for i, c in enumerate(calls)}
        rows = Counter()
        for key, values in raw:
            if fin.having is not None:
                hv = values[agg_pos[fin.having.call.column_name()]]
                if not _compare(hv, fin.having.comparator, fin.having.value):
                    continue
            out_row = []
            for col in fin.output:
                if col.kind == "var":
                    out_row.append(key[grouping.index(col.name)])
                elif col.kind == "agg":
                    value = values[agg_pos[col.name]]
                    if isinstance(value, Fraction):
                        value = render_fraction(value)
                    out_row.append(value)
                else:
                    out_row.append(1)
            rows[tuple(out_row)] += 1
        result = Relation(tuple(c.name for c in fin.output), rows)
    elif boolean:
        rows = Counter({(1,): 1}) if rel.cardinality() else Counter()
        result = Relation(("one",), rows)
    else:
        result = project(rel, tuple(c.name for c in fin.output))
    if fin.distinct_output:
        result = distinct(result)
    return result


# ---------------------------------------------------------------------------
# Naive oracle
# ---------------------------------------------------------------------------

@dataclass
class NaiveStats:
    step_rows: tuple = ()

    @property
    def max_intermediate(self) -> int:
        return max(self.step_rows, default=0)


def _naive_join_all(cq: ConjunctiveQuery, db: Mapping[str, Relation]):
    """Selections then pairwise joins in declaration order; returns the full
    renamed join and the per-step cardinalities."""
    joined: Optional[Relation] = None
    steps = []
    for atom in cq.atoms:
        prepared = _eval_scan(base_scan(atom, cq, None), db)
        joined = prepared if joined is None else natural_join(joined, prepared)
        steps.append(joined.cardinality())
    if joined is None:
        raise MissingRelation("query has no atoms")
    return joined, steps


def eval_naive(cq: ConjunctiveQuery, db: Mapping[str, Relation]) -> Relation:
    """Reference semantics: no reordering, no reduction, then FINALIZE."""
    result, _ = eval_naive_traced(cq, db)
    return result


def eval_naive_traced(cq: ConjunctiveQuery, db: Mapping[str, Relation]):
    form = normalize_aggregation(cq)
    fin = finalize_spec(form, None if cq.statically_empty else "naive",
                        Mode.FULL_ENUM, None)
    if cq.statically_empty:
        return _finalize_relation(None, fin), NaiveStats(())
    joined, steps = _naive_join_all(cq, db)
    return _finalize_relation(joined, fin), NaiveStats(tuple(steps))


# ---------------------------------------------------------------------------
# Plan interpreter
# ---------------------------------------------------------------------------

@dataclass
class StageStats:
    statement_rows: dict = field(default_factory=dict)
    statement_micros: dict = field(default_factory=dict)
    stage_max_rows: dict = field(default_factory=dict)
    stage_micros: dict = field(default_factory=dict)
    skipped_stages: tuple = ()

    def max_intermediate(self) -> int:
        return max(self.statement_rows.values(), default=0)

    def to_text(self) -> str:
        lines = [f"{name}\t{rows}\t{self.statement_micros.get(name, 0)}"
                 for name, rows in self.statement_rows.items()]
        return "\n".join(lines)


@dataclass
class EvalResult:
    relation: Relation
    stats: StageStats
    handles: dict


def _lookup(env: dict, handle: str) -> Relation:
    try:
        return env[handle]
    except KeyError:
        raise PlanReferenceError(f"undefined handle {handle!r}") from None


def eval_plan(plan: StagePlan, db: Mapping[str, Relation],
              short_circuit: bool = False) -> EvalResult:
    """Interpret the plan statement by statement.

    With `short_circuit`, the SEMIJOIN_DOWN and JOIN stages are skipped when
    every tree root is empty after the bottom-up pass; FINALIZE still runs
    (a global aggregate over an empty join yields one row of nulls).
    """
    env: dict = {}
    stats = StageStats()
    result: Optional[Relation] = None
    skipped: list = []
    abort_tail = False

    def run_body(body):
        if isinstance(body, BaseScan):
            return _eval_scan(body, db)
        if isinstance(body, ViewJoin):
            joined = None
            for scan_body in body.scans:
                rel = _eval_scan(scan_body, db)
                joined = rel if joined is None else natural_join(joined, rel)
            return distinct(project(joined, body.project))
        if isinstance(body, SemiJoin):
            rel = _lookup(env, body.source)
            for f in body.filters:
                rel = semi_join(rel, _lookup(env, f.handle),
                                [(k, k) for k in f.keys])
            return rel
        if isinstance(body, NaturalJoin):
            joined = None
            for handle in body.inputs:
                rel = _lookup(env, handle)
                joined = rel if joined is None else natural_join(joined, rel)
            return project(joined, body.project)
        raise PlanReferenceError(f"unexpected body {body!r}")

    for kind in StageKind:
        statements = plan.stage(kind)
        if abort_tail and kind in (StageKind.SEMIJOIN_DOWN, StageKind.JOIN):
            if statements:
                skipped.append(kind.value)
            continue
        started = time.perf_counter_ns()
        max_rows = 0
        for stmt in statements:
            t0 = time.perf_counter_ns()
            if kind is StageKind.FINALIZE:
                source = None
                fin: Finalize = stmt.body
                if fin.source is not None:
                    if abort_tail:
                        source = Relation(tuple(fin.project_first))
                    else:
                        source = _lookup(env, fin.source)
                rel = _finalize_relation(source, fin)
                result = rel
            else:
                rel = run_body(stmt.body)
                env[stmt.name] = rel
            micros = (time.perf_counter_ns() - t0) // 1000
            rows = rel.cardinality()
            stats.statement_rows[stmt.name] = rows
            stats.statement_micros[stmt.name] = micros
            max_rows = max(max_rows, rows)
        stats.stage_max_rows[kind.value] = max_rows
        stats.stage_micros[kind.value] = \
            (time.perf_counter_ns() - started) // 1000
        if kind is StageKind.SEMIJOIN_UP and short_circuit:
            # a tree root empty after the up pass empties the whole result
            for node in plan.roots:
                handle = plan.node_handle_after(node, StageKind.SEMIJOIN_UP)
                if env[handle].cardinality() == 0:
                    abort_tail = True
    stats.skipped_stages = tuple(skipped)
    if result is None:
        raise PlanReferenceError("plan has no FINALIZE statement")
    return EvalResult(result, stats, env)


def _eval_scan(body: BaseScan, db: Mapping[str, Relation]) -> Relation:
    if body.relation not in db:
        raise MissingRelation(f"relation {body.relation!r} not in database")
    return scan(db[body.relation], body.selections, body.attr_equalities,
                body.columns)


# ---------------------------------------------------------------------------
# Full-reducer check
# ---------------------------------------------------------------------------

def full_reducer_holds(handles: Mapping[str, Relation], cq: ConjunctiveQuery,
                       db: Mapping[str, Relation]) -> bool:
    """True iff every tuple of every per-node handle appears in the
    projection of the full (unreduced) join onto that handle's schema."""
    full, _ = _naive_join_all(cq, db)
    for rel in handles.values():
        if not rel.schema:
            if rel.cardinality() and full.cardinality() == 0:
                return False
            continue
        allowed = set(project(full, rel.schema).rows)
        if any(row not in allowed for row in rel.rows):
            return False
    return True

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

`load_csv` streams a file into a bag of text rows, and types each distinct
row once, only if some field is empty or starts with '-' or a digit: a file
of text fields alone is never typed.  The values are those that typing every
field of every line on its own would give.

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
from fractions import Fraction
from functools import reduce
from itertools import chain, compress, repeat
from typing import Mapping, Optional

from .classification import normalize_aggregation
from .errors import YansqlError
from .plan_builder import (BaseScan, Finalize, Mode, NaturalJoin,
                           OutputColumn, SemiJoin, StageKind, StagePlan,
                           ViewJoin, base_scan, finalize_spec)
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
    values the key would also have compared directly.  Leading columns that
    hold one value in every row never decide the order, so the plain sort
    leaves them out of its key (a bare value when one column is left)."""
    try:
        first = next(iter(rows), ())
        skip = next((i for i, value in enumerate(first) if not all(map(
            operator.eq, map(operator.itemgetter(i), rows), repeat(value)))),
            len(first))
        return sorted(rows, key=_key_getter(range(skip, len(first)))
                      if skip else None)
    except TypeError:
        return sorted(rows, key=_row_sort_key)


def _columns_getter(idx):
    """Row -> tuple of the values at positions `idx`, however many."""
    if len(idx) == 1:
        return operator.itemgetter(slice(idx[0], idx[0] + 1))
    return _key_getter(idx)


def bag_equal(a: Relation, b: Relation) -> bool:
    """Schemas match up to column order; tuple multisets identical."""
    if sorted(a.schema) != sorted(b.schema):
        return False
    if a.schema == b.schema:
        return a.rows == b.rows
    # the k-th column of a name in a is the k-th column of that name in b
    order_a, order_b = (sorted(range(len(schema)), key=schema.__getitem__)
                        for schema in (a.schema, b.schema))
    key = _columns_getter([j for _, j in sorted(zip(order_a, order_b))])
    # a permutation of distinct rows leaves them distinct
    return a.rows == Counter(dict(zip(map(key, b.rows), b.rows.values())))


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


def _text_bag(path, reader, width: int) -> Optional[Counter]:
    """The rows as a bag of text tuples, read in one pass, or None if
    reading them fails or one of them has the wrong width."""
    try:
        rows = Counter(map(tuple, reader))
    except (csv.Error, UnicodeDecodeError):
        return None
    if () in rows:  # blank lines: one empty field each
        if width != 1:
            return None
        rows[("",)] += rows.pop(())
    return rows if {width}.issuperset(map(len, rows)) else None


def _first_fault(path, reader, width: int):
    """Read the rows one at a time and raise at the first fault."""
    for lineno, raw in enumerate(reader, start=2):
        fields = len(raw) or 1  # a blank line is one empty field
        if fields != width:
            raise ArityMismatch(
                f"{path}:{lineno}: expected {width} fields, got {fields}")
    raise IoError(f"{path}: changed while being read")


def _read_csv(path, declared_schema, rows_of):
    """The schema from the header of the CSV file at `path` and what
    `rows_of(path, reader, width)` makes of the rows after it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise IoError(f"{path}: missing header row")
            schema = tuple(col.strip().lower() for col in header)
            if declared_schema is not None \
                    and tuple(declared_schema) != schema:
                raise SchemaMismatch(
                    f"{path}: header {schema!r} does not match declared "
                    f"{tuple(declared_schema)!r}")
            return schema, rows_of(path, reader, len(schema))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    except csv.Error as exc:  # such as a field over csv.field_size_limit()
        raise IoError(f"{path}:{reader.line_num}: {exc}") from exc


def _typed(rows: Counter) -> Counter:
    """`rows` with every field typed by `_parse_value`.  Only an empty
    field or one that starts with '-' or a digit changes, and every such
    field sorts below ':', so a file without one is returned as it is."""
    if min(chain.from_iterable(rows), default=":") >= ":":
        return rows
    typed = Counter()
    for row, count in rows.items():
        row = tuple(map(_parse_value, row))
        typed[row] = typed.get(row, 0) + count  # 1 and 01 give one row
    return typed


def load_csv(path, declared_schema=None) -> Relation:
    """First row is the header; fields of ASCII digits, with an optional
    leading '-', parse as integers, empty fields as null; duplicate rows
    increase multiplicity.

    The file streams into a bag of text rows in one pass, and its
    distinct rows are typed only if one of their fields may change.  A
    file with a fault is read a second time, row by row, to report its
    first fault."""
    schema, rows = _read_csv(path, declared_schema, _text_bag)
    if rows is None:  # raises
        _read_csv(path, declared_schema, _first_fault)
    return Relation(schema, _typed(rows))


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


def _key_getter(idx):
    """Row -> join key: a bare value for one position (cheaper to build and
    hash than a 1-tuple), otherwise a tuple."""
    return operator.itemgetter(*idx) if idx else operator.itemgetter(slice(0))


def _null_keys(keys) -> list:
    """The join keys among `keys` that hold a null; they never match."""
    return [k for k in keys if k is None or type(k) is tuple and None in k]


def semi_join(left: Relation, right: Relation, keys) -> Relation:
    """Left tuples with at least one right match on all keys; multiplicities
    of surviving tuples are preserved exactly.  `keys` pairs (left attribute,
    right attribute); null keys never match."""
    left_key = _key_getter([left.column(a) for a, _ in keys])
    right_key = _key_getter([right.column(b) for _, b in keys])
    if len(left.rows) < len(right.rows):
        matched = set(map(left_key, left.rows)).intersection(
            map(right_key, right.rows))
    else:
        matched = set(map(right_key, right.rows))
    matched.difference_update(_null_keys(matched))
    keep = list(map(matched.__contains__, map(left_key, left.rows)))
    if all(keep):
        return left
    return Relation(left.schema,
                    Counter(dict(compress(left.rows.items(), keep))))


def natural_join(left: Relation, right: Relation, columns=None) -> Relation:
    """Bag join on shared attribute names; output multiplicity is the
    product of matching multiplicities; null keys never match.  Hashes the
    input with fewer distinct rows.  Columns: `left.schema` then the
    right-only ones, or `columns`, a bag projection fused into the join."""
    shared = [c for c in left.schema if c in right.schema]
    schema = left.schema + tuple(c for c in right.schema if c not in shared)
    columns = schema if columns is None else tuple(columns)
    build, probe = (left, right) if len(left.rows) < len(right.rows) \
        else (right, left)
    build_only = [c for c in build.schema if c not in shared]
    # an output row is picked from a probe row and its build-only values
    joined = Relation(probe.schema + tuple(build_only))
    pick = None if columns == joined.schema \
        else _columns_getter([joined.column(c) for c in columns])
    probe_key = _key_getter([probe.column(c) for c in shared])
    build_key = _key_getter([build.column(c) for c in shared])
    tail = _columns_getter([build.column(c) for c in build_only])
    index: dict = {}
    for row, count in build.rows.items():
        index.setdefault(build_key(row), []).append((tail(row), count))
    for key in _null_keys(index):
        del index[key]
    # full rows, in any column order, are distinct; dropped columns add up
    permutes = sorted(columns) == sorted(schema)
    rows = Counter()
    for row, count in probe.rows.items():
        for extra, build_count in index.get(probe_key(row), ()):
            out = row + extra if pick is None else pick(row + extra)
            rows[out] = count * build_count if permutes \
                else rows[out] + count * build_count
    return Relation(columns, rows)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def render_fraction(value: Fraction) -> str:
    """Six decimals, rounded half to even from the exact value."""
    whole, frac = divmod(round(abs(value) * 1_000_000), 1_000_000)
    return f"{'-' if value < 0 else ''}{whole}.{frac:06d}"


# Each fold maps every group to its aggregate over the rows whose group keys
# are `keys`, with `values` the call's column and `counts` the multiplicities.

def _fold_count(func, groups, keys, values, counts) -> dict:
    out = dict.fromkeys(groups, 0)
    for key, value, count in zip(keys, values, counts):
        if value is not None:
            out[key] += count
    return out


def _fold_sum(func, groups, keys, values, counts) -> dict:
    """SUM, or AVG as an exact Fraction; null for a group of nulls."""
    if not all(issubclass(kind, int)
               for kind in set(map(type, values)) - {type(None)}):
        raise AggregateTypeError(f"{func} needs integer input")
    totals = dict.fromkeys(groups, 0)
    ns = dict.fromkeys(groups, 0)
    for key, value, count in zip(keys, values, counts):
        if value is not None:
            totals[key] += value * count
            ns[key] += count
    finish = Fraction if func == "AVG" else lambda total, n: total
    return {key: finish(total, ns[key]) if ns[key] else None
            for key, total in totals.items()}


def _fold_best(func, groups, keys, values, counts) -> dict:
    """MIN or MAX: the running best; multiplicities never change it."""
    better = operator.lt if func == "MIN" else operator.gt
    best = dict.fromkeys(groups)
    try:
        for key, value in zip(keys, values):
            if value is not None:
                current = best[key]
                if current is None or better(value, current):
                    best[key] = value
    except TypeError:  # a number against a string
        raise AggregateTypeError(f"{func} over mixed value types") from None
    return best


_FOLDS = {"COUNT": _fold_count, "SUM": _fold_sum, "AVG": _fold_sum,
          "MIN": _fold_best, "MAX": _fold_best}


def _aggregate(rel: Relation, grouping, having, output) -> Relation:
    """Group `rel` by `grouping`, fold every aggregate call of `output` and
    `having` over all rows in one pass each, keep the groups that pass
    `having` and pick the `output` columns ("one" is the constant 1).
    Without grouping, calls see exactly one group, also over empty input;
    with no calls either, there is one group if `rel` has rows.  Groups
    are not sorted."""
    grouping, schema = tuple(grouping), tuple(col.name for col in output)
    if grouping and not rel.rows:  # no group
        return Relation(schema)
    calls = dict.fromkeys([col.agg for col in output if col.kind == "agg"]
                          + ([having.call] if having is not None else []))
    rows = rel.rows
    keys = list(map(_columns_getter([rel.column(g) for g in grouping]), rows))
    groups = dict.fromkeys(keys) if grouping or not calls else {(): None}
    counts = list(rows.values())
    folded = {}
    for call in calls:
        values = list(map(operator.itemgetter(rel.column(call.var)), rows))
        column = (keys, values, counts)
        if call.distinct:  # each value once per group
            pairs = set(zip(keys, values))
            column = ([k for k, _ in pairs], [v for _, v in pairs], repeat(1))
        folded[call] = _FOLDS[call.func](call.func, groups, *column)
    kept = list(groups)
    if having is not None:
        raw = folded[having.call]
        kept = [key for key in kept
                if _compare(raw[key], having.comparator, having.value)]
    columns = []
    for col in output:
        if col.kind == "var":
            picked = map(operator.itemgetter(grouping.index(col.name)), kept)
        elif col.kind == "agg":
            picked = map(folded[col.agg].__getitem__, kept)
            if col.agg.func == "AVG":
                picked = (v if v is None else render_fraction(v)
                          for v in picked)
        else:
            picked = repeat(1, len(kept))
        columns.append(picked)
    return Relation(schema, Counter(zip(*columns)))


def aggregate(rel: Relation, grouping, aggs, distinct_input: bool = False) -> Relation:
    """Group by `grouping` and apply the aggregate calls; with nonempty
    grouping, empty groups never appear.  AVG renders as a decimal string
    with six fractional digits."""
    if distinct_input:
        rel = distinct(rel)
    output = [OutputColumn("var", g) for g in grouping]
    output += [OutputColumn("agg", a.column_name(), a) for a in aggs]
    return _aggregate(rel, grouping, None, output)


# ---------------------------------------------------------------------------
# Shared FINALIZE semantics
# ---------------------------------------------------------------------------

def _finalize_relation(rel: Relation, fin: Finalize) -> Relation:
    if fin.distinct_input:
        rel = distinct(project(rel, fin.project_first))
    # otherwise group the source itself: projecting it first changes nothing
    if fin.group_by or fin.having is not None \
            or any(c.kind != "var" for c in fin.output):
        result = _aggregate(rel, fin.group_by, fin.having, fin.output)
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
    step_rows: tuple = ()  # the join after each atom
    finalize_rows: int = 0  # the result, counted as the plan's FINALIZE is

    @property
    def max_intermediate(self) -> int:
        return max(self.step_rows + (self.finalize_rows,))


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
    fin = finalize_spec(normalize_aggregation(cq), "naive", Mode.FULL_ENUM)
    joined, steps = _naive_join_all(cq, db)
    result = _finalize_relation(joined, fin)
    return result, NaiveStats(tuple(steps), result.cardinality())


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


def eval_plan(plan: StagePlan, db: Mapping[str, Relation]) -> EvalResult:
    """Interpret the plan statement by statement.

    When every tree root is empty after the bottom-up pass, the join is
    empty: each SEMIJOIN_DOWN and JOIN statement binds an empty relation of
    its columns without running, and those stages are reported as skipped.
    FINALIZE still runs (a global aggregate over an empty join yields one
    row).
    """
    env: dict = {}
    stats = StageStats()
    result: Optional[Relation] = None
    skipped: list = []
    empty_join = False

    def run_body(body):
        if isinstance(body, BaseScan):
            return _eval_scan(body, db)
        if isinstance(body, ViewJoin):
            return distinct(_join_project(
                [_eval_scan(scan_body, db) for scan_body in body.scans],
                body.project))
        if isinstance(body, SemiJoin):
            rel = _lookup(env, body.source)
            if empty_join:
                return Relation(rel.schema)
            for f in body.filters:
                rel = semi_join(rel, _lookup(env, f.handle),
                                [(k, k) for k in f.keys])
            return rel
        if isinstance(body, NaturalJoin):
            if empty_join:
                return Relation(body.project)
            return _join_project([_lookup(env, handle)
                                  for handle in body.inputs], body.project)
        raise PlanReferenceError(f"unexpected body {body!r}")

    for kind in StageKind:
        statements = plan.stage(kind)
        if empty_join and statements and kind is not StageKind.FINALIZE:
            skipped.append(kind.value)
        started = time.perf_counter_ns()
        max_rows = 0
        for stmt in statements:
            t0 = time.perf_counter_ns()
            if kind is StageKind.FINALIZE:
                rel = result = _finalize_relation(
                    _lookup(env, stmt.body.source), stmt.body)
            else:
                rel = env[stmt.name] = run_body(stmt.body)
            micros = (time.perf_counter_ns() - t0) // 1000
            rows = rel.cardinality()
            stats.statement_rows[stmt.name] = rows
            stats.statement_micros[stmt.name] = micros
            max_rows = max(max_rows, rows)
        stats.stage_max_rows[kind.value] = max_rows
        stats.stage_micros[kind.value] = \
            (time.perf_counter_ns() - started) // 1000
        if kind is StageKind.SEMIJOIN_UP:
            empty_join = bool(plan.roots) and not any(
                _lookup(env, plan.node_relations[root]).rows
                for root in plan.roots)
    stats.skipped_stages = tuple(skipped)
    if result is None:
        raise PlanReferenceError("plan has no FINALIZE statement")
    return EvalResult(result, stats, env)


def _join_project(rels: list, columns) -> Relation:
    """`rels` joined left to right, projected to `columns` in the last join."""
    if len(rels) == 1:
        return project(rels[0], columns)
    return natural_join(reduce(natural_join, rels[1:-1], rels[0]), rels[-1],
                        columns)


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

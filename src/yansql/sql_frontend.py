"""Parser and conjunctive-query extraction for a small SQL join fragment.

The accepted fragment covers select-project-join queries with aggregation:
SELECT (column refs, MIN/MAX/SUM/COUNT/AVG calls, or the literal 1,
optionally DISTINCT), FROM with comma joins and INNER JOIN .. ON, WHERE as a
conjunction of column equalities and comparisons against constants,
GROUP BY, HAVING with a single aggregate comparison, and an optional
trailing semicolon.  Everything else is rejected with an error naming the
offending construct.

Equality conjuncts between columns are absorbed into shared variables via
union-find, so the extracted ConjunctiveQuery contains only natural joins
plus per-atom constant selections.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .errors import YansqlError


class FrontendError(YansqlError):
    pass


class SqlSyntaxError(FrontendError):
    def __init__(self, message: str, position: int = -1, token: str = ""):
        self.position = position
        self.token = token
        detail = message
        if token:
            detail += f" (token {token!r}"
            if position >= 0:
                detail += f" at offset {position}"
            detail += ")"
        elif position >= 0:
            detail += f" (at offset {position})"
        super().__init__(detail)


class UnsupportedFeature(FrontendError):
    def __init__(self, construct: str, position: int = -1):
        self.construct = construct
        self.position = position
        super().__init__(f"unsupported SQL construct: {construct}")


class AmbiguousColumn(FrontendError):
    pass


class UnknownColumn(FrontendError):
    pass


class InvalidQuery(FrontendError):
    pass


AGGREGATE_FUNCS = ("MIN", "MAX", "SUM", "COUNT", "AVG")
_AGGREGATE_NAMES = frozenset(f.lower() for f in AGGREGATE_FUNCS)
COMPARATORS = ("=", "<", "<=", ">", ">=", "<>")

Value = Union[int, str]


# ---------------------------------------------------------------------------
# Parse-level structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColumnRef:
    qualifier: Optional[str]
    column: str

    def __str__(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.column}"
        return self.column


@dataclass(frozen=True)
class SelectColumn:
    ref: ColumnRef


@dataclass(frozen=True)
class SelectAggregate:
    func: str
    ref: ColumnRef
    distinct: bool


@dataclass(frozen=True)
class FromItem:
    table: str
    alias: str


@dataclass(frozen=True)
class JoinConjunct:
    left: ColumnRef
    right: ColumnRef


@dataclass(frozen=True)
class ConstantConjunct:
    ref: ColumnRef
    comparator: str
    value: Value


@dataclass(frozen=True)
class HavingComparison:
    func: str
    ref: ColumnRef
    distinct: bool
    comparator: str
    value: Value


@dataclass(frozen=True)
class ParsedQuery:
    select_items: tuple
    select_literal_one: bool
    distinct: bool
    from_items: tuple
    where_conjuncts: tuple
    group_by: tuple
    having: Optional[HavingComparison]


# ---------------------------------------------------------------------------
# Conjunctive-query structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AggregateCall:
    func: str
    var: str
    distinct: bool

    def column_name(self) -> str:
        if self.distinct:
            return f"{self.func.lower()}_distinct_{self.var}"
        return f"{self.func.lower()}_{self.var}"


@dataclass(frozen=True)
class Atom:
    atom_id: str
    relation: str
    attr_vars: tuple  # ((attribute, variable), ...) sorted by attribute

    def __post_init__(self):
        # derived once; not fields, so equality and hashing ignore them
        sources: dict = {}
        for a, v in self.attr_vars:
            sources[v] = sources.get(v, ()) + (a,)
        object.__setattr__(self, "_sources", sources)
        object.__setattr__(self, "variables", frozenset(sources))

    def attr_map(self) -> dict:
        return dict(self.attr_vars)

    def sources_of(self, var: str) -> tuple:
        """Attributes of this atom mapped to `var`, lexicographic."""
        return self._sources.get(var, ())


@dataclass(frozen=True)
class ConstantSelection:
    atom_id: str
    attr: str
    comparator: str
    value: Value


@dataclass(frozen=True)
class HavingFilter:
    call: AggregateCall
    comparator: str
    value: Value


@dataclass(frozen=True)
class ConjunctiveQuery:
    atoms: tuple
    selections: tuple
    output_vars: tuple
    grouping_vars: tuple
    aggregates: tuple
    having: Optional[HavingFilter]
    distinct: bool
    select_one: bool
    statically_empty: bool

    def atom(self, atom_id: str) -> Atom:
        for a in self.atoms:
            if a.atom_id == atom_id:
                return a
        raise KeyError(atom_id)

    def variables(self) -> frozenset:
        out = set()
        for a in self.atoms:
            out |= a.variables
        return frozenset(out)

    def var_atoms(self) -> dict:
        """variable -> sorted atom ids containing it."""
        occ: dict = {}
        for a in self.atoms:
            for v in a.variables:
                occ.setdefault(v, set()).add(a.atom_id)
        return {v: tuple(sorted(ids)) for v, ids in occ.items()}

    @property
    def is_boolean(self) -> bool:
        return (self.select_one and not self.output_vars
                and not self.grouping_vars and not self.aggregates)

    def projection_vars(self) -> tuple:
        """S: grouping vars, then output vars, then aggregate vars (deduped)."""
        seen: list = []
        for v in (*self.grouping_vars, *self.output_vars,
                  *(a.var for a in self.aggregates)):
            if v not in seen:
                seen.append(v)
        if self.having and self.having.call.var not in seen:
            seen.append(self.having.call.var)
        return tuple(seen)

    def selections_of(self, atom_id: str) -> tuple:
        return tuple(s for s in self.selections if s.atom_id == atom_id)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Whitespace before a token is part of its match, and any other character
# matches as `bad`, so consecutive matches cover the text without a gap.
_TOKEN_RE = re.compile(
    r"""\s*
      (?: (?P<string>'(?:[^']|'')*')
        | (?P<number>\d+(?:\.\d+)?)
        | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
        | (?P<op><>|<=|>=|!=|[=<>(),.;*+\-/%])
        | (?P<bad>\S)
      )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "having",
    "as", "and", "inner", "join", "on",
}

# Constructs outside the fragment, recognised so rejections can name them.
_REJECTED = {
    "left": "OUTER JOIN", "right": "OUTER JOIN", "full": "OUTER JOIN",
    "outer": "OUTER JOIN", "cross": "CROSS JOIN", "natural": "NATURAL JOIN",
    "using": "JOIN .. USING", "or": "OR", "union": "UNION",
    "except": "EXCEPT", "intersect": "INTERSECT", "exists": "subquery",
    "in": "IN predicate", "any": "ANY predicate", "all": "ALL predicate",
    "not": "NOT", "between": "BETWEEN", "like": "LIKE", "is": "IS",
    "over": "window function", "order": "ORDER BY", "limit": "LIMIT",
    "offset": "OFFSET", "case": "CASE expression", "null": "NULL literal",
    "cast": "CAST expression",
}


class _Token(NamedTuple):
    kind: str  # ident | number | string | op | end
    text: str
    pos: int


def _scan(sql: str) -> list:
    tokens = []
    for m in _TOKEN_RE.finditer(sql):
        kind = m.lastgroup
        text, pos = m[kind], m.start(kind)
        if kind == "bad":
            raise SqlSyntaxError("unexpected character", pos, text)
        tokens.append(_Token(kind, text.lower() if kind == "ident" else text,
                             pos))
    tokens.append(_Token("end", "", len(sql)))
    return tokens


class _Parser:
    def __init__(self, sql: str):
        self.tokens = _scan(sql)
        # a second end token lets `peek(1)` at the end skip a bounds check
        self.tokens.append(self.tokens[-1])
        self.i = 0

    # -- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.i + ahead]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "end":
            self.i += 1
        return tok

    def at_keyword(self, kw: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == kw

    def accept_keyword(self, kw: str) -> bool:
        if self.at_keyword(kw):
            self.advance()
            return True
        return False

    def expect_keyword(self, kw: str):
        if not self.accept_keyword(kw):
            self.fail(f"expected {kw.upper()}")

    def accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.advance()
            return True
        return False

    def expect_op(self, op: str):
        if not self.accept_op(op):
            self.fail(f"expected {op!r}")

    def expect_comparator(self) -> str:
        """One of COMPARATORS; `!=` reads as `<>`."""
        tok = self.peek()
        op = "<>" if tok.text == "!=" else tok.text
        if tok.kind != "op" or op not in COMPARATORS:
            self.fail("expected comparison operator")
        self.advance()
        return op

    def fail(self, message: str):
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _REJECTED:
            raise UnsupportedFeature(_REJECTED[tok.text], tok.pos)
        raise SqlSyntaxError(message, tok.pos, tok.text or "<end>")

    def expect_ident(self, what: str) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in _KEYWORDS:
            self.fail(f"expected {what}")
        if tok.text in _REJECTED:
            raise UnsupportedFeature(_REJECTED[tok.text], tok.pos)
        self.advance()
        return tok.text

    # -- grammar ------------------------------------------------------------

    def parse(self) -> ParsedQuery:
        self.expect_keyword("select")
        distinct = self.accept_keyword("distinct")
        items, literal_one = self.parse_select_list()
        self.expect_keyword("from")
        from_items, join_conjuncts = self.parse_from()
        where = list(join_conjuncts)
        if self.accept_keyword("where"):
            where.extend(self.parse_conjunction())
        group_by: list = []
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            group_by.append(self.parse_column_ref())
            while self.accept_op(","):
                group_by.append(self.parse_column_ref())
        having = None
        if self.accept_keyword("having"):
            having = self.parse_having()
        self.accept_op(";")
        if self.peek().kind != "end":
            self.fail("trailing input after statement")
        return ParsedQuery(
            select_items=tuple(items),
            select_literal_one=literal_one,
            distinct=distinct,
            from_items=tuple(from_items),
            where_conjuncts=tuple(where),
            group_by=tuple(group_by),
            having=having,
        )

    def parse_select_list(self):
        items: list = []
        literal_one = False
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text == "*":
                raise UnsupportedFeature("SELECT *", tok.pos)
            if tok.kind == "number":
                if tok.text != "1":
                    raise UnsupportedFeature("select literal other than 1", tok.pos)
                self.advance()
                literal_one = True
            elif tok.kind == "ident" and tok.text in _AGGREGATE_NAMES \
                    and self.peek(1).kind == "op" and self.peek(1).text == "(":
                items.append(self.parse_aggregate_call())
            else:
                items.append(SelectColumn(self.parse_column_ref()))
            if not self.accept_op(","):
                break
        if literal_one and items:
            raise UnsupportedFeature("literal mixed with other select items")
        return items, literal_one

    def parse_aggregate_call(self) -> SelectAggregate:
        func = self.advance().text.upper()
        self.expect_op("(")
        if self.peek().kind == "op" and self.peek().text == "*":
            raise UnsupportedFeature(f"{func}(*)", self.peek().pos)
        distinct = self.accept_keyword("distinct")
        ref = self.parse_column_ref()
        self.expect_op(")")
        return SelectAggregate(func, ref, distinct)

    def parse_column_ref(self) -> ColumnRef:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            if self.peek(1).kind == "ident" and self.peek(1).text == "select":
                raise UnsupportedFeature("subquery", tok.pos)
            raise UnsupportedFeature("parenthesised expression", tok.pos)
        first = self.expect_ident("column reference")
        if self.accept_op("."):
            column = self.expect_ident("column name")
            ref = ColumnRef(first, column)
        else:
            ref = ColumnRef(None, first)
        nxt = self.peek()
        if nxt.kind == "op" and nxt.text in "+-*/%":
            raise UnsupportedFeature("arithmetic in expression", nxt.pos)
        return ref

    def parse_from(self):
        from_items: list = []
        conjuncts: list = []
        self.parse_from_item(from_items)
        while True:
            if self.accept_op(","):
                self.parse_from_item(from_items)
                continue
            tok = self.peek()
            if tok.kind == "ident" and tok.text in ("inner", "join"):
                self.accept_keyword("inner")
                self.expect_keyword("join")
                self.parse_from_item(from_items)
                self.expect_keyword("on")
                conjuncts.extend(self.parse_conjunction())
                continue
            if tok.kind == "ident" and tok.text in ("left", "right", "full",
                                                    "outer", "cross", "natural"):
                raise UnsupportedFeature(_REJECTED[tok.text], tok.pos)
            break
        # Assign effective aliases; self-joins without an explicit alias get
        # <table>_k so atom ids stay pairwise distinct.
        taken = set()
        resolved = []
        for table, alias in from_items:
            if alias is None:
                alias = table
                k = 2
                while alias in taken:
                    alias = f"{table}_{k}"
                    k += 1
            elif alias in taken:
                raise SqlSyntaxError(f"duplicate alias {alias!r}")
            taken.add(alias)
            resolved.append(FromItem(table, alias))
        return resolved, conjuncts

    def parse_from_item(self, out: list):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "(":
            raise UnsupportedFeature("subquery", tok.pos)
        table = self.expect_ident("table name")
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_ident("alias")
        else:
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.text not in _KEYWORDS \
                    and nxt.text not in _REJECTED:
                alias = self.advance().text
        out.append((table, alias))

    def parse_conjunction(self) -> list:
        preds = [self.parse_predicate()]
        while self.accept_keyword("and"):
            preds.append(self.parse_predicate())
        if self.at_keyword("or"):
            raise UnsupportedFeature("OR", self.peek().pos)
        return preds

    def parse_predicate(self):
        left = self.parse_operand()
        tok = self.peek()
        op = self.expect_comparator()
        right = self.parse_operand()
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            if op != "=":
                raise UnsupportedFeature("non-equality comparison between columns", tok.pos)
            return JoinConjunct(left, right)
        if isinstance(left, ColumnRef):
            return ConstantConjunct(left, op, right)
        if isinstance(right, ColumnRef):
            return ConstantConjunct(right, _flip(op), left)
        raise UnsupportedFeature("comparison between constants", tok.pos)

    def parse_operand(self):
        tok = self.peek()
        if tok.kind == "string":
            self.advance()
            return tok.text[1:-1].replace("''", "'")
        if tok.kind == "number":
            self.advance()
            if "." in tok.text:
                raise UnsupportedFeature("non-integer numeric literal", tok.pos)
            return int(tok.text)
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            num = self.peek()
            if num.kind != "number" or "." in num.text:
                self.fail("expected integer after '-'")
            self.advance()
            return -int(num.text)
        if tok.kind == "ident" and tok.text in _AGGREGATE_NAMES \
                and self.peek(1).kind == "op" and self.peek(1).text == "(":
            raise UnsupportedFeature("aggregate in WHERE", tok.pos)
        return self.parse_column_ref()

    def parse_having(self) -> HavingComparison:
        tok = self.peek()
        if tok.kind == "ident" and tok.text in _AGGREGATE_NAMES:
            agg = self.parse_aggregate_call()
            optok = self.peek()
            op = self.expect_comparator()
            value = self.parse_operand()
            if isinstance(value, ColumnRef):
                raise UnsupportedFeature("HAVING against a column", optok.pos)
        else:
            value = self.parse_operand()
            if isinstance(value, ColumnRef):
                raise UnsupportedFeature("HAVING without aggregate", tok.pos)
            op = _flip(self.expect_comparator())
            agg = self.parse_aggregate_call()
        if self.accept_keyword("and"):
            raise UnsupportedFeature("multiple HAVING conditions")
        return HavingComparison(agg.func, agg.ref, agg.distinct, op, value)


def _flip(op: str) -> str:
    return {"=": "=", "<>": "<>", "<": ">", ">": "<", "<=": ">=", ">=": "<="}[op]


def parse_query(sql_text: str) -> ParsedQuery:
    """Parse one statement of the supported fragment into a ParsedQuery."""
    return _Parser(sql_text).parse()


# ---------------------------------------------------------------------------
# CQ extraction
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        self.add(x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def classes(self) -> list:
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), set()).add(x)
        return list(groups.values())


def extract_cq(pq: ParsedQuery) -> ConjunctiveQuery:
    """Merge equality conjuncts into shared variables and build the CQ."""
    aliases = [f.alias for f in pq.from_items]
    alias_set = set(aliases)

    def resolve(ref: ColumnRef) -> tuple:
        if ref.qualifier is not None:
            if ref.qualifier not in alias_set:
                raise UnknownColumn(f"unknown table or alias {ref.qualifier!r} in {ref}")
            return (ref.qualifier, ref.column)
        if len(aliases) == 1:
            return (aliases[0], ref.column)
        raise AmbiguousColumn(
            f"unqualified column {ref.column!r} is ambiguous with multiple FROM items")

    uf = _UnionFind()
    resolved_select: list = []
    for item in pq.select_items:
        resolved_select.append(resolve(item.ref))
        uf.add(resolved_select[-1])
    const_conjuncts: list = []
    for conj in pq.where_conjuncts:
        if isinstance(conj, JoinConjunct):
            uf.union(resolve(conj.left), resolve(conj.right))
        else:
            key = resolve(conj.ref)
            uf.add(key)
            const_conjuncts.append((key, conj.comparator, conj.value))
    resolved_group = []
    for ref in pq.group_by:
        key = resolve(ref)
        uf.add(key)
        resolved_group.append(key)
    having_key = None
    if pq.having is not None:
        having_key = resolve(pq.having.ref)
        uf.add(having_key)

    # Canonical variable names: lexicographically smallest attribute name in
    # the class; clashes across classes resolved by a _k suffix assigned in
    # order of the smallest (atom, attribute) member, so naming is a pure
    # function of the class structure (stable under re-rendering).
    classes = uf.classes()
    keyed = sorted(
        ((min(attr for _, attr in cls), min(cls), cls) for cls in classes),
        key=lambda item: (item[0], item[1]),
    )
    var_of: dict = {}
    used_names: set = set()
    for base, _, cls in keyed:
        name = base
        k = 2
        while name in used_names:
            name = f"{base}_{k}"
            k += 1
        used_names.add(name)
        for member in cls:
            var_of[member] = name

    attr_vars: dict = {}
    for (alias, attr), var in var_of.items():
        attr_vars.setdefault(alias, []).append((attr, var))
    atoms = [Atom(item.alias, item.table,
                  tuple(sorted(attr_vars.get(item.alias, ()))))
             for item in pq.from_items]

    selections = tuple(
        ConstantSelection(alias, attr, op, value)
        for (alias, attr), op, value in const_conjuncts
    )

    # Two incompatible equality constants on one variable class make the
    # query statically empty.  `analyze` reports it; evaluation needs no
    # special case, since the scans or the semi-joins come out empty.
    eq_values: dict = {}
    statically_empty = False
    for (alias, attr), op, value in const_conjuncts:
        if op != "=":
            continue
        var = var_of[(alias, attr)]
        if var in eq_values and eq_values[var] != value:
            statically_empty = True
        eq_values.setdefault(var, value)

    output_vars: list = []
    aggregates: list = []
    sel_iter = iter(resolved_select)
    for item in pq.select_items:
        key = next(sel_iter)
        var = var_of[key]
        if isinstance(item, SelectColumn):
            if var not in output_vars:
                output_vars.append(var)
        else:
            aggregates.append(AggregateCall(item.func, var, item.distinct))

    grouping_vars: list = []
    for key in resolved_group:
        var = var_of[key]
        if var not in grouping_vars:
            grouping_vars.append(var)

    having = None
    if pq.having is not None:
        call = AggregateCall(pq.having.func, var_of[having_key], pq.having.distinct)
        having = HavingFilter(call, pq.having.comparator, pq.having.value)

    if (aggregates or grouping_vars or having) and not pq.select_literal_one:
        bad = [v for v in output_vars if v not in grouping_vars]
        if bad:
            raise InvalidQuery(
                f"column {bad[0]!r} must appear in GROUP BY when aggregating")

    return ConjunctiveQuery(
        atoms=tuple(atoms),
        selections=selections,
        output_vars=tuple(output_vars),
        grouping_vars=tuple(grouping_vars),
        aggregates=tuple(aggregates),
        having=having,
        distinct=pq.distinct,
        select_one=pq.select_literal_one,
        statically_empty=statically_empty,
    )


# ---------------------------------------------------------------------------
# Canonical SQL rendering
# ---------------------------------------------------------------------------

def sql_literal(value: Value) -> str:
    """An integer as is, a string quoted with `''` escapes."""
    if isinstance(value, int):
        return str(value)
    return "'" + value.replace("'", "''") + "'"


def _first_source(cq: ConjunctiveQuery, var: str) -> str:
    for atom in cq.atoms:
        attrs = atom.sources_of(var)
        if attrs:
            return f"{atom.atom_id}.{attrs[0]}"
    raise KeyError(var)


def render_sql(cq: ConjunctiveQuery) -> str:
    """Render a CQ back to canonical SQL in the supported fragment."""
    parts = ["SELECT "]
    if cq.distinct:
        parts.append("DISTINCT ")
    select: list = []
    if cq.select_one:
        select.append("1")
    select.extend(_first_source(cq, v) for v in cq.output_vars)
    for agg in cq.aggregates:
        inner = _first_source(cq, agg.var)
        if agg.distinct:
            inner = "DISTINCT " + inner
        select.append(f"{agg.func}({inner})")
    parts.append(", ".join(select))
    froms = []
    for atom in cq.atoms:
        if atom.atom_id == atom.relation:
            froms.append(atom.relation)
        else:
            froms.append(f"{atom.relation} AS {atom.atom_id}")
    parts.append(" FROM " + ", ".join(froms))

    conjuncts: list = []
    members: dict = {}
    for atom in cq.atoms:
        for attr, var in atom.attr_vars:
            members.setdefault(var, []).append(f"{atom.atom_id}.{attr}")
    for var in sorted(members):
        refs = members[var]
        for left, right in zip(refs, refs[1:]):
            conjuncts.append(f"{left} = {right}")
    for sel in cq.selections:
        conjuncts.append(
            f"{sel.atom_id}.{sel.attr} {sel.comparator} {sql_literal(sel.value)}")
    if conjuncts:
        parts.append(" WHERE " + " AND ".join(conjuncts))
    if cq.grouping_vars:
        parts.append(" GROUP BY " + ", ".join(
            _first_source(cq, v) for v in cq.grouping_vars))
    if cq.having is not None:
        call = cq.having.call
        inner = _first_source(cq, call.var)
        if call.distinct:
            inner = "DISTINCT " + inner
        parts.append(f" HAVING {call.func}({inner}) {cq.having.comparator} "
                     f"{sql_literal(cq.having.value)}")
    parts.append(";")
    return "".join(parts)

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yansql.sql_frontend import (AggregateCall, AmbiguousColumn, ColumnRef,
                                 ConstantSelection, InvalidQuery,
                                 SqlSyntaxError, UnknownColumn,
                                 UnsupportedFeature, _scan, extract_cq,
                                 parse_query, render_sql)

from conftest import EX1_SQL, UNIVERSITY_SQL


# ---------------------------------------------------------------------------
# parse_query
# ---------------------------------------------------------------------------

def test_parse_ex1_shape():
    pq = parse_query(EX1_SQL)
    assert len(pq.from_items) == 2
    assert [f.table for f in pq.from_items] == ["exams", "courses"]
    assert len(pq.where_conjuncts) == 2
    kinds = [type(c).__name__ for c in pq.where_conjuncts]
    assert kinds == ["JoinConjunct", "ConstantConjunct"]
    assert len(pq.group_by) == 1
    assert len(pq.select_items) == 2
    agg = pq.select_items[1]
    assert agg.func == "MIN" and not agg.distinct


def test_parse_select_literal_one():
    pq = parse_query("SELECT 1 FROM r")
    assert pq.select_literal_one
    assert pq.select_items == ()
    assert len(pq.from_items) == 1
    assert pq.where_conjuncts == ()


def test_parse_rejects_outer_join():
    with pytest.raises(UnsupportedFeature) as exc:
        parse_query("SELECT a FROM r LEFT JOIN s ON r.a = s.a")
    assert "OUTER JOIN" in str(exc.value)


@pytest.mark.parametrize("sql,construct", [
    ("SELECT a FROM r WHERE r.a = 1 OR r.b = 2", "OR"),
    ("SELECT a FROM r UNION SELECT a FROM s", "UNION"),
    ("SELECT a FROM (SELECT a FROM r) q", "subquery"),
    ("SELECT a FROM r WHERE r.a IN (1, 2)", "IN predicate"),
    ("SELECT * FROM r", "SELECT *"),
    ("SELECT COUNT(*) FROM r", "COUNT(*)"),
    ("SELECT a FROM r WHERE r.a + 1 = 2", "arithmetic"),
    ("SELECT a FROM r WHERE r.a = 1.5", "non-integer"),
    ("SELECT a FROM r ORDER BY a", "ORDER BY"),
    ("SELECT a FROM r WHERE MIN(r.a) = 1", "aggregate in WHERE"),
    ("SELECT a FROM r WHERE r.a <> r.b", "non-equality comparison"),
    ("SELECT a FROM r CROSS JOIN s", "CROSS JOIN"),
    ("SELECT 2 FROM r", "literal other than 1"),
    ("SELECT MIN(r.a) OVER () FROM r", "window function"),
    ("SELECT a FROM r WHERE r.a IS NULL", "IS"),
])
def test_parse_rejections_name_construct(sql, construct):
    with pytest.raises(UnsupportedFeature) as exc:
        parse_query(sql)
    assert construct in str(exc.value)


def test_syntax_error_carries_position_and_token():
    with pytest.raises(SqlSyntaxError) as exc:
        parse_query("SELECT a FROM r WHERE r.a = = 1")
    assert exc.value.position >= 0
    assert exc.value.token == "="


# The tokenizer as it was written first: one match per token and per
# whitespace run, tried at each position in turn.  `_scan` must split any
# text as it did, and fail at the same character.
_REFERENCE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<string>'(?:[^']|'')*')
      | (?P<number>\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><>|<=|>=|!=|[=<>(),.;*+\-/%])
    """,
    re.VERBOSE,
)


def _reference_scan(sql):
    """(tokens, None), or (None, (position, character)) on a bad one."""
    tokens = []
    pos = 0
    while pos < len(sql):
        m = _REFERENCE_TOKEN_RE.match(sql, pos)
        if m is None:
            return None, (pos, sql[pos])
        if m.lastgroup != "ws":
            text = m.group()
            if m.lastgroup == "ident":
                text = text.lower()
            tokens.append((m.lastgroup, text, pos))
        pos = m.end()
    tokens.append(("end", "", len(sql)))
    return tokens, None


# SQL letters, digits, quotes, operators, whitespace (NBSP and U+2028
# too), a non-ASCII decimal digit (U+0663), a digit-like non-digit (U+00B2)
# and other characters outside the fragment
_SCAN_CHARS = "sSeElLcCtTfFrRoOmMwWhH_ab09'\" \t\n\r=<>!(),.;*+-/%?#`é\u00a0" \
    "\u2028\u0663\u00b2"
_SCAN_PIECES = ["SELECT", "from", "'it''s'", "''", "'open", "<>", "!=",
                "<=", "1.5", "1.", ".5", "-3", "r.a", "  ", "\t\n"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_SCAN_PIECES) | st.text(_SCAN_CHARS,
                                                        max_size=4),
                max_size=12).map("".join))
def test_scan_agrees_with_per_position_reference(text):
    expected, error = _reference_scan(text)
    if error is None:
        assert [tuple(t) for t in _scan(text)] == expected
    else:
        with pytest.raises(SqlSyntaxError) as exc:
            _scan(text)
        assert (exc.value.position, exc.value.token) == error


def test_parse_normalizes_identifier_case():
    pq = parse_query("SELECT R.A FROM R WHERE R.A = 'Mixed'")
    assert pq.from_items[0].table == "r"
    assert pq.select_items[0].ref == ColumnRef("r", "a")
    # constant case is preserved
    assert pq.where_conjuncts[0].value == "Mixed"


def test_parse_inner_join_on_merges_into_conjuncts():
    pq = parse_query(
        "SELECT r.a FROM r INNER JOIN s ON r.a = s.a AND s.b = 2")
    assert len(pq.where_conjuncts) == 2
    assert [f.alias for f in pq.from_items] == ["r", "s"]


def test_parse_self_join_auto_alias():
    pq = parse_query("SELECT e.cid FROM exams AS e, exams, exams")
    assert [f.alias for f in pq.from_items] == ["e", "exams", "exams_2"]


def test_parse_trailing_semicolon_optional():
    assert parse_query("SELECT a FROM r") == parse_query("SELECT a FROM r;")


def test_parse_distinct_and_distinct_aggregate():
    pq = parse_query("SELECT DISTINCT r.a FROM r")
    assert pq.distinct
    pq = parse_query("SELECT COUNT(DISTINCT r.a) FROM r")
    assert pq.select_items[0].distinct


def test_parse_having():
    pq = parse_query(
        "SELECT r.a, SUM(r.b) FROM r GROUP BY r.a HAVING SUM(r.b) > 10")
    assert pq.having is not None
    assert pq.having.func == "SUM"
    assert pq.having.comparator == ">"
    assert pq.having.value == 10


def test_parse_having_flipped_constant():
    pq = parse_query("SELECT MIN(r.a) FROM r HAVING 3 < MIN(r.a)")
    assert pq.having.comparator == ">"


# ---------------------------------------------------------------------------
# extract_cq
# ---------------------------------------------------------------------------

def test_extract_ex1(ex1_cq):
    cq = ex1_cq
    assert [a.atom_id for a in cq.atoms] == ["exams", "courses"]
    exams = cq.atom("exams")
    courses = cq.atom("courses")
    # shared join variable between exams.cid and courses.cid
    assert exams.attr_map()["cid"] == courses.attr_map()["cid"]
    assert cq.selections == (
        ConstantSelection("courses", "faculty", "=", "Biology"),)
    assert cq.grouping_vars == ("student",)
    assert cq.aggregates == (AggregateCall("MIN", "grade", False),)
    assert not cq.statically_empty


def test_extract_university(university_cq):
    cq = university_cq
    assert len(cq.atoms) == 4
    cid_vars = {cq.atom(a).attr_map()["cid"] for a in ("exams", "courses", "tutors")}
    assert len(cid_vars) == 1
    stud_vars = {cq.atom(a).attr_map()["student"]
                 for a in ("exams", "enrolled", "tutors")}
    assert len(stud_vars) == 1
    sels = {(s.atom_id, s.attr, s.comparator, s.value) for s in cq.selections}
    assert sels == {("courses", "faculty", "=", "ComputerScience"),
                    ("tutors", "num_semesters", ">", 1)}


def test_extract_equality_chain_transitivity():
    cq = extract_cq(parse_query(
        "SELECT r.a FROM r, s, t WHERE r.a = s.b AND s.b = t.c"))
    vars_ = {cq.atom("r").attr_map()["a"], cq.atom("s").attr_map()["b"],
             cq.atom("t").attr_map()["c"]}
    assert len(vars_) == 1


def test_extract_same_name_unjoined_columns_stay_distinct():
    cq = extract_cq(parse_query("SELECT r.a, s.a FROM r, s"))
    assert cq.atom("r").attr_map()["a"] != cq.atom("s").attr_map()["a"]


def test_extract_intra_atom_equality():
    cq = extract_cq(parse_query("SELECT r.a FROM r WHERE r.a = r.b"))
    atom = cq.atom("r")
    assert atom.attr_map()["a"] == atom.attr_map()["b"]
    assert atom.sources_of(atom.attr_map()["a"]) == ("a", "b")


def test_extract_contradictory_constants_flagged_not_rejected():
    cq = extract_cq(parse_query(
        "SELECT r.a FROM r, s WHERE r.a = s.a AND r.a = 1 AND s.a = 2"))
    assert cq.statically_empty
    cq2 = extract_cq(parse_query(
        "SELECT r.a FROM r WHERE r.a = 1 AND r.a = 1"))
    assert not cq2.statically_empty
    # int 1 and string '1' are different constants
    cq3 = extract_cq(parse_query(
        "SELECT r.a FROM r WHERE r.a = 1 AND r.a = '1'"))
    assert cq3.statically_empty


def test_extract_ambiguous_unqualified_column():
    with pytest.raises(AmbiguousColumn):
        extract_cq(parse_query("SELECT student FROM exams, courses"))
    # single FROM item resolves unqualified refs
    cq = extract_cq(parse_query("SELECT student FROM exams"))
    assert cq.output_vars == ("student",)


def test_extract_unknown_qualifier():
    with pytest.raises(UnknownColumn):
        extract_cq(parse_query("SELECT z.a FROM r"))


def test_extract_non_grouped_column_rejected():
    with pytest.raises(InvalidQuery):
        extract_cq(parse_query("SELECT r.a, MIN(r.b) FROM r"))


def test_extract_having_kept_as_post_filter():
    cq = extract_cq(parse_query(
        "SELECT r.a FROM r GROUP BY r.a HAVING COUNT(r.b) > 1"))
    assert cq.having.call == AggregateCall("COUNT", "b", False)
    assert cq.having.comparator == ">"
    assert cq.aggregates == ()
    assert "b" in cq.projection_vars()


def test_boolean_cq_shape():
    cq = extract_cq(parse_query("SELECT 1 FROM r"))
    assert cq.is_boolean
    assert cq.projection_vars() == ()
    assert cq.atom("r").attr_vars == ()


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _roundtrip(sql):
    cq = extract_cq(parse_query(sql))
    again = extract_cq(parse_query(render_sql(cq)))
    return cq, again


@pytest.mark.parametrize("sql", [
    EX1_SQL,
    UNIVERSITY_SQL,
    "SELECT 1 FROM r",
    "SELECT DISTINCT r.a, s.b FROM r, s WHERE r.x = s.x",
    "SELECT r.a FROM r, s, t WHERE r.a = s.b AND s.b = t.c AND t.q > 5",
    "SELECT e.cid FROM exams AS e, exams WHERE e.cid = exams.cid",
    "SELECT r.a, SUM(r.b) FROM r GROUP BY r.a HAVING SUM(r.b) >= -2",
    "SELECT COUNT(DISTINCT r.a) FROM r, s WHERE r.k = s.k AND s.v <> 'x'",
])
def test_roundtrip_stability(sql):
    cq, again = _roundtrip(sql)
    assert cq == again


def test_variable_class_soundness(university_cq):
    # every pair of attributes mapped to one variable has an equality chain:
    # check the rendered SQL reconnects exactly the same classes
    cq = university_cq
    rendered = render_sql(cq)
    again = extract_cq(parse_query(rendered))
    assert again == cq


def test_aggregate_variable_is_never_dropped():
    cq = extract_cq(parse_query(
        "SELECT r.a, MAX(s.z) FROM r, s WHERE r.a = s.a GROUP BY r.a"))
    (agg,) = cq.aggregates
    holders = [a.atom_id for a in cq.atoms if agg.var in a.variables]
    assert holders == ["s"]


_RESERVED = {"all", "and", "any", "as", "avg", "by", "bet"}
_ident = st.from_regex(r"[a-c][a-z0-9_]{0,3}", fullmatch=True).filter(
    lambda s: s not in _RESERVED)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_ident, _ident), min_size=1, max_size=6),
       st.data())
def test_union_find_chains_merge(pairs, data):
    """Random equality chains over two relations: conjunct endpoints always
    share a variable afterwards."""
    conjuncts = " AND ".join(f"r.{a} = s.{b}" for a, b in pairs)
    cq = extract_cq(parse_query(f"SELECT r.{pairs[0][0]} FROM r, s WHERE {conjuncts}"))
    r_map = cq.atom("r").attr_map()
    s_map = cq.atom("s").attr_map()
    for a, b in pairs:
        assert r_map[a] == s_map[b]

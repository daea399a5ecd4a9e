import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yansql.cli import main
from yansql.testing import write_db_csv

from conftest import EX1_SQL, TRIANGLE_SQL, UNIVERSITY_SQL


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


@pytest.fixture
def ex1_paths(tmp_path, ex1_db):
    sql = tmp_path / "ex1.sql"
    sql.write_text(EX1_SQL, encoding="utf-8")
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    write_db_csv(ex1_db, db_dir)
    return sql, db_dir


def test_analyze_reports_0ma(ex1_paths):
    sql, _ = ex1_paths
    code, text = run(["analyze", str(sql)])
    assert code == 0
    assert "0MA: yes" in text
    assert "guard: exams" in text
    assert "hypergraph:" in text and "join tree:" in text


def test_analyze_output_golden(tmp_path):
    import os
    from pathlib import Path

    sql = tmp_path / "uni.sql"
    sql.write_text(UNIVERSITY_SQL, encoding="utf-8")
    _, text = run(["analyze", str(sql)])
    golden = Path(__file__).parent / "golden" / "university_analyze.txt"
    if os.environ.get("UPDATE_GOLDENS"):
        golden.write_text(text, encoding="utf-8")
    assert text == golden.read_text(encoding="utf-8")


def test_analyze_cyclic_suggests_ghd(tmp_path):
    sql = tmp_path / "tri.sql"
    sql.write_text(TRIANGLE_SQL, encoding="utf-8")
    code, text = run(["analyze", str(sql)])
    assert code == 0
    assert "join tree: none (cyclic)" in text
    assert "--ghd-width" in text


def test_rewrite_byte_stable(ex1_paths):
    sql, _ = ex1_paths
    code1, text1 = run(["rewrite", str(sql), "--dialect", "postgres"])
    code2, text2 = run(["rewrite", str(sql), "--dialect", "postgres"])
    assert code1 == code2 == 0
    assert text1 == text2
    assert "CREATE VIEW courses_setup" in text1


def test_rewrite_semijoin_style_flag(ex1_paths):
    sql, _ = ex1_paths
    _, rowin = run(["rewrite", str(sql), "--semijoin-style", "rowin"])
    _, exists = run(["rewrite", str(sql), "--semijoin-style", "exists"])
    assert "IN (SELECT" in rowin
    assert "EXISTS (SELECT" in exists


def test_exec_prints_result_and_stats(ex1_paths):
    sql, db = ex1_paths
    code, text = run(["exec", str(sql), "--db", str(db), "--stats"])
    assert code == 0
    assert "s1 | 3" in text
    assert "exams_sjup\t2" in text


def test_exec_tsv_format(ex1_paths):
    sql, db = ex1_paths
    code, text = run(["exec", str(sql), "--db", str(db), "--format", "tsv"])
    assert code == 0
    assert "student\tmin_grade" in text
    assert "s1\t3" in text


def _per_value_rendering(schema, rows, fmt):
    """Reference rendering, one value at a time: str() of each value, null
    as NULL (text) or as an empty field (tsv)."""
    sep, null = ("\t", "") if fmt == "tsv" else (" | ", "NULL")
    lines = [sep.join(schema)]
    lines += [sep.join(null if v is None else str(v) for v in row)
              for row in rows]
    if fmt == "text":
        lines.append(f"({len(rows)} row(s))")
    return "".join(line + "\n" for line in lines)


PRINT_CASES = {
    # all-string rows, one duplicated: the bulk join
    "strings": ("SELECT r.a, r.b FROM r", "a,b\nx,y\nx,y\np q,z\n", ("a", "b"),
                [("p q", "z"), ("x", "y"), ("x", "y")]),
    # ints, nulls and strings: the per-value fallback
    "mixed": ("SELECT r.a, r.b FROM r", "a,b\n7,x\n,y\n-2,\n",
              ("a", "b"), [(None, "y"), (-2, None), (7, "x")]),
    "empty": ("SELECT r.a, r.b FROM r", "a,b\n", ("a", "b"), []),
    "boolean": ("SELECT 1 FROM r", "a,b\nx,y\n", ("one",), [(1,)]),
}


@pytest.mark.parametrize("fmt", ["text", "tsv"])
@pytest.mark.parametrize("case", sorted(PRINT_CASES))
def test_exec_output_equals_per_value_rendering(tmp_path, case, fmt):
    sql_text, csv_text, schema, rows = PRINT_CASES[case]
    sql = tmp_path / "q.sql"
    sql.write_text(sql_text, encoding="utf-8")
    (tmp_path / "r.csv").write_text(csv_text, encoding="utf-8")
    code, text = run(["exec", str(sql), "--db", str(tmp_path),
                      "--format", fmt])
    assert code == 0
    assert text == _per_value_rendering(schema, rows, fmt)


def test_compare_exit_codes(ex1_paths):
    sql, db = ex1_paths
    code, text = run(["compare", str(sql), "--db", str(db)])
    assert code == 0
    assert "bag-equal: true" in text


def test_compare_university(tmp_path, university_db):
    sql = tmp_path / "uni.sql"
    sql.write_text(UNIVERSITY_SQL, encoding="utf-8")
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    write_db_csv(university_db, db_dir)
    code, text = run(["compare", str(sql), "--db", str(db_dir)])
    assert code == 0
    assert "bag-equal: true" in text
    naive = int(text.split("naive max intermediate: ")[1].split("\n")[0])
    plan = int(text.split("plan max intermediate: ")[1].split("\n")[0])
    assert naive >= plan


def test_compare_maxima_both_count_the_result(tmp_path):
    # the join is empty, so the one-row global aggregate is the largest
    # relation on both sides
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT COUNT(r.a) FROM r WHERE r.a = 1 AND r.a = 2",
                   encoding="utf-8")
    (tmp_path / "r.csv").write_text("a\n1\n2\n", encoding="utf-8")
    code, text = run(["compare", str(sql), "--db", str(tmp_path)])
    assert code == 0
    assert "naive max intermediate: 1\n" in text
    assert "plan max intermediate: 1\n" in text


def test_ghd_width1_triangle_fails(tmp_path):
    sql = tmp_path / "tri.sql"
    sql.write_text(TRIANGLE_SQL, encoding="utf-8")
    code, text = run(["ghd", str(sql), "--width", "1"])
    assert code == 2
    assert "no decomposition of width 1" in text
    # width or an imported document is required
    code, _ = run(["ghd", str(sql)])
    assert code == 2
    # an imported document that does not validate is an input error too
    ghd_file = tmp_path / "bad.ghd.json"
    ghd_file.write_text(json.dumps({
        "root": "n0", "edges": [],
        "nodes": [{"id": "n0", "bag": ["a", "b"], "cover": ["r"]}]}),
        encoding="utf-8")
    code, text = run(["ghd", str(sql), "--ghd-file", str(ghd_file)])
    assert code == 2
    assert "valid: no" in text


def test_ghd_enumerate_and_validate_roundtrip(tmp_path):
    sql = tmp_path / "tri.sql"
    sql.write_text(TRIANGLE_SQL, encoding="utf-8")
    code, text = run(["ghd", str(sql), "--width", "2", "--enumerate", "3"])
    assert code == 0
    docs = [d for d in text.split("\n\n") if d.strip()]
    assert len(docs) == 3
    ghd_file = tmp_path / "tri.ghd.json"
    ghd_file.write_text(docs[0], encoding="utf-8")
    code, text = run(["ghd", str(sql), "--ghd-file", str(ghd_file)])
    assert code == 0
    assert "valid: yes" in text


@pytest.mark.parametrize("count", ["0", "-1"])
def test_ghd_enumerate_below_one_is_a_usage_error(tmp_path, count):
    sql = tmp_path / "tri.sql"
    sql.write_text(TRIANGLE_SQL, encoding="utf-8")
    proc = _yansql_process(["ghd", sql, "--width", "2", "--enumerate", count])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "--enumerate" in proc.stderr
    assert "no decomposition" not in proc.stdout


def test_rewrite_cyclic_requires_ghd_flag(tmp_path, capsys):
    sql = tmp_path / "tri.sql"
    sql.write_text(TRIANGLE_SQL, encoding="utf-8")
    code, _ = run(["rewrite", str(sql)])
    assert code == 2
    code, text = run(["rewrite", str(sql), "--ghd-width", "2"])
    assert code == 0
    assert "v1_setup" in text


def test_rewrite_with_ghd_file(tmp_path):
    sql = tmp_path / "tri.sql"
    sql.write_text(TRIANGLE_SQL, encoding="utf-8")
    _, docs = run(["ghd", str(sql), "--width", "2"])
    ghd_file = tmp_path / "tri.ghd.json"
    ghd_file.write_text(docs, encoding="utf-8")
    code, text = run(["rewrite", str(sql), "--ghd-file", str(ghd_file)])
    assert code == 0
    assert "v1_setup" in text and "v2_setup" in text


def test_input_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.sql"
    bad.write_text("SELECT a FROM r LEFT JOIN s ON r.a = s.a", encoding="utf-8")
    code, _ = run(["analyze", str(bad)])
    assert code == 2
    code, _ = run(["exec", str(bad), "--db", str(tmp_path)])
    assert code == 2
    missing_db = tmp_path / "q.sql"
    missing_db.write_text("SELECT r.a FROM r", encoding="utf-8")
    code, _ = run(["exec", str(missing_db), "--db", str(tmp_path / "nodir")])
    assert code == 2


def _yansql_process(argv, stdin=None):
    """`python -m yansql argv` in a child process, on this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "yansql", *map(str, argv)],
                          stdin=stdin, capture_output=True, text=True,
                          encoding="utf-8", env=env, timeout=120)


def test_exec_unicode_digit_field_is_a_string(tmp_path):
    # '\u00b2' passes str.isdigit() but not int(): it must load as text
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT r.a, r.b FROM r", encoding="utf-8")
    (tmp_path / "r.csv").write_text("a,b\n\u00b2,1\n", encoding="utf-8")
    proc = _yansql_process(["exec", sql, "--db", tmp_path])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "a | b\n\u00b2 | 1\n(1 row(s))\n"


@pytest.mark.parametrize("command", ["exec", "compare"])
@pytest.mark.parametrize("content", [
    b"a,b\n1,2\n3,\xff\n",
    b"a,b\n1,2\n3," + b"x" * (csv.field_size_limit() + 1) + b"\n",
], ids=["not-utf8", "field-over-limit"])
def test_malformed_csv_is_an_input_error(tmp_path, command, content):
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT r.a, r.b FROM r", encoding="utf-8")
    (tmp_path / "r.csv").write_bytes(content)
    proc = _yansql_process([command, sql, "--db", tmp_path])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "IoError" in proc.stderr and "r.csv" in proc.stderr


@pytest.mark.parametrize("command", ["rewrite", "exec", "compare", "ghd"])
@pytest.mark.parametrize("source", ["sql-file", "stdin", "ghd-file"])
def test_undecodable_text_input_is_an_input_error(tmp_path, command, source):
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT r.a, r.b FROM r", encoding="utf-8")
    (tmp_path / "r.csv").write_text("a,b\n1,2\n", encoding="utf-8")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"SELECT r.a FROM r WHERE r.b = '\xff'")
    argv = {"sql-file": [command, bad], "stdin": [command, "-"],
            "ghd-file": [command, sql, "--ghd-file", bad]}[source]
    if command in ("exec", "compare"):
        argv += ["--db", tmp_path]
    with open(bad, "rb") as fh:
        proc = _yansql_process(argv, stdin=fh)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    name = "<stdin>" if source == "stdin" else str(bad)
    assert f"IoError: {name}: not UTF-8 text" in proc.stderr


def test_root_override(ex1_paths):
    sql, db = ex1_paths
    code, text = run(["rewrite", str(sql), "--root", "exams"])
    assert code == 0
    code, _ = run(["rewrite", str(sql), "--root", "courses"])
    assert code == 2  # courses is not a guard


@pytest.fixture
def reused_atom_paths(tmp_path):
    # a triangle decomposition whose covers both use r, which holds a
    # duplicate row
    sql = tmp_path / "tri.sql"
    sql.write_text(TRIANGLE_SQL, encoding="utf-8")
    ghd_file = tmp_path / "reused.ghd.json"
    ghd_file.write_text(json.dumps({
        "root": "n0",
        "nodes": [
            {"id": "n0", "bag": ["a", "b", "c"], "cover": ["r", "s"]},
            {"id": "n1", "bag": ["a", "c"], "cover": ["t", "r"]},
        ],
        "edges": [["n0", "n1"]],
    }), encoding="utf-8")
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    from yansql.engine import Relation
    write_db_csv({
        "r": Relation.from_rows(("a", "b"), [(1, 2), (1, 2)]),
        "s": Relation.from_rows(("b", "c"), [(2, 3)]),
        "t": Relation.from_rows(("c", "a"), [(3, 1)]),
    }, db_dir)
    return ["compare", str(sql), "--db", str(db_dir),
            "--ghd-file", str(ghd_file)]


def test_compare_imported_ghd_reusing_an_atom(reused_atom_paths):
    code, text = run(reused_atom_paths)
    assert code == 0
    assert "bag-equal: true" in text


def test_compare_exit_1_on_mismatch(monkeypatch, reused_atom_paths):
    # a plan result that lost a row must be reported with exit code 1
    import dataclasses

    import yansql.pipeline
    from yansql.engine import Relation

    real_eval_plan = yansql.pipeline.eval_plan

    def drop_one_row(plan, db, **kwargs):
        res = real_eval_plan(plan, db, **kwargs)
        rel = res.relation
        return dataclasses.replace(res, relation=Relation.from_rows(
            rel.schema, rel.expanded()[1:]))

    monkeypatch.setattr(yansql.pipeline, "eval_plan", drop_one_row)
    code, text = run(reused_atom_paths)
    assert code == 1
    assert "bag-equal: false" in text


def test_compare_short_circuit_flag(tmp_path, university_db):
    sql = tmp_path / "uni.sql"
    sql.write_text(UNIVERSITY_SQL, encoding="utf-8")
    db_dir = tmp_path / "db"
    db_dir.mkdir()
    db = dict(university_db)
    from yansql.engine import Relation
    db["courses"] = Relation.from_rows(("cid", "faculty"), [("x", "Law")])
    write_db_csv(db, db_dir)
    code, text = run(["compare", str(sql), "--db", str(db_dir),
                      "--stats"])
    assert code == 0
    assert "bag-equal: true" in text
    assert "skipped:" in text


def _in_process(argv):
    """In-process `yansql argv`: (exit code, stdout, stderr); an argparse
    rejection counts as its SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv], out=out)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _mask_micros(text):
    """Blank the timing column of a `--stats` block, which differs from
    run to run."""
    head, header, stats = text.partition("statement\trows\tmicros\n")
    return head + header + re.sub(r"\t\d+$", "\t-", stats, flags=re.M)


def test_main_is_reentrant(ex1_paths, monkeypatch):
    # one process reuses one parser: each call must print what a fresh
    # `python -m yansql` prints, so no option value or default may leak
    sql, db = ex1_paths
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to it
    calls = [
        ["rewrite", sql, "--mode", "fullenum", "--dialect", "generic",
         "--prefix", "p"],
        ["rewrite", sql],
        ["rewrite", sql, "--dialect", "nosuch"],
        ["analyze", sql],
        ["exec", sql, "--db", db, "--stats"],
        ["exec", sql, "--db", db, "--format", "tsv"],
    ]
    seen = []
    for argv in calls:
        code, out, err = _in_process(argv)
        proc = _yansql_process(argv)
        assert (code, _mask_micros(out), err) == \
            (proc.returncode, _mask_micros(proc.stdout), proc.stderr), argv
        seen.append(code)
    assert seen == [0, 0, 2, 0, 0, 0]


_FUZZ_RELATIONS = ("r", "s", "t")
_FUZZ_COLUMNS = ("a", "b", "c")
_FUZZ_PIECES = (
    "SELECT", "DISTINCT", "FROM", "WHERE", "AND", "OR", "GROUP BY",
    "HAVING", "INNER JOIN", "ON", "AS", "r", "s", "t", "r.a", "r.b", "s.b",
    "s.c", "t.a", "t.c", "a", "MIN(r.a)", "COUNT(DISTINCT s.c)", "SUM(r.b)",
    "AVG(s.c)", "MAX(", "(", ")", ",", "=", "<", ">=", "<>", "!=", "1",
    "-2", "'x''y'", "'", "1.5", ";", "*", "NULL", "é", "٣",
    "\t", "\n")


@st.composite
def _fuzz_sql(draw):
    """A query over r, s, t that mostly compiles, or loose SQL-ish text."""
    if draw(st.sampled_from(["query"] * 3 + ["loose"])) == "loose":
        return draw(st.lists(st.sampled_from(_FUZZ_PIECES), max_size=14)
                    .map(" ".join) | st.text(max_size=20))
    rels = draw(st.lists(st.sampled_from(_FUZZ_RELATIONS), min_size=1,
                         max_size=3, unique=True))
    col = st.tuples(st.sampled_from(rels), st.sampled_from(_FUZZ_COLUMNS)) \
        .map(".".join)
    const = st.sampled_from(["1", "-3", "'x'", "''", "'é'"])
    conds = draw(st.lists(
        st.tuples(col, col).map(" = ".join)
        | st.tuples(col, st.sampled_from(["=", "<", ">=", "<>"]), const)
        .map(" ".join), max_size=4))
    agg = draw(st.sampled_from(["", "MIN", "MAX", "SUM", "COUNT", "AVG"]))
    group = draw(st.lists(col, max_size=2, unique=True)) if agg else []
    items = list(group) if agg else draw(st.lists(col, min_size=1, max_size=3))
    if agg:
        items.append(f"{agg}({draw(col)})")
    sql = f"SELECT {draw(st.sampled_from(['', 'DISTINCT ']))}" \
        f"{', '.join(items)} FROM {', '.join(rels)}"
    if conds:
        sql += " WHERE " + " AND ".join(conds)
    if group:
        sql += " GROUP BY " + ", ".join(group)
        if draw(st.booleans()):
            sql += f" HAVING {items[-1]} > 1"
    return sql


_fuzz_field = st.sampled_from(["", "0", "1", "-3", "x", "é", "²",
                               '"q,"', "9" * 25, "a b"])


def _csv_text(rows):
    return "\n".join(",".join(row) for row in [_FUZZ_COLUMNS, *rows]) \
        .encode("utf-8")


# well-formed tables (twice as often), rows of any arity, and raw bytes
_fuzz_csv = st.one_of(
    *[st.lists(st.lists(_fuzz_field, min_size=3, max_size=3), max_size=6)
      .map(_csv_text)] * 2,
    st.lists(st.lists(_fuzz_field, min_size=1, max_size=4), max_size=4)
    .map(_csv_text),
    st.binary(max_size=24))

_FUZZ_FLAGS = (
    ["exec", "--stats"], ["compare"], ["exec", "--mode", "zeroma"],
    ["compare", "--mode", "partial", "--stats"],
    ["exec", "--format", "tsv", "--mode", "fullenum"],
    ["compare", "--ghd-width", "2"], ["exec", "--ghd-width", "1"],
    ["rewrite"], ["rewrite", "--dialect", "generic"],
    ["rewrite", "--mode", "zeroma"], ["rewrite", "--mode", "partial"],
    ["rewrite", "--ghd-width", "2"], ["analyze"], ["ghd", "--width", "2"],
    ["ghd", "--width", "1", "--enumerate", "3"])


@settings(max_examples=150, deadline=None)
@given(_fuzz_sql(), st.lists(_fuzz_csv, min_size=3, max_size=3),
       st.sampled_from(_FUZZ_FLAGS))
def test_cli_fuzz_exit_codes(sql, tables, flags):
    """No exception escapes `main`, the exit code is 0, 1 or 2, and 1
    comes only from `compare`."""
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "q.sql").write_text(sql, encoding="utf-8")
        for rel, content in zip(_FUZZ_RELATIONS, tables):
            (d / f"{rel}.csv").write_bytes(content)
        argv = [flags[0], d / "q.sql", *flags[1:]]
        if flags[0] in ("exec", "compare"):
            argv += ["--db", d]
        code, _, err = _in_process(argv)
    assert code in (0, 1, 2), (code, err)
    assert code != 1 or flags[0] == "compare", err
    assert "Traceback" not in err

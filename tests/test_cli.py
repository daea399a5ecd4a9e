import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_ghd_width1_triangle_fails(tmp_path):
    sql = tmp_path / "tri.sql"
    sql.write_text(TRIANGLE_SQL, encoding="utf-8")
    code, text = run(["ghd", str(sql), "--width", "1"])
    assert code == 1
    assert "no decomposition of width 1" in text
    # width or an imported document is required
    code, _ = run(["ghd", str(sql)])
    assert code == 2


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


def test_exec_unicode_digit_field_is_a_string(tmp_path):
    # '\u00b2' passes str.isdigit() but not int(): it must load as text
    sql = tmp_path / "q.sql"
    sql.write_text("SELECT r.a, r.b FROM r", encoding="utf-8")
    (tmp_path / "r.csv").write_text("a,b\n\u00b2,1\n", encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "yansql", "exec", str(sql), "--db",
         str(tmp_path)], capture_output=True, text=True, encoding="utf-8",
        env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "a | b\n\u00b2 | 1\n(1 row(s))\n"


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
                      "--short-circuit", "--stats"])
    assert code == 0
    assert "bag-equal: true" in text
    assert "skipped:" in text

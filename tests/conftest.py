import sqlite3
from collections import Counter

import pytest

from yansql.engine import Relation
from yansql.sql_emitter import GENERIC, emit_plan
from yansql.sql_frontend import extract_cq, parse_query

EX1_SQL = """
SELECT exams.student, MIN(exams.grade)
FROM exams, courses
WHERE exams.cid = courses.cid AND courses.faculty = 'Biology'
GROUP BY exams.student;
"""

# four-relation university query: acyclic but not guarded
UNIVERSITY_SQL = """
SELECT enrolled.program, exams.cid, MIN(exams.grade)
FROM exams, courses, enrolled, tutors
WHERE exams.cid = courses.cid
  AND exams.student = enrolled.student
  AND exams.cid = tutors.cid
  AND courses.faculty = 'ComputerScience'
  AND exams.student = tutors.student
  AND tutors.num_semesters > 1
GROUP BY enrolled.program, exams.cid;
"""

TRIANGLE_SQL = """
SELECT r.a, s.b, t.c FROM r, s, t
WHERE r.a = t.a AND r.b = s.b AND s.c = t.c
"""


def run_on_sqlite(plan, db) -> Counter:
    """Result rows of the plan's generic-dialect SQL on in-memory sqlite3."""
    con = sqlite3.connect(":memory:")
    try:
        for name, rel in db.items():
            con.execute(f"CREATE TABLE {name} ({', '.join(rel.schema)})")
            con.executemany(
                f"INSERT INTO {name} VALUES "
                f"({', '.join('?' for _ in rel.schema)})", rel.expanded())
        statements = emit_plan(plan, GENERIC)
        for stmt in statements[:-1]:
            con.execute(stmt)
        return Counter(con.execute(statements[-1]).fetchall())
    finally:
        con.close()


@pytest.fixture
def ex1_cq():
    return extract_cq(parse_query(EX1_SQL))


@pytest.fixture
def university_cq():
    return extract_cq(parse_query(UNIVERSITY_SQL))


@pytest.fixture
def triangle_cq():
    return extract_cq(parse_query(TRIANGLE_SQL))


@pytest.fixture
def ex1_db():
    return {
        "exams": Relation.from_rows(
            ("cid", "student", "grade"),
            [("c1", "s1", 3), ("c1", "s1", 5), ("c2", "s2", 4)]),
        "courses": Relation.from_rows(
            ("cid", "faculty"),
            [("c1", "Biology"), ("c2", "Law")]),
    }


@pytest.fixture
def university_db():
    return {
        "exams": Relation.from_rows(
            ("cid", "student", "grade"),
            [("db", "ann", 1), ("db", "bob", 2), ("ai", "ann", 4),
             ("law", "eve", 3), ("db", "ann", 1)]),
        "courses": Relation.from_rows(
            ("cid", "faculty"),
            [("db", "ComputerScience"), ("ai", "ComputerScience"),
             ("law", "Law")]),
        "enrolled": Relation.from_rows(
            ("student", "program"),
            [("ann", "cs"), ("bob", "cs"), ("bob", "math"), ("eve", "law")]),
        "tutors": Relation.from_rows(
            ("student", "cid", "num_semesters"),
            [("ann", "db", 2), ("bob", "db", 1), ("ann", "ai", 3)]),
    }

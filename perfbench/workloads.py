"""The benchmark's three workloads.

Each workload builds its inputs from the seed (`setup`), computes reference
answers outside any timed region (`prepare`), then runs passes over a fixed
mix of operations (`run_pass`).  One client runs the operations one after
another in this thread; each starts when the previous one returns.  Every
operation's output is checked, outside its timed region, and a failed
check or a raised exception counts as a failed operation.

The program is driven only through its public entry points: `cli.main`
for `yansql rewrite|exec|compare`, `pipeline.compile_sql`, the
`decomposition` functions the tier-1 depth test calls, and `engine` /
`sql_emitter` / `sql_frontend` for the references.  Emitted SQL runs on
the standard library's `sqlite3`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
import re
import shutil
import sqlite3
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

from yansql import (cli, decomposition, engine, pipeline, sql_emitter,
                    sql_frontend, testing)
from yansql.hypergraph import Hypergraph, is_connected
from yansql.sql_frontend import AggregateCall

DIALECTS = ("postgres", "duckdb", "spark", "generic")


@dataclass(frozen=True)
class Sizes:
    # set-up runs again after every pass until it has taken this share of
    # the pass's time, so its samples spread over the run as the passes
    # do; setup_s is their median
    setup_share: float = 0.1
    # `yansql rewrite` calls per pass on the engine workloads: a p95 with
    # far more than ten samples beyond it, and enough of each pass that
    # the samples see the machine's state across the run
    compile_reps: int = 160
    skew_fan: int = 100_000
    agg_keys: int = 30        # live join keys of r and s
    agg_r_fan: int = 25       # r rows per live key
    agg_s_fan: int = 20       # s rows per live key
    agg_c_domain: int = 400   # live join keys of s and t
    agg_t_fan: int = 4        # t rows per live key
    # 228 = lcm(19 atom counts, 6 query kinds, 4 dialects): every
    # combination appears exactly once
    corpus_queries: int = 228
    corpus_verify: int = 200
    corpus_small_cycles: int = 10
    corpus_depth_checks: int = 2000
    ghd_cycles: tuple = ((8, 2), (8, 3), (9, 2), (9, 3), (10, 2), (10, 3))


FULL = Sizes()
TINY = Sizes(compile_reps=8,
             skew_fan=300, agg_keys=4, agg_r_fan=5, agg_s_fan=5, agg_c_domain=20, agg_t_fan=2,
             corpus_queries=24, corpus_verify=10, corpus_small_cycles=2,
             corpus_depth_checks=40, ghd_cycles=((5, 2), (6, 3)))


# ---------------------------------------------------------------------------
# One pass: timed operations and their checks
# ---------------------------------------------------------------------------

class Pass:
    """Times the operations of one pass and counts their checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds = defaultdict(list)   # operation kind -> durations
        self.attempted = 0
        self.failures: list = []
        self.max_rows = 0                  # largest plan intermediate
        self.naive_max_rows = 0

    def op(self, kind: str, fn, *args, **kwargs):
        """Run one operation; None when it raised (counted as failed)."""
        token = self.tracer.begin_op(kind) if self.tracer else None
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a program error fails the operation
            self.check(False, f"{kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds[kind].append(time.perf_counter() - started)
            if token:
                self.tracer.end_op(token)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def total(self, kinds) -> float:
        return sum(sum(self.seconds[k]) for k in kinds)


def call_cli(argv):
    """In-process `yansql <argv>`: (exit code, stdout text, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv, out=out)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Output parsing and references
# ---------------------------------------------------------------------------

_STATS_HEADER = "statement\trows\tmicros"
_COUNT_LINE = re.compile(r"\((\d+) row\(s\)\)")


def render_row(row) -> str:
    return " | ".join("NULL" if v is None else str(v) for v in row)


def parse_exec_output(text: str):
    """Split `yansql exec --stats` output into (header, row lines, printed
    row count, statement -> rows); None when it is malformed."""
    lines = text.split("\n")
    try:
        at = len(lines) - 1 - lines[::-1].index(_STATS_HEADER)
    except ValueError:
        return None
    count = _COUNT_LINE.fullmatch(lines[at - 1]) if at >= 2 else None
    if count is None:
        return None
    stats = {}
    for line in lines[at + 1:]:
        if line and not line.startswith("skipped:"):
            fields = line.split("\t")
            if len(fields) != 3 or not fields[1].isdigit():
                return None
            stats[fields[0]] = int(fields[1])
    return lines[0], lines[1:at - 1], int(count.group(1)), stats


class Expected:
    """A reference relation, rendered the way `yansql exec` prints rows."""

    def __init__(self, schema, rows: Counter):
        self.schema = tuple(schema)
        self.lines = Counter()
        for row, count in rows.items():
            self.lines[render_row(row)] += count

    def matches_rows(self, rows) -> bool:
        """Rows in schema order (sqlite results) equal the reference bag."""
        return Counter(render_row(r) for r in rows) == self.lines

    def check_exec(self, text: str):
        """(ok, max intermediate rows) for one `yansql exec --stats` run."""
        parsed = parse_exec_output(text)
        if parsed is None:
            return False, 0
        header, row_lines, count, stats = parsed
        if header != " | ".join(self.schema) or count != len(row_lines):
            return False, 0
        max_rows = max(stats.values(), default=0)
        return Counter(row_lines) == self.lines, max_rows


def reference_rewrite(sql: str, dialect: str) -> str:
    """What `yansql rewrite --dialect D` must print, from the library."""
    return sql_emitter.emit_script(pipeline.compile_sql(sql).plan,
                                   sql_emitter.get_dialect(dialect))


def write_table(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if v is None else v for v in row]
                         for row in rows)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    name = ""
    # operation kinds that make up pass_s and exec_s
    pass_kinds: tuple = ()
    exec_kinds: tuple = ()
    # directories under the work dir that `setup` fills
    dirs: tuple = ()

    def __init__(self, sizes: Sizes, seed: int, work_dir: Path):
        self.sizes = sizes
        self.seed = seed
        self.dir = work_dir

    def reset(self):
        """Empty the directories `setup` fills; not part of set-up time."""
        for d in self.dirs:
            fresh_dir(self.dir / d)

    def setup(self):
        raise NotImplementedError

    def prepare(self):
        raise NotImplementedError

    def run_pass(self, p: Pass):
        raise NotImplementedError

    def close(self):
        pass

    def _rewrites(self, p: Pass, jobs, expected: dict):
        """`yansql rewrite` on each (sql file, dialect); output must equal
        the library's own compile + emit."""
        for path, dialect in jobs:
            res = p.op("rewrite", call_cli,
                       ["rewrite", str(path), "--dialect", dialect])
            if res is not None:
                code, out, err = res
                p.check(code == 0 and out == expected[path, dialect],
                        f"rewrite {path.name} {dialect}: exit {code} {err}")

    def _exec(self, p: Pass, sql_path: Path, db_dir: Path, ref: Expected):
        res = p.op("exec", call_cli, ["exec", str(sql_path), "--db",
                                      str(db_dir), "--stats"])
        if res is None:
            return None
        code, out, err = res
        ok, max_rows = ref.check_exec(out) if code == 0 else (False, 0)
        p.max_rows = max(p.max_rows, max_rows)
        p.check(ok, f"exec {sql_path.name}: exit {code} {err}")
        return max_rows


class SkewPath(Workload):
    """The blow-up path r(a,b) - s(b,c) - t(c,d) over hub-skewed data."""

    name = "skew_path"
    pass_kinds = ("rewrite", "exec")
    exec_kinds = ("exec",)
    dirs = ("db",)
    SQL = ("SELECT r.a, r.b, s.c, t.d FROM r, s, t "
           "WHERE r.b = s.b AND s.c = t.c")

    def setup(self):
        fan = self.sizes.skew_fan
        rng = random.Random(self.seed)
        tokens = rng.sample(range(10 ** 8), 3 * fan + 4)
        hub_b, live_b = f"b{tokens[0]}", f"b{tokens[1]}"
        hub_c, self.r_live = f"c{tokens[2]}", f"a{tokens[3]}"
        a_vals = [f"a{x}" for x in tokens[4:4 + fan]]
        dead_c = [f"c{x}" for x in tokens[4 + fan:4 + 2 * fan]]
        self.d_vals = [f"d{x}" for x in tokens[4 + 2 * fan:]]
        # every r row but one and every s row but one dangle; the naive
        # declaration-order join still builds fan * fan rows of r |x| s
        r = [(a, hub_b) for a in a_vals] + [(self.r_live, live_b)]
        s = [(hub_b, c) for c in dead_c] + [(live_b, hub_c)]
        t = [(hub_c, d) for d in self.d_vals]
        for rows in (r, s, t):
            rng.shuffle(rows)
        self.db_dir = self.dir / "db"
        write_table(self.db_dir / "r.csv", ("a", "b"), r)
        write_table(self.db_dir / "s.csv", ("b", "c"), s)
        write_table(self.db_dir / "t.csv", ("c", "d"), t)
        self.sql_path = self.dir / "q.sql"
        self.sql_path.write_text(self.SQL, encoding="utf-8")
        self.live = (live_b, hub_c)
        self.max_input = fan + 1

    def prepare(self):
        # closed form: the oracle would build fan^2 rows
        live_b, hub_c = self.live
        self.ref = Expected(("a", "b", "c", "d"), Counter(
            {(self.r_live, live_b, hub_c, d): 1 for d in self.d_vals}))
        self.jobs = [(self.sql_path, DIALECTS[i % 4])
                     for i in range(self.sizes.compile_reps)]
        self.rewrites = {(self.sql_path, d): reference_rewrite(self.SQL, d)
                         for d in DIALECTS}

    def run_pass(self, p: Pass):
        self._rewrites(p, self.jobs, self.rewrites)
        max_rows = self._exec(p, self.sql_path, self.db_dir, self.ref)
        if max_rows is not None:
            # the paper's claim: no intermediate exceeds the largest input
            p.check(max_rows <= self.max_input,
                    f"max intermediate {max_rows} > input {self.max_input}")


class AggFanout(Workload):
    """Four aggregate modes over a path with dangling keys and fan-out."""

    name = "agg_fanout"
    pass_kinds = ("rewrite", "exec", "sqlite")
    exec_kinds = ("exec",)
    dirs = ("db",)
    _FROM = "FROM r, s, t WHERE r.b = s.b AND s.c = t.c"
    QUERIES = {
        # unguarded COUNT: full enumeration
        "count": f"SELECT r.a, t.d, COUNT(s.c) {_FROM} GROUP BY r.a, t.d",
        # guarded but not set-safe SUM: full enumeration
        "sum": f"SELECT s.b, SUM(s.c) {_FROM} GROUP BY s.b",
        # MIN/MAX with guard s: zero-materialisation
        "minmax": f"SELECT s.b, MIN(s.c), MAX(s.c) {_FROM} GROUP BY s.b",
        # unguarded DISTINCT: partial, restricted to the r-s subtree
        "distinct": f"SELECT DISTINCT r.a, s.c {_FROM}",
    }

    def setup(self):
        z = self.sizes
        rng = random.Random(self.seed)
        keys = [f"b{x}" for x in rng.sample(range(10 ** 6), 3 * z.agg_keys)]
        live, dead = keys[:z.agg_keys], keys[z.agg_keys:]
        a_vals = iter(f"a{x}" for x in rng.sample(
            range(10 ** 7), 2 * z.agg_keys * z.agg_r_fan))
        c_base = rng.randrange(10 ** 6)
        c_live = range(c_base, c_base + z.agg_c_domain)
        c_dead = iter(range(c_base + z.agg_c_domain, c_base + 10 ** 6))
        r = [(next(a_vals), b) for b in live for _ in range(z.agg_r_fan)]
        s = [(b, c) for b in live for c in rng.sample(c_live, z.agg_s_fan)]
        t = [(c, rng.randrange(10 ** 9)) for c in c_live
             for _ in range(z.agg_t_fan)]
        # as many dangling rows as live ones in every relation: r rows
        # with a b missing from s, s rows whose b misses r or whose c
        # misses t, t rows with a c missing from s
        r += [(next(a_vals), rng.choice(dead[:z.agg_keys]))
              for _ in range(len(r))]
        half = len(s) // 2
        s += ([(rng.choice(live), next(c_dead)) for _ in range(half)]
              + [(rng.choice(dead[z.agg_keys:]), rng.choice(c_live))
                 for _ in range(len(s) - half)])
        t += [(next(c_dead), rng.randrange(10 ** 9)) for _ in range(len(t))]
        tables = {"r": (("a", "b"), r), "s": (("b", "c"), s),
                  "t": (("c", "d"), t)}
        self.db_dir = self.dir / "db"
        self.close()
        self.con = sqlite3.connect(":memory:")
        for name, (header, rows) in tables.items():
            rng.shuffle(rows)
            write_table(self.db_dir / f"{name}.csv", header, rows)
            self.con.execute(f"CREATE TABLE {name} ({', '.join(header)})")
            self.con.executemany(
                f"INSERT INTO {name} VALUES (?, ?)", rows)
        self.con.commit()
        self.sql_paths = {}
        for name, sql in self.QUERIES.items():
            self.sql_paths[name] = self.dir / f"{name}.sql"
            self.sql_paths[name].write_text(sql, encoding="utf-8")
        self.input_rows = sum(len(rows) for _, rows in tables.values())

    def prepare(self):
        db = {name: engine.load_csv(self.db_dir / f"{name}.csv")
              for name in ("r", "s", "t")}
        self.refs, self.stages, self.modes, self.rewrites = {}, {}, {}, {}
        self.staged = {}
        generic = sql_emitter.get_dialect("generic")
        for name, sql in self.QUERIES.items():
            naive = engine.eval_naive(
                sql_frontend.extract_cq(sql_frontend.parse_query(sql)), db)
            self.refs[name] = Expected(naive.schema, naive.rows)
            compiled = pipeline.compile_sql(sql)
            self.modes[name] = compiled.mode.value
            self.stages[name] = [s.stage.value
                                 for s in compiled.plan.statements()]
            # the plan as `yansql rewrite --dialect generic` prints it, and
            # the DROP statements that undo it
            statements = sql_emitter.emit_plan(compiled.plan, generic)
            self.staged[name] = (statements, sql_emitter.emit_plan(
                compiled.plan, generic, with_cleanup=True)[len(statements):])
            for d in DIALECTS:
                self.rewrites[self.sql_paths[name], d] = \
                    reference_rewrite(sql, d)
        pairs = [(self.sql_paths[q], d) for q in self.QUERIES
                 for d in DIALECTS]
        self.jobs = [pairs[i % len(pairs)]
                     for i in range(self.sizes.compile_reps)]

    def _staged(self, statements, stages, tracer):
        """All emitted statements, then fetch the final SELECT's rows;
        with a tracer, each statement is a span named after its stage."""
        cur = self.con.cursor()
        if tracer is None:
            for stmt in statements[:-1]:
                cur.execute(stmt)
            return cur.execute(statements[-1]).fetchall()
        for stmt, stage in zip(statements[:-1], stages):
            tracer.span(f"sqlite.{stage}", cur.execute, stmt)
        return tracer.span(f"sqlite.{stages[-1]}",
                           lambda: cur.execute(statements[-1]).fetchall())

    def run_pass(self, p: Pass):
        self._rewrites(p, self.jobs, self.rewrites)
        for name in self.QUERIES:
            self._exec(p, self.sql_paths[name], self.db_dir, self.refs[name])
        for name in self.QUERIES:
            statements, cleanup = self.staged[name]
            rows = p.op("sqlite", self._staged, statements,
                        self.stages[name], p.tracer)
            for stmt in cleanup:
                self.con.execute(stmt)
            p.check(rows is not None and self.refs[name].matches_rows(rows),
                    f"staged sqlite {name}")
        for name, sql in self.QUERIES.items():
            # control: the original query on sqlite runs no yansql code
            rows = p.op("original",
                        lambda q=sql: self.con.execute(q).fetchall())
            p.check(rows is not None and self.refs[name].matches_rows(rows),
                    f"original sqlite {name}")

    def close(self):
        con = getattr(self, "con", None)
        if con is not None:
            con.close()
            self.con = None


def _cycle_sql(k: int) -> str:
    h = Hypergraph({f"e{i}": frozenset({f"v{i}", f"v{(i + 1) % k}"})
                    for i in range(k)})
    return sql_frontend.render_sql(testing.cq_from_hypergraph(h))


# connected alpha-acyclic hypergraphs with k distinct edges over 6
# vertices, k = 1..5: the family tier-1 criterion 5 enumerates
_DEPTH_FAMILY = {1: 63, 2: 1652, 3: 29991, 4: 359495, 5: 3220831}
_QUERY_KINDS = ("enum", "minmax", "sum", "count", "avg", "distinct")


def _corpus_query(rng: random.Random, atoms: int, kind: str):
    if kind == "enum":
        return testing.random_acyclic_cq(rng, atoms, atoms)
    if kind in ("count", "avg"):
        cq = testing.random_acyclic_cq(rng, atoms, atoms, aggregate="sum")
        return replace(cq, aggregates=(AggregateCall(
            kind.upper(), cq.aggregates[0].var, False),))
    return testing.random_acyclic_cq(rng, atoms, atoms, aggregate=kind)


def _depth_sample(rng: random.Random, count: int) -> list:
    """Stratified by edge count in the family's proportions, uniform
    within each stratum by rejection."""
    total = sum(_DEPTH_FAMILY.values())
    quota = {k: count * n // total for k, n in _DEPTH_FAMILY.items()}
    quota[5] += count - sum(quota.values())
    out = []
    for k, n in quota.items():
        while n:
            masks = sorted(rng.sample(range(1, 64), k))
            h = Hypergraph({f"e{i}": frozenset(b for b in range(6)
                                               if m >> b & 1)
                            for i, m in enumerate(masks)})
            if is_connected(h) and testing.gyo_fixpoint_acyclic(
                    h, random.Random(0)):
                out.append(h)
                n -= 1
    return out


class RewriteCorpus(Workload):
    """The toolchain side: rewrite, GHD search, compare, depth checks."""

    name = "rewrite_corpus"
    pass_kinds = ("rewrite", "ghd", "compare", "depth")
    exec_kinds = ("compare",)

    def setup(self):
        # the corpus and the databases are made here and written to files
        # in `prepare`: creating some 1,500 small files takes a varying
        # 0.1-0.7 s, mostly kernel time, that says nothing of the program
        z = self.sizes
        rng = random.Random(self.seed)
        self.corpus_sql = [
            (sql_frontend.render_sql(_corpus_query(
                rng, 2 + i % 19, _QUERY_KINDS[i % 6])), DIALECTS[i % 4])
            for i in range(z.corpus_queries)]
        self.cycles = [(_cycle_sql(k), w) for k, w in z.ghd_cycles]
        # the tier-1 gate's own instances, the same for every seed: a
        # random draw would make the largest intermediate and the oracle's
        # cost swing from seed to seed.  First criterion 1 (2-8 atoms, full
        # enumeration), then criterion 6's cycles via width-2 decompositions
        self.verify_dbs = []
        for i in range(z.corpus_verify + z.corpus_small_cycles):
            if i < z.corpus_verify:
                inst = random.Random(900_000 + i)
                cq = testing.random_acyclic_cq(inst)
                db = testing.random_database(inst, cq)
                flags = ["--mode", "fullenum"]
            else:
                j = i - z.corpus_verify
                cq = testing.cq_from_hypergraph(
                    testing.random_cyclic_hypergraph(
                        random.Random(200_001 + j)))
                db = testing.random_database(
                    random.Random(210_000 + 10 * j), cq, max_rows=25)
                flags = ["--ghd-width", "2"]
            self.verify_dbs.append((sql_frontend.render_sql(cq), db, flags))
        self.depth = _depth_sample(rng, z.corpus_depth_checks)
        # the oracle's per-size tree tables are built on first use
        tables = getattr(decomposition, "_tree_tables", None)
        if hasattr(tables, "cache_clear"):
            tables.cache_clear()
        started = time.perf_counter()
        for k in range(2, 6):
            decomposition.min_depth_oracle(Hypergraph(
                {f"e{i}": frozenset({i, i + 1}) for i in range(k)}))
        self.tree_tables_s = time.perf_counter() - started

    def prepare(self):
        qdir = fresh_dir(self.dir / "queries")
        self.corpus, self.rewrites = [], {}
        for i, (sql, dialect) in enumerate(self.corpus_sql):
            path = qdir / f"q{i}.sql"
            path.write_text(sql, encoding="utf-8")
            self.corpus.append((path, dialect))
            self.rewrites[path, dialect] = reference_rewrite(sql, dialect)
        vdir = fresh_dir(self.dir / "verify")
        self.verify = []
        for i, (sql, db, flags) in enumerate(self.verify_dbs):
            d = vdir / f"i{i}"
            d.mkdir()
            testing.write_db_csv(db, d)
            (d / "q.sql").write_text(sql, encoding="utf-8")
            self.verify.append((d, flags))
        self.ghd_plans = [pipeline.compile_sql(sql, ghd_width=w).plan.pretty()
                          for sql, w in self.cycles]

    def _check_ghd(self, p: Pass, i: int, compiled):
        width = self.cycles[i][1]
        atoms = {a.atom_id for a in compiled.cq.atoms}
        views = compiled.views
        ok = (bool(views)
              and set().union(*(v.atom_ids for v in views)) == atoms
              and all(len(v.atom_ids) <= width for v in views)
              and all(decomposition.connectedness_holds(t)
                      for t in compiled.trees)
              and compiled.plan.pretty() == self.ghd_plans[i])
        p.check(ok, f"ghd cycle {i} width {width}")

    def run_pass(self, p: Pass):
        self._rewrites(p, self.corpus, self.rewrites)
        for i, (sql, width) in enumerate(self.cycles):
            compiled = p.op("ghd", pipeline.compile_sql, sql,
                            ghd_width=width)
            if compiled is not None:
                self._check_ghd(p, i, compiled)
        for d, flags in self.verify:
            res = p.op("compare", call_cli, ["compare", str(d / "q.sql"),
                                             "--db", str(d), *flags])
            if res is None:
                continue
            code, out, err = res
            found = dict(line.split(": ", 1) for line in out.splitlines()
                         if ": " in line)
            plan_max = found.get("plan max intermediate", "")
            naive_max = found.get("naive max intermediate", "")
            ok = (code == 0 and found.get("bag-equal") == "true"
                  and plan_max.isdigit() and naive_max.isdigit())
            p.check(ok, f"compare {d.name}: exit {code} {err}")
            if ok:
                p.max_rows = max(p.max_rows, int(plan_max))
                p.naive_max_rows = max(p.naive_max_rows, int(naive_max))
        for i, h in enumerate(self.depth):
            res = p.op("depth", self._depth_check, h)
            if res is not None:
                tree, valid, best = res
                p.check(isinstance(tree, decomposition.JoinTree) and valid
                        and tree.depth() == best, f"depth check {i}")

    @staticmethod
    def _depth_check(h):
        tree = decomposition.flat_gyo(h)
        valid = decomposition.is_valid_join_tree(h, tree)
        return tree, valid, decomposition.min_depth_oracle(h)


WORKLOADS = {w.name: w for w in (SkewPath, AggFanout, RewriteCorpus)}

"""Evaluate one cyclic query under the first width-2 decompositions found.

Different decompositions of the same query can behave very differently:
the local joins behind the decomposition's node views (each a set,
DISTINCT pi_bag of its cover's join) range from cheap semi-join-like views
to cross products.  This script takes the first `--limit` decompositions,
distinct by their covers, that the det-k-decomp search meets (the seed
shuffles its tie-breaking label order), evaluates the resulting plans on a
random database, and prints per-decomposition statistics.

    python scripts/ghd_spread.py --edges 6 --seed 3 --limit 8
"""

import argparse
import random

from yansql.classification import normalize_aggregation
from yansql.decomposition import enumerate_ghds, flat_gyo, ghd_to_join_tree, CyclicReport
from yansql.engine import bag_equal, eval_naive, eval_plan
from yansql.plan_builder import Mode, build_plan
from yansql.testing import (cq_from_hypergraph, random_cyclic_hypergraph,
                            random_database)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--edges", type=int, default=6,
                    help="cycle length of the generated query")
    ap.add_argument("--limit", type=int, default=8,
                    help="how many decompositions to enumerate")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--rows", type=int, default=40,
                    help="max rows per generated relation")
    args = ap.parse_args()

    rng = random.Random(args.seed)
    while True:
        h = random_cyclic_hypergraph(rng, max_edges=args.edges)
        if len(h.edges) == args.edges and isinstance(flat_gyo(h), CyclicReport):
            break
    cq = cq_from_hypergraph(h)
    db = random_database(rng, cq, max_rows=args.rows)
    naive = eval_naive(cq, db)
    print(f"query: cycle of {len(h.edges)} relations, "
          f"naive result {naive.cardinality()} rows")
    print()

    ghds = enumerate_ghds(h, 2, limit=args.limit, seed=args.seed or None)
    if not ghds:
        print("no width-2 decomposition found")
        return 1
    form = normalize_aggregation(cq)
    print(f"{'#':>2} {'nodes':>5} {'max local join':>14} "
          f"{'max statement':>13} {'total us':>9}  covers")
    for i, ghd in enumerate(ghds):
        tree, views = ghd_to_join_tree(ghd, cq)
        plan = build_plan(tree, form, Mode.FULL_ENUM, views=views)
        res = eval_plan(plan, db)
        assert bag_equal(res.relation, naive)
        setup_rows = [res.stats.statement_rows[f"{v.view_id}_setup"]
                      for v in views]
        total_us = sum(res.stats.statement_micros.values())
        covers = " | ".join(
            "+".join(sorted(c)) for c in sorted(
                ghd.covers.values(), key=lambda c: sorted(c)))
        print(f"{i:>2} {len(views):>5} {max(setup_rows):>14} "
              f"{res.stats.max_intermediate():>13} {total_us:>9}  {covers}")
    print()
    print("all decompositions verified bag-equal against the oracle")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Fuzz the FPT solvers against the brute-force oracles on random instances.

Ends with a per-kind tally of the (stage, decision) of every solve, so a run
shows which solver stages it exercised.  A solve that raises counts as a
failure: its kind, k and instance are printed and the run goes on.  Exits 1
on any mismatch or failure.

With --planted, arb and flow instead solve planted instances at n = 8..30,
beyond the oracles' reach, where YES is certain by construction: a NO
answer counts as a failure too.

Examples:
    python3 scripts/fuzz_agreement.py --count 2000 --seed 1 --kinds arb flow tree
    python3 scripts/fuzz_agreement.py --planted --count 200 --seed 11
"""

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rootedpack.errors import PackError
from rootedpack.graphs import RootedDigraph, RootedGraph
from rootedpack.oracles import oracle_arb, oracle_flow, oracle_tree
from rootedpack.solver_arb import solve_arb
from rootedpack.solver_flow import solve_flow
from rootedpack.solver_tree import solve_tree


def rand_digraph(rng, max_n, max_m, max_mult):
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    arcs, counts = [], {}
    for _ in range(6 * m + 8):
        if len(arcs) >= m or n < 2:
            break
        u, v = rng.randrange(n), rng.randrange(1, n)
        if u == v or counts.get((u, v), 0) >= max_mult:
            continue
        counts[(u, v)] = counts.get((u, v), 0) + 1
        arcs.append((u, v))
    return RootedDigraph(n, 0, arcs)


def rand_graph(rng, max_n, max_m, max_mult):
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m)
    edges, counts = [], {}
    for _ in range(6 * m + 8):
        if len(edges) >= m or n < 2:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or counts.get(key, 0) >= max_mult:
            continue
        counts[key] = counts.get(key, 0) + 1
        edges.append((u, v))
    return RootedGraph(n, 0, edges)


def planted_digraph(rng):
    """Two random spanning 0-arborescences plus up to n/4 noise arcs.

    YES for arb and flow at k = 1: the two arborescences are arc-disjoint,
    every spanning arborescence is 1-safe, and routing one unit per vertex
    along it puts at most n - 1 units on an arc, within the capacity n - 1.
    """
    n = rng.randint(8, 30)
    arcs = []
    for _ in range(2):
        placed = [0]
        for v in rng.sample(range(1, n), n - 1):
            arcs.append((rng.choice(placed), v))
            placed.append(v)
    for _ in range(rng.randint(0, n // 4)):
        u, v = rng.randrange(n), rng.randrange(1, n)
        if u != v:
            arcs.append((u, v))
    rng.shuffle(arcs)
    return RootedDigraph(n, 0, arcs)


# kind -> (instance generator, k values, solver, oracle)
KINDS = {
    "arb": (lambda rng: rand_digraph(rng, 6, 18, 2), (1, 2, 3), solve_arb, oracle_arb),
    "flow": (lambda rng: rand_digraph(rng, 5, 12, 4), (1, 2), solve_flow, oracle_flow),
    "tree": (lambda rng: rand_graph(rng, 6, 18, 2), (1, 2, 3), solve_tree, oracle_tree),
}
# the same for --planted, where every answer must be YES
PLANTED = {
    "arb": (planted_digraph, (1,), solve_arb, None),
    "flow": (planted_digraph, (1,), solve_flow, None),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kinds", nargs="+", default=list(KINDS), choices=list(KINDS))
    parser.add_argument("--planted", action="store_true",
                        help="solve planted YES instances of arb and flow instead")
    args = parser.parse_args()
    table = PLANTED if args.planted else KINDS
    rng = random.Random(args.seed)
    mismatches = failures = 0
    # (stage, decision) of every solve, per kind: shows which stages a run reached
    tally = {kind: Counter() for kind in args.kinds if kind in table}
    if not tally:
        parser.error("--planted solves arb and flow only")
    for i in range(args.count):
        for kind, (generate, ks, solve, oracle) in table.items():
            if kind not in tally:
                continue
            g = generate(rng)
            name, pairs = ("edges", g.edges()) if kind == "tree" else ("arcs", g.arcs())
            where = f"seed={args.seed} i={i} n={g.n} {name}={[(u, v) for u, v, _ in pairs]}"
            for k in ks:
                try:
                    report = solve(g, k)
                except PackError as exc:
                    failures += 1
                    print(f"{kind.upper()} FAILED k={k} {where}: "
                          f"{type(exc).__name__}: {exc}", flush=True)
                    continue
                tally[kind][(report.stage, report.decision)] += 1
                if oracle is None and not report.decision:
                    failures += 1
                    print(f"{kind.upper()} PLANTED NO k={k} {where}", flush=True)
                elif oracle is not None and report.decision != oracle(g, k).decision:
                    mismatches += 1
                    print(f"{kind.upper()} MISMATCH k={k} {where}", flush=True)
        if i and i % 200 == 0:
            print(f"...{i} instances, {mismatches} mismatches, {failures} failures", flush=True)
    for kind, stages in tally.items():
        counts = ", ".join(f"{stage} {'YES' if decision else 'NO'} {n}"
                           for (stage, decision), n in sorted(stages.items()))
        print(f"{kind}: {counts}")
    print(f"done: {args.count} instances per kind, {mismatches} mismatches, "
          f"{failures} failures")
    return 1 if mismatches or failures else 0


if __name__ == "__main__":
    sys.exit(main())

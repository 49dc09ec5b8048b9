#!/usr/bin/env python3
"""Fuzz the FPT solvers against the brute-force oracles on random instances.

Example:
    python3 scripts/fuzz_agreement.py --count 2000 --seed 1 --kinds arb flow tree
"""

import argparse
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kinds", nargs="+", default=["arb", "flow", "tree"],
                        choices=["arb", "flow", "tree"])
    args = parser.parse_args()
    rng = random.Random(args.seed)
    mismatches = 0
    for i in range(args.count):
        if "arb" in args.kinds:
            d = rand_digraph(rng, 6, 18, 2)
            for k in (1, 2, 3):
                got = solve_arb(d, k).decision
                want = oracle_arb(d, k).decision
                if got != want:
                    mismatches += 1
                    print(f"ARB MISMATCH seed={args.seed} i={i} k={k} "
                          f"arcs={[(u, v) for u, v, _ in d.arcs()]}")
        if "flow" in args.kinds:
            d = rand_digraph(rng, 5, 12, 4)
            for k in (1, 2):
                got = solve_flow(d, k).decision
                want = oracle_flow(d, k).decision
                if got != want:
                    mismatches += 1
                    print(f"FLOW MISMATCH seed={args.seed} i={i} k={k} "
                          f"arcs={[(u, v) for u, v, _ in d.arcs()]}")
        if "tree" in args.kinds:
            g = rand_graph(rng, 6, 18, 2)
            for k in (1, 2, 3):
                got = solve_tree(g, k).decision
                want = oracle_tree(g, k).decision
                if got != want:
                    mismatches += 1
                    print(f"TREE MISMATCH seed={args.seed} i={i} k={k} "
                          f"edges={[(u, v) for u, v, _ in g.edges()]}")
        if i and i % 200 == 0:
            print(f"...{i} instances, {mismatches} mismatches", flush=True)
    print(f"done: {args.count} instances per kind, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

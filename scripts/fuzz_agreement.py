#!/usr/bin/env python3
"""Fuzz the FPT solvers against the brute-force oracles on random instances.

Ends with a per-kind tally of the (stage, decision) of every solve, so a run
shows which solver stages it exercised.  A solve that raises counts as a
failure: its kind, k and instance are printed and the run goes on.  Exits 1
on any mismatch or failure.

With --planted, every kind instead solves planted instances at n = 8..30,
beyond the oracles' reach, where YES is certain by construction: a NO
answer counts as a failure too.  Arb and tree run at k = 1..4 and flow at
k = 1..2, with a vertex large enough to make growth run (flow at k = 1 has
none: a classic core is then one vertex, so no core grows).  At k = 4 that
vertex has 19 out-neighbours for arb and 25 neighbours for tree, so
n = 21..30 and 27..30, and every solve enumerates tens of thousands of
shapes.  Flow's at k = 2 has 81 out-neighbours, so n = 83..100; those
solves take about 10 ms each.  The tally then also shows how many solves
grew.  At k >= 2 every planted instance also gets a certified NO twin
with the same fan and noise but a root of (out-)degree 3 (see `planted`):
a YES on it, or a NO at any stage other than pair search, counts as a
failure, and the tally lists its stages as "twin <stage>".  `--planted
--count 60` takes about 25 s on a 2-core x86-64 host, most of it tree at
k = 4.

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


def planted(rng, kind, k):
    """A planted YES instance and, at k >= 2, its certified NO twin (else
    None).

    The YES instance is two random spanning 0-arborescences plus up to n/4
    noise copies, as a digraph, or as a graph for tree; also an out-fan of
    6k-5 (arb), 8k-7 (tree) or, at k = 2, 20k^2+1 (flow) distinct heads at
    one vertex, the hub, which makes it large so that growth can run.

    YES by construction.  Each arborescence gives the root c children, c = k
    (c = k + 1 for tree), so every root branch, and with it every subtree,
    holds at most n - c vertices:
    - arb: n - |subtree(v)| >= k, so each arborescence is k-safe, and the
      two are arc-disjoint;
    - flow: routing one unit per vertex along it puts |subtree(v)| <= n - k
      units on the arc into v, within the capacity n - k;
    - tree: the component hanging at v lies in v's root branch, with at
      most n - 1 - k vertices, so each tree is (r,k)-safe.
    Extra copies, noise and fan alike, never destroy a packing.

    The twin has the same n, fan and noise, less the noise copies at the
    root, but its arborescences give the root 1 and 2 children, and the hub
    is the first one's root child.  It passes the gates, as it holds two
    disjoint spanning arborescences (trees), and the root has (out-)degree
    3, so the answer is NO at pair search: each structure needs two root
    copies, and two disjoint ones would need four (see `root_degree_three`
    in tests/conftest.py).  The hub's fan puts anchored shapes in that
    search.
    """
    fan = {"arb": 6 * k - 5, "tree": 8 * k - 7, "flow": 20 * k * k + 1 if k > 1 else 0}[kind]
    children = k + 1 if kind == "tree" else k
    low = max(8, fan + 2)
    n = rng.randint(low, 30 if low <= 30 else low + 17)
    hub = rng.randrange(1, n)
    others = [v for v in range(1, n) if v != hub]
    heads = rng.sample(others, fan)
    noise = []
    for _ in range(rng.randint(0, n // 4)):
        u, v = rng.randrange(n), rng.randrange(1, n)
        if u != v:
            noise.append((u, v))

    def build(root_children, extra, hub_first):
        copies = [(hub, v) for v in heads] + extra
        for c, first in zip(root_children, (hub_first, False)):
            order = [hub, *rng.sample(others, n - 2)] if first else rng.sample(range(1, n), n - 1)
            for i, v in enumerate(order):
                copies.append((0 if i < c else rng.choice(order[:i]), v))
        rng.shuffle(copies)
        return (RootedGraph if kind == "tree" else RootedDigraph)(n, 0, copies)

    yes = build((children, children), noise, False)
    twin = build((1, 2), [(u, v) for u, v in noise if u != 0], True) if k >= 2 else None
    return yes, twin


# kind -> (instance generator, k values, solver, oracle)
KINDS = {
    "arb": (lambda rng: rand_digraph(rng, 6, 18, 2), (1, 2, 3), solve_arb, oracle_arb),
    "flow": (lambda rng: rand_digraph(rng, 5, 12, 4), (1, 2), solve_flow, oracle_flow),
    "tree": (lambda rng: rand_graph(rng, 6, 18, 2), (1, 2, 3), solve_tree, oracle_tree),
}
# kind -> (k values, solver) for --planted, where every planted answer must
# be YES and every twin's NO at pair search; flow stops at k = 2, as flow at
# k = 3 takes seconds per instance
PLANTED = {"arb": ((1, 2, 3, 4), solve_arb), "flow": ((1, 2), solve_flow),
           "tree": ((1, 2, 3, 4), solve_tree)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kinds", nargs="+", default=list(KINDS), choices=list(KINDS))
    parser.add_argument("--planted", action="store_true",
                        help="solve planted YES instances and their NO twins instead")
    args = parser.parse_args()
    rng = random.Random(args.seed)
    mismatches = failures = 0
    # (stage, decision) of every solve, per kind: shows which stages a run
    # reached; `grew` counts the solves that took a growth step
    tally = {kind: Counter() for kind in KINDS if kind in args.kinds}
    grew = Counter()
    for i in range(args.count):
        for kind in tally:
            if args.planted:
                ks, solve = PLANTED[kind]
                # (k, instance, its certain decision); the twin is the NO one
                instances = [(k, g, want) for k in ks
                             for g, want in zip(planted(rng, kind, k), (True, False))
                             if g is not None]
                oracle = None
            else:
                generate, ks, solve, oracle = KINDS[kind]
                g = generate(rng)
                instances = [(k, g, None) for k in ks]
            for k, g, want in instances:
                name, pairs = ("edges", g.edges()) if kind == "tree" else ("arcs", g.arcs())
                where = f"seed={args.seed} i={i} n={g.n} {name}={[(u, v) for u, v, _ in pairs]}"
                try:
                    report = solve(g, k)
                except PackError as exc:
                    failures += 1
                    print(f"{kind.upper()} FAILED k={k} {where}: "
                          f"{type(exc).__name__}: {exc}", flush=True)
                    continue
                twin = want is False
                tally[kind][(("twin " if twin else "") + report.stage, report.decision)] += 1
                grew[kind] += report.counters.get("growSteps", 0) > 0
                if want and not report.decision:
                    failures += 1
                    print(f"{kind.upper()} PLANTED NO k={k} {where}", flush=True)
                elif twin and (report.decision or report.stage != "pair-search"):
                    failures += 1
                    print(f"{kind.upper()} TWIN {'YES' if report.decision else 'NO'} "
                          f"at {report.stage} k={k} {where}", flush=True)
                elif oracle is not None and report.decision != oracle(g, k).decision:
                    mismatches += 1
                    print(f"{kind.upper()} MISMATCH k={k} {where}", flush=True)
        if i and i % 200 == 0:
            print(f"...{i} instances, {mismatches} mismatches, {failures} failures", flush=True)
    for kind, stages in tally.items():
        counts = ", ".join(f"{stage} {'YES' if decision else 'NO'} {n}"
                           for (stage, decision), n in sorted(stages.items()))
        print(f"{kind}: {counts}; grew {grew[kind]}")
    print(f"done: {args.count} instances per kind, {mismatches} mismatches, "
          f"{failures} failures")
    return 1 if mismatches or failures else 0


if __name__ == "__main__":
    sys.exit(main())

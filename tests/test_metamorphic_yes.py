"""YES answers for tree at scale, where the brute-force oracles cannot run.

`conftest.planted_tree_with_hub` builds instances whose answer is YES by
construction and whose hub is large at k = 3, so the solver runs growth
before completion.  Three relations must hold on them:
- relabelling the non-root vertices (and renumbering the edges) keeps YES,
  and every witness passes the independent checker;
- YES at k implies YES at k - 1, since an (r,k)-safe tree is
  (r,k-1)-safe;
- extra copies of a class that already has `PARALLEL_CAP` copies, with ids
  above all others, leave the report byte-identical: `cap_parallel` drops
  exactly them.
"""

import random

from rootedpack.graphs import PARALLEL_CAP, ProblemInstance, RootedGraph
from rootedpack.oracles import validate_witness
from rootedpack.solver_tree import solve_tree

from conftest import planted_tree_with_hub, relabel

K = 3


def _validated_yes(g, k):
    report = solve_tree(g, k)
    assert report.decision, (g, k, report.stage)
    verdict = validate_witness(ProblemInstance(kind="tree", graph=g, k=k), report.witness)
    assert verdict.ok, verdict.failures()
    return report


def _padded(g):
    """`g` with two more copies of every class at the cap, numbered last."""
    cap = PARALLEL_CAP["tree"]
    full = [c for c, ids in g.parallel_classes().items() if len(ids) >= cap]
    extra = [(u, v, g.edge_count + i)
             for i, (u, v) in enumerate(c for c in full for _ in range(2))]
    return RootedGraph(g.n, 0, [*g.edges(), *extra]), len(extra)


def test_planted_tree_yes_relations():
    rng = random.Random(2026)
    grown = padded = 0
    for _ in range(16):
        g = planted_tree_with_hub(rng, rng.randint(20, 60), K)
        report = _validated_yes(g, K)
        grown += report.counters["growSteps"] > 0
        for _ in range(2):
            _validated_yes(relabel(g, rng), K)
        for k in range(K - 1, 0, -1):
            _validated_yes(g, k)
        bigger, extra = _padded(g)
        padded += extra > 0
        assert solve_tree(bigger, K).to_json() == report.to_json()
    assert grown == 16 and padded >= 8

"""YES answers at scale, where the brute-force oracles cannot run.

`conftest.planted_digraph_with_hub` and `conftest.planted_tree_with_hub`
build instances whose answer is YES by construction and whose hub is large
at K, so the solver runs growth before completion: arb at K = 3 with a
6K - 5 out-fan, flow at K = 2 with a 20K^2 + 1 out-fan at n = 85..100, and
tree at K = 3.  Every class of two or more copies is first raised to
`PARALLEL_CAP` copies (for flow, whose cap is 4; extra copies never destroy
a packing).  Three relations must hold on them:
- relabelling the non-root vertices (and renumbering the arcs or edges)
  keeps YES, and every witness passes the independent checker;
- YES at k implies YES at k - 1, since a k-safe arborescence, an
  (r,k)-flow branching and an (r,k)-safe tree are also so at k - 1;
- extra copies of a class that already has `PARALLEL_CAP` copies, with ids
  above all others, leave the report byte-identical: `cap_parallel` drops
  exactly them.
"""

import random

import pytest

from rootedpack.graphs import PARALLEL_CAP, ProblemInstance, RootedGraph
from rootedpack.oracles import validate_witness
from rootedpack.solver_arb import solve_arb
from rootedpack.solver_flow import solve_flow
from rootedpack.solver_tree import solve_tree

from conftest import planted_digraph_with_hub, planted_tree_with_hub, relabel

# kind -> (solver, K, instance at K)
FAMILIES = {
    "arb": (solve_arb, 3, lambda rng: planted_digraph_with_hub(rng, rng.randint(20, 60), 13)),
    "flow": (solve_flow, 2, lambda rng: planted_digraph_with_hub(rng, rng.randint(85, 100), 81)),
    "tree": (solve_tree, 3, lambda rng: planted_tree_with_hub(rng, rng.randint(20, 60), 3)),
}


def _with_copies(g, classes):
    """`g` plus one copy of each listed class, numbered after all others."""
    pairs = list(g.edges() if isinstance(g, RootedGraph) else g.arcs())
    return type(g)(g.n, 0, [*pairs, *((u, v, len(pairs) + i) for i, (u, v) in enumerate(classes))])


def _validated_yes(kind, g, k):
    report = FAMILIES[kind][0](g, k)
    assert report.decision, (g, k, report.stage)
    verdict = validate_witness(ProblemInstance(kind=kind, graph=g, k=k), report.witness)
    assert verdict.ok, verdict.failures()
    return report


@pytest.mark.parametrize("kind", sorted(FAMILIES))
def test_planted_yes_relations(kind):
    _, K, make = FAMILIES[kind]
    cap = PARALLEL_CAP[kind]
    rng = random.Random(2026)
    grown = padded = 0
    for _ in range(16):
        g = make(rng)
        g = _with_copies(g, [c for c, ids in g.parallel_classes().items() if len(ids) > 1
                             for _ in range(cap - len(ids))])
        report = _validated_yes(kind, g, K)
        grown += report.counters["growSteps"] > 0
        for _ in range(2):
            _validated_yes(kind, relabel(g, rng), K)
        for k in range(K - 1, 0, -1):
            _validated_yes(kind, g, k)
        full = [c for c, ids in g.parallel_classes().items() if len(ids) >= cap]
        padded += bool(full)
        bigger = _with_copies(g, [c for c in full for _ in range(2)])
        assert FAMILIES[kind][0](bigger, K).to_json() == report.to_json()
    assert grown == 16 and padded >= 8

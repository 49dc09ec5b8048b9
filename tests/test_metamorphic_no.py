"""NO answers at scale, where the brute-force oracles cannot run.

`conftest.root_degree_three` builds instances whose answer is NO by the
root-arc count, and they pass the gates, so the solver must answer NO at
pair search.  Relabelling the vertices and renumbering the arcs cannot
change the decision, the stage, the number of shapes or, on NO, the number
of pairs tested (the total pair count).

`conftest.root_degree_three_with_hub` adds a fan at one of the root's
children that makes it large, so the same NO is reached while the shape
searches attach to an anchor: arb and tree at k = 3, 4 and flow at k = 2.
"""

import random

import pytest

from rootedpack.graphs import ProblemInstance, cap_parallel
from rootedpack.oracles import validate_witness
from rootedpack.solver_arb import _kernel_shapes, solve_arb
from rootedpack.solver_flow import _flow_shapes, solve_flow
from rootedpack.solver_tree import _certificate_shapes, solve_tree

from conftest import relabel, root_degree_three, root_degree_three_with_hub

SOLVE = {"arb": solve_arb, "flow": solve_flow, "tree": solve_tree}
SHAPE_COUNTER = {"arb": "kernels", "flow": "cores", "tree": "certificates"}
K_VALUES = {"arb": (3, 4), "flow": (2, 3), "tree": (3, 4)}


def _assert_no_under_relabelling(kind, g, k, rng):
    """NO at pair search after some shapes, and the same (decision, stage,
    shapes, pairs tested) for three relabellings of `g`."""
    solve, counter = SOLVE[kind], SHAPE_COUNTER[kind]
    report = solve(g, k)
    assert (report.decision, report.stage) == (False, "pair-search")
    assert report.counters[counter] > 0
    seen = {(report.decision, report.stage, report.counters[counter],
             report.counters["pairsTested"])}
    for _ in range(3):
        other = solve(relabel(g, rng), k)
        seen.add((other.decision, other.stage, other.counters[counter],
                  other.counters["pairsTested"]))
    assert len(seen) == 1, seen


@pytest.mark.parametrize("n,k,kind", [
    (n, k, kind) for n in (20, 30, 40) for k in (2, 3, 4) for kind in ("arb", "flow", "tree")
    if k in K_VALUES[kind]])
def test_root_degree_three_is_no_under_relabelling(kind, n, k):
    rng = random.Random(n * 10 + k)
    g = root_degree_three(rng, n, noise=n // 4, undirected=kind == "tree")
    _assert_no_under_relabelling(kind, g, k, rng)


# kind -> (shape search, fan at k); each runs at n >= fan + 2
SHAPES = {"arb": (_kernel_shapes, lambda k: 6 * k - 5),
          "flow": (_flow_shapes, lambda k: 20 * k * k + 1),
          "tree": (_certificate_shapes, lambda k: 8 * k - 7)}
HUB_CASES = [(kind, n, k) for kind in ("arb", "tree") for k in (3, 4) for n in (20, 30, 40)
             if n >= SHAPES[kind][1](k) + 2] + [("flow", n, 2) for n in (85, 92, 100)]


@pytest.mark.parametrize("kind,n,k", HUB_CASES)
def test_root_degree_three_with_hub_is_no_with_anchored_rows(kind, n, k):
    """`conftest.root_degree_three_with_hub` is NO at k by the root-arc
    count, and its hub is large at k: some extendable row of the kind's
    shape search attaches to it, so the NO is reached with anchors in play.
    The decision is kept under relabelling, and k = 1 is YES with a witness
    the independent checker accepts."""
    rng = random.Random(n * 10 + k)
    search, fan = SHAPES[kind]
    g = root_degree_three_with_hub(rng, n, n // 4, fan(k), undirected=kind == "tree")
    _assert_no_under_relabelling(kind, g, k, rng)
    capped = cap_parallel(ProblemInstance(kind=kind, graph=g, k=k)).graph
    assert any(row[6] and row[2] for row in search(capped, k).filled())
    yes = SOLVE[kind](g, 1)
    assert yes.decision
    assert validate_witness(ProblemInstance(kind=kind, graph=g, k=1), yes.witness).ok

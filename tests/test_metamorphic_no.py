"""NO answers at scale, where the brute-force oracles cannot run.

`conftest.root_degree_three` builds instances whose answer is NO by the
root-arc count, and they pass the gates, so the solver must answer NO at
pair search.  Relabelling the vertices and renumbering the arcs cannot
change the decision, the stage, the number of shapes or, on NO, the number
of pairs tested (the total pair count).
"""

import random

import pytest

from rootedpack.solver_arb import solve_arb
from rootedpack.solver_flow import solve_flow
from rootedpack.solver_tree import solve_tree

from conftest import relabel, root_degree_three

SOLVE = {"arb": solve_arb, "flow": solve_flow, "tree": solve_tree}
SHAPE_COUNTER = {"arb": "kernels", "flow": "cores", "tree": "certificates"}
K_VALUES = {"arb": (3, 4), "flow": (2, 3), "tree": (3, 4)}


@pytest.mark.parametrize("n,k,kind", [
    (n, k, kind) for n in (20, 30, 40) for k in (2, 3, 4) for kind in ("arb", "flow", "tree")
    if k in K_VALUES[kind]])
def test_root_degree_three_is_no_under_relabelling(kind, n, k):
    rng = random.Random(n * 10 + k)
    solve = SOLVE[kind]
    g = root_degree_three(rng, n, noise=n // 4, undirected=kind == "tree")
    report = solve(g, k)
    assert (report.decision, report.stage) == (False, "pair-search")
    counter = SHAPE_COUNTER[kind]
    assert report.counters[counter] > 0
    seen = {(report.decision, report.stage, report.counters[counter],
             report.counters["pairsTested"])}
    for _ in range(3):
        other = solve(relabel(g, rng), k)
        seen.add((other.decision, other.stage, other.counters[counter],
                  other.counters["pairsTested"]))
    assert len(seen) == 1, seen

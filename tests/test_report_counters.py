"""Report counters against the steps the solves take.

`run_pipeline` reports `growSteps` as the sum of the hit pair's attachment
witnesses, and arb reports `completionSteps` as 2(n - 2k + 1), without
counting either.  Here every `fptcommon._take` call, the one place a growth
or completion step adds a copy, is counted by the phase it runs in, on hub
instances of every kind where growth runs:
- arb at k = 3, a hub out-fan of 6k - 5;
- tree at k = 3, `conftest.planted_tree_with_hub`;
- flow at k = 2, a hub out-fan of 20k^2 + 1 at n = 85..100.
Flow reports no completion steps, but its completion takes 2(n - 2k): a
classic core covers 2k vertices with the root.  Tree completes by a matroid
union and takes no `_take` step.
"""

import random
from collections import Counter

import pytest

from rootedpack import fptcommon, solver_arb, solver_flow, solver_tree

from conftest import planted_digraph_with_hub, planted_tree_with_hub


def _arb(rng):
    return planted_digraph_with_hub(rng, rng.randint(15, 40), 13), 3


def _flow(rng):
    return planted_digraph_with_hub(rng, rng.randint(85, 100), 81), 2


def _tree(rng):
    return planted_tree_with_hub(rng, rng.randint(20, 60), 3), 3


@pytest.fixture
def steps(monkeypatch):
    """`_take` calls per phase: "grow", "complete" or None (neither)."""
    counts = Counter()
    phase = [None]
    real_take = fptcommon._take

    def take(*args):
        counts[phase[0]] += 1
        real_take(*args)

    def in_phase(name, fn):
        def wrapped(*args):
            phase[0] = name
            try:
                return fn(*args)
            finally:
                phase[0] = None
        return wrapped

    monkeypatch.setattr(fptcommon, "_take", take)
    for module in (fptcommon, solver_tree):
        monkeypatch.setattr(module, "grow_pair", in_phase("grow", module.grow_pair))
    for module in (solver_arb, solver_flow):
        monkeypatch.setattr(module, "complete_directed_pair",
                            in_phase("complete", module.complete_directed_pair))
    return counts


@pytest.mark.parametrize("make, solve", [
    (_arb, solver_arb.solve_arb), (_flow, solver_flow.solve_flow),
    (_tree, solver_tree.solve_tree)], ids=["arb", "flow", "tree"])
def test_counters_equal_the_steps_taken(steps, make, solve):
    rng = random.Random(23)
    grown = 0
    for _ in range(6):
        g, k = make(rng)
        steps.clear()
        report = solve(g, k)
        assert report.decision and report.stage == "completed"
        assert steps["grow"] == report.counters["growSteps"]
        grown += steps["grow"] > 0
        if report.problem == "arb":
            assert steps["complete"] == report.counters["completionSteps"] == 2 * (g.n - 2 * k + 1)
        else:
            assert "completionSteps" not in report.counters
            assert steps["complete"] == (2 * (g.n - 2 * k) if report.problem == "flow" else 0)
        assert not steps[None]
    assert grown

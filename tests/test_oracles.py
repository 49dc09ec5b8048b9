import ast
import random
import sys
from pathlib import Path

import pytest

from rootedpack import oracles
from rootedpack.errors import BudgetExceededError
from rootedpack.graphs import ProblemInstance, RootedDigraph, RootedGraph, parse_instance
from rootedpack.oracles import (
    OracleBudget,
    _arb_subtree_sizes,
    _tree_hanging_sizes,
    oracle_arb,
    oracle_flow,
    oracle_tree,
    validate_witness,
)

from rootedpack.instancegen import random_instance
from rootedpack.solver_flow import solve_flow

from conftest import random_digraph, random_graph


def test_oracle_arb_examples():
    assert oracle_arb(RootedDigraph(2, 0, [(0, 1), (0, 1)]), 1).decision
    assert not oracle_arb(RootedDigraph(3, 0, [(0, 1), (1, 2)]), 1).decision
    assert oracle_arb(RootedDigraph(1, 0, []), 5).decision


def test_oracle_arb_witness_validates(rng):
    found = 0
    while found < 30:
        d = random_digraph(rng)
        for k in (1, 2):
            ans = oracle_arb(d, k)
            if not ans.decision:
                continue
            found += 1
            inst = ProblemInstance(kind="arb", graph=d, k=k)
            verdict = validate_witness(
                inst, {"tree1": list(ans.witness[0]), "tree2": list(ans.witness[1])})
            assert verdict.ok, verdict.failures()


def test_checker_sizes_match_a_brute_force_count():
    """Random parent maps with shuffled labels and key order: the arb
    checker's subtree sizes, and the tree checker's strict descendant counts,
    against counting the vertices whose walk to the root passes each one."""
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(1, 30)
        labels = rng.sample(range(n), n)
        root = labels[0]
        pairs = [(labels[i], labels[rng.randrange(i)]) for i in range(1, n)]
        rng.shuffle(pairs)
        parent = dict(pairs)
        want = dict.fromkeys(parent, 0)
        for w in parent:
            while w != root:
                want[w] += 1
                w = parent[w]
        assert _arb_subtree_sizes(parent, root) == want
        classes = frozenset((min(u, v), max(u, v)) for v, u in parent.items())
        assert _tree_hanging_sizes(root, classes) == {v: s - 1 for v, s in want.items()}


def test_arb_checker_sizes_on_a_long_path():
    """A 50,000-vertex path listed deepest first: one pass, where sorting by
    a per-vertex walk to the root took quadratic time."""
    n = 50_000
    parent = {v: v - 1 for v in range(n - 1, 0, -1)}
    assert _arb_subtree_sizes(parent, 0) == {v: n - v for v in parent}


def test_oracle_arb_boundary_k():
    # doubled star: k = n-1 boundary
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)])
    assert oracle_arb(d, 2).decision
    assert not oracle_arb(d, 3).decision


def test_oracle_flow_examples():
    assert oracle_flow(RootedDigraph(3, 0, [(0, 1), (0, 1), (1, 2), (1, 2)]), 1).decision
    assert not oracle_flow(RootedDigraph(3, 0, [(0, 1), (1, 2)]), 1).decision


def test_oracle_tree_examples():
    assert oracle_tree(RootedGraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)]), 1).decision
    assert not oracle_tree(RootedGraph(4, 0, [(0, 1), (1, 2), (2, 3), (0, 3)]), 1).decision


def test_oracle_tree_agrees_with_matroid_union(rng):
    from rootedpack.matroid import has_two_disjoint_spanning_trees
    for _ in range(60):
        g = random_graph(rng, max_n=6)
        assert oracle_tree(g, 1).decision == has_two_disjoint_spanning_trees(g)


def test_oracle_monotone_in_multiplicity(rng):
    # adding parallel copies never flips YES to NO
    for _ in range(40):
        d = random_digraph(rng, max_n=5, max_m=8)
        if d.arc_count == 0:
            continue
        arcs = [(u, v) for u, v, _ in d.arcs()]
        more = RootedDigraph(d.n, 0, arcs + [arcs[0]])
        for k in (1, 2):
            if oracle_arb(d, k).decision:
                assert oracle_arb(more, k).decision
            if oracle_flow(d, k).decision:
                assert oracle_flow(more, k).decision


def test_budget_refusal():
    d = RootedDigraph(9, 0, [(0, v) for v in range(1, 9)])
    with pytest.raises(BudgetExceededError):
        oracle_arb(d, 1, OracleBudget(max_vertices=7))
    with pytest.raises(BudgetExceededError):
        oracle_flow(RootedDigraph(2, 0, [(0, 1)] * 15), 1, OracleBudget(max_arcs=14))
    with pytest.raises(BudgetExceededError):
        oracle_tree(RootedGraph(9, 0, [(0, v) for v in range(1, 9)]), 1,
                    OracleBudget(max_vertices=7))


def test_validate_witness_disjointness_failure():
    d = RootedDigraph(2, 0, [(0, 1), (0, 1)])
    inst = ProblemInstance(kind="arb", graph=d, k=1)
    verdict = validate_witness(inst, {"tree1": [0], "tree2": [0]})
    assert not verdict.ok
    assert any(name == "disjoint" for name, _ in verdict.failures())


def test_validate_witness_overweight_branch_names_vertex():
    g = RootedGraph(4, 0, [(0, 1), (1, 2), (2, 3), (0, 1), (0, 2), (0, 3)])
    inst = ProblemInstance(kind="tree", graph=g, k=2)
    # path r-1-2-3 has hanging component of size 2 below vertex 1: margin 1 < 2
    verdict = validate_witness(inst, {"tree1": [0, 1, 2], "tree2": [3, 4, 5]})
    failures = dict(verdict.failures())
    assert "tree1:rk-safe" in failures
    assert "vertex 1" in failures["tree1:rk-safe"]


def test_validate_witness_flow_sides():
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (1, 2), (1, 2)])
    inst = ProblemInstance(kind="flow", graph=d, k=1)
    good = validate_witness(inst, {"tree1": [0, 2], "tree2": [1, 3]})
    assert good.ok
    bad = validate_witness(inst, {"tree1": [0], "tree2": [1, 3]})
    assert not bad.ok


def test_validate_witness_unknown_ids():
    d = RootedDigraph(2, 0, [(0, 1)])
    inst = ProblemInstance(kind="arb", graph=d, k=1)
    verdict = validate_witness(inst, {"tree1": [99], "tree2": []})
    assert not verdict.ok


def test_validate_witness_stated_flow_crosscheck():
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (1, 2), (1, 2)])
    inst = ProblemInstance(kind="flow", graph=d, k=1)
    ok = validate_witness(inst, {
        "tree1": [0, 2], "tree2": [1, 3],
        "flow1": [[0, 2], [2, 1]], "flow2": [[1, 2], [3, 1]]})
    assert ok.ok
    bad = validate_witness(inst, {
        "tree1": [0, 2], "tree2": [1, 3],
        "flow1": [[0, 9], [2, 1]], "flow2": [[1, 2], [3, 1]]})
    assert not bad.ok


def _counted_max_flows(monkeypatch) -> list:
    calls = []
    real = oracles._ff_max_flow

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "_ff_max_flow", counted)
    return calls


FLOW_CHECKS = ["disjoint", "tree1:ids", "tree1:feasible", "tree2:ids", "tree2:feasible"]


def test_a_valid_stated_flow_certifies_feasibility(monkeypatch):
    """A doubled chain's solver witness states both flows, so neither side
    runs the validator's max-flow, in the solve or after it, and the checks
    keep their names and order."""
    calls = _counted_max_flows(monkeypatch)
    n = 300
    d = RootedDigraph(n, 0, [(i, i + 1) for i in range(n - 1) for _ in range(2)])
    report = solve_flow(d, 1)
    assert report.decision
    verdict = validate_witness(ProblemInstance(kind="flow", graph=d, k=1), report.witness)
    assert [name for name, *_ in verdict.checks] == [
        *FLOW_CHECKS, "tree1:stated-flow", "tree2:stated-flow"]
    assert verdict.ok and not calls


def test_a_broken_stated_flow_leaves_feasibility_to_the_max_flow(monkeypatch):
    calls = _counted_max_flows(monkeypatch)
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (1, 2), (1, 2)])
    verdict = validate_witness(ProblemInstance(kind="flow", graph=d, k=1), {
        "tree1": [0, 2], "tree2": [1, 3],
        "flow1": [[0, 9], [2, 1]], "flow2": [[1, 2], [3, 1]]})
    assert verdict.failures() == [("tree1:stated-flow", "stated flow invalid")]
    assert ("tree1:feasible", True, "") in verdict.checks
    assert len(calls) == 1  # side 1 only: side 2's stated flow certifies it


def test_a_witness_without_stated_flows_runs_the_max_flow(monkeypatch):
    calls = _counted_max_flows(monkeypatch)
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (1, 2), (1, 2)])
    inst = ProblemInstance(kind="flow", graph=d, k=1)
    verdict = validate_witness(inst, {"tree1": [0, 2], "tree2": [1, 3]})
    assert verdict.ok and [name for name, *_ in verdict.checks] == FLOW_CHECKS
    assert len(calls) == 2
    bad = validate_witness(inst, {"tree1": [0], "tree2": [1, 3], "flow2": [[1, 2], [3, 1]]})
    assert bad.failures() == [("tree1:feasible", "no branching flow under caps 2")]
    assert len(calls) == 3


@pytest.mark.parametrize("at", [0, None], ids=["first", "last"])
def test_an_arc_stated_twice_fails_in_either_entry_order(monkeypatch, at):
    """A second entry for a witness arc breaks the stated flow wherever it
    stands, so the max-flow decides that side's `feasible`."""
    calls = _counted_max_flows(monkeypatch)
    inst = random_instance("flow", 8, 30, 3, ensure="2-root-connected", k=1)
    witness = solve_flow(inst.graph, 1).witness
    aid, _ = witness["flow1"][0]
    witness["flow1"].insert(len(witness["flow1"]) if at is None else at, [aid, 8])
    del calls[:]
    verdict = validate_witness(inst, witness)
    assert [name for name, *_ in verdict.checks] == [
        *FLOW_CHECKS, "tree1:stated-flow", "tree2:stated-flow"]
    assert verdict.failures() == [("tree1:stated-flow", "stated flow invalid")]
    assert len(calls) == 1


def test_a_flow_side_listing_an_arc_twice_fails_its_ids():
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (1, 2), (1, 2)])
    verdict = validate_witness(ProblemInstance(kind="flow", graph=d, k=1),
                               {"tree1": [0, 2, 2], "tree2": [1, 3]})
    assert verdict.failures() == [("tree1:ids", "repeated arc ids")]


def test_validate_witness_stated_flow_unknown_arc_is_itemised():
    # 999 is listed in the tree too, so only the arc lookup can reject it
    inst = parse_instance("D 3 0\n0 1 2\n0 2 2\n", kind="flow", k=2)
    verdict = validate_witness(inst, {"tree1": [999], "tree2": [], "flow1": [[999, 1]]})
    assert not verdict.ok
    assert ("tree1:stated-flow", "stated flow invalid") in verdict.failures()


def test_arb_parent_cycle_is_refused_after_spanning():
    """tree1 = {0->1, 2->3, 3->2} covers every vertex once but 2 and 3 never
    climb to the root; the walk from the root misses them."""
    d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3), (3, 2)] * 2)
    inst = ProblemInstance(kind="arb", graph=d, k=1)
    verdict = validate_witness(inst, {"tree1": [0, 2, 3], "tree2": [4, 5, 6]})
    assert verdict.checks == [
        ("disjoint", True, ""),
        ("tree1:ids", True, ""),
        ("tree1:spanning", True, ""),
        ("tree1:acyclic", False, "parent cycle"),
        ("tree2:ids", True, ""),
        ("tree2:spanning", True, ""),
        ("tree2:acyclic", True, ""),
        ("tree2:k-safe", True, ""),
    ]


@pytest.mark.parametrize("tree1, tree2", [
    ([0, 1, 2], [3, 4, 5]),  # both copies of class (0, 1): vertex 3 unreached
    ([0, 2, 4], [1, 3, 5]),  # triangle 0-1-2: vertex 3 unreached
])
def test_tree_cycle_of_n_minus_1_edges_is_refused(tree1, tree2):
    g = RootedGraph(4, 0, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (2, 3), (2, 3)])
    inst = ProblemInstance(kind="tree", graph=g, k=1)
    verdict = validate_witness(inst, {"tree1": tree1, "tree2": tree2})
    assert verdict.checks == [
        ("disjoint", True, ""),
        ("tree1:ids", True, ""),
        ("tree1:edge-count", True, ""),
        ("tree1:acyclic", False, "cycle in selection"),
        ("tree2:ids", True, ""),
        ("tree2:edge-count", True, ""),
        ("tree2:acyclic", True, ""),
        ("tree2:spanning", True, ""),
        ("tree2:rk-safe", True, ""),
    ]


def test_subtree_sizes_are_none_iff_some_walk_misses_the_root():
    """Random functional parent maps on the non-root vertices, cycles
    included: the root-first walk misses a vertex exactly when that vertex's
    parent walk never reaches the root."""
    rng = random.Random(41)
    outcomes = set()
    for _ in range(2000):
        n = rng.randint(2, 9)
        root = rng.randrange(n)
        parent = {v: rng.choice([u for u in range(n) if u != v])
                  for v in rng.sample(range(n), n) if v != root}

        def climbs(v):
            for _ in range(n):
                if v == root:
                    return True
                v = parent[v]
            return v == root

        cyclic = not all(climbs(v) for v in parent)
        outcomes.add(cyclic)
        assert (_arb_subtree_sizes(parent, root) is None) == cyclic
    assert outcomes == {False, True}


def test_oracles_imports_only_the_standard_library_errors_and_graphs():
    """The checker must not share code with the solvers it checks."""
    tree = ast.parse(Path(oracles.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 1 and node.module in ("errors", "graphs"), ast.dump(node)
            continue
        else:
            continue
        for name in names:
            assert name.split(".")[0] in sys.stdlib_module_names, name

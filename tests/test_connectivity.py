import random

import pytest

from rootedpack.connectivity import (
    FlowNetwork,
    critical_arcs,
    is_extendable_pair,
    is_k_root_connected,
    is_root_connected,
    max_flow,
)
from rootedpack.errors import ContractError
from rootedpack.graphs import RootedDigraph
from rootedpack.solver_arb import solve_arb
from rootedpack.solver_flow import solve_flow

from conftest import random_digraph


def in_degree_brute(d: RootedDigraph, subset) -> int:
    inside = set(subset)
    return sum(1 for _, v, _ in d.arcs() if v in inside) - sum(
        1 for u, v, _ in d.arcs() if u in inside and v in inside)


def test_max_flow_basics():
    net = FlowNetwork(n_nodes=2, source=0, sink=1)
    net.add_arc(0, 1, 3)
    assert max_flow(net)[0] == 3

    net = FlowNetwork(n_nodes=4, source=0, sink=3)
    net.add_arc(0, 1, 1)
    net.add_arc(1, 3, 1)
    net.add_arc(0, 2, 1)
    net.add_arc(2, 3, 1)
    assert max_flow(net)[0] == 2

    net = FlowNetwork(n_nodes=2, source=0, sink=1)
    assert max_flow(net)[0] == 0


def test_is_root_connected():
    d = RootedDigraph(3, 0, [(0, 1), (1, 2)])
    assert is_root_connected(d)
    assert not is_root_connected(d, removed={1})
    assert is_root_connected(RootedDigraph(1, 0, []))


def test_is_k_root_connected_examples():
    d = RootedDigraph(2, 0, [(0, 1), (0, 1)])
    assert is_k_root_connected(d, 2) == (True, None)
    single = RootedDigraph(2, 0, [(0, 1)])
    ok, witness = is_k_root_connected(single, 2)
    assert not ok
    assert witness.vertices == frozenset({1})
    assert witness.in_degree == 1


def test_k1_equals_root_connected(rng):
    for _ in range(50):
        d = random_digraph(rng)
        assert is_k_root_connected(d, 1)[0] == is_root_connected(d)


def test_k_root_connected_vs_exhaustive_min_cut(rng):
    import itertools
    for _ in range(60):
        d = random_digraph(rng, max_n=8, max_m=18, max_mult=3)
        nonroot = [v for v in range(d.n) if v != 0]
        for k in (1, 2, 3):
            if nonroot:
                brute = min(
                    (in_degree_brute(d, s)
                     for r in range(1, len(nonroot) + 1)
                     for s in itertools.combinations(nonroot, r)),
                ) >= k
            else:
                brute = True
            got, witness = is_k_root_connected(d, k)
            assert got == brute
            if not got:
                assert witness.in_degree < k
                assert in_degree_brute(d, witness.vertices) == witness.in_degree


def test_critical_arcs_example():
    # r->a, a->b, r->b: only r->a is critical
    d = RootedDigraph(3, 0, [(0, 1), (1, 2), (0, 2)])
    assert critical_arcs(d) == frozenset({0})


def test_critical_arcs_parallel_never_critical():
    d = RootedDigraph(2, 0, [(0, 1), (0, 1)])
    assert critical_arcs(d) == frozenset()


def test_critical_arcs_2rc_empty(rng):
    for _ in range(30):
        d = random_digraph(rng)
        if is_k_root_connected(d, 2)[0]:
            assert critical_arcs(d) == frozenset()


def test_critical_arcs_against_per_arc_recheck(rng):
    for _ in range(40):
        d = random_digraph(rng, max_n=6)
        if not is_root_connected(d):
            continue
        brute = set()
        for u, v, aid in d.arcs():
            if not is_root_connected(d, removed={aid}):
                brute.add(aid)
        assert critical_arcs(d) == frozenset(brute)


def test_critical_arcs_tail_filter():
    d = RootedDigraph(3, 0, [(0, 1), (1, 2)])
    assert critical_arcs(d, tails={1}) == frozenset({1})


def test_critical_arcs_requires_root_connected():
    d = RootedDigraph(3, 0, [(0, 1)])
    with pytest.raises(ContractError):
        critical_arcs(d)


def test_critical_arc_bound(rng):
    """At most alpha critical arcs per tail after removing alpha arcs."""
    checked = 0
    while checked < 200:
        d = random_digraph(rng, max_n=7, max_m=24, max_mult=2)
        if not is_k_root_connected(d, 2)[0] or d.arc_count == 0:
            continue
        alpha = rng.randint(0, 3)
        ids = list(d.arc_ids)
        removed = set(rng.sample(ids, min(alpha, len(ids))))
        if not is_root_connected(d, removed):
            continue
        checked += 1
        for v in range(d.n):
            crit = critical_arcs(d, removed, tails={v})
            assert len(crit) <= len(removed), (list(d.arcs()), removed, v)


def test_submodularity(rng):
    # d^- is submodular: d(S1) + d(S2) >= d(S1 | S2) + d(S1 & S2),
    # the direction the critical-arc bound argument needs.
    for _ in range(200):
        d = random_digraph(rng, max_n=7, max_m=20, max_mult=3)
        verts = list(range(d.n))
        s1 = {v for v in verts if rng.random() < 0.5}
        s2 = {v for v in verts if rng.random() < 0.5}
        lhs = in_degree_brute(d, s1) + in_degree_brute(d, s2)
        rhs = in_degree_brute(d, s1 | s2) + in_degree_brute(d, s1 & s2)
        assert lhs >= rhs


def test_extendable_pair_examples():
    d = RootedDigraph(3, 0, [(0, 1), (1, 2), (0, 2)])
    empty = d.selection([])
    assert is_extendable_pair(d, empty, empty)
    all_into_2 = d.selection([1, 2])
    assert not is_extendable_pair(d, all_into_2, empty)


def test_extendable_pair_from_solve_witness(rng):
    from rootedpack.solver_arb import solve_arb
    found = 0
    while found < 20:
        d = random_digraph(rng, max_n=6, max_m=16)
        report = solve_arb(d, 1)
        if not report.decision:
            continue
        found += 1
        sel1 = d.selection(report.witness["tree1"])
        sel2 = d.selection(report.witness["tree2"])
        assert is_extendable_pair(d, sel1, sel2)


def test_extendable_monotone(rng):
    for _ in range(60):
        d = random_digraph(rng)
        ids = list(d.arc_ids)
        if not ids:
            continue
        a1 = set(rng.sample(ids, rng.randint(0, len(ids))))
        a2 = set(rng.sample(ids, rng.randint(0, len(ids))))
        sub = set(rng.sample(sorted(a1), rng.randint(0, len(a1)))) if a1 else set()
        if is_extendable_pair(d, d.selection(a1), d.selection(a2)):
            assert is_extendable_pair(d, d.selection(sub), d.selection(a2))


def test_in_degree_of_set_matches_brute(rng):
    for _ in range(40):
        d = random_digraph(rng, max_mult=3)
        subset = {v for v in range(d.n) if rng.random() < 0.4}
        assert d.in_degree_of_set(subset) == in_degree_brute(d, subset)


def gate_digraph(rng: random.Random, n: int) -> RootedDigraph:
    """A random r-arborescence, each arc kept with probability 0.99, plus
    n to 3n random classes of 1, 2 or 5 copies: single arcs entering a set
    make 2-root-connectivity fail often, and copies beyond the cap make
    the solver's capped graph differ from this one."""
    order = list(range(1, n))
    rng.shuffle(order)
    arcs = [(rng.choice([0] + order[:i]), v) for i, v in enumerate(order) if rng.random() < 0.99]
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.randrange(n), rng.randrange(1, n)
        if u != v:
            arcs += [(u, v)] * rng.choice((1, 1, 2, 5))
    return RootedDigraph(n, 0, arcs)


@pytest.mark.parametrize("solve", [solve_arb, solve_flow])
def test_gate_cut_witness_certifies_the_no(solve):
    # A cut X with root not in X and d^-(X) < 2 leaves no two arc-disjoint
    # spanning r-arborescences (Edmonds' branching theorem), so the NO holds
    # for every k.  Below 2 the capped graph's count is the original's.
    rng = random.Random(0x6A7E)
    degrees = []
    for _ in range(40):
        n = rng.choice((8, 30, 100, 200))
        d = gate_digraph(rng, n)
        report = solve(d, rng.choice((2, 3))).to_json_dict()
        if report["stage"] != "connectivity-gate":
            continue
        assert report["decision"] is False
        cut = set(report["cut_witness"]["cut"])
        assert cut and d.root not in cut
        entering = sum(1 for u, v, _ in d.arcs() if v in cut and u not in cut)
        assert entering == report["cut_witness"]["in_degree"] < 2
        degrees.append(entering)
    # 37 of the 40 fail the gate: 7 cuts that nothing enters, 30 entered once
    assert len(degrees) >= 30 and set(degrees) == {0, 1}

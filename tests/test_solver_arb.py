import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rootedpack.connectivity import is_extendable_pair, is_k_root_connected
from rootedpack.errors import ContractError, StructureError
from rootedpack.fptcommon import CompactStructure
from rootedpack.graphs import ProblemInstance, RootedDigraph, cap_parallel, parse_rooted_tree
from rootedpack.oracles import oracle_arb, validate_witness
from rootedpack.solver_arb import (
    candidate_pool,
    classify_vertices,
    complete_to_spanning,
    enumerate_compact_kernels,
    grow_to_classic,
    solve_arb,
    validate_compact_kernel,
)

from conftest import digraphs, random_digraph, spanning_digraph


def fan_digraph(base_arcs, n_base, fan_tails, fan_width, mult=1):
    """Base digraph plus out-fans of fresh vertices to make tails large."""
    arcs = list(base_arcs)
    n = n_base
    for tail in fan_tails:
        for _ in range(fan_width):
            for _ in range(mult):
                arcs.append((tail, n))
            n += 1
    return RootedDigraph(n, 0, arcs)


def test_classify_examples():
    # k=2 threshold 7
    d = fan_digraph([(0, 1)], 2, [1], 7)
    view = classify_vertices(d, 2)
    assert 1 in view.large
    d2 = fan_digraph([(0, 1)], 2, [1], 6)
    assert 1 in classify_vertices(d2, 2).small
    # k=1 threshold 1: any vertex with an out-neighbor is large
    d3 = RootedDigraph(3, 0, [(0, 1), (1, 2)])
    view3 = classify_vertices(d3, 1)
    assert view3.large == frozenset({0, 1})


def test_candidate_pool():
    d = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
    assert candidate_pool(d, 1) == frozenset({0})
    assert candidate_pool(d, 2) == frozenset({0, 1})
    # chain of small vertices length k-1 fully included
    assert candidate_pool(d, 3) == frozenset({0, 1, 2})
    # large interior blocks expansion
    d2 = fan_digraph([(0, 1), (1, 2)], 3, [1], 9)
    pool = candidate_pool(d2, 2)
    assert 1 in pool and 2 not in pool


def test_validate_compact_kernel_examples():
    d = RootedDigraph(3, 0, [(0, 1), (0, 2)])
    assert validate_compact_kernel(d, 2, d.selection([0, 1])) == {}
    assert validate_compact_kernel(d, 1, d.selection([])) == {}
    # k=2, single-vertex kernel with a large: branch would exceed k-1
    big = fan_digraph([(0, 1)], 2, [1], 7)
    assert validate_compact_kernel(big, 2, big.selection([0])) is None


def test_validate_compact_kernel_attachment():
    # k=3: kernel {r->a} with a large; branch cap 2 allows 1 leaf, need 3 -> invalid
    d = fan_digraph([(0, 1)], 2, [1], 13)
    assert validate_compact_kernel(d, 3, d.selection([0])) is None
    # k=3: kernel {r->a, r->b, a->c} with a large... a must be a sink; use c large
    d2 = fan_digraph([(0, 1), (0, 2), (1, 3)], 4, [3], 13)
    att = validate_compact_kernel(d2, 3, d2.selection([0, 1, 2]))
    # V' = {1,2,3}, residual 1, large 3 in branch of 1 (size 2, cap 0) -> invalid
    assert att is None
    d3 = fan_digraph([(0, 1), (0, 2), (0, 3)], 4, [3], 13)
    att = validate_compact_kernel(d3, 3, d3.selection([0, 1, 2]))
    assert att == {3: 1}
    # k=3: {r->a, r->b, a->c} with a and b large; b's branch could take the
    # one imaginary leaf, but large a has a child
    d4 = fan_digraph([(0, 1), (0, 2), (1, 3)], 4, [1, 2], 13)
    assert validate_compact_kernel(d4, 3, d4.selection([0, 1, 2])) is None


def test_validate_compact_kernel_against_attachment_enumeration(rng):
    """Oracle: try every distribution of imaginary leaves explicitly."""
    def brute_attachment(d, k, sel):
        from rootedpack.fptcommon import branch_structure as _branch_structure
        try:
            parent = parse_rooted_tree(d, sel.ids)
        except StructureError:
            return None
        if len(parent) > 2 * k - 2:
            return None
        view = classify_vertices(d, k)
        verts = set(parent)
        anchors = sorted(verts & view.large)
        for v in anchors:
            if any(parent.get(w) == v for w in parent):
                return None
        residual = 2 * k - 2 - len(verts)
        if residual == 0:
            _, sizes = _branch_structure(parent, d.root)
            return {} if all(s <= k - 1 for s in sizes.values()) else None
        if not anchors:
            return None
        for combo in itertools.product(range(residual + 1), repeat=len(anchors)):
            if sum(combo) != residual:
                continue
            # build Y explicitly and check k-safety of every branch
            parent2 = dict(parent)
            nxt = d.n
            for a, cnt in zip(anchors, combo):
                for _ in range(cnt):
                    parent2[nxt] = a
                    nxt += 1
            _, sizes = _branch_structure(parent2, d.root)
            if all(s <= k - 1 for s in sizes.values()):
                return dict(zip(anchors, combo))
        return None

    checked = 0
    while checked < 60:
        k = rng.choice((2, 3))
        base_n = rng.randint(2, 5)
        base = random_digraph(rng, max_n=base_n, max_m=8)
        fans = [v for v in range(1, base.n) if rng.random() < 0.5]
        d = fan_digraph([(u, v) for u, v, _ in base.arcs()], base.n, fans, 6 * k - 5)
        ids = sorted(d.arc_ids)
        sel = d.selection(rng.sample(ids, rng.randint(0, min(2 * k - 2, len(ids)))))
        got = validate_compact_kernel(d, k, sel)
        want = brute_attachment(d, k, sel)
        assert (got is None) == (want is None), (list(d.arcs()), sel.ids, k)
        checked += 1


def test_enumerate_kernels_k1_single_empty():
    d = random_digraph(random.Random(5))
    kernels = list(enumerate_compact_kernels(d, 1))
    assert len(kernels) == 1
    assert kernels[0].selection.ids == frozenset()


def test_enumerate_kernels_copy_variants():
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)])
    kernels = list(enumerate_compact_kernels(d, 2))
    assert sorted(k.selection.sorted_ids() for k in kernels) == \
        [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_enumerate_kernels_matches_definition(rng):
    """Exhaustive definition check: every kernel the enumerator emits is
    valid, and every valid selection within the size bound is emitted."""
    for _ in range(25):
        d = random_digraph(rng, max_n=5, max_m=8)
        k = rng.choice((1, 2))
        capped = cap_parallel(ProblemInstance(kind="arb", graph=d, k=k)).graph
        emitted = {k_.selection.ids for k_ in enumerate_compact_kernels(capped, k)}
        ids = sorted(capped.arc_ids)
        valid = set()
        for size in range(0, 2 * k - 1):
            for combo in itertools.combinations(ids, size):
                if validate_compact_kernel(capped, k, capped.selection(combo)) is not None:
                    valid.add(frozenset(combo))
        assert emitted == valid, (list(capped.arcs()), k)


def test_enumeration_within_closed_form_bound(rng):
    for _ in range(10):
        d = random_digraph(rng, max_n=5)
        k = 2
        count = sum(1 for _ in enumerate_compact_kernels(d, k))
        bound = (6 * k) ** (2 * k * k) * (16 * k * k) ** (2 * k)
        assert count <= bound


def test_grow_passthrough_when_classic():
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)])
    k1 = CompactStructure(frozenset({1, 2}), d.selection([0, 2]), {})
    k2 = CompactStructure(frozenset({1, 2}), d.selection([1, 3]), {})
    g1, g2 = grow_to_classic(d, 2, (k1, k2))
    assert g1.ids == k1.selection.ids and g2.ids == k2.selection.ids


def test_grow_requires_disjoint_and_extendable():
    d = RootedDigraph(3, 0, [(0, 1), (0, 2)])
    k1 = CompactStructure(frozenset({1, 2}), d.selection([0, 1]), {})
    with pytest.raises(ContractError):
        grow_to_classic(d, 2, (k1, k1))


def test_grow_requires_an_extendable_disjoint_pair():
    # removing the one arc into 1 disconnects D
    d = RootedDigraph(3, 0, [(0, 1), (0, 2), (0, 2)])
    pair = (CompactStructure(frozenset({1}), d.selection([0]), {}),
            CompactStructure(frozenset({2}), d.selection([1]), {}))
    with pytest.raises(ContractError):
        grow_to_classic(d, 2, pair)


def test_grow_realizes_attachment_targets(rng):
    """Growth outputs validated as classic kernels, pair stays extendable."""
    grown = 0
    while grown < 20:
        k = 3
        # r -> {1, 2, 3}; 3 is large; kernels {r->1, r->2, r->3} need 1 leaf at 3
        width = 6 * k - 5
        base = [(0, 1), (0, 2), (0, 3)] * 2
        d = fan_digraph(base, 4, [3], width + rng.randint(0, 3), mult=2)
        sel1 = d.selection([0, 2, 4])
        sel2 = d.selection([1, 3, 5])
        att1 = validate_compact_kernel(d, k, sel1)
        att2 = validate_compact_kernel(d, k, sel2)
        assert att1 == {3: 1} and att2 == {3: 1}
        c1 = CompactStructure(frozenset({1, 2, 3}), sel1, att1)
        c2 = CompactStructure(frozenset({1, 2, 3}), sel2, att2)
        g1, g2 = grow_to_classic(d, k, (c1, c2))
        assert len(g1.ids) == 2 * k - 2 and len(g2.ids) == 2 * k - 2
        assert not (g1.ids & g2.ids)
        assert is_extendable_pair(d, g1, g2)
        # classic kernels: k-safe arborescences on exactly 2k-2 vertices
        from rootedpack.graphs import subtree_sizes
        for g in (g1, g2):
            sizes = subtree_sizes(g)
            assert len(sizes) == 2 * k - 2
            assert all((2 * k - 1) - s >= k for s in sizes.values())
        grown += 1


def test_complete_identity_when_spanning():
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)])
    t1, t2 = complete_to_spanning(d, 2, (d.selection([0, 2]), d.selection([1, 3])))
    assert t1.ids == {0, 2} and t2.ids == {1, 3}


def test_complete_k1_from_empty_matches_edmonds(rng):
    done = 0
    while done < 60:
        d = random_digraph(rng, max_n=6, max_m=18)
        ok, _ = is_k_root_connected(d, 2)
        if not ok:
            continue
        done += 1
        t1, t2 = complete_to_spanning(d, 1, (d.selection([]), d.selection([])))
        inst = ProblemInstance(kind="arb", graph=d, k=1)
        verdict = validate_witness(
            inst, {"tree1": sorted(t1.ids), "tree2": sorted(t2.ids)})
        assert verdict.ok, verdict.failures()


def test_solve_gate_produces_cut_witness():
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (0, 2)])
    report = solve_arb(d, 2)
    assert not report.decision
    assert report.stage == "connectivity-gate"
    assert report.cut_witness == {"cut": [2], "in_degree": 1}


def test_solve_four_arc_example():
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)])
    report = solve_arb(d, 2)
    assert report.decision
    assert report.witness == {"tree1": [0, 2], "tree2": [1, 3]}
    assert report.validation["ok"]


def test_solve_k1_equals_double_root_connectivity(rng):
    for _ in range(120):
        d = random_digraph(rng)
        assert solve_arb(d, 1).decision == is_k_root_connected(d, 2)[0]


def test_solve_k1_equals_double_root_connectivity_at_scale():
    # Edmonds' branching theorem: two arc-disjoint spanning r-arborescences
    # exist iff D is 2-root-connected
    rng = random.Random(41)
    decisions = []
    for _ in range(16):
        n = rng.randint(20, 200)
        d = spanning_digraph(rng, n, extra=rng.randint(n, 5 * n))
        decision = solve_arb(d, 1).decision
        assert decision == is_k_root_connected(d, 2)[0]
        decisions.append(decision)
    assert set(decisions) == {True, False}


def test_solve_matches_oracle_randomized(rng):
    for _ in range(120):
        d = random_digraph(rng, max_n=6)
        for k in (1, 2, 3):
            report = solve_arb(d, k)
            assert report.decision == oracle_arb(d, k).decision
            if report.decision:
                assert report.validation["ok"]


@given(digraphs(max_n=5, max_m=10), st.integers(min_value=1, max_value=3))
def test_solve_matches_oracle_property(d, k):
    assert solve_arb(d, k).decision == oracle_arb(d, k).decision


def test_solve_trivial_sizes():
    assert solve_arb(RootedDigraph(1, 0, []), 1).decision
    assert solve_arb(RootedDigraph(1, 0, []), 4).decision
    assert not solve_arb(RootedDigraph(2, 0, [(0, 1), (0, 1)]), 2).decision


def test_pruning_soundness(rng):
    """Classic kernels pruned at large vertices stay valid compact kernels."""
    checked = 0
    while checked < 200:
        k = 2
        width = 6 * k - 5
        base = random_digraph(rng, max_n=5, max_m=10)
        fans = [v for v in range(1, base.n) if rng.random() < 0.6]
        d = fan_digraph([(u, v) for u, v, _ in base.arcs()], base.n, fans, width)
        view = classify_vertices(d, k)
        # enumerate classic kernels: k-safe arborescences with 2k-2 vertices
        from rootedpack.fptcommon import branch_structure as _branch_structure
        ids = sorted(d.arc_ids)
        classics = []
        for combo in itertools.combinations(ids, 2 * k - 2):
            try:
                parent = parse_rooted_tree(d, set(combo))
            except StructureError:
                continue
            if len(parent) != 2 * k - 2:
                continue
            _, sizes = _branch_structure(parent, d.root)
            if all(s <= k - 1 for s in sizes.values()):
                classics.append((frozenset(combo), parent))
        if not classics:
            continue
        for sel_ids, parent in classics[:6]:
            if not d.is_root_connected_without(sel_ids):
                continue
            checked += 1
            # prune: drop arcs inside B^v - v for large non-root v
            drop = set()
            for aid in sel_ids:
                u, v = d.arc(aid)
                w = u
                while True:
                    if w != d.root and w in view.large:
                        drop.add(aid)
                        break
                    if w == d.root or w not in parent:
                        break
                    w = parent[w]
            pruned = d.selection(sel_ids - drop)
            att = validate_compact_kernel(d, k, pruned)
            assert att is not None, (list(d.arcs()), sel_ids, drop)
            assert d.is_root_connected_without(pruned.ids)


def test_report_determinism_and_counters(rng):
    d = random_digraph(rng, max_n=6, max_m=14)
    reports = {solve_arb(d, 2).to_json() for _ in range(5)}
    assert len(reports) == 1


def test_enumeration_stream_deterministic(rng):
    d = random_digraph(rng, max_n=6, max_m=14)
    first = [(k.selection.sorted_ids(), dict(k.attachment))
             for k in enumerate_compact_kernels(d, 2)]
    second = [(k.selection.sorted_ids(), dict(k.attachment))
              for k in enumerate_compact_kernels(d, 2)]
    assert first == second

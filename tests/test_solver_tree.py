import itertools
import random

import pytest
from hypothesis import given, strategies as st

from rootedpack.errors import ContractError, StructureError
from rootedpack.fptcommon import CompactStructure
from rootedpack.graphs import (
    ProblemInstance,
    RootedGraph,
    cap_parallel,
    duplicate_edges,
    hanging_component_sizes,
    parse_rooted_tree,
)
from rootedpack import matroid, solver_tree
from rootedpack.matroid import has_two_disjoint_spanning_trees, is_completable_pair
from rootedpack.oracles import oracle_tree, validate_witness
from rootedpack.solver_tree import (
    _CompletabilityOracle,
    candidate_pool_tree,
    classify_vertices_tree,
    complete_to_spanning_trees,
    enumerate_compact_certificates,
    grow_to_classic_certificate,
    solve_tree,
    validate_compact_certificate,
)

from conftest import connected_graph, graphs, planted_tree_with_hub, random_graph


def fan_graph(base_edges, n_base, fan_vertices, fan_width, mult=1):
    edges = list(base_edges)
    n = n_base
    for v in fan_vertices:
        for _ in range(fan_width):
            for _ in range(mult):
                edges.append((v, n))
            n += 1
    return RootedGraph(n, 0, edges)


def test_classify_tree_thresholds():
    g = fan_graph([(0, 1)], 2, [1], 8)  # degree 9 total with the root edge
    assert 1 in classify_vertices_tree(g, 2).large
    g2 = fan_graph([(0, 1)], 2, [1], 7)  # degree 8
    assert 1 in classify_vertices_tree(g2, 2).small
    g3 = RootedGraph(2, 0, [(0, 1)])
    assert classify_vertices_tree(g3, 1).large == frozenset({0, 1})


def test_candidate_pool_tree():
    g = RootedGraph(4, 0, [(0, 1), (1, 2), (2, 3)])
    assert candidate_pool_tree(g, 1) == frozenset({0})
    assert candidate_pool_tree(g, 2) == frozenset({0, 1})
    assert candidate_pool_tree(g, 3) == frozenset({0, 1, 2})
    g2 = fan_graph([(0, 1), (1, 2)], 3, [1], 9)
    pool = candidate_pool_tree(g2, 2)
    assert 1 in pool and 2 not in pool


def test_validate_certificate_examples():
    g = RootedGraph(3, 0, [(0, 1), (0, 2)])
    assert validate_compact_certificate(g, 2, g.selection([0, 1])) == {}
    assert validate_compact_certificate(g, 1, g.selection([])) == {}
    big = fan_graph([(0, 1)], 2, [1], 9)
    assert validate_compact_certificate(big, 2, big.selection([0])) is None


def test_validate_certificate_leaf_condition():
    # large vertex with degree 2 in the certificate is not a leaf
    g = fan_graph([(0, 1), (1, 2)], 3, [1], 9)
    assert validate_compact_certificate(g, 3, g.selection([0, 1])) is None
    # k=3: {r-a, r-b, a-c} with a and b large; b's branch could take the one
    # imaginary leaf, but large a is not a leaf
    g2 = fan_graph([(0, 1), (0, 2), (1, 3)], 4, [1, 2], 16)
    assert validate_compact_certificate(g2, 3, g2.selection([0, 1, 2])) is None


def test_validate_certificate_against_attachment_enumeration(rng):
    def brute(g, k, sel):
        from rootedpack.fptcommon import branch_structure as _branch_structure
        try:
            parent = parse_rooted_tree(g, sel.ids)
        except StructureError:
            return False
        if len(parent) > 2 * k - 2:
            return False
        view = classify_vertices_tree(g, k)
        verts = set(parent)
        degree = {}
        for eid in sel.ids:
            u, v = g.edge(eid)
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        anchors = sorted(verts & view.large)
        for a in anchors:
            if degree.get(a, 0) != 1:
                return False
        residual = 2 * k - 2 - len(verts)
        if residual and not anchors:
            return False
        combos = [c for c in itertools.product(range(residual + 1), repeat=len(anchors))
                  if sum(c) == residual] if anchors else [()]
        for combo in combos:
            parent2 = dict(parent)
            nxt = g.n
            for a, cnt in zip(anchors, combo):
                for _ in range(cnt):
                    parent2[nxt] = a
                    nxt += 1
            _, sizes = _branch_structure(parent2, g.root)
            if all(s <= k - 1 for s in sizes.values()):
                return True
        return False

    checked = 0
    while checked < 60:
        k = rng.choice((2, 3))
        base = random_graph(rng, max_n=5, max_m=8)
        fans = [v for v in range(1, base.n) if rng.random() < 0.5]
        g = fan_graph([(u, v) for u, v, _ in base.edges()], base.n, fans, 8 * k - 7)
        ids = sorted(g.edge_ids)
        sel = g.selection(rng.sample(ids, rng.randint(0, min(2 * k - 2, len(ids)))))
        got = validate_compact_certificate(g, k, sel) is not None
        assert got == brute(g, k, sel), (list(g.edges()), sorted(sel.ids), k)
        checked += 1


def test_enumerate_certificates_k1_only_empty(rng):
    g = random_graph(rng)
    certs = list(enumerate_compact_certificates(g, 1))
    assert len(certs) == 1 and certs[0].selection.ids == frozenset()


def test_enumerate_certificates_edge_count_is_vertex_count():
    g = RootedGraph(4, 0, [(0, 1), (0, 2), (1, 3), (2, 3)])
    for cert in enumerate_compact_certificates(g, 2):
        assert len(cert.selection.ids) == len(cert.vertices)


def test_enumerate_certificates_matches_definition(rng):
    for _ in range(20):
        g = random_graph(rng, max_n=5, max_m=8)
        k = rng.choice((1, 2))
        capped = cap_parallel(ProblemInstance(kind="tree", graph=g, k=k)).graph
        emitted = {c.selection.ids for c in enumerate_compact_certificates(capped, k)}
        ids = sorted(capped.edge_ids)
        valid = set()
        for size in range(0, 2 * k - 1):
            for combo in itertools.combinations(ids, size):
                if validate_compact_certificate(capped, k, capped.selection(combo)) is not None:
                    valid.add(frozenset(combo))
        assert emitted == valid, (list(capped.edges()), k)


def test_grow_certificate_passthrough():
    g = RootedGraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)])
    c1 = CompactStructure(frozenset({1, 2}), g.selection([0, 2]), {})
    c2 = CompactStructure(frozenset({1, 2}), g.selection([1, 3]), {})
    g1, g2 = grow_to_classic_certificate(g, 2, (c1, c2))
    assert g1.ids == {0, 2} and g2.ids == {1, 3}


def test_grow_certificate_contract():
    g = RootedGraph(3, 0, [(0, 1), (0, 2)])
    c = CompactStructure(frozenset({1, 2}), g.selection([0, 1]), {})
    with pytest.raises(ContractError):
        grow_to_classic_certificate(g, 2, (c, c))


def test_grow_certificate_contract_rejects_a_pair_that_is_not_completable():
    # T1 >= {0-2, 1-2} spans, so T2 >= {0-1} has no edge left to reach 2
    g = RootedGraph(3, 0, [(0, 1), (0, 1), (0, 2), (1, 2)])
    pair = (CompactStructure(frozenset({1, 2}), g.selection([2, 3]), {}),
            CompactStructure(frozenset({1}), g.selection([0]), {}))
    with pytest.raises(ContractError):
        grow_to_classic_certificate(g, 2, pair)
    oracle = _CompletabilityOracle(g)
    assert oracle.global_full and oracle.completable({0, 2}, {1, 3})
    with pytest.raises(ContractError):
        grow_to_classic_certificate(g, 2, pair, oracle)
    # a failed question leaves the slot as it was
    assert oracle.pair == ({0, 2}, {1, 3})


def test_grow_certificate_with_targets():
    # k=3: three root branches of size 1, the third large; the attachment
    # puts one imaginary leaf below it (branch limit k-1 = 2 permits it)
    k = 3
    width = 8 * k - 7
    base = [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3)]
    g = fan_graph(base, 4, [3], width, mult=2)
    sel1 = g.selection([0, 2, 4])
    att1 = validate_compact_certificate(g, k, sel1)
    assert att1 == {3: 1}
    sel2 = g.selection([1, 3, 5])
    att2 = validate_compact_certificate(g, k, sel2)
    c1 = CompactStructure(frozenset({1, 2, 3}), sel1, att1)
    c2 = CompactStructure(frozenset({1, 2, 3}), sel2, att2)
    g1, g2 = grow_to_classic_certificate(g, k, (c1, c2))
    for sel in (g1, g2):
        assert len(sel.ids) == 2 * k - 2
        sizes = hanging_component_sizes(sel)
        assert all((2 * k - 2) - s >= k for s in sizes.values())
    assert not (g1.ids & g2.ids)
    assert is_completable_pair(g, g1, g2)


def test_complete_identity_when_spanning():
    g = RootedGraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)])
    t1, t2 = complete_to_spanning_trees(g, 2, (g.selection([0, 2]), g.selection([1, 3])))
    assert t1.ids == {0, 2} and t2.ids == {1, 3}


def test_complete_k1_equals_union(rng):
    done = 0
    while done < 60:
        g = connected_graph(rng, max_n=7, extra=10)
        if not has_two_disjoint_spanning_trees(g):
            continue
        done += 1
        t1, t2 = complete_to_spanning_trees(g, 1, (g.selection([]), g.selection([])))
        inst = ProblemInstance(kind="tree", graph=g, k=1)
        verdict = validate_witness(
            inst, {"tree1": sorted(t1.ids), "tree2": sorted(t2.ids)})
        assert verdict.ok, verdict.failures()


def _logged_unions(monkeypatch, log):
    real = solver_tree.max_forest_pair

    def union(g, forced1, forced2, seeds=()):
        log.append(("union", frozenset(forced1), frozenset(forced2)))
        return real(g, forced1, forced2, seeds)

    monkeypatch.setattr(solver_tree, "max_forest_pair", union)


def test_doubled_chain_runs_one_union(monkeypatch):
    """Only the gate's union: it fills the oracle's slot for the empty pair
    that the pair search accepts at k = 1, and growth's contract check and
    completion read the slot."""
    log = []
    _logged_unions(monkeypatch, log)
    n = 300
    report = solve_tree(RootedGraph(n, 0, [(i, i + 1) for i in range(n - 1)] * 2), 1)
    assert report.decision and report.counters["growSteps"] == 0
    assert log == [("union", frozenset(), frozenset())]


def test_the_gate_slot_is_the_seeded_union_of_the_empty_pair(rng):
    """The slot the gate fills holds what `completable(∅, ∅)` would compute:
    the union of the empty pair under the oracle's seeds."""
    done = 0
    while done < 60:
        g = connected_graph(rng, max_n=12, extra=16)
        oracle = _CompletabilityOracle(g)
        if not oracle.global_full:
            assert oracle.pair is None
            continue
        done += 1
        assert oracle.pair == (frozenset(), frozenset())
        assert oracle.trees == matroid.max_forest_pair(g, (), (), oracle.seeds)


def test_growth_leaves_its_last_union_as_the_witness(monkeypatch):
    """No union runs after the last admitted growth step, and the witness is
    the union of the grown certificates under the oracle's seeds."""
    log = []
    _logged_unions(monkeypatch, log)
    real_admits, real_grow = _CompletabilityOracle.admits, solver_tree.grow_to_classic_certificate

    def admits(oracle, states):
        test = real_admits(oracle, states)

        def logged(side, copy):
            ok = test(side, copy)
            if ok:
                log.append(("admitted", side))
            return ok
        return logged

    def grow(g, k, pair, oracle=None):
        certs = real_grow(g, k, pair, oracle)
        log.append(("grown", oracle, certs))
        return certs

    monkeypatch.setattr(_CompletabilityOracle, "admits", admits)
    monkeypatch.setattr(solver_tree, "grow_to_classic_certificate", grow)
    rng = random.Random(21)
    tree2_last = 0
    for _ in range(6):
        del log[:]
        report = solve_tree(planted_tree_with_hub(rng, rng.randint(20, 60), 3), 3)
        steps = report.counters["growSteps"]
        assert report.decision and steps > 0
        kinds = [entry[0] for entry in log]
        assert kinds.count("admitted") == steps
        last = len(kinds) - kinds[::-1].index("admitted")
        assert "union" not in kinds[last:]
        tree2_last += log[last - 1][1] == 1
        _, oracle, (c1, c2) = log[-1]
        assert oracle.pair == (c1.ids, c2.ids)
        t1, t2 = matroid.max_forest_pair(oracle.g, c1.ids, c2.ids, oracle.seeds)
        assert report.witness == {"tree1": sorted(t1), "tree2": sorted(t2)}
    assert tree2_last  # growth of tree2 asks in (tree1, tree2) order too


def test_solve_simple_tree_is_no():
    g = RootedGraph(4, 0, [(0, 1), (1, 2), (1, 3)])
    report = solve_tree(g, 1)
    assert not report.decision
    assert report.stage == "global-union-gate"


def test_solve_doubled_star_k2():
    g = RootedGraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)])
    report = solve_tree(g, 2)
    assert report.decision
    assert report.witness == {"tree1": [0, 2], "tree2": [1, 3]}


def test_solve_tree_k1_collapse(rng):
    for _ in range(120):
        g = random_graph(rng)
        assert solve_tree(g, 1).decision == has_two_disjoint_spanning_trees(g)


def test_solve_tree_matches_oracle(rng):
    for _ in range(100):
        g = random_graph(rng, max_n=6)
        for k in (1, 2, 3):
            report = solve_tree(g, k)
            assert report.decision == oracle_tree(g, k).decision
            if report.decision:
                assert report.validation["ok"]


@given(graphs(max_n=5, max_m=10), st.integers(min_value=1, max_value=3))
def test_solve_matches_oracle_property(g, k):
    assert solve_tree(g, k).decision == oracle_tree(g, k).decision


def test_safety_margin_at_least_k_on_witnesses(rng):
    done = 0
    while done < 40:
        g = random_graph(rng, max_n=6)
        k = rng.choice((1, 2))
        report = solve_tree(g, k)
        if not report.decision:
            continue
        done += 1
        for tag in ("tree1", "tree2"):
            sizes = hanging_component_sizes(g.selection(report.witness[tag]))
            assert all((g.n - 1) - s >= k for s in sizes.values())


def test_sat_reduction_doubled_feeds_solver():
    from rootedpack.instancegen import CnfFormula, sat_reduction
    phi = CnfFormula(num_vars=2, clauses=((1,),))
    out = sat_reduction(phi, q=3)
    doubled = duplicate_edges(out.graph, 2)
    report = solve_tree(doubled, out.k)
    assert report.decision
    assert report.validation["ok"]


def test_pruning_soundness_tree(rng):
    """Classic certificates pruned below large vertices stay valid compact
    certificates, and prunes of completable pairs stay completable."""
    checked = 0
    while checked < 200:
        k = 2
        width = 8 * k - 7
        base = random_graph(rng, max_n=5, max_m=8)
        fans = [v for v in range(1, base.n) if rng.random() < 0.6]
        g = fan_graph([(u, v) for u, v, _ in base.edges()], base.n, fans, width)
        view = classify_vertices_tree(g, k)
        ids = sorted(g.edge_ids)
        for combo in itertools.combinations(ids, 2 * k - 2):
            try:
                parent = parse_rooted_tree(g, set(combo))
            except StructureError:
                continue
            if len(parent) != 2 * k - 2:
                continue
            sizes = hanging_component_sizes(g.selection(combo))
            if not all((2 * k - 2) - s >= k for s in sizes.values()):
                continue
            # prune: delete the hanging component below every large vertex
            drop_verts = set()
            for v in parent:
                w = v
                while w in parent:
                    p = parent[w]
                    if p != g.root and p in view.large:
                        drop_verts.add(v)
                        break
                    w = p
            keep = {eid for eid in combo
                    if not ({gv for gv in g.edge(eid)} & drop_verts)}
            att = validate_compact_certificate(g, k, g.selection(keep))
            assert att is not None, (list(g.edges()), combo, keep)
            checked += 1
            if checked >= 200:
                return

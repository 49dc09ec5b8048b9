"""End-to-end pipeline exercises that tiny oracle-scale instances miss:
genuine large vertices forcing attachment growth, and tight minimum-density
instances stressing the greedy completions at sizes no brute force reaches."""

import random

import rootedpack as rp
from rootedpack.graphs import RootedDigraph, RootedGraph


def hub_digraph(fan: int, mult: int = 2) -> RootedDigraph:
    """Root over two hubs whose fans are reachable only through them."""
    arcs = [(0, 1), (0, 1), (0, 2), (0, 2)]
    w = 3
    for hub in (1, 2):
        for _ in range(fan):
            arcs.extend([(hub, w)] * mult)
            w += 1
    return RootedDigraph(3 + 2 * fan, 0, arcs)


def hub_graph(fan: int, mult: int = 2) -> RootedGraph:
    edges = [(0, 1), (0, 1), (0, 2), (0, 2)]
    w = 3
    for hub in (1, 2):
        for _ in range(fan):
            edges.extend([(hub, w)] * mult)
            w += 1
    return RootedGraph(3 + 2 * fan, 0, edges)


def test_arb_pipeline_with_forced_growth():
    k = 3
    d = hub_digraph(fan=14)  # hubs exceed the 6k-5 = 13 threshold
    assert sorted(rp.classify_vertices(d, k).large) == [1, 2]
    assert rp.candidate_pool(d, k) == frozenset({0, 1, 2})
    report = rp.solve_arb(d, k)
    assert report.decision and report.stage == "completed"
    assert report.counters["growSteps"] == 4  # one imaginary leaf per branch
    assert report.validation["ok"]


def test_flow_pipeline_with_forced_growth():
    k = 2
    d = hub_digraph(fan=82)  # hubs exceed the 20k^2+1 = 81 threshold
    assert sorted(rp.classify_vertices_flow(d, k).large) == [1, 2]
    assert rp.candidate_pool_flow(d, k) == frozenset({0, 1, 2})
    report = rp.solve_flow(d, k)
    assert report.decision and report.stage == "completed"
    assert report.counters["growSteps"] == 2
    assert report.validation["ok"]
    caps = d.n - k
    for tag in ("flow1", "flow2"):
        assert all(val <= caps for _, val in report.witness[tag])


def test_tree_pipeline_with_forced_growth():
    k = 3
    g = hub_graph(fan=18)  # hubs exceed the 8k-7 = 17 threshold
    assert sorted(rp.classify_vertices_tree(g, k).large) == [1, 2]
    assert rp.candidate_pool_tree(g, k) == frozenset({0, 1, 2})
    report = rp.solve_tree(g, k)
    assert report.decision and report.stage == "completed"
    assert report.counters["growSteps"] == 4
    assert report.validation["ok"]


def bottleneck_digraph(n: int) -> RootedDigraph:
    """Root with a single out-neighbor hub feeding everything else."""
    arcs = [(0, 1), (0, 1)]
    for v in range(2, n):
        arcs.extend([(1, v), (1, v)])
    return RootedDigraph(n, 0, arcs)


def test_envelope_scale_no_instances():
    """Hand-derivable NO answers at n = 300: the single hub under the root
    makes every spanning structure overweight below it."""
    n = 300
    d = bottleneck_digraph(n)
    report = rp.solve_arb(d, 3)
    assert not report.decision  # B^hub always holds n-1 vertices: margin 1
    assert report.stage == "pair-search"
    assert not rp.solve_flow(d, 2).decision  # one copy per side carries n-1 > n-2

    edges = [(0, 1), (0, 1)]
    for v in range(2, n):
        edges.extend([(1, v), (1, v)])
    g = RootedGraph(n, 0, edges)
    report = rp.solve_tree(g, 3)
    assert not report.decision  # hanging component below the hub: margin 1
    assert report.stage == "pair-search"


def test_completion_on_tight_doubled_arborescences():
    """Minimum 2-root-connected density: every parallel class essential."""
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 40)
        arcs = []
        for v in range(1, n):
            p = rng.randrange(v)
            arcs.extend([(p, v), (p, v)])
        d = RootedDigraph(n, 0, arcs)
        report = rp.solve_arb(d, 1)
        assert report.decision and report.stage == "completed"
        assert rp.solve_flow(d, 1).decision


def test_completion_on_asymmetric_tight_unions():
    """Union of two distinct random arborescences: witnesses interleave."""
    for seed in range(40):
        rng = random.Random(100 + seed)
        n = rng.randint(2, 40)
        arcs = []
        for _ in range(2):
            order = list(range(1, n))
            rng.shuffle(order)
            placed = [0]
            for v in order:
                arcs.append((rng.choice(placed), v))
                placed.append(v)
        d = RootedDigraph(n, 0, arcs)
        report = rp.solve_arb(d, 1)
        assert report.decision, seed
        assert rp.solve_flow(d, 1).decision, seed


def test_solver_decision_matches_public_enumeration_midscale():
    """The shape-level pair search agrees with a direct scan over the
    copy-distinct public enumerations, on instances with real largeness."""
    import itertools

    from rootedpack.connectivity import is_extendable_pair, is_k_root_connected
    from rootedpack.graphs import ProblemInstance, cap_parallel
    from rootedpack.matroid import is_completable_pair

    rng = random.Random(424242)
    k = 2
    arb_checked = tree_checked = 0
    while arb_checked < 40 or tree_checked < 40:
        nb = rng.randint(2, 5)
        pairs = []
        for _ in range(rng.randint(1, 3 * nb)):
            u, v = rng.randrange(nb), rng.randrange(1, nb)
            if u != v:
                pairs.append((u, v))
        n = nb
        fans = []
        for hub in range(nb):
            if rng.random() < 0.5:
                for _ in range(rng.randint(5, 9)):
                    fans.append((hub, n))
                    if rng.random() < 0.6:
                        fans.append((hub, n))
                    n += 1
        if arb_checked < 40:
            d0 = RootedDigraph(n, 0, pairs + fans)
            d = cap_parallel(ProblemInstance(kind="arb", graph=d0, k=k)).graph
            if d.n - 1 >= 2 * k - 2:
                arb_checked += 1
                report = rp.solve_arb(d0, k)
                if not is_k_root_connected(d, 2)[0]:
                    want = False
                else:
                    kernels = list(rp.enumerate_compact_kernels(d, k))
                    want = any(
                        not (kernels[a].arcs.ids & kernels[b].arcs.ids)
                        and is_extendable_pair(d, kernels[a].arcs, kernels[b].arcs)
                        for a, b in itertools.combinations_with_replacement(
                            range(len(kernels)), 2))
                assert report.decision == want
        if tree_checked < 40:
            g0 = RootedGraph(n, 0, [(u, v) for u, v in pairs] + fans)
            g = cap_parallel(ProblemInstance(kind="tree", graph=g0, k=k)).graph
            if g.n - 1 >= 2 * k - 2 and g.edge_count <= 40:
                tree_checked += 1
                report = rp.solve_tree(g0, k)
                certs = list(rp.enumerate_compact_certificates(g, k))
                want = any(
                    not (certs[a].edges.ids & certs[b].edges.ids)
                    and is_completable_pair(g, certs[a].edges, certs[b].edges)
                    for a, b in itertools.combinations_with_replacement(
                        range(len(certs)), 2))
                assert report.decision == want


def test_flow_decision_matches_public_enumeration_midscale():
    import itertools

    from rootedpack.connectivity import is_extendable_pair, is_k_root_connected
    from rootedpack.graphs import ProblemInstance, cap_parallel

    rng = random.Random(52525)
    k = 1
    checked = 0
    while checked < 40:
        n = rng.randint(2, 8)
        arcs = []
        for _ in range(rng.randint(1, 3 * n)):
            u, v = rng.randrange(n), rng.randrange(1, n)
            if u != v:
                arcs.append((u, v))
        d0 = RootedDigraph(n, 0, arcs)
        d = cap_parallel(ProblemInstance(kind="flow", graph=d0, k=k)).graph
        if d.n - 1 < 2 * k - 1:
            continue
        checked += 1
        report = rp.solve_flow(d0, k)
        if not is_k_root_connected(d, 2)[0]:
            want = False
        else:
            cores = list(rp.enumerate_compact_cores(d, k))
            want = any(
                not (cores[a].arcs.ids & cores[b].arcs.ids)
                and is_extendable_pair(d, cores[a].arcs, cores[b].arcs)
                for a, b in itertools.combinations_with_replacement(
                    range(len(cores)), 2))
        assert report.decision == want


def test_tree_completion_on_tight_unions():
    for seed in range(40):
        rng = random.Random(200 + seed)
        n = rng.randint(2, 40)
        edges = []
        for _ in range(2):
            order = list(range(1, n))
            rng.shuffle(order)
            placed = [0]
            for v in order:
                edges.append((rng.choice(placed), v))
                placed.append(v)
        g = RootedGraph(n, 0, edges)
        report = rp.solve_tree(g, 1)
        assert report.decision, seed
        assert report.validation["ok"]

import itertools
import random

import pytest

from rootedpack.connectivity import is_extendable_pair, is_k_root_connected
from rootedpack.errors import ContractError
from rootedpack.flows import branching_flow_feasible, validate_branching_flow
from rootedpack.fptcommon import CompactStructure
from rootedpack.graphs import ProblemInstance, RootedDigraph, cap_parallel
from rootedpack.oracles import oracle_flow
from rootedpack.solver_flow import (
    _bridge_cuts,
    _new_head_cut,
    _routed_completion_flow,
    candidate_pool_flow,
    classify_vertices_flow,
    complete_to_spanning_flow,
    enumerate_compact_cores,
    grow_to_classic_core,
    solve_flow,
    validate_compact_core,
)

from conftest import random_digraph, spanning_digraph
from test_shapes import aggregated_feasibility_reference
from test_solver_arb import fan_digraph


def test_classify_flow_thresholds():
    d = fan_digraph([(0, 1)], 2, [1], 21)
    assert 1 in classify_vertices_flow(d, 1).large
    d2 = fan_digraph([(0, 1)], 2, [1], 20)
    assert 1 in classify_vertices_flow(d2, 1).small
    assert classify_vertices_flow(d2, 2).threshold == 81


def test_candidate_pool_flow():
    d = RootedDigraph(5, 0, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert candidate_pool_flow(d, 1) == frozenset({0, 1})
    # all-small: radius 2k-1 ball
    assert candidate_pool_flow(d, 2) == frozenset({0, 1, 2, 3})
    # large neighbor of r is included but not expanded
    d2 = fan_digraph([(0, 1), (1, 2)], 3, [1], 21)
    pool = candidate_pool_flow(d2, 1)
    assert 1 in pool and 2 not in pool


def test_validate_compact_core_examples():
    d = RootedDigraph(2, 0, [(0, 1)])
    assert validate_compact_core(d, 1, d.selection([0])) == {}
    # k=2: path r->a->b->c needs 3 units through r->a, caps k=2 -> invalid
    path = RootedDigraph(4, 0, [(0, 1), (1, 2), (2, 3)])
    assert validate_compact_core(path, 2, path.selection([0, 1, 2])) is None
    # k=2: {r->a, r->b, a->c} feasible with caps 2
    d3 = RootedDigraph(4, 0, [(0, 1), (0, 2), (1, 3)])
    assert validate_compact_core(d3, 2, d3.selection([0, 1, 2])) == {}


def test_validate_compact_core_sink_condition():
    d = fan_digraph([(0, 1), (1, 2), (0, 2)], 3, [1], 21)
    # vertex 1 is large and has an out-arc inside the selection
    assert validate_compact_core(d, 1, d.selection([0, 1])) is None


def test_validate_compact_core_against_attachment_enumeration(rng):
    """Oracle: enumerate leaf distributions, build Y explicitly, run the
    branching-flow recognizer on it."""
    def brute(d, k, sel):
        verts = sorted(sel.covered_vertices() - {d.root})
        if len(verts) > 2 * k - 1:
            return False
        view = classify_vertices_flow(d, k)
        for aid in sel.ids:
            u, _ = d.arc(aid)
            if u != d.root and u in view.large:
                return False
        anchors = sorted(set(verts) & view.large)
        residual = (2 * k - 1) - len(verts)
        if residual and not anchors:
            return False
        distributions = (
            [()] if not anchors else
            [c for c in itertools.product(range(residual + 1), repeat=len(anchors))
             if sum(c) == residual]
        )
        if residual == 0:
            distributions = [tuple(0 for _ in anchors)]
        for combo in distributions:
            # standalone Y: relabel core vertices, attach imaginary leaves
            label = {d.root: 0}
            for v in verts:
                label[v] = len(label)
            arcs = [(label[d.arc(a)[0]], label[d.arc(a)[1]]) for a in sorted(sel.ids)]
            nxt = len(label)
            for anchor, cnt in zip(anchors, combo):
                for _ in range(cnt):
                    arcs.append((label[anchor], nxt))
                    nxt += 1
            y = RootedDigraph(2 * k, 0, arcs) if nxt == 2 * k else None
            if y is None:
                continue
            if branching_flow_feasible(y, y.n - k) is not None:
                return True
        return False

    checked = 0
    while checked < 60:
        k = rng.choice((1, 2))
        base = random_digraph(rng, max_n=4, max_m=8)
        fans = [v for v in range(1, base.n) if rng.random() < 0.5]
        d = fan_digraph([(u, v) for u, v, _ in base.arcs()], base.n,
                        fans, 20 * k * k + 1)
        ids = sorted(d.arc_ids)
        sel = d.selection(rng.sample(ids, rng.randint(0, min(6, len(ids)))))
        got = validate_compact_core(d, k, sel) is not None
        want = brute(d, k, sel)
        assert got == want, (list(d.arcs()), sorted(sel.ids), k)
        checked += 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_full_size_cores_decided_by_cut_condition_match_max_flow(k):
    """At |V'| = 2k-1 the residual is 0, and `_core_shapes` decides by the
    min-cut condition without a max-flow: the vector passes iff the root
    reaches V' and it has no bridge cut of more than k vertices
    (`_bridge_cuts(..., k + 1) == []`).  That must agree with the aggregated
    network solved by max-flow.  A drawn count vector is a random tree over
    the root and V' with each tree class dropped at rate 0.1 (so some
    supports are not root-connected), plus up to 2k-1 random classes; every
    class has 1 or 2 copies.  The large vertices are drawn too: with nothing
    left to attach they change nothing."""
    rng = random.Random(8000 + k)
    size = 2 * k - 1
    tally = {"feasible": 0, "tight": 0, "unreached": 0, "single-copy cut": 0}
    for _ in range(1000):
        n = size + 1 + rng.randint(0, 3)
        order = rng.sample(range(1, n), size)
        verts = frozenset(order)
        counts = {}
        for i, v in enumerate(order):
            if rng.random() < 0.9:
                counts[(rng.choice([0, *order[:i]]), v)] = rng.choice((1, 1, 2))
        for _ in range(rng.randint(0, size)):
            u, v = rng.choice([0, *order]), rng.choice(order)
            if u != v:
                counts[(u, v)] = rng.choice((1, 1, 2))
        arcs = [cls for cls, m in counts.items() for _ in range(m)]
        dig = RootedDigraph(n, 0, arcs)
        large = frozenset(v for v in verts if rng.random() < 0.2)
        want = aggregated_feasibility_reference(dig, counts, verts, large, k)
        assert (_bridge_cuts(0, counts, verts, k + 1) == []) == (want is not None), (k, counts)
        if want is not None:
            tally["feasible"] += 1
            # some single copy cuts off exactly k vertices: the bound is tight
            cut_off = [sum(1 for v in verts if not dig.reach_mask([aid]) >> v & 1)
                       for aid, cls in enumerate(arcs) if counts[cls] == 1]
            tally["tight"] += k in cut_off
        elif any(not dig.reach_mask() >> v & 1 for v in verts):
            tally["unreached"] += 1
        else:
            tally["single-copy cut"] += 1
    assert tally["feasible"] > 300 and tally["unreached"] > 50, tally
    if k > 1:
        assert tally["tight"] > 50 and tally["single-copy cut"] > 100, tally


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_new_head_children_read_off_the_bridge_cuts_match_max_flow(k):
    """Rule 3 of `_core_shapes`: a root-connected vector on 2k-2 vertices
    plus one copy of (u, h) into a new head h meets the cut condition iff
    none of the vector's bridge cuts of at least k vertices has more than k
    or contains u.  Each drawn vector is a random tree over the root and V'
    plus up to 2k-2 random classes, each class of 1 or 2 copies, and every
    tail u in the root and V' is tried; the verdict must match the
    aggregated network solved by max-flow, and a refused child's set must
    be violated."""
    rng = random.Random(9000 + k)
    size = 2 * k - 2
    tally = {"feasible": 0, "larger cut": 0, "tail in cut": 0}
    for _ in range(300):
        n = size + 2 + rng.randint(0, 2)
        order = rng.sample(range(1, n), size + 1)
        head, order = order[-1], order[:-1]
        verts = frozenset(order)
        counts = {}
        for i, v in enumerate(order):
            counts[(rng.choice([0, *order[:i]]), v)] = rng.choice((1, 1, 2))
        for _ in range(rng.randint(0, size)):
            u, v = rng.choice([0, *order]), rng.choice(order)
            if u != v:
                counts[(u, v)] = rng.choice((1, 1, 2))
        cuts = _bridge_cuts(0, counts, verts, k)
        assert cuts is not None and all(len(cut) >= k for cut in cuts)
        for tail in (0, *order):
            child = {**counts, (tail, head): 1}
            dig = RootedDigraph(n, 0, [cls for cls, m in child.items() for _ in range(m)])
            want = aggregated_feasibility_reference(dig, child, verts | {head}, frozenset(), k)
            cut = _new_head_cut(cuts, tail, head, k)
            assert (cut is None) == (want is not None), (k, counts, tail)
            if cut is None:
                tally["feasible"] += 1
                continue
            entering = sum(m for (u, v), m in child.items() if u not in cut and v in cut)
            assert k * entering < len(cut)
            tally["tail in cut" if head in cut else "larger cut"] += 1
    assert tally["feasible"] >= 300, tally
    if k > 1:  # a cut of more than k of the 2k-2 vertices needs k >= 3
        assert tally["tail in cut"] > 50 and (k < 3 or tally["larger cut"] > 20), tally


def test_enumerate_cores_k1_per_copy():
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (0, 2)])
    cores = list(enumerate_compact_cores(d, 1))
    singles = [c.selection.sorted_ids() for c in cores if len(c.selection.ids) == 1]
    assert (0,) in singles and (1,) in singles and (2,) in singles
    # no core carries three parallel copies
    for c in cores:
        counts = {}
        for aid in c.selection.ids:
            cls = d.arc(aid)
            counts[cls] = counts.get(cls, 0) + 1
        assert all(v <= 2 for v in counts.values())


def test_enumerate_cores_matches_definition(rng):
    """All arc subsets with at most two copies per class, validated against
    the definition, equal the emitted stream exactly."""
    done = 0
    while done < 25:
        d = random_digraph(rng, max_n=4, max_m=7)
        k = rng.choice((1, 2))
        capped = cap_parallel(ProblemInstance(kind="flow", graph=d, k=k)).graph
        ids = sorted(capped.arc_ids)
        if len(ids) > 8:
            continue
        done += 1
        emitted = {c.selection.ids for c in enumerate_compact_cores(capped, k)}
        valid = set()
        for size in range(0, len(ids) + 1):
            for combo in itertools.combinations(ids, size):
                counts = {}
                ok = True
                for aid in combo:
                    cls = capped.arc(aid)
                    counts[cls] = counts.get(cls, 0) + 1
                    if counts[cls] > 2:
                        ok = False
                if ok and validate_compact_core(capped, k, capped.selection(combo)) is not None:
                    valid.add(frozenset(combo))
        assert emitted == valid, (list(capped.arcs()), k)


def test_grow_core_passthrough():
    d = RootedDigraph(2, 0, [(0, 1), (0, 1)])
    c1 = CompactStructure(frozenset({1}), d.selection([0]), {})
    c2 = CompactStructure(frozenset({1}), d.selection([1]), {})
    g1, g2 = grow_to_classic_core(d, 1, (c1, c2))
    assert g1.ids == {0} and g2.ids == {1}


def test_grow_core_contract_checks():
    d = RootedDigraph(2, 0, [(0, 1), (0, 1)])
    c1 = CompactStructure(frozenset({1}), d.selection([0]), {})
    with pytest.raises(ContractError):
        grow_to_classic_core(d, 1, (c1, c1))


def test_grow_core_requires_an_extendable_disjoint_pair():
    # removing the one arc into 1 disconnects D
    d = RootedDigraph(3, 0, [(0, 1), (0, 2), (0, 2)])
    pair = (CompactStructure(frozenset({1}), d.selection([0]), {}),
            CompactStructure(frozenset({2}), d.selection([1]), {}))
    with pytest.raises(ContractError):
        grow_to_classic_core(d, 1, pair)


def test_grow_core_with_targets():
    # k=2: core {r->a, r->b, a large} must grow one leaf below a
    k = 2
    width = 20 * k * k + 1
    base = [(0, 1), (0, 2), (0, 1), (0, 2), (0, 3), (0, 3)]
    d = fan_digraph(base, 4, [1], width, mult=2)
    sel1 = d.selection([0, 1])
    att1 = validate_compact_core(d, k, sel1)
    assert att1 == {1: 1}
    sel2 = d.selection([2, 3])
    att2 = validate_compact_core(d, k, sel2)
    c1 = CompactStructure(frozenset({1, 2}), sel1, att1)
    c2 = CompactStructure(frozenset({1, 2}), sel2, att2)
    g1, g2 = grow_to_classic_core(d, k, (c1, c2))
    for g in (g1, g2):
        verts = g.covered_vertices(with_root=True)
        assert len(verts) == 2 * k
        assert branching_flow_feasible(g, k, vertex_set=verts) is not None
    assert not (g1.ids & g2.ids)
    assert is_extendable_pair(d, g1, g2)


def test_complete_flow_identity_when_spanning():
    d = RootedDigraph(2, 0, [(0, 1), (0, 1)])
    (s1, f1), (s2, f2) = complete_to_spanning_flow(
        d, 1, (d.selection([0]), d.selection([1])))
    assert s1.ids == {0} and s2.ids == {1}
    assert f1.values[0] == 1


def test_complete_flow_caps_respected(rng):
    done = 0
    while done < 40:
        d = random_digraph(rng, max_n=6, max_m=18)
        if not is_k_root_connected(d, 2)[0] or d.n < 3:
            continue
        report = solve_flow(d, 2)
        if not report.decision or report.stage != "completed":
            continue
        done += 1
        caps = d.n - 2
        for tag in ("flow1", "flow2"):
            assert all(val <= caps for _, val in report.witness[tag])


def test_completion_from_empty_cores_gives_spanning_flow_branchings(rng):
    """Completing the empty pair at k = 1 on 2-root-connected digraphs: the
    empty core's flow is the empty flow on {root}, whose decomposition has
    no paths, and every vertex then routes its unit along its attachment
    chain alone."""
    done = 0
    while done < 120:
        d = spanning_digraph(rng, rng.randint(2, 9), rng.randint(2, 16))
        if not is_k_root_connected(d, 2)[0]:
            continue
        done += 1
        empty = d.selection([])
        (s1, f1), (s2, f2) = complete_to_spanning_flow(d, 1, (empty, empty))
        assert not (s1.ids & s2.ids)
        everything = frozenset(range(d.n))
        for sel, flow in ((s1, f1), (s2, f2)):
            assert len(sel.ids) == d.n - 1
            assert sel.covered_vertices(with_root=True) == everything
            assert validate_branching_flow(sel, flow, vertex_set=everything)


def test_routed_completion_flow_reads_each_new_arc_once():
    """On a doubled chain at k = 1, the core one copy of (0, 1) and every
    later vertex hung from the one before it: the routed flow puts on each
    arc the vertices at or below its head, and reads each arc of the
    completion once, so its work grows linearly in n (walking every new
    vertex's whole attachment chain read about n^2/2 arcs)."""
    extra = set()
    for n in (50, 100, 200, 400):
        dig = RootedDigraph(n, 0, [(i, i + 1) for i in range(n - 1) for _ in range(2)])
        reads = []
        arc = dig.arc

        def counted(aid, arc=arc, reads=reads):
            reads.append(aid)
            return arc(aid)

        dig.arc = counted
        flow = _routed_completion_flow(dig, 1, frozenset({0}), frozenset(range(0, 2 * n - 2, 2)))
        assert flow.values == {2 * i: n - 1 - i for i in range(n - 1)}
        extra.add(len(reads) - (n - 2))  # one read per new arc, plus the core's
    assert len(extra) == 1 and extra.pop() < 10


def test_solve_flow_gate():
    # |V| = 3 >= 2k-1 so the pipeline reaches the connectivity gate
    d = RootedDigraph(4, 0, [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3)])
    report = solve_flow(d, 2)
    assert not report.decision
    assert report.stage == "connectivity-gate"
    assert report.cut_witness == {"cut": [3], "in_degree": 1}


def test_solve_flow_k1_collapse(rng):
    for _ in range(120):
        d = random_digraph(rng)
        assert solve_flow(d, 1).decision == is_k_root_connected(d, 2)[0]


def test_arborescence_yes_implies_flow_yes(rng):
    from rootedpack.solver_arb import solve_arb
    for _ in range(60):
        d = random_digraph(rng, max_n=5)
        for k in (1, 2):
            if solve_arb(d, k).decision:
                assert solve_flow(d, k).decision


def test_solve_flow_matches_oracle(rng):
    for _ in range(80):
        d = random_digraph(rng, max_n=5, max_m=12, max_mult=4)
        for k in (1, 2):
            report = solve_flow(d, k)
            assert report.decision == oracle_flow(d, k).decision
            if report.decision:
                assert report.validation["ok"]


def test_witness_sides_minimize_triple_free(rng):
    """Minimizing either side of a YES witness leaves <= 2 copies per pair."""
    from rootedpack.flows import branching_flow_feasible as bff
    done = 0
    while done < 30:
        d = random_digraph(rng, max_n=5, max_m=12, max_mult=4)
        k = 1
        if d.n - 1 < 2 * k - 1:
            continue
        report = solve_flow(d, k)
        if not report.decision:
            continue
        done += 1
        for tag in ("tree1", "tree2"):
            ids = set(report.witness[tag])
            caps = d.n - k
            keep = set(ids)
            for aid in sorted(ids):
                keep.discard(aid)
                if bff(d.selection(keep), caps,
                       vertex_set=frozenset(range(d.n))) is None:
                    keep.add(aid)
            counts = {}
            for aid in keep:
                cls = d.arc(aid)
                counts[cls] = counts.get(cls, 0) + 1
            assert all(v <= 2 for v in counts.values())


def test_pruning_soundness_flow(rng):
    """Classic cores pruned at large-vertex out-arcs and restricted to the
    root-connected part stay valid compact cores."""
    checked = 0
    while checked < 200:
        k = rng.choice((1, 2))
        width = 20 * k * k + 1
        base = random_digraph(rng, max_n=4, max_m=9)
        fans = [v for v in range(1, base.n) if rng.random() < 0.6]
        d = fan_digraph([(u, v) for u, v, _ in base.arcs()], base.n, fans, width)
        view = classify_vertices_flow(d, k)
        core_zone = [aid for aid in d.arc_ids
                     if d.arc(aid)[0] < base.n and d.arc(aid)[1] < base.n]
        for size in range(1, min(len(core_zone), 2 * k + 2) + 1):
            for combo in itertools.combinations(core_zone, size):
                sel = d.selection(combo)
                verts = sel.covered_vertices() - {0}
                if len(verts) != 2 * k - 1:
                    continue
                flow = branching_flow_feasible(sel, k, vertex_set=verts | {0})
                if flow is None:
                    continue
                # prune: drop arcs with large non-root tails, keep reachable part
                keep = {aid for aid in combo
                        if d.arc(aid)[0] == 0 or d.arc(aid)[0] not in view.large}
                reach = {0}
                changed = True
                while changed:
                    changed = False
                    for aid in keep:
                        u, v = d.arc(aid)
                        if u in reach and v not in reach:
                            reach.add(v)
                            changed = True
                keep = {aid for aid in keep
                        if d.arc(aid)[0] in reach and d.arc(aid)[1] in reach}
                att = validate_compact_core(d, k, d.selection(keep))
                assert att is not None, (list(d.arcs()), combo, keep, k)
                checked += 1
                if checked >= 200:
                    return

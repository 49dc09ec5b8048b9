"""Differential tests at scale (n = 20..200) for the spanning-arborescence
rule behind the k=2 gate, `critical_arcs` and the directed completion.

The references are the per-candidate rechecks the rule replaced, kept here
verbatim in behaviour: one reach-mask search per single-copy class for the
gate and `critical_arcs`, and a completion that rescans every covered tail
and searches once per candidate on every step.
"""

import random

import pytest

from rootedpack import connectivity
from rootedpack.connectivity import (
    CutWitness,
    ResidualReach,
    critical_arcs,
    is_k_root_connected,
)
from rootedpack.errors import ContractError
from rootedpack.fptcommon import DirectedState, complete_directed_pair, pair_states
from rootedpack.graphs import RootedDigraph, reach

from conftest import spanning_digraph
from test_growth import _arb, _pairs


def gate_reference(d: RootedDigraph):
    if d.n == 1:
        return True, None
    if not d.is_root_connected_without():
        bad = d.unreachable_set()
        return False, CutWitness(bad, d.in_degree_of_set(bad))
    for (u, v), ids in sorted(d.parallel_classes().items()):
        if len(ids) == 1 and not d.is_root_connected_without((ids[0],)):
            bad = d.unreachable_set((ids[0],))
            return False, CutWitness(bad, d.in_degree_of_set(bad))
    return True, None


def critical_reference(d: RootedDigraph, removed, tails):
    removed = frozenset(removed)
    if not d.is_root_connected_without(removed):
        raise ContractError("digraph minus removed arcs is not root-connected")
    result = set()
    for (u, v), ids in sorted(d.parallel_classes().items()):
        if tails is not None and u not in tails:
            continue
        present = [aid for aid in ids if aid not in removed]
        if len(present) == 1 and not d.is_root_connected_without(removed | {present[0]}):
            result.add(present[0])
    return frozenset(result)


def complete_reference(d: RootedDigraph, states, counters) -> bool:
    full = set(range(d.n))
    blocked = [False, False]
    while True:
        pending = [i for i in (0, 1) if states[i].covered != full]
        if not pending:
            return True
        candidates = [i for i in pending if not blocked[i]]
        if not candidates:
            return False
        side = min(candidates, key=lambda i: (len(states[i].covered), i))
        state, other = states[side], states[1 - side]
        chosen = None
        for tail in sorted(state.covered):
            for head, ids in d.out_classes(tail):
                if head in state.covered:
                    continue
                copy = next((aid for aid in ids if aid not in other.ids), None)
                if copy is None:
                    continue
                if not d.is_root_connected_without(state.ids | {copy}):
                    continue
                chosen = (head, copy)
                break
            if chosen:
                break
        if chosen is None:
            blocked[side] = True
            continue
        head, copy = chosen
        state.ids.add(copy)
        state.covered.add(head)
        blocked = [False, False]
        counters["completionSteps"] = counters.get("completionSteps", 0) + 1


def scale_digraphs(seed: int, count: int):
    """Seeded digraphs with n = 20..200, from sparse (many critical arcs) to
    up to about twelve arcs per vertex."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(20, 200)
        yield rng, spanning_digraph(rng, n, extra=rng.randint(0, 8 * n))


def test_gate_matches_per_class_recheck_at_scale():
    outcomes = set()
    for _, d in scale_digraphs(31, 40):
        got = is_k_root_connected(d, 2)
        assert got == gate_reference(d)
        outcomes.add(got[0])
    assert outcomes == {True, False}


def test_critical_arcs_match_per_arc_recheck_at_scale():
    rejected = found = 0
    for rng, d in scale_digraphs(32, 25):
        ids = sorted(d.arc_ids)
        for _ in range(4):
            removed = set(rng.sample(ids, rng.randint(0, min(len(ids), d.n // 4))))
            tails = None if rng.random() < 0.5 else set(rng.sample(range(d.n), d.n // 2))
            try:
                want = critical_reference(d, removed, tails)
            except ContractError:
                rejected += 1
                with pytest.raises(ContractError):
                    critical_arcs(d, removed, tails)
                continue
            got = critical_arcs(d, removed, tails)
            assert got == want
            found += len(got)
    assert rejected and found


def test_residual_reach_matches_recheck_along_removals(monkeypatch):
    # every copy is judged after each removal, so a stale arborescence
    # (one not rebuilt after its arc went) or stale residual masks would
    # show; half of the reaches start from a removal set, and each sequence
    # goes on past the last admissible removal, where nothing is admitted
    searches = []
    monkeypatch.setattr(connectivity, "reach", lambda *args: searches.append(args[2])
                        or reach(*args))
    rng = random.Random(34)
    rebuilt = started = disconnected = 0
    for _ in range(15):
        n = rng.randint(12, 30)
        d = spanning_digraph(rng, n, extra=rng.randint(n, 2 * n))
        removed = set()
        if rng.random() < 0.5:
            for aid in rng.sample(sorted(d.arc_ids), n // 2):
                if d.is_root_connected_without(removed | {aid}):
                    removed.add(aid)
            started += bool(removed)
        reach_ = ResidualReach(d, removed)
        tail = 3
        while tail:
            admitted = []
            for aid in d.arc_ids:
                want = d.is_root_connected_without(removed | {aid})
                assert reach_.keeps_root_connected(aid) == want
                if want and aid not in removed:
                    admitted.append(aid)
            if not admitted:
                tail -= 1
                admitted = sorted(set(d.arc_ids) - removed)
                disconnected += not reach_.spanning
                if not admitted:
                    break
            aid = rng.choice(admitted)
            before = reach_.parent
            reach_.remove(aid)
            removed.add(aid)
            rebuilt += reach_.parent is not before
    # each recheck of a last T-copy (u, v) searches only until v is seen
    assert searches and all(bin(until).count("1") == 1 for until in searches)
    assert rebuilt and started and disconnected


def test_searches_leave_the_graph_masks_unchanged():
    """`critical_arcs`, growth and completion search cleared copies of the
    mask table, and so does the probe; the graph's own table, its scratch
    copy and its reach stay as they were."""
    rng = random.Random(35)
    grown = completed = 0
    for _ in range(4):
        d, kernels, ids_of, extendable, grow, _ = _arb(rng)
        table, full = d.masks(), d.reach_mask()
        for pair in _pairs(rng, d, kernels, ids_of, 6):
            for side in pair:
                if d.is_root_connected_without(ids_of(side)):
                    critical_arcs(d, ids_of(side))
            if not extendable(*pair):
                continue
            states = pair_states(d.root, [(ids_of(s), s.vertices) for s in pair])
            grow(states, tuple(s.attachment for s in pair), {})
            grown += 1
            # the gadget digraphs are not 2-root-connected, so completion
            # may stall, but only after it has taken steps
            counters = {}
            complete_directed_pair(d, states, counters)
            completed += counters.get("completionSteps", 0)
        is_k_root_connected(d, 2)
        assert d.masks() == table and d._scratch() == table
        assert d.reach_mask() == full
    assert grown and completed


def _start_states(rng: random.Random, d: RootedDigraph):
    """Both sides start at the root plus up to two distinct root arcs each."""
    root_arcs = [(v, aid) for v, ids in d.out_classes(d.root) for aid in ids]
    picked = rng.sample(root_arcs, min(len(root_arcs), rng.randint(0, 4)))
    states = (DirectedState(set(), {d.root}), DirectedState(set(), {d.root}))
    for index, (v, aid) in enumerate(picked):
        state = states[index % 2]
        if v not in state.covered:
            state.ids.add(aid)
            state.covered.add(v)
    return states


def _copy(states):
    return tuple(DirectedState(set(s.ids), set(s.covered)) for s in states)


def test_completion_matches_rescanning_loop_at_scale():
    results = set()
    for rng, d in scale_digraphs(33, 14):
        start = _start_states(rng, d)
        want_states, got_states = _copy(start), _copy(start)
        want_counters, got_counters = {}, {}
        want = complete_reference(d, want_states, want_counters)
        got = complete_directed_pair(d, got_states, got_counters)
        assert got == want
        assert got_states == want_states
        assert got_counters == want_counters
        # past the k=2 gate these start states keep the per-side invariant
        # here, and then the completion cannot stall (Edmonds' theorem)
        assert got or not is_k_root_connected(d, 2)[0]
        results.add(got)
    assert results == {True, False}

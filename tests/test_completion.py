"""Exactness of the greedy directed completion `complete_directed_pair`.

On a 2-root-connected digraph D, take arc-disjoint start structures S1, S2
that reach their covered sets from the root, with every head covered.  If
D - A(Si) is root-connected for both sides, the greedy spans both
(Edmonds' branching theorem with root sets).  At n <= 5 a brute force also
checks the converse: those are exactly the start pairs with a spanning
extension.  Start pairs come in two kinds: tree-shaped, as arborescence
kernels are, and root-connected subdigraphs whose arcs may enter covered
vertices, as flow cores are.
"""

import itertools
import random

import pytest

from rootedpack.connectivity import is_k_root_connected
from rootedpack.errors import InternalError
from rootedpack.fptcommon import DirectedState, complete_directed_pair
from rootedpack.graphs import RootedDigraph
from rootedpack.solver_arb import complete_to_spanning
from rootedpack.solver_flow import complete_to_spanning_flow


def tight_digraph(rng: random.Random, n: int) -> RootedDigraph:
    """Two random spanning 0-arborescences plus up to n/2 noise arcs, every
    class capped at two copies as the solvers cap them; 2-root-connected."""
    counts: dict[tuple[int, int], int] = {}
    for _ in range(2):
        order = list(range(1, n))
        rng.shuffle(order)
        placed = [0]
        for v in order:
            u = rng.choice(placed)
            counts[(u, v)] = counts.get((u, v), 0) + 1
            placed.append(v)
    for _ in range(rng.randint(0, n // 2)):
        u, v = rng.randrange(n), rng.randrange(1, n)
        if u != v:
            counts[(u, v)] = counts.get((u, v), 0) + 1
    arcs = [c for c, m in sorted(counts.items()) for _ in range(min(m, 2))]
    return RootedDigraph(n, 0, arcs)


def start_pair(rng: random.Random, d: RootedDigraph, tree_shaped: bool, checked: bool):
    """Grow two arc-disjoint structures from the root by random arcs out of
    covered vertices; `checked` keeps D - A(Si) root-connected."""
    states = (DirectedState(set(), {d.root}), DirectedState(set(), {d.root}))
    arcs = list(d.arcs())
    for _ in range(rng.randint(0, 2 * d.n)):
        state, other = rng.sample(states, 2)
        u, v, aid = rng.choice(arcs)
        if u not in state.covered or aid in state.ids or aid in other.ids:
            continue
        if tree_shaped and v in state.covered:
            continue
        if checked and not d.is_root_connected_without(state.ids | {aid}):
            continue
        state.ids.add(aid)
        state.covered.add(v)
    return states


def meets_invariant(d: RootedDigraph, states) -> bool:
    return all(d.is_root_connected_without(state.ids) for state in states)


def spans(d: RootedDigraph, ids) -> bool:
    """True iff the arcs `ids` alone reach every vertex from the root."""
    return d.is_root_connected_without(set(d.arc_ids) - set(ids))


def has_spanning_extension(d: RootedDigraph, states) -> bool:
    """Brute force: one new in-arc per vertex a side misses, using copies
    neither start structure holds, with both extended sides spanning."""
    used = states[0].ids | states[1].ids
    free = {c: sum(aid not in used for aid in ids) for c, ids in d.parallel_classes().items()}

    def extensions(state):
        missing = [v for v in range(d.n) if v not in state.covered]
        choices = [[(u, v) for u, _ in d.in_classes(v) if free[(u, v)]] for v in missing]
        for picks in itertools.product(*choices):
            # one free copy per picked class; a class enters only one vertex
            ids = state.ids | {next(a for a in d.class_ids(*c) if a not in used) for c in picks}
            if spans(d, ids):
                yield set(picks)

    firsts = list(extensions(states[0]))
    return any(all(free[c] >= 2 for c in picks1 & picks2)
               for picks2 in extensions(states[1]) for picks1 in firsts)


def test_invariant_start_pairs_always_complete():
    rng = random.Random(29)
    for _ in range(2500):
        d = tight_digraph(rng, rng.randint(3, 9))
        assert is_k_root_connected(d, 2)[0]
        for tree_shaped in (True, False):
            states = start_pair(rng, d, tree_shaped, checked=True)
            assert meets_invariant(d, states)
            assert complete_directed_pair(d, states)
            assert not states[0].ids & states[1].ids
            for state in states:
                assert state.covered == set(range(d.n))
                assert spans(d, state.ids)


def test_invariant_iff_spanning_extension_at_small_n():
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for _ in range(1000):
        d = tight_digraph(rng, rng.randint(3, 5))
        for tree_shaped in (True, False):
            states = start_pair(rng, d, tree_shaped, checked=rng.random() < 0.25)
            ok = meets_invariant(d, states)
            assert has_spanning_extension(d, states) == ok
            seen[ok] += 1
            if ok:
                assert complete_directed_pair(d, states)
    assert min(seen.values()) >= 100


@pytest.mark.parametrize("complete", [complete_to_spanning, complete_to_spanning_flow],
                         ids=["arb", "flow"])
def test_stall_raises_with_the_instance(complete):
    # vertex 2 has a single in-arc: D fails the gate, so both sides stall
    d = RootedDigraph(3, 0, [(0, 1), (0, 1), (0, 2)])
    with pytest.raises(InternalError) as info:
        complete(d, 1, (d.selection([]), d.selection([])))
    assert info.value.diagnostics == {
        "stalled": [1, 2], "covered1": [0, 1], "covered2": [0, 1],
        "n": 3, "root": 0, "arcs": [[0, 1, 0], [0, 1, 1], [0, 2, 2]]}

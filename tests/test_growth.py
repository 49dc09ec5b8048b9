"""The one growth loop against the two loops it replaced.

`fptcommon.grow_pair` serves all three kinds; before it, arb and flow grew
through a `ResidualReach` loop and tree through a hand copy of it that asked
the matroid oracle instead.  Both old loops are kept below, verbatim but for
a rejection tally.  On seeded compact pairs at k = 3 (at k = 2 every root
branch holds one vertex, so no pair has an attachment) the batch compares
them with `grow_directed_pair` and with `grow_pair` under tree's
`_CompletabilityOracle.admits`: final copy ids, covered sets, `growSteps`
and any stall.  The tree reference asks with the growing side first, while
`admits` asks in (tree1, tree2) order, so the batch also shows that the
order changes no growth decision.

Random planted instances almost never reject a candidate, so each instance
carries two gadgets.  Vertices v < a are reached only by root-a, hub-v and
two a-v copies (a->v and v->a for arcs): a structure holding root-a must
reject hub-v, the hub's first class.  Vertex w has only root-w and w-y: a
structure holding both fails the growth precondition, and its pair stalls.
"""

import random

import pytest

from rootedpack.connectivity import is_extendable_pair
from rootedpack.errors import InternalError
from rootedpack.fptcommon import grow_directed_pair, grow_pair, pair_states
from rootedpack.graphs import ResidualReach, RootedDigraph, RootedGraph
from rootedpack.solver_arb import enumerate_compact_kernels
from rootedpack.solver_tree import _CompletabilityOracle, enumerate_compact_certificates

K = 3
HUB, GADGET_V, GADGET_A, STALL_W = 1, 2, 3, 4  # v < a: the hub tries v first


# -- the loops that `grow_pair` replaced --------------------------------------

def _reference_admissible_copy(state, reach, other, head, ids, rejected):
    if head in state.covered:
        return None
    copy = next((aid for aid in ids if aid not in other.ids), None)
    if copy is None:
        return None
    if not reach.keeps_root_connected(copy):
        rejected.append(copy)
        return None
    return copy


def grow_directed_reference(dig, states, targets, counters, rejected):
    reaches = [ResidualReach(dig, state.ids) for state in states]
    deficits = [dict(t) for t in targets]
    while True:
        side = next((i for i in (0, 1) if deficits[i]), None)
        if side is None:
            return
        state, other = states[side], states[1 - side]
        anchor = min(deficits[side])
        chosen = None
        for head, ids in dig.out_classes(anchor):
            copy = _reference_admissible_copy(state, reaches[side], other, head, ids, rejected)
            if copy is not None:
                chosen = (head, copy)
                break
        if chosen is None:
            raise InternalError(
                "growth stalled despite pending attachment targets",
                {"anchor": anchor, "side": side,
                 "deficits": {str(k): v for k, v in deficits[side].items()}},
            )
        head, copy = chosen
        state.ids.add(copy)
        state.covered.add(head)
        reaches[side].remove(copy)
        counters["growSteps"] = counters.get("growSteps", 0) + 1
        deficits[side][anchor] -= 1
        if deficits[side][anchor] == 0:
            del deficits[side][anchor]


def grow_tree_reference(g, oracle, states, targets, counters, rejected):
    ids = [state.ids for state in states]
    covered = [state.covered for state in states]
    deficits = [dict(t) for t in targets]
    while True:
        side = next((i for i in (0, 1) if deficits[i]), None)
        if side is None:
            break
        anchor = min(deficits[side])
        other = ids[1 - side]
        chosen = None
        for head, class_ids in g.incident_classes(anchor):
            if head == g.root or head in covered[side]:
                continue
            copy = next((eid for eid in class_ids if eid not in other), None)
            if copy is None:
                continue
            if not oracle.completable(frozenset(ids[side] | {copy}), frozenset(other)):
                rejected.append(copy)
                continue  # parallel copies fail alike
            chosen = (head, copy)
            break
        if chosen is None:
            raise InternalError("certificate growth stalled",
                                {"anchor": anchor, "side": side})
        head, copy = chosen
        ids[side].add(copy)
        covered[side].add(head)
        counters["growSteps"] = counters.get("growSteps", 0) + 1
        deficits[side][anchor] -= 1
        if deficits[side][anchor] == 0:
            del deficits[side][anchor]


# -- seeded instances ----------------------------------------------------------

def _hub_copies(rng, n, fan):
    """Root-hub (one or two copies), two random spanning trees over the
    vertices outside the gadgets, a hub fan of `fan` distinct heads and the
    gadgets, as (u, v) pairs."""
    rest = [HUB] + list(range(STALL_W + 1, n))
    copies = [(0, HUB)] * rng.randint(1, 2)
    for _ in range(2):
        placed = [0]
        for v in rng.sample(rest, len(rest)):
            copies.append((rng.choice(placed), v))
            placed.append(v)
    heads = rng.sample(range(STALL_W + 1, n), fan - 1) + [GADGET_V]
    copies += [(HUB, v) for v in heads]
    copies += [(0, GADGET_A), (GADGET_A, GADGET_V), (GADGET_V, GADGET_A)]
    copies += [(0, STALL_W), (STALL_W, rng.choice(rest))]
    return copies


def _pairs(rng, g, structures, ids_of, limit):
    """Up to `limit` copy-disjoint pairs of structures, the first side with
    an attachment and, half of the time, the gadget's root copy."""
    grown = [s for s in structures if s.attachment]
    gadget = [s for s in grown if ids_of(s) & set(g.class_ids(0, GADGET_A))]
    pairs = []
    for _ in range(20 * limit):
        if len(pairs) == limit or not gadget:
            break
        s1, s2 = rng.choice(gadget if rng.random() < 0.5 else grown), rng.choice(structures)
        if not ids_of(s1) & ids_of(s2):
            pairs.append((s1, s2) if rng.random() < 0.5 else (s2, s1))
    return pairs


def _run(grow, states, targets):
    """(stall diagnostics or None, ids, covered, counters) after `grow`."""
    counters = {}
    try:
        grow(states, targets, counters)
        stall = None
    except InternalError as exc:
        stall = (exc.diagnostics["anchor"], exc.diagnostics["side"])
    return stall, [s.ids for s in states], [s.covered for s in states], counters


def _arb(rng):
    n = rng.randint(17, 21)
    d = RootedDigraph(n, 0, _hub_copies(rng, n, 6 * K - 5))
    return (d, list(enumerate_compact_kernels(d, K)), lambda s: s.selection.ids,
            lambda s1, s2: is_extendable_pair(d, s1.selection, s2.selection),
            lambda states, targets, counters: grow_directed_pair(d, states, targets, counters),
            lambda states, targets, counters, rejected: grow_directed_reference(
                d, states, targets, counters, rejected))


def _tree(rng):
    n = rng.randint(21, 25)
    g = RootedGraph(n, 0, _hub_copies(rng, n, 8 * K - 7))
    oracle = _CompletabilityOracle(g)
    return (g, list(enumerate_compact_certificates(g, K)), lambda s: s.selection.ids,
            lambda s1, s2: oracle.completable(s1.selection.ids, s2.selection.ids),
            lambda states, targets, counters: grow_pair(
                states, targets, g.incident_classes, oracle.admits(states), counters),
            lambda states, targets, counters, rejected: grow_tree_reference(
                g, oracle, states, targets, counters, rejected))


@pytest.mark.parametrize("make, instances, limit", [(_arb, 8, 12), (_tree, 6, 8)],
                         ids=["arb", "tree"])
def test_growth_matches_the_reference_loop(make, instances, limit):
    rng = random.Random(20261018)
    stalls = steps = rejections = precondition_stalls = 0
    for _ in range(instances):
        g, structures, ids_of, precondition, grow_new, grow_old = make(rng)
        for pair in _pairs(rng, g, structures, ids_of, limit):
            sides = [(ids_of(s), s.vertices) for s in pair]
            targets = tuple(s.attachment for s in pair)
            rejected = []
            new = _run(grow_new, pair_states(g.root, sides), targets)
            old = _run(lambda states, t, counters: grow_old(states, t, counters, rejected),
                       pair_states(g.root, sides), targets)
            assert new == old, (pair, new, old)
            ok = precondition(*pair)
            stalls += new[0] is not None
            precondition_stalls += new[0] is not None and ok
            steps += new[3].get("growSteps", 0)
            rejections += len(rejected) if ok else 0
    # rejections are counted on pairs that meet the growth precondition
    # only; those never stall, as the anchors outlast every rejection
    assert steps and rejections and stalls and not precondition_stalls

"""Differential tests for `graphs.ResidualReach`: its query on D - S - X,
answered by replacement steps on one kept arborescence, against a plain
search, on random digraphs, on digraphs whose two cut subtrees can only
hang off each other, and on every row of the shape-search fixtures; the
arborescence that `remove` repairs, against an engine built afresh; and,
at scale (n = 20..200), the spanning-arborescence rule behind the k=2
gate, `critical_arcs` and the directed completion.

The references are the per-candidate rechecks the rule replaced, kept here
verbatim in behaviour: one reach-mask search per single-copy class for the
gate and `critical_arcs`, and a completion that rescans every covered tail
and searches once per candidate on every step.
"""

import gc
import random
import weakref
from collections import Counter

import pytest

from rootedpack.connectivity import CutWitness, critical_arcs, is_k_root_connected
from rootedpack.errors import ContractError
from rootedpack.fptcommon import DirectedState, complete_directed_pair, pair_states
from rootedpack.graphs import ResidualReach, RootedDigraph, RootedGraph

from conftest import random_digraph, spanning_digraph
from test_graphs import plain_reach, probe_shapes
from test_pair_search import row_emptied
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


def plain_reach_mask(d: RootedDigraph, removed, classes) -> int:
    """Mask of what `plain_reach` reaches in D - S - X, for S = `removed`
    and X = `classes`."""
    gone = set(removed).union(*(d.class_ids(*c) for c in classes))
    return sum(1 << v for v in plain_reach(d, gone))


def below(parent, v) -> set[int]:
    """The vertices whose walk up the parent map `parent` passes v."""
    found = {v}
    for w in parent:
        path = []
        while w not in found and w in parent:
            path.append(w)
            w = parent[w]
        if w in found:
            found.update(path)
    return found


def hang_off_each_other(d, engine, x) -> bool:
    """Whether x cuts two T-arcs of `engine` whose subtrees are disjoint and
    each entered from the other by a class of D - S - x: removing either
    class alone can hang its subtree off the other one."""
    def enters(src, dst):
        return any(w in src and (w, y) not in x and engine._left.get((w, y)) != 0
                   for y in dst for w, _ in d.in_classes(y))

    cut = [below(engine.parent, v) for u, v in x if engine.parent.get(v) == u]
    return any(not a & b and enters(a, b) and enters(b, a)
               for i, a in enumerate(cut) for b in cut[i + 1:])


def test_spans_without_matches_a_plain_search_of_d_minus_s_minus_x():
    """`ResidualReach(d, S).spans_without(X)`, and the `mask()` of engines
    for S and for S plus every copy of X, on random digraphs with classes
    of 1 to 3 copies.  S is empty or random, and may
    disconnect D already; X holds 1 to 3 classes, may disconnect D - S, may
    empty no T-arc, may disconnect D - S only through a class after its
    first, and may cut two subtrees that could hang off each other."""
    rng = random.Random(36)
    seen = Counter()
    for _ in range(600):
        n = rng.randint(2, 10)
        d = (spanning_digraph(rng, n, extra=rng.randint(0, 2 * n), max_mult=3)
             if rng.random() < 0.7 else random_digraph(rng, max_n=9, max_mult=3))
        classes = sorted(d.parallel_classes())
        ids = sorted(d.arc_ids)
        for _ in range(4):
            removed = set(rng.sample(ids, rng.randint(0, len(ids) // 3))) if ids else set()
            engine = ResidualReach(d, removed)
            full = (1 << d.n) - 1
            spans = plain_reach_mask(d, removed, ()) == full
            assert engine.spanning == spans
            assert engine.mask() == plain_reach_mask(d, removed, ())
            for _ in range(4):
                x = rng.sample(classes, rng.randint(1, min(3, len(classes)))) if classes else []
                want = plain_reach_mask(d, removed, x)
                assert engine.spans_without(x) == (want == full), (d, sorted(removed), x)
                gone = removed.union(*(d.class_ids(*c) for c in x))
                assert ResidualReach(d, gone).mask() == want
                t_arcs = any(engine.parent.get(v) == u for u, v in x)
                seen["s-disconnects", t_arcs] += not spans
                seen["x-disconnects"] += spans and want != full
                seen["no-t-arc"] += spans and not t_arcs
                seen["later-class"] += (spans and want != full
                                        and plain_reach_mask(d, removed, x[:1]) == full)
                seen["cycle"] += (spans and want != full and hang_off_each_other(d, engine, x)
                                  and all(engine.spans_without([c]) for c in x))
                seen["copies", max((len(d.class_ids(*c)) for c in x), default=0)] += 1
    assert all(seen[key] > 20 for key in (
        ("s-disconnects", False), ("s-disconnects", True), "x-disconnects", "no-t-arc",
        "later-class", "cycle", ("copies", 1), ("copies", 2), ("copies", 3))), seen


def crossed_chains(rng: random.Random):
    """A digraph with two chains A and B below the root, each entered from
    the root only at its first vertex, arcs from each chain into the
    other's first vertex, random arcs inside each chain and between them,
    and classes of 1 to 3 copies.  Returns it and the root's two classes."""
    a = rng.randint(1, 5)
    n = a + rng.randint(1, 5) + 1
    chains = (list(range(1, a + 1)), list(range(a + 1, n)))
    arcs = []

    def add(u, v):
        arcs.extend([(u, v)] * rng.randint(1, 3))

    for mine, theirs in (chains, chains[::-1]):
        add(0, mine[0])
        add(rng.choice(mine), theirs[0])
        for u, v in zip(mine, mine[1:]):
            add(u, v)
        for _ in range(rng.randint(0, 3)):
            u, v = rng.choice(mine), rng.choice(mine + theirs[1:])
            if u != v:
                add(u, v)
    return RootedDigraph(n, 0, arcs), [(0, chain[0]) for chain in chains]


def test_two_cut_subtrees_that_only_hang_off_each_other_disconnect():
    """Removing either root class of `crossed_chains` hangs its chain off
    the other one; removing both, in either order and among other classes,
    leaves neither a way in.  With S empty, and with S a copy of each
    multi-copy class, which empties none."""
    rng = random.Random(38)
    for _ in range(300):
        d, roots = crossed_chains(rng)
        spare = [ids[0] for ids in d.parallel_classes().values() if len(ids) > 1]
        others = [c for c in sorted(d.parallel_classes()) if c not in roots]
        for removed in ((), spare):
            engine = ResidualReach(d, removed)
            assert hang_off_each_other(d, engine, roots)
            assert all(engine.spans_without([c]) for c in roots)
            for x in (roots, roots[::-1]):
                x = [*rng.sample(others, rng.randint(0, min(2, len(others)))), *x]
                rng.shuffle(x)
                assert plain_reach_mask(d, removed, x) != (1 << d.n) - 1
                assert not engine.spans_without(x), (d, x)


def test_spans_without_matches_a_plain_search_on_fixture_rows():
    """Every kernel and core row of the `tests/test_shapes.py` fixtures: its
    carried verdict and `spans_without` of the classes it empties, on the
    digraph's kept engine (S empty) and on one whose S is random copies
    that keep D root-connected, against a plain search of D - S - X."""
    rng = random.Random(37)
    seen = Counter()
    for d, rows in probe_shapes():
        full = (1 << d.n) - 1
        removed = set()
        for aid in rng.sample(sorted(d.arc_ids), d.n // 2):
            if d.is_root_connected_without(removed | {aid}):
                removed.add(aid)
        engine = ResidualReach(d, removed)
        for row in rows:
            x = row_emptied(row, d.class_ids)
            want = plain_reach_mask(d, (), x) == full
            assert row[6] is want and d._reach().spans_without(x) is want
            assert engine.spans_without(x) is (plain_reach_mask(d, removed, x) == full)
            seen[want] += 1
            seen["s-empties"] += len(d._emptied(removed)) > 0
            seen["copies", max((len(d.class_ids(*c)) for c in x), default=0)] += 1
    assert min(seen[True], seen[False], seen["s-empties"]) > 1_000, seen
    assert seen["copies", 1] > 1_000 and seen["copies", 2] > 100, seen


def test_a_graph_with_a_kept_engine_is_freed_by_reference_counting():
    d = RootedDigraph(3, 0, [(0, 1), (1, 2), (1, 2)])
    assert d.is_root_connected_without([1]) and d.reach_mask() == 0b111
    ref = weakref.ref(d)
    gc.disable()
    try:
        del d
        assert ref() is None
    finally:
        gc.enable()


def test_the_kept_engine_holds_the_graph_class_tables():
    """The kept engine (S empty) reads the graph's own class tables, so a
    graph holds one adjacency and its engine adds one parent entry per
    vertex; its queries leave S empty."""
    n = 300
    d = RootedDigraph(n, 0, [(v, v + 1) for v in range(n - 1)] * 2)
    assert not d._reach().spans_without([(5, 6)]) and d._reach().spans_without([])
    assert d.is_root_connected_without(d.class_ids(5, 6)[:1])
    assert d.reach_mask(d.class_ids(150, 151)) == (1 << 151) - 1
    engine = d._reach()
    assert engine._out_classes is d._out_classes and engine._in_classes is d._in_classes
    assert engine._by_class is d._by_class and engine._ends is d._ends
    assert len(engine.parent) == n - 1 and not engine.removed and not engine._left
    g = RootedGraph(n, 0, [(v, v + 1) for v in range(n - 1)])
    assert g.is_connected() and g._reach()._out_classes is g._incident_classes

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
    # every copy is judged after each removal, so a stale arborescence (one
    # not repaired after its arc went) or a stale S would show; half of the
    # reaches start from a removal set, and each sequence goes on past the
    # last admissible removal, where nothing is admitted; the references
    # ask the digraph's own engine, so only the walks and steps of the
    # tested engine count
    walks, steps = [], []
    reach_ = None

    def walked(self):
        rebuild(self)
        if self is reach_:
            walks.append(self.spanning)

    def stepped(self, overlay, emptied, c):
        result = step(self, overlay, emptied, c)
        if self is reach_:
            steps.append((overlay, emptied, self.parent.get(c[1]) == c[0], result is overlay))
        return result

    rebuild, step = ResidualReach._rebuild, ResidualReach.step
    monkeypatch.setattr(ResidualReach, "_rebuild", walked)
    monkeypatch.setattr(ResidualReach, "step", stepped)
    rng = random.Random(34)
    repaired = started = disconnected = 0
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
        walks.clear()
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
            before = dict(reach_.parent)
            reach_.remove(aid)
            removed.add(aid)
            repaired += not walks and reach_.parent != before
        # T is walked again only once D - S has lost root-connectivity
        assert not any(walks), walks
    # each recheck of a last copy, and each repair, is one replacement step
    # on T itself, which keeps T with no search unless the copy's class is
    # a T-arc
    assert all(overlay == {} and emptied == () and on_t is not kept
               for overlay, emptied, on_t, kept in steps)
    assert {on_t for *_, on_t, _ in steps} == {True, False}
    assert repaired and started and disconnected


def is_spanning_arborescence(d: RootedDigraph, parent, removed) -> bool:
    """Whether `parent` is a spanning r-arborescence of D - removed: one
    parent per non-root vertex, over a class with a copy not in `removed`,
    and a root-first walk of its children reaching every vertex."""
    children = {}
    for v, u in parent.items():
        if v == d.root or all(aid in removed for aid in d.class_ids(u, v)):
            return False
        children.setdefault(u, []).append(v)
    order = [d.root]
    for u in order:
        order.extend(children.get(u, ()))
    return len(parent) == d.n - 1 and len(order) == d.n


def two_way_path(rng: random.Random, n: int) -> RootedDigraph:
    """A path through the non-root vertices in random order, with arcs both
    ways of 1 or 2 copies, entered from the root at 2 to 4 of its vertices,
    plus a few random arcs: cutting a path arc re-hangs a stretch of the
    path off another root entry."""
    line = list(range(1, n))
    rng.shuffle(line)
    arcs = [(0, v) for v in rng.sample(line, min(len(line), rng.randint(2, 4)))]
    for u, v in zip(line, line[1:]):
        arcs.extend([(u, v)] * rng.randint(1, 2))
        arcs.extend([(v, u)] * rng.randint(1, 2))
    for _ in range(rng.randint(0, n // 3)):
        u, v = rng.randrange(n), rng.randrange(1, n)
        if u != v:
            arcs.append((u, v))
    return RootedDigraph(n, 0, arcs)


def test_repaired_arborescence_stays_exact(monkeypatch):
    """Admissible removal sequences on random digraphs, mostly of a copy of
    a T-arc: after every `remove`, T is a spanning r-arborescence of D - S
    over surviving classes, and every `keeps_root_connected` verdict equals
    that of an engine built afresh for S.  Many repairs re-hang paths of
    two or more vertices, and none walks the class tables again."""
    walks = []

    def walked(self):
        walks.append(self)
        rebuild(self)

    rebuild = ResidualReach._rebuild
    monkeypatch.setattr(ResidualReach, "_rebuild", walked)
    rng = random.Random(39)
    rehung = Counter()
    for i in range(120):
        n = rng.randint(8, 30)
        d = (two_way_path(rng, n) if i % 2 else
             spanning_digraph(rng, n, extra=rng.randint(n, 3 * n), max_mult=rng.randint(1, 2)))
        engine = ResidualReach(d)
        removed = set()
        misses = 0
        while misses < 10:
            if rng.random() < 0.8:
                v = rng.choice(sorted(engine.parent))
                aid = rng.choice(d.class_ids(engine.parent[v], v))
            else:
                aid = rng.choice(sorted(d.arc_ids))
            if aid in removed or len(plain_reach(d, removed | {aid})) < d.n:
                misses += 1
                continue
            before = dict(engine.parent)
            walks.clear()
            engine.remove(aid)
            removed.add(aid)
            assert not walks
            assert is_spanning_arborescence(d, engine.parent, removed)
            fresh = ResidualReach(d, removed)
            assert all(engine.keeps_root_connected(x) == fresh.keeps_root_connected(x)
                       for x in d.arc_ids)
            moved = sum(engine.parent[v] != u for v, u in before.items())
            rehung[min(moved, 2)] += 1
    assert min(rehung[0], rehung[1], rehung[2]) > 100, rehung


def test_searches_leave_the_kept_engine_unchanged():
    """Probes, the gate, `critical_arcs`, growth and completion build their
    own engines for removal sets; the graph's class tables, its kept
    engine's T and S, and its reach stay as they were."""
    rng = random.Random(35)
    grown = completed = 0
    for _ in range(4):
        d, kernels, ids_of, extendable, grow, _ = _arb(rng)
        tables = (d._out_classes, d._in_classes)
        copies = [list(table) for table in tables]
        engine = d._reach()
        parent, full = dict(engine.parent), d.reach_mask()
        for pair in _pairs(rng, d, kernels, ids_of, 6):
            for side in pair:
                if d.is_root_connected_without(ids_of(side)):
                    critical_arcs(d, ids_of(side))
            if not extendable(*pair):
                continue
            states = pair_states(d.root, [(ids_of(s), s.vertices) for s in pair])
            grow(states, tuple(s.attachment for s in pair))
            grown += 1
            # the gadget digraphs are not 2-root-connected, so completion
            # may stall, but only after it has taken steps: each covers one
            # new vertex of one side
            before = sum(len(state.covered) for state in states)
            complete_directed_pair(d, states)
            completed += sum(len(state.covered) for state in states) - before
        is_k_root_connected(d, 2)
        assert d._out_classes is tables[0] and d._in_classes is tables[1]
        assert [list(table) for table in tables] == copies
        assert d._reach() is engine and engine.parent == parent
        assert not engine.removed and not engine._left
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
        want_counters = {}
        want = complete_reference(d, want_states, want_counters)
        got = complete_directed_pair(d, got_states)
        assert got == want
        assert got_states == want_states
        # each step of the reference covers one new vertex of one side
        grown = sum(len(g.covered) - len(s.covered) for g, s in zip(got_states, start))
        assert grown == want_counters.get("completionSteps", 0)
        # past the k=2 gate these start states keep the per-side invariant
        # here, and then the completion cannot stall (Edmonds' theorem)
        assert got or not is_k_root_connected(d, 2)[0]
        results.add(got)
    assert results == {True, False}

import itertools
import random
from collections import deque

import pytest

from rootedpack.errors import ContractError
from rootedpack.graphs import RootedGraph
from rootedpack.matroid import (
    ForcedForestContext,
    _UnionRun,
    find_disjoint_bases,
    has_two_disjoint_spanning_trees,
    is_completable_pair,
    max_forest_pair,
    tree_mapping,
)
from rootedpack.solver_tree import solve_tree

from conftest import connected_graph, random_graph


def spanning_trees_brute(g: RootedGraph):
    """Every spanning tree as a frozenset of edge ids (test-local)."""
    ids = sorted(g.edge_ids)
    n = g.n
    out = []
    for combo in itertools.combinations(ids, n - 1):
        uf = list(range(n))

        def find(x):
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        ok = True
        for eid in combo:
            u, v = g.edge(eid)
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            uf[ru] = rv
        if ok:
            out.append(frozenset(combo))
    return out


def completable_brute(g, ids1, ids2):
    for t1 in spanning_trees_brute(g):
        if not ids1 <= t1:
            continue
        for t2 in spanning_trees_brute(g):
            if ids2 <= t2 and not (t1 & t2):
                return True
    return False


def is_spanning_tree(g, ids):
    if len(ids) != g.n - 1:
        return False
    uf = list(range(g.n))

    def find(x):
        while uf[x] != x:
            uf[x] = uf[uf[x]]
            x = uf[x]
        return x

    for eid in ids:
        u, v = g.edge(eid)
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        uf[ru] = rv
    return True


def test_completable_examples():
    g = RootedGraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)])
    assert is_completable_pair(g, g.selection([0]), g.selection([3]))
    triangle = RootedGraph(3, 0, [(0, 1), (1, 2), (0, 2)])
    assert not is_completable_pair(triangle, triangle.selection([]), triangle.selection([]))


def test_completable_empty_equals_two_trees(rng):
    for _ in range(60):
        g = random_graph(rng, max_n=6)
        assert is_completable_pair(g, g.selection([]), g.selection([])) == \
            has_two_disjoint_spanning_trees(g)


def test_completable_requires_disjoint_forests():
    g = RootedGraph(3, 0, [(0, 1), (1, 2)])
    with pytest.raises(ContractError):
        is_completable_pair(g, g.selection([0]), g.selection([0]))
    cyc = RootedGraph(3, 0, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ContractError):
        is_completable_pair(cyc, cyc.selection([0, 1, 2]), cyc.selection([]))


def test_completable_matches_brute(rng):
    done = 0
    while done < 80:
        g = random_graph(rng, max_n=5, max_m=10)
        ids = sorted(g.edge_ids)
        if g.n == 1 or not ids:
            trees = has_two_disjoint_spanning_trees(g)
            assert trees == (g.n == 1)
            done += 1
            continue
        a = set(rng.sample(ids, rng.randint(0, min(2, len(ids)))))
        rest = [e for e in ids if e not in a]
        b = set(rng.sample(rest, rng.randint(0, min(2, len(rest)))))

        def forest(s):
            uf = list(range(g.n))

            def find(x):
                while uf[x] != x:
                    uf[x] = uf[uf[x]]
                    x = uf[x]
                return x

            for eid in s:
                u, v = g.edge(eid)
                ru, rv = find(u), find(v)
                if ru == rv:
                    return False
                uf[ru] = rv
            return True

        if not (forest(a) and forest(b)):
            continue
        done += 1
        got = is_completable_pair(g, g.selection(a), g.selection(b))
        want = completable_brute(g, frozenset(a), frozenset(b))
        assert got == want, (list(g.edges()), a, b)


def test_find_disjoint_bases_positive_example():
    g = RootedGraph(3, 0, [(0, 1), (0, 1), (0, 2), (0, 2)])
    t1, t2 = find_disjoint_bases(g, g.selection([0]), g.selection([3]))
    assert 0 in t1.ids and 3 in t2.ids
    assert not (t1.ids & t2.ids)
    assert is_spanning_tree(g, t1.ids) and is_spanning_tree(g, t2.ids)


def test_find_disjoint_bases_properties(rng):
    # about 70 draws give the 40 completable graphs; the cap turns a solver
    # that never completes into a failure instead of an endless loop
    found = 0
    for _ in range(400):
        g = connected_graph(rng, max_n=6, extra=8)
        res = find_disjoint_bases(g, g.selection([]), g.selection([]))
        if res is None:
            assert not has_two_disjoint_spanning_trees(g)
            continue
        found += 1
        t1, t2 = res
        assert not (t1.ids & t2.ids)
        assert is_spanning_tree(g, t1.ids)
        assert is_spanning_tree(g, t2.ids)
        if found == 40:
            break
    assert found == 40


def test_find_disjoint_bases_k4():
    k4 = RootedGraph(4, 0, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    t1, t2 = find_disjoint_bases(k4, k4.selection([]), k4.selection([]))
    assert is_spanning_tree(k4, t1.ids) and is_spanning_tree(k4, t2.ids)
    assert not (t1.ids & t2.ids)


def test_containment_respected(rng):
    # about 80 draws give the 40 graphs with two disjoint spanning trees
    done = 0
    for _ in range(400):
        g = connected_graph(rng, max_n=6, extra=10)
        if g.edge_count == 0 or not has_two_disjoint_spanning_trees(g):
            continue
        ids = sorted(g.edge_ids)
        e = ids[rng.randrange(len(ids))]
        sel = g.selection([e])
        res = find_disjoint_bases(g, sel, g.selection([]))
        want = completable_brute(g, frozenset({e}), frozenset())
        assert (res is not None) == want
        if res:
            assert e in res[0].ids
        done += 1
        if done == 40:
            break
    assert done == 40


def test_two_disjoint_trees_examples():
    doubled = RootedGraph(3, 0, [(0, 1), (0, 1), (1, 2), (1, 2)])
    assert has_two_disjoint_spanning_trees(doubled)
    simple_tree = RootedGraph(3, 0, [(0, 1), (1, 2)])
    assert not has_two_disjoint_spanning_trees(simple_tree)
    cycle = RootedGraph(4, 0, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert not has_two_disjoint_spanning_trees(cycle)
    assert has_two_disjoint_spanning_trees(RootedGraph(1, 0, []))


def test_union_rank_matches_brute_pairs(rng):
    for _ in range(40):
        g = random_graph(rng, max_n=5, max_m=8)
        got = has_two_disjoint_spanning_trees(g)
        want = g.n == 1 or any(
            not (t1 & t2)
            for t1 in spanning_trees_brute(g)
            for t2 in spanning_trees_brute(g)
        )
        assert got == want


def test_union_rank_formula_exhaustive(rng):
    """max |I1| + |I2| equals min over F of |E - F| + 2 * rank(F), the
    matroid-union rank formula with two graphic-matroid copies."""

    def graphic_rank(g, subset):
        uf = list(range(g.n))

        def find(x):
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        rank = 0
        for eid in subset:
            u, v = g.edge(eid)
            ru, rv = find(u), find(v)
            if ru != rv:
                uf[ru] = rv
                rank += 1
        return rank

    done = 0
    while done < 60:
        g = random_graph(rng, max_n=5, max_m=8)
        ids = sorted(g.edge_ids)
        if len(ids) > 8:
            continue
        done += 1
        t1, t2 = max_forest_pair(g, (), ())
        got = len(t1) + len(t2)
        want = min(
            (len(ids) - len(sub)) + 2 * graphic_rank(g, sub)
            for r in range(len(ids) + 1)
            for sub in itertools.combinations(ids, r)
        )
        want = min(want, 2 * (g.n - 1))
        assert got == want, (list(g.edges()), got, want)


def sigma_is_valid(g, t1_ids, t2_ids, mapping):
    for e, f in mapping.items():
        ex1 = (t1_ids - {e}) | {f}
        ex2 = (t2_ids - {f}) | {e}
        if not is_spanning_tree(g, ex1) or not is_spanning_tree(g, ex2):
            return False
    return True


def test_tree_mapping_identity():
    g = RootedGraph(3, 0, [(0, 1), (1, 2)])
    tm = tree_mapping(g, g.selection([0, 1]), g.selection([0, 1]))
    assert dict(tm.mapping) == {0: 0, 1: 1}


def test_tree_mapping_triangle():
    tri = RootedGraph(3, 0, [(0, 1), (0, 2), (1, 2)])
    tm = tree_mapping(tri, tri.selection([0, 1]), tri.selection([0, 2]))
    assert tm.mapping[0] == 0
    assert tm.mapping[1] == 2
    assert sigma_is_valid(tri, frozenset([0, 1]), frozenset([0, 2]), tm.mapping)


def test_tree_mapping_random_validated(rng):
    done = 0
    while done < 200:
        g = connected_graph(rng, max_n=7, extra=8)
        if g.n < 2:
            continue
        trees = spanning_trees_brute(g)
        if len(trees) < 2:
            continue
        t1 = sorted(trees[rng.randrange(len(trees))])
        t2 = sorted(trees[rng.randrange(len(trees))])
        done += 1
        tm = tree_mapping(g, g.selection(t1), g.selection(t2))
        assert sigma_is_valid(g, frozenset(t1), frozenset(t2), tm.mapping)
        assert set(tm.mapping) == set(t1)
        by_vertex = {}
        for e in t1:
            u, v = g.edge(e)
            by_vertex.setdefault(u, []).append(e)
            by_vertex.setdefault(v, []).append(e)
        for v, edges in by_vertex.items():
            for triple in itertools.combinations(edges, 3):
                images = {tm.mapping[e] for e in triple}
                assert len(images) >= 2


def test_tree_mapping_rejects_non_tree():
    g = RootedGraph(3, 0, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(ContractError):
        tree_mapping(g, g.selection([0]), g.selection([0, 1]))


# -- the breadth-first path search and the full direct pass, kept as reference --


class BfsForestContext(ForcedForestContext):
    """`path_edges` as a fresh breadth-first search over the forest per query."""

    def path_edges(self, u, v):
        if u == v:
            return []
        prev = {u: (-1, -1)}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w, eid in sorted(self.adj.get(x, ())):
                if w not in prev:
                    prev[w] = (x, eid)
                    if w == v:
                        queue.clear()
                        break
                    queue.append(w)
        if v not in prev:
            return None
        out = []
        w = v
        while w != u:
            x, eid = prev[w]
            out.append(eid)
            w = x
        return out


class ReferenceUnionRun(_UnionRun):
    """Breadth-first circuits, a direct pass that offers every element and
    inserts it into its side as it goes, and augmenting searches that skip
    nothing."""

    def __init__(self, graph, forced1, forced2):
        super().__init__(graph, forced1, forced2)
        self.sides = tuple(BfsForestContext(graph, side.forced) for side in self.sides)

    def _try_direct(self, eid, order):
        u, v = self.graph.edge(eid)
        for i in order:
            side = self.sides[i]
            if side.size() < self.target and self._direct[i].union(u, v):
                side.insert(eid)
                self.in_side[eid] = i
                return True
        return False

    def run(self, seeds=()):
        blocked = self.sides[0].forced | self.sides[1].forced
        seeded = [eid for eid, _ in seeds]
        seen = set(seeded) | blocked
        rest = [eid for eid in self.graph.edge_ids if eid not in seen]
        pending = []
        for eid, pref in seeds:
            if eid in blocked:
                continue
            if not self._try_direct(eid, (pref, 1 - pref)):
                pending.append(eid)
        for eid in rest:
            if not self._try_direct(eid, (0, 1)):
                pending.append(eid)
        if self.full():
            return
        failed = set()
        for eid in pending:
            if self.full():
                return
            if eid in failed:
                continue
            outcome = self._augment(eid)
            if outcome is None:
                failed = set()
            else:
                failed |= outcome


def reference_max_forest_pair(g, forced1, forced2, seeds=()):
    run = ReferenceUnionRun(g, forced1, forced2)
    run.run(seeds)
    return tuple(frozenset(side.forced | side.members) for side in run.sides)


def random_tree_edges(rng, vertices):
    """A uniformly attached random spanning tree on the given vertex list."""
    order = list(vertices)
    rng.shuffle(order)
    return [(order[rng.randrange(i)], order[i]) for i in range(1, len(order))]


def random_edges(rng, n, count):
    edges = []
    while len(edges) < count:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return edges


def two_trees_plus_noise(rng, n, noise):
    """Two random spanning trees plus `noise` random edges, shuffled."""
    edges = (random_tree_edges(rng, range(n)) + random_tree_edges(rng, range(n))
             + random_edges(rng, n, noise))
    rng.shuffle(edges)
    return edges


def tight_graph(rng, n):
    """A connected graph with about 2.1n edges: a random tree plus random edges."""
    edges = random_tree_edges(rng, range(n)) + random_edges(rng, n, (11 * n) // 10 + 1)
    rng.shuffle(edges)
    return edges


def random_disjoint_forests(rng, g):
    """Two edge-disjoint forests drawn greedily from a shuffled edge list."""
    ids = list(g.edge_ids)
    rng.shuffle(ids)
    forests = (ForcedForestContext(g, ()), ForcedForestContext(g, ()))
    caps = (rng.randint(0, g.n // 2), rng.randint(0, g.n // 2))
    picked = (set(), set())
    for eid in ids:
        i = rng.randrange(2)
        u, v = g.edge(eid)
        if len(picked[i]) < caps[i] and not forests[i].connected(u, v):
            forests[i].insert(eid)
            picked[i].add(eid)
    return frozenset(picked[0]), frozenset(picked[1])


def test_max_forest_pair_matches_bfs_reference():
    rng = random.Random(7031)
    outcomes = {True: 0, False: 0}
    for n in (10, 17, 30, 50, 80, 120, 200):
        for shape in ("planted", "tight", "pendant"):
            if shape == "planted":
                edges = two_trees_plus_noise(rng, n, n // 5)
            else:
                edges = tight_graph(rng, n)
            if shape == "pendant":
                edges.append((rng.randrange(n), n))
            g = RootedGraph(n + (shape == "pendant"), 0, edges)
            base = max_forest_pair(g, (), ())
            assert base == reference_max_forest_pair(g, (), ())
            full = all(len(t) == g.n - 1 for t in base)
            outcomes[full] += 1
            seeds = [(eid, 0) for eid in sorted(base[0])] + [(eid, 1) for eid in sorted(base[1])]
            # the reference runs take up to 0.8 s each at n = 200
            for _ in range(3 if n <= 80 else 1 if n <= 120 else 0):
                f1, f2 = random_disjoint_forests(rng, g)
                for s in ((), seeds) if n <= 80 else (seeds,):
                    got = max_forest_pair(g, f1, f2, s)
                    assert got == reference_max_forest_pair(g, f1, f2, s), (n, shape)
                    assert f1 <= got[0] and f2 <= got[1]
    assert outcomes[True] >= 5 and outcomes[False] >= 5, outcomes


def test_path_edges_matches_bfs_reference_after_edits():
    rng = random.Random(4412)
    for n in (6, 12, 20):
        for _ in range(3):
            g = RootedGraph(n, 0, tight_graph(rng, n) + two_trees_plus_noise(rng, n, 0))
            forced = random_disjoint_forests(rng, g)[0]
            ctx = ForcedForestContext(g, forced)
            ref = BfsForestContext(g, forced)
            movable = [eid for eid in g.edge_ids if eid not in forced]
            removals = 0
            for _ in range(3 * n):
                eid = rng.choice(movable)
                u, v = g.edge(eid)
                if eid in ctx.members:
                    ctx.remove(eid)
                    ref.remove(eid)
                    removals += 1
                elif not ref.connected(u, v):
                    ctx.insert(eid)
                    ref.insert(eid)
                for a in range(n):
                    for b in range(n):
                        want = ref.path_edges(a, b)
                        assert ctx.path_edges(a, b) == want, (a, b)
                        assert ctx.connected(a, b) == (want is not None), (a, b)
            assert removals > 0


# -- the union gate at scale --


@pytest.mark.parametrize("n", [100, 250, 400])
def test_two_trees_plus_noise_pass_the_gate_and_a_pendant_fails_it(n):
    rng = random.Random(n)
    edges = two_trees_plus_noise(rng, n, n // 4)
    assert has_two_disjoint_spanning_trees(RootedGraph(n, 0, edges))
    pendant = RootedGraph(n + 1, 0, edges + [(rng.randrange(n), n)])
    assert not has_two_disjoint_spanning_trees(pendant)


class CountingUnionRun(_UnionRun):
    """Sums, per stretch between two successful augmentations, the elements
    that failed searches visited."""

    def __init__(self, graph, forced1, forced2):
        super().__init__(graph, forced1, forced2)
        self.failed_walks = [0]

    def _augment(self, e0, *dead):
        outcome = super()._augment(e0, *dead)
        if outcome is None:
            self.failed_walks.append(0)
        else:
            self.failed_walks[-1] += len(outcome)
        return outcome


@pytest.mark.parametrize("n", [100, 250, 400])
def test_failed_searches_visit_each_edge_at_most_once_between_successes(n):
    """A failed search never enters an element an earlier one reached, so
    the failed searches between two successes visit disjoint sets."""
    rng = random.Random(n)
    edges = two_trees_plus_noise(rng, n, n // 4)  # the gate test's pendant graph
    pendant = RootedGraph(n + 1, 0, edges + [(rng.randrange(n), n)])
    run = CountingUnionRun(pendant, (), ())
    run.run()
    assert not run.full()
    assert run.failed_walks[-1] > 0
    assert max(run.failed_walks) <= pendant.edge_count, run.failed_walks


def test_a_union_the_direct_pass_completes_builds_no_adjacency(monkeypatch):
    """Seeded with two spanning trees, the direct pass fills both sides and
    the union returns from its own lists without inserting into a side."""
    rng = random.Random(55)
    g = RootedGraph(60, 0, two_trees_plus_noise(rng, 60, 12))
    t1, t2 = max_forest_pair(g, (), ())
    assert len(t1) == len(t2) == g.n - 1
    seeds = [(eid, 0) for eid in sorted(t1)] + [(eid, 1) for eid in sorted(t2)]
    inserts = []
    insert = ForcedForestContext.insert

    def counted(self, eid):
        inserts.append(eid)
        insert(self, eid)

    monkeypatch.setattr(ForcedForestContext, "insert", counted)
    assert max_forest_pair(g, (), (), seeds) == (t1, t2)
    assert max_forest_pair(g, sorted(t1)[:20], sorted(t2)[:20], seeds) == (t1, t2)
    assert inserts == []


def test_solve_tree_stops_a_pendant_graph_at_the_union_gate():
    rng = random.Random(300)
    edges = two_trees_plus_noise(rng, 300, 75)
    report = solve_tree(RootedGraph(301, 0, edges + [(17, 300)]), 1)
    assert report.decision is False
    assert report.stage == "global-union-gate"


@pytest.mark.parametrize("n", [100, 300])
def test_find_disjoint_bases_keeps_forced_forests_at_scale(n):
    rng = random.Random(n + 1)
    a = random_tree_edges(rng, range(n))
    b = random_tree_edges(rng, range(n))
    g = RootedGraph(n, 0, a + b + random_edges(rng, n, n // 3))
    # edge ids follow the list: a holds ids 0..n-2, b holds n-1..2n-3
    x1 = frozenset(rng.sample(range(n - 1), n // 3))
    x2 = frozenset(rng.sample(range(n - 1, 2 * n - 2), n // 3))
    t1, t2 = find_disjoint_bases(g, g.selection(x1), g.selection(x2))
    assert not (t1.ids & t2.ids)
    assert is_spanning_tree(g, t1.ids) and is_spanning_tree(g, t2.ids)
    assert x1 <= t1.ids and x2 <= t2.ids

"""The partner phase of `fptcommon.run_pipeline` against the exhaustive
pair search it falls back to.

With `fptcommon.PARTNER_STATES` patched to 0 the pipeline runs no partner
search, so every solve is decided by the full shape search and
`PairSearch`, as before the partner phase.  On seeded random, planted and
hub instances of all three kinds, with both answers, the partner path must
give the same decision and stage, and the same report bytes wherever it
falls back: on every NO and on every YES no partner search hits.  Each
partner hit must be a pair the exhaustive search would accept too: two
valid compact structures with disjoint copies (the masks do not conflict),
each extendable, and for tree completable.

The streams behind it are checked on the shape-search fixtures.  A partner
of a row S is a row whose `uses` misses `S.limits`, and that mask is all a
partner search is given: a stream with a mask to prune by lists exactly the
rows of the full search whose `uses` miss it, in search order, with the
same keys, masks, attachments and verdicts, and a budgeted stream lists a
prefix of the full one.  The mask alone keeps out the classes S takes every
copy of: such a class has at most two copies, and `CopyTable` gives it the
bit (c, 1) in `S.limits` and in the `uses` of every row that takes it, so
the classes S exhausts are exactly those whose one-copy bit is in
`S.limits`.  A partner search whose every root take meets the mask visits
its empty start alone and lists no row.
"""

import random
from collections import Counter

import pytest

from rootedpack import fptcommon
from rootedpack.fptcommon import candidate_table
from rootedpack.graphs import ProblemInstance, RootedDigraph, cap_parallel
from rootedpack.instancegen import random_instance
from rootedpack.matroid import max_forest_pair
from rootedpack.pairs import CopyTable, ShapeRows
from rootedpack.solver_arb import (_kernel_shapes, candidate_pool, classify_vertices, solve_arb,
                                   validate_compact_kernel)
from rootedpack.solver_flow import (_flow_shapes, candidate_pool_flow, classify_vertices_flow,
                                    solve_flow, validate_compact_core)
from rootedpack.solver_tree import (_certificate_shapes, candidate_pool_tree,
                                    classify_vertices_tree, solve_tree,
                                    validate_compact_certificate)

from conftest import (planted_digraph_with_hub, planted_tree_with_hub, random_digraph,
                      random_graph, root_degree_three_with_hub)

SOLVE = {"arb": solve_arb, "flow": solve_flow, "tree": solve_tree}
VALIDATE = {"arb": validate_compact_kernel, "flow": validate_compact_core,
            "tree": validate_compact_certificate}
SHAPES = {"arb": _kernel_shapes, "flow": _flow_shapes, "tree": _certificate_shapes}
FAN = {"arb": lambda k: 6 * k - 5, "flow": lambda k: 20 * k * k + 1, "tree": lambda k: 8 * k - 7}
K_VALUES = {"arb": (2, 3), "flow": (2,), "tree": (2, 3)}


def instances(kind):
    """(graph, k): small random graphs at k = 1..3, denser `random_instance`
    ones at k = 2..3, planted YES instances with a large hub, and their
    certified NO counterparts with a root of (out-)degree 3."""
    rng = random.Random(31)
    undirected = kind == "tree"
    draw = random_graph if undirected else random_digraph
    for _ in range(60):
        yield draw(rng, max_n=8, max_m=20), rng.choice((1, 2) if kind == "flow" else (1, 2, 3))
    ensure = "connected" if undirected else "2-root-connected"
    for seed in range(6):
        for k in K_VALUES[kind]:
            n = 12 + 4 * seed
            yield random_instance(kind, n, 3 * n, seed=seed, ensure=ensure, k=k).graph, k
    for k in K_VALUES[kind]:
        for _ in range(3):
            n = rng.randint(FAN[kind](k) + 2, FAN[kind](k) + 12)
            if kind == "tree":
                yield planted_tree_with_hub(rng, n, k), k
            else:
                yield planted_digraph_with_hub(rng, n, FAN[kind](k)), k
            yield root_degree_three_with_hub(rng, n, n // 4, FAN[kind](k), undirected), k


@pytest.fixture
def fallbacks(monkeypatch):
    """Counts the solves that fell back to the exhaustive search, which
    alone drops the rows that are not extendable."""
    count = Counter()
    keep = ShapeRows.keep_extendable

    def counted(self):
        count["fallback"] += 1
        keep(self)

    monkeypatch.setattr(ShapeRows, "keep_extendable", counted)
    return count


@pytest.mark.parametrize("kind", ["arb", "flow", "tree"])
def test_partner_phase_keeps_every_decision(kind, monkeypatch, fallbacks):
    tally = Counter()
    for g, k in instances(kind):
        fallbacks.clear()
        report = SOLVE[kind](g, k)
        fell_back = fallbacks["fallback"] > 0
        with monkeypatch.context() as patch:
            patch.setattr(fptcommon, "PARTNER_STATES", 0)
            exhaustive = SOLVE[kind](g, k)
        assert (report.decision, report.stage) == (exhaustive.decision, exhaustive.stage)
        if not report.decision or fell_back:
            assert report.to_json() == exhaustive.to_json()
        tally[report.decision, report.stage, fell_back] += 1
    assert tally[True, "completed", False] >= 10, tally  # partner hits
    assert tally[False, "pair-search", True] >= 3, tally  # NO after the fallback


@pytest.mark.parametrize("kind", ["arb", "flow", "tree"])
def test_partner_hits_are_mask_free_extendable_pairs(kind, monkeypatch, fallbacks):
    built = []
    record = fptcommon.compact_structure

    def recorded(*args):
        built.append(record(*args))
        return built[-1]

    monkeypatch.setattr(fptcommon, "compact_structure", recorded)
    hits = 0
    for g, k in instances(kind):
        built.clear()
        fallbacks.clear()
        report = SOLVE[kind](g, k)
        if report.stage != "completed" or fallbacks["fallback"]:
            continue
        first, second = built
        d = first.selection.graph
        assert not first.selection.ids & second.selection.ids
        for structure in (first, second):
            assert VALIDATE[kind](d, k, structure.selection) == dict(structure.attachment)
            if isinstance(d, RootedDigraph):
                assert d.is_root_connected_without(structure.selection.ids)
        if kind == "tree":
            tree1, tree2 = max_forest_pair(d, first.selection.ids, second.selection.ids)
            assert len(tree1) == len(tree2) == d.n - 1
        hits += 1
    assert hits >= 10


def fixture_stores(kind):
    """(capped graph, ordered store) of the kind's search on a few seeded
    instances, large vertices included."""
    for seed, (n, per_vertex, k) in enumerate(((10, 3, 3), (14, 2, 3), (12, 3, 2), (9, 3, 2))):
        if kind == "flow":
            n, k = n - 2, 2 if seed % 2 else 3
        inst = random_instance(kind, n, per_vertex * n, seed=seed, k=k,
                               ensure="connected" if kind == "tree" else "2-root-connected")
        g = cap_parallel(inst).graph
        yield g, SHAPES[kind](g, k)


def columns(rows, indices):
    return [(rows.keys[i], dict(rows.attachments[i]), rows.expanded[i], rows.uses[i],
             rows.limits[i], rows.extendable[i]) for i in indices]


@pytest.fixture
def one_copy_bits(monkeypatch):
    """Each class's one-copy `uses` bit, (c, 1), as its search's `CopyTable`
    hands it out (0 for a class of four or more copies, which gets none);
    clear it before each search."""
    bits = {}
    entry = CopyTable.entry

    def recorded(self, c, copies, m):
        found = entry(self, c, copies, m)
        if m == 1:
            bits[c] = found[1]
        return found

    monkeypatch.setattr(CopyTable, "entry", recorded)
    return bits


def exhausted(g, row):
    """The classes the row takes every copy of."""
    return {c for c, m in zip(row[0], row[1]) if len(g.class_ids(*c)) == m}


@pytest.mark.parametrize("kind", ["arb", "flow", "tree"])
def test_exhausted_classes_are_the_one_copy_bits_in_the_limits(kind, one_copy_bits):
    # the partner mask stands in for the exhausted classes: S takes every
    # copy of a class exactly when that class's bit (c, 1) is in S.limits
    found = 0
    for g, main in fixture_stores(kind):
        one_copy_bits.clear()
        for s in main.stream():
            gone = exhausted(g, main[s])
            assert gone == {c for c, bit in one_copy_bits.items() if bit & main.limits[s]}
            found += len(gone)
    assert found > 100


@pytest.mark.parametrize("kind", ["arb", "flow", "tree"])
def test_masked_and_budgeted_streams_list_the_main_rows(kind):
    checked = pruned = 0
    for g, main in fixture_stores(kind):
        yielded = list(main.stream())
        assert yielded == [i for i in range(len(main)) if main.extendable[i]]
        for s in yielded[::max(1, len(yielded) // 5)]:
            gone = exhausted(g, main[s])
            for against in (0, main.limits[s]):
                partner = main.partner()
                partner_yielded = list(partner.stream(against=against))
                kept = [i for i in range(len(main)) if not main.uses[i] & against]
                assert columns(partner, range(len(partner))) == columns(main, kept)
                assert partner_yielded == [i for i in range(len(partner))
                                           if partner.extendable[i]]
                assert partner.states < main.states or len(kept) == len(main)
                checked += len(kept)
                # every row that takes a class S exhausts meets S's mask
                assert against == 0 or not any(gone.intersection(main[i][0]) for i in kept)
                pruned += against != 0 and any(main.uses[i] & against for i in range(len(main))
                                               if gone.isdisjoint(main[i][0]))
            # a budgeted stream with S's mask lists a prefix of the last one
            cut = main.partner()
            listed = list(cut.stream(main.states // 3, main.limits[s]))
            assert columns(cut, range(len(cut))) == columns(partner, range(len(cut)))
            assert listed == partner_yielded[:len(listed)]
        for budget in (1, 5, main.states // 3):
            cut = main.partner()
            listed = list(cut.stream(budget=budget))
            assert columns(cut, range(len(cut))) == columns(main, range(len(cut)))
            assert listed == [i for i in range(len(cut)) if cut.extendable[i]]
            assert budget <= cut.states < main.states
    assert checked > 100
    # flow cores take second copies, so the mask prunes rows that take no
    # class S exhausts; a kernel or certificate takes one copy of a class
    assert pruned > 0 if kind == "flow" else pruned == 0


POOLS = {"arb": (candidate_pool, classify_vertices),
         "flow": (candidate_pool_flow, classify_vertices_flow),
         "tree": (candidate_pool_tree, classify_vertices_tree)}


@pytest.mark.parametrize("kind", ["arb", "flow", "tree"])
def test_partners_whose_root_takes_all_meet_the_mask_visit_one_state(kind, one_copy_bits):
    # a partner search visits its empty start and, given S.limits, prunes
    # every root take that meets it: one state and no row exactly when all
    # of them do, which the certified NOs with a root of degree three show
    alone = Counter()
    for g, k in instances(kind):
        if k == 1 and kind != "flow":  # the empty tree, a row, is the only state
            continue
        g = cap_parallel(ProblemInstance(kind=kind, graph=g, k=k)).graph
        pool, classify = POOLS[kind]
        candidates_of, _ = candidate_table(g, pool(g, k), classify(g, k).large)
        roots = {c for _, _, c, _, _ in candidates_of[g.root]}
        one_copy_bits.clear()
        main = SHAPES[kind](g, k)
        for s in list(main.stream()):  # the full search takes every root class
            against = main.limits[s]
            partner = main.partner()
            listed = list(partner.stream(fptcommon.PARTNER_STATES, against))
            pruned_at_root = all(one_copy_bits[c] & against for c in roots)
            assert (partner.states == 1) == pruned_at_root
            if pruned_at_root:
                assert listed == [] and len(partner) == 0
                alone[kind] += 1
    assert alone[kind] > 0 if kind == "tree" else True, alone

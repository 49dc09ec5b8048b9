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

The streams behind it are checked on the shape-search fixtures: a stream
with hidden classes, and with a mask to prune by, lists exactly the rows of
the full search that take none of those classes and whose `uses` miss the
mask, in search order, with the same keys, masks, attachments and verdicts,
and a budgeted stream lists a prefix of the full one.
"""

import random
from collections import Counter

import pytest

from rootedpack import fptcommon
from rootedpack.graphs import RootedDigraph, cap_parallel
from rootedpack.instancegen import random_instance
from rootedpack.matroid import max_forest_pair
from rootedpack.pairs import ShapeRows
from rootedpack.solver_arb import _kernel_shapes, solve_arb, validate_compact_kernel
from rootedpack.solver_flow import _flow_shapes, solve_flow, validate_compact_core
from rootedpack.solver_tree import (_certificate_shapes, solve_tree,
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


@pytest.mark.parametrize("kind", ["arb", "flow", "tree"])
def test_hidden_and_budgeted_streams_list_the_main_rows(kind):
    checked = pruned = 0
    for g, main in fixture_stores(kind):
        yielded = list(main.stream())
        assert yielded == [i for i in range(len(main)) if main.extendable[i]]
        for s in yielded[::max(1, len(yielded) // 5)]:
            classes, counts = main[s][:2]
            hidden = frozenset(c for c, m in zip(classes, counts) if len(g.class_ids(*c)) == m)
            for against in (0, main.limits[s]):
                partner = main.partner()
                partner_yielded = list(partner.stream(hidden, against=against))
                kept = [i for i in range(len(main))
                        if hidden.isdisjoint(main[i][0]) and not main.uses[i] & against]
                assert columns(partner, range(len(partner))) == columns(main, kept)
                assert partner_yielded == [i for i in range(len(partner))
                                           if partner.extendable[i]]
                assert partner.states < main.states or len(kept) == len(main)
                checked += len(kept)
                pruned += against != 0 and any(main.uses[i] & against for i in range(len(main))
                                               if hidden.isdisjoint(main[i][0]))
        for budget in (1, 5, main.states // 3):
            cut = main.partner()
            listed = list(cut.stream(budget=budget))
            assert columns(cut, range(len(cut))) == columns(main, range(len(cut)))
            assert listed == [i for i in range(len(cut)) if cut.extendable[i]]
            assert budget <= cut.states < main.states
    assert checked > 100
    # flow cores take second copies, so the mask prunes rows the hiding keeps
    assert pruned > 0 if kind == "flow" else pruned == 0


@pytest.mark.parametrize("kind", ["arb", "flow", "tree"])
def test_stalled_partner_searches_are_charged_unrun(kind, monkeypatch):
    # a partner search that hides every class its empty start could take
    # visits that one state and lists no row, so the pipeline charges the
    # state without setting the search up, and every report stays the same
    stalls = ShapeRows.stalls
    stalled = Counter()

    def checked(self, hidden):
        if stalls(self, hidden):
            probe = self.partner()
            assert list(probe.stream(hidden)) == [] and len(probe) == 0
            assert probe.states == 1
            stalled[kind] += 1
            return True
        return False

    monkeypatch.setattr(ShapeRows, "stalls", checked)
    for g, k in instances(kind):
        report = SOLVE[kind](g, k)
        with monkeypatch.context() as patch:
            patch.setattr(ShapeRows, "stalls", lambda self, hidden: False)
            unskipped = SOLVE[kind](g, k)
        assert report.to_json() == unskipped.to_json()
    # every certified NO with a root of degree three stalls at tree's k >= 2
    print(kind, stalled)
    assert stalled[kind] > 0 if kind == "tree" else True, stalled

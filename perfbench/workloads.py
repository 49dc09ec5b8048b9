"""The benchmark's workloads: fixed base instances, relabelled per seed.

Each workload is a list of cases.  A case builds one base instance from the
fixed `BASE_SEED` and knows its certified answer.  The benchmark's `--seed`
then draws random relabellings of the non-root vertices of every base
instance.  Relabelling keeps the answer (the root stays vertex 0), but it
changes the canonical order in which the solvers enumerate shapes, pairs and
completion candidates, so every seed is a different input with the same
certified decision.

Fixing the base graphs is deliberate: solve times of independently drawn
sparse instances differ by up to 100x from seed to seed, which would drown
any change a later optimisation makes.  Relabelling moves one operation's
time by about 5 to 20 percent, and the pendant tree's matroid union by up to
2x, which is why a run draws several copies and takes medians over them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from rootedpack.graphs import ProblemInstance, RootedDigraph, RootedGraph
from rootedpack.instancegen import random_instance

from generators import pendant_tree_no, planted_yes, root_degree_three_no

BASE_SEED = 1


@dataclass(frozen=True)
class Case:
    label: str
    make: Callable[[], ProblemInstance]
    expected: bool
    why: str


def _dense(kind: str, n: int, m: int, k: int) -> Case:
    ensure = "connected" if kind == "tree" else "2-root-connected"
    return Case(
        f"{kind}-n{n}-m{m}-k{k}",
        lambda: random_instance(kind, n, m, BASE_SEED, ensure=ensure, k=k),
        True,
        "dense random, about 10 arcs per vertex; YES is certified by the "
        "validated witness",
    )


def _planted(kind: str, n: int, k: int, seed: int, root_children: int,
             noise: int | None = None) -> Case:
    noise = round(0.7 * n) if noise is None else noise
    return Case(
        f"planted-{kind}-n{n}-k{k}-s{seed}",
        lambda: planted_yes(kind, n, k, noise, BASE_SEED * 100 + seed, root_children),
        True,
        f"planted pair with {root_children} root children each and {noise} "
        "noise arcs; YES by construction",
    )


def _root3(kind: str, n: int, k: int, seed: int, noise: int | None = None) -> Case:
    noise = round(0.7 * n) if noise is None else noise
    return Case(
        f"root3-{kind}-n{n}-k{k}-s{seed}",
        lambda: root_degree_three_no(kind, n, k, noise, BASE_SEED * 100 + seed),
        False,
        "root out-degree 3; NO by the root-arc count",
    )


def _k1_twin(no_case: Case) -> Case:
    """The same graph at k = 1, where the planted pair makes it YES."""
    def make():
        inst = no_case.make()
        return ProblemInstance(kind=inst.kind, graph=inst.graph, k=1)

    return Case(
        f"{no_case.label}-at-k1",
        make,
        True,
        "k = 1 twin of a root-degree-3 NO instance; YES by the planted pair, "
        "and it runs growth, completion and validation on this workload",
    )


def _pendant(n: int, m: int, k: int) -> Case:
    return Case(
        f"pendant-tree-n{n}-m{m}-k{k}",
        lambda: pendant_tree_no(n, m, k, BASE_SEED),
        False,
        "degree-1 vertex; NO, found by the failing matroid-union gate",
    )


# Sizes keep every operation under about 0.8 s on a 2-core x86-64 host: the
# calibration loop next to an operation only tracks the machine's speed
# during operations that short.
WORKLOADS: dict[str, list[Case]] = {
    "dense": [
        _dense("arb", 250, 2500, 2),
        _dense("arb", 300, 3000, 2),
        _dense("tree", 500, 5000, 3),
        _dense("flow", 50, 500, 2),
    ],
    "sparse-planted": [
        *(_planted("arb", 24, 4, s, 4) for s in (1, 3, 4)),
        _planted("tree", 16, 4, 1, 5, noise=3),
        _planted("flow", 12, 3, 1, 4, noise=2),
    ],
    "certified-no": [
        *(_root3("arb", 24, 4, s) for s in (1, 2, 3)),
        _root3("tree", 14, 4, 1),
        _root3("flow", 12, 3, 1, noise=4),
        _pendant(80, 480, 2),
        _k1_twin(_root3("arb", 24, 4, 1)),
        _k1_twin(_root3("tree", 14, 4, 1)),
        _k1_twin(_root3("flow", 12, 3, 1, noise=4)),
    ],
}


def relabel(instance: ProblemInstance, seed: int) -> ProblemInstance:
    """The same instance with its non-root vertices randomly renamed."""
    g = instance.graph
    if g.root != 0:
        raise ValueError("relabel expects the root at vertex 0")
    perm = list(range(1, g.n))
    random.Random(seed).shuffle(perm)
    perm.insert(0, 0)
    if isinstance(g, RootedDigraph):
        graph = RootedDigraph(g.n, 0, [(perm[u], perm[v]) for u, v, _ in g.arcs()])
    else:
        graph = RootedGraph(g.n, 0, [(perm[u], perm[v]) for u, v, _ in g.edges()])
    return ProblemInstance(kind=instance.kind, graph=graph, k=instance.k)


def relabelled(base: ProblemInstance, seed: int, index: int,
               copies: int) -> list[ProblemInstance]:
    """`copies` relabellings of the base instance of case `index`."""
    return [relabel(base, (seed * 64 + copy) * 1000 + index) for copy in range(copies)]


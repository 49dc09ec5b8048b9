"""Seeded instance generators whose decision is known without solving.

Every generator returns a `ProblemInstance` whose answer follows from how it
was built.  The proof of each answer sits in the generator's docstring; the
benchmark compares the solver's decision against `expected` and re-checks
every YES witness with `validate_witness`.

Vertex 0 is always the root.  Arcs are emitted in a shuffled order, so the
planted structure is not visible from the input order.
"""

from __future__ import annotations

import random

from rootedpack.graphs import ProblemInstance, RootedDigraph, RootedGraph

# Bounding the children keeps the neighbourhood of the root, where the
# solvers enumerate their shapes, about the same size from seed to seed.
MAX_CHILDREN = 2


def random_arborescence(
    rng: random.Random, n: int, root_children: int, max_branch: int
) -> dict[int, int]:
    """Parent map of a random spanning 0-arborescence.

    The root gets exactly `root_children` children.  Every other vertex hangs
    below a uniformly chosen earlier vertex that has fewer than
    `MAX_CHILDREN` children and whose root branch still has fewer than
    `max_branch` vertices, so every subtree has at most `max_branch`
    vertices.
    """
    if not 1 <= root_children <= n - 1 or root_children * max_branch < n - 1:
        raise ValueError("root_children and max_branch cannot span the vertices")
    order = list(range(1, n))
    rng.shuffle(order)
    tops = order[:root_children]
    parent = {v: 0 for v in tops}
    branch = {v: v for v in tops}
    size = dict.fromkeys(tops, 1)
    children = dict.fromkeys(tops, 0)
    for v in order[root_children:]:
        open_ = [u for u in children
                 if children[u] < MAX_CHILDREN and size[branch[u]] < max_branch]
        if not open_:
            raise ValueError("MAX_CHILDREN and max_branch cannot span the vertices")
        u = rng.choice(open_)
        parent[v] = u
        branch[v] = branch[u]
        size[branch[v]] += 1
        children[u] += 1
        children[v] = 0
    return parent


def _noise(rng: random.Random, n: int, count: int) -> list[tuple[int, int]]:
    """Random arcs between non-root vertices: they never touch the root."""
    arcs = []
    while len(arcs) < count:
        u, v = rng.randrange(1, n), rng.randrange(1, n)
        if u != v:
            arcs.append((u, v))
    return arcs


def _build(kind: str, n: int, k: int, arcs: list[tuple[int, int]],
           rng: random.Random) -> ProblemInstance:
    rng.shuffle(arcs)
    if kind == "tree":
        return ProblemInstance(kind="tree", graph=RootedGraph(n, 0, arcs), k=k)
    return ProblemInstance(kind=kind, graph=RootedDigraph(n, 0, arcs), k=k)


def planted_yes(kind: str, n: int, k: int, noise: int, seed: int,
                root_children: int = 3) -> ProblemInstance:
    """Two arc-disjoint planted arborescences plus `noise` random arcs.

    Answer: YES for arb, flow and tree, for every k with n - 1 - k >= 1.
    Each planted arborescence A has every subtree of at most n - 1 - k
    vertices.
    - arb: n - |subtree(v)| >= k + 1 > k for every v, so A is k-safe; the
      two planted copies are arc-disjoint.
    - flow: routing one unit per vertex along A puts |subtree(v)| <= n - k
      units on the arc into v, within the capacity n - k, so A with that
      flow is a spanning (r,k)-flow branching.
    - tree: as an undirected tree rooted at 0, the component hanging at v
      is subtree(v), with at most n - 1 - k vertices, so A is (r,k)-safe;
      the two edge sets are disjoint because every planted arc is its own
      edge.
    Extra arcs never destroy a packing, so the noise keeps the answer.
    """
    rng = random.Random(seed)
    arcs = []
    for _ in range(2):
        parent = random_arborescence(rng, n, root_children, n - 1 - k)
        arcs.extend((u, v) for v, u in parent.items())
    arcs.extend(_noise(rng, n, noise))
    return _build(kind, n, k, arcs, rng)


def root_degree_three_no(kind: str, n: int, k: int, noise: int,
                         seed: int) -> ProblemInstance:
    """A planted pair whose root has exactly three arcs: NO for k >= 2.

    One spanning arborescence has a single root child and the other has two;
    the noise arcs never touch the root, so the root has out-degree (tree:
    degree) exactly 3.  Both arborescences survive, so the instance is
    2-root-connected (tree: has two edge-disjoint spanning trees) and the
    solvers pass their gates and reach pair search.

    Answer: NO for arb, flow and tree when k >= 2.  Each packed structure
    needs at least two root arcs:
    - arb: with one root arc (0, c), subtree(c) holds all n - 1 non-root
      vertices and n - (n - 1) = 1 < k.
    - flow: the root must send n - 1 units, and one arc carries at most
      n - k < n - 1 of them.
    - tree: with one root edge (0, c), the component hanging at c holds
      n - 1 vertices, more than the n - 1 - k allowed.
    Two disjoint structures would need four root arcs, and there are three.
    """
    if k < 2:
        raise ValueError("the root-degree certificate needs k >= 2")
    rng = random.Random(seed)
    arcs = []
    for children in (1, 2):
        parent = random_arborescence(rng, n, children, n - 1)
        arcs.extend((u, v) for v, u in parent.items())
    arcs.extend(_noise(rng, n, noise))
    return _build(kind, n, k, arcs, rng)


def pendant_tree_no(n: int, m: int, k: int, seed: int) -> ProblemInstance:
    """A connected random graph plus one vertex of degree 1: NO for tree.

    Vertices 0..n-2 carry a random spanning tree plus random extra edges,
    m - 1 edges in all; vertex n - 1 hangs off one random vertex by a single
    edge.

    Answer: NO for every k.  Both spanning trees must reach vertex n - 1,
    and it has only one incident edge, so they cannot be edge-disjoint.
    """
    if m < n - 1:
        raise ValueError("m must be at least n - 1")
    rng = random.Random(seed)
    core = n - 1
    edges = [(u, v) for v, u in random_arborescence(rng, core, 1, core - 1).items()]
    while len(edges) < m - 1:
        u, v = rng.randrange(core), rng.randrange(core)
        if u != v:
            edges.append((u, v))
    edges.append((rng.randrange(core), n - 1))
    return _build("tree", n, k, edges, rng)

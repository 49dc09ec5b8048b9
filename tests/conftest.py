import random

import hypothesis
import pytest
from hypothesis import strategies as st

from rootedpack.graphs import RootedDigraph, RootedGraph

hypothesis.settings.register_profile(
    "ci", max_examples=60, deadline=None, derandomize=True)
hypothesis.settings.load_profile("ci")


@st.composite
def digraphs(draw, max_n=7, max_m=16):
    n = draw(st.integers(min_value=1, max_value=max_n))
    if n == 1:
        return RootedDigraph(1, 0, [])
    m = draw(st.integers(min_value=0, max_value=max_m))
    arcs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).filter(
            lambda p: p[0] != p[1]),
        min_size=0, max_size=m))
    return RootedDigraph(n, 0, arcs)


@st.composite
def graphs(draw, max_n=7, max_m=16):
    n = draw(st.integers(min_value=1, max_value=max_n))
    if n == 1:
        return RootedGraph(1, 0, [])
    m = draw(st.integers(min_value=0, max_value=max_m))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]),
        min_size=0, max_size=m))
    return RootedGraph(n, 0, edges)


def random_digraph(rng: random.Random, max_n=6, max_m=None, max_mult=2) -> RootedDigraph:
    """Bounded-attempt random rooted digraph (root 0, no arcs into 0)."""
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m if max_m is not None else 3 * n)
    arcs = []
    counts = {}
    for _ in range(6 * m + 8):
        if len(arcs) >= m or n < 2:
            break
        u = rng.randrange(n)
        v = rng.randrange(1, n)
        if u == v or counts.get((u, v), 0) >= max_mult:
            continue
        counts[(u, v)] = counts.get((u, v), 0) + 1
        arcs.append((u, v))
    return RootedDigraph(n, 0, arcs)


def spanning_digraph(rng: random.Random, n: int, extra: int, max_mult: int = 2) -> RootedDigraph:
    """Random spanning r-arborescence plus `extra` random arcs, each class
    drawn with 1..max_mult copies; always root-connected."""
    order = list(range(1, n))
    rng.shuffle(order)
    placed = [0]
    arcs = []
    for v in order:
        arcs.append((rng.choice(placed), v))
        placed.append(v)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(1, n)
        if u != v:
            arcs.extend([(u, v)] * rng.randint(1, max_mult))
    return RootedDigraph(n, 0, arcs)


def random_graph(rng: random.Random, max_n=6, max_m=None, max_mult=2) -> RootedGraph:
    n = rng.randint(1, max_n)
    m = rng.randint(0, max_m if max_m is not None else 3 * n)
    edges = []
    counts = {}
    for _ in range(6 * m + 8):
        if len(edges) >= m or n < 2:
            break
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if counts.get(key, 0) >= max_mult:
            continue
        counts[key] = counts.get(key, 0) + 1
        edges.append((u, v))
    return RootedGraph(n, 0, edges)


def connected_graph(rng: random.Random, max_n=7, extra=6) -> RootedGraph:
    """Random spanning tree plus extra edges; always connected."""
    n = rng.randint(1, max_n)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    for _ in range(rng.randint(0, extra)):
        if n < 2:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v))
    return RootedGraph(n, 0, edges)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)

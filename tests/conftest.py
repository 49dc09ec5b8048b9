import random
import signal

import hypothesis
import pytest
from hypothesis import strategies as st

from rootedpack.graphs import RootedDigraph, RootedGraph

hypothesis.settings.register_profile(
    "ci", max_examples=60, deadline=None, derandomize=True)
hypothesis.settings.load_profile("ci")


# seconds a test may run before it fails: a search that never ends, such as
# a parent walk around a cycle, then fails its test instead of hanging the run
TEST_SECONDS = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test once it has run `TEST_SECONDS` (where SIGALRM exists)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test still running after {TEST_SECONDS} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def root_degree_three(rng: random.Random, n: int, noise: int, undirected: bool = False):
    """Two arc-disjoint spanning 0-arborescences, one with a single root child
    and one with two, plus `noise` random arcs between non-root vertices.

    The instance is 2-root-connected (undirected: has two edge-disjoint
    spanning trees), so the solvers pass their gates, and the root has
    (out-)degree exactly 3.  For k >= 2 the answer is NO for arb, flow and
    tree, because each structure needs two root arcs and two disjoint ones
    would need four:
    - arb and tree: with a single root arc (0, c), c's subtree (the
      component hanging at c) holds all n - 1 non-root vertices, more than
      k-safety allows;
    - flow: the root sends n - 1 units through arcs of capacity n - k, less
      than n - 1.
    """
    arcs = []
    for children in (1, 2):
        order = list(range(1, n))
        rng.shuffle(order)
        for idx, v in enumerate(order):
            arcs.append((0 if idx < children else rng.choice(order[:idx]), v))
    while len(arcs) < 2 * (n - 1) + noise:
        u, v = rng.randrange(1, n), rng.randrange(1, n)
        if u != v:
            arcs.append((u, v))
    rng.shuffle(arcs)
    return RootedGraph(n, 0, arcs) if undirected else RootedDigraph(n, 0, arcs)


def root_degree_three_with_hub(rng: random.Random, n: int, noise: int, fan: int,
                               undirected: bool = False):
    """`root_degree_three` plus a fan of `fan` arcs (edges) from one of the
    root's children, the hub, to distinct non-root heads.

    The fan adds nothing at the root, which keeps (out-)degree 3, so the
    answer stays NO for k >= 2 by `root_degree_three`'s argument.  A fan of
    6k - 5 (arb), 8k - 7 (tree) or 20k^2 + 1 (flow) heads makes the hub
    large at k, so the shape searches attach to it.
    """
    g = root_degree_three(rng, n, noise, undirected)
    pairs = [(u, v) for u, v, _ in (g.edges() if undirected else g.arcs())]
    hub = rng.choice([v for u, v in pairs if u == 0])  # an edge lists its smaller end first
    pairs += [(hub, v) for v in rng.sample([v for v in range(1, n) if v != hub], fan)]
    rng.shuffle(pairs)
    return type(g)(n, 0, pairs)


def planted_tree_with_hub(rng: random.Random, n: int, k: int) -> RootedGraph:
    """Two planted spanning trees, a hub fan and n // 3 noise edges: YES
    for tree at every k <= (n - 1) - ceil((n - 1) / 3).

    Each planted tree has three root children, and every other vertex joins
    the branch of its position modulo 3, so no branch holds more than
    ceil((n - 1) / 3) vertices and both trees are (r,k)-safe.  They are
    edge-disjoint because every planted edge is its own copy, and extra
    edges never destroy a packing.  The hub, a root child in both trees, gets a
    fan of 8k - 7 distinct neighbours, so it is large at k: compact
    certificates on both sides keep it as a leaf, and both sides grow.
    """
    hub = rng.randrange(1, n)
    others = [v for v in range(1, n) if v != hub]
    edges = []
    for _ in range(2):
        order = [hub, *rng.sample(others, n - 2)]
        branches = [[v] for v in order[:3]]
        edges += [(0, v) for v in order[:3]]
        for idx, v in enumerate(order[3:]):
            edges.append((rng.choice(branches[idx % 3]), v))
            branches[idx % 3].append(v)
    edges += [(hub, v) for v in rng.sample(others, 8 * k - 7)]
    while len(edges) < 2 * (n - 1) + 8 * k - 7 + n // 3:
        u, v = rng.randrange(1, n), rng.randrange(1, n)
        if u != v:
            edges.append((u, v))
    rng.shuffle(edges)
    return RootedGraph(n, 0, edges)


def planted_digraph_with_hub(rng: random.Random, n: int, fan: int) -> RootedDigraph:
    """Two planted spanning arborescences, a hub out-fan of `fan` distinct
    heads and n // 3 noise arcs: YES for arb and flow at every
    k <= n - ceil((n - 1) / 3).

    As in `planted_tree_with_hub`, each arborescence has three root children
    and no root branch holds more than ceil((n - 1) / 3) vertices, so every
    subtree has at most n - k vertices: each arborescence is k-safe, and
    routing one unit per vertex along it is an (r,k)-flow branching.  They
    are arc-disjoint because every planted arc is its own copy.  The hub is
    a root child in both; a fan of 6k - 5 (arb) or 20k^2 + 1 (flow) heads
    makes it large at k.
    """
    hub = rng.randrange(1, n)
    others = [v for v in range(1, n) if v != hub]
    arcs = []
    for _ in range(2):
        order = [hub, *rng.sample(others, n - 2)]
        branches = [[v] for v in order[:3]]
        arcs += [(0, v) for v in order[:3]]
        for idx, v in enumerate(order[3:]):
            arcs.append((rng.choice(branches[idx % 3]), v))
            branches[idx % 3].append(v)
    arcs += [(hub, v) for v in rng.sample(others, fan)]
    while len(arcs) < 2 * (n - 1) + fan + n // 3:
        u, v = rng.randrange(1, n), rng.randrange(1, n)
        if u != v:
            arcs.append((u, v))
    rng.shuffle(arcs)
    return RootedDigraph(n, 0, arcs)


def relabel(g, rng: random.Random):
    """A copy of `g` with its non-root vertices renamed at random and its
    arcs (edges) listed, and so numbered, in a random order."""
    if g.root != 0:
        raise ValueError("relabel expects the root at vertex 0")
    names = [0, *rng.sample(range(1, g.n), g.n - 1)]
    pairs = g.edges() if isinstance(g, RootedGraph) else g.arcs()
    arcs = [(names[u], names[v]) for u, v, _ in pairs]
    rng.shuffle(arcs)
    return type(g)(g.n, 0, arcs)


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

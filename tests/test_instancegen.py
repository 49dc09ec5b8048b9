import itertools
import random
import time

import pytest

from rootedpack.connectivity import is_k_root_connected
from rootedpack.errors import ContractError, GenerationError, ParseError
from rootedpack.graphs import RootedGraph, hanging_component_sizes
from rootedpack.instancegen import (
    CnfFormula,
    parse_dimacs,
    random_instance,
    sat_reduction,
    witness_tree_from_assignment,
)


def test_formula_validation():
    with pytest.raises(ContractError):
        CnfFormula(num_vars=2, clauses=((1, 1),))
    with pytest.raises(ContractError):
        CnfFormula(num_vars=2, clauses=((3,),))
    with pytest.raises(ContractError):
        CnfFormula(num_vars=4, clauses=((1, 2, 3, 4),))


def test_parse_dimacs_subset():
    f = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
    assert f.num_vars == 3
    assert f.clauses == ((1, -2), (2, 3))
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 5\n1 0\n")


def test_reduction_paper_figure():
    # l=4, m=1, C1 = -x1 v x2 v -x4: k = 1+4+6+1 = 12, q = k, n = q+k+l+1
    phi = CnfFormula(num_vars=4, clauses=((-1, 2, -4),))
    out = sat_reduction(phi)
    assert out.k == 12
    assert out.q == 12
    assert out.graph.n == 29
    interiors = [v for v, r in out.roles.items() if r.startswith("path:")]
    assert len(interiors) == 6  # l/2 = 2 interior vertices per literal


def test_reduction_pads_odd_variable_count():
    phi = CnfFormula(num_vars=3, clauses=((1, 2),))
    out = sat_reduction(phi)
    assert out.num_vars == 4
    assert out.graph.n == out.q + out.k + out.num_vars + 1


def test_reduction_q_parameter_check():
    phi = CnfFormula(num_vars=2, clauses=((1,),))
    out = sat_reduction(phi)
    with pytest.raises(GenerationError):
        sat_reduction(phi, q=out.k - out.num_vars - 1)


def test_vertex_count_identity_random_formulas():
    rng = random.Random(77)
    for i in range(100):
        ell = rng.randint(1, 8)
        m = rng.randint(1, 5)
        clauses = []
        for _ in range(m):
            size = rng.randint(1, min(3, ell))
            vars_ = rng.sample(range(1, ell + 1), size)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
        phi = CnfFormula(num_vars=ell, clauses=tuple(clauses))
        out = sat_reduction(phi)
        assert out.graph.n == out.q + out.k + out.num_vars + 1


def test_witness_tree_tight_margin():
    phi = CnfFormula(num_vars=4, clauses=((-1, 2, -4),))
    out = sat_reduction(phi)
    for bits in itertools.product((False, True), repeat=4):
        if not phi.satisfied_by(bits):
            continue
        sel = witness_tree_from_assignment(out, bits)
        sizes = hanging_component_sizes(sel)
        margins = [(out.graph.n - 1) - s for s in sizes.values()]
        assert len(sizes) == out.graph.n - 1  # spanning
        assert min(margins) == out.k


def test_witness_tree_monotone_positive_all_true():
    # all-true assignment on a monotone-positive formula: P uses the
    # negative vertices throughout
    phi = CnfFormula(num_vars=2, clauses=((1, 2),))
    out = sat_reduction(phi)
    sel = witness_tree_from_assignment(out, (True, True))
    covered = sel.covered_vertices()
    for i in (1, 2):
        assert out.negative_vertex[i] in covered
    # positive layer vertices hang on the other side of the root
    sizes = hanging_component_sizes(sel)
    assert min((out.graph.n - 1) - s for s in sizes.values()) == out.k


def test_witness_rejects_unsatisfying_assignment():
    phi = CnfFormula(num_vars=2, clauses=((1,), (2,)))
    out = sat_reduction(phi)
    with pytest.raises(ContractError):
        witness_tree_from_assignment(out, (False, True))


def test_witness_validates_for_all_small_satisfiable_formulas():
    rng = random.Random(31)
    done = 0
    while done < 25:
        ell = rng.randint(1, 6)
        m = rng.randint(1, 4)
        clauses = []
        for _ in range(m):
            size = rng.randint(1, min(3, ell))
            vars_ = rng.sample(range(1, ell + 1), size)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
        phi = CnfFormula(num_vars=ell, clauses=tuple(clauses))
        models = [bits for bits in itertools.product((False, True), repeat=ell)
                  if phi.satisfied_by(bits)]
        if not models:
            continue
        done += 1
        out = sat_reduction(phi)
        sel = witness_tree_from_assignment(out, models[0])
        sizes = hanging_component_sizes(sel)
        assert len(sizes) == out.graph.n - 1
        assert all((out.graph.n - 1) - s >= out.k for s in sizes.values())


def test_random_instance_determinism():
    a = random_instance("arb", 9, 20, seed=4)
    b = random_instance("arb", 9, 20, seed=4)
    assert a.to_json() == b.to_json()
    c = random_instance("arb", 9, 20, seed=5)
    assert c.to_json() != a.to_json()


def test_random_instance_ensures():
    inst = random_instance("flow", 8, 20, seed=11, ensure="2-root-connected")
    assert is_k_root_connected(inst.graph, 2)[0]
    tree = random_instance("tree", 8, 10, seed=11, ensure="connected")
    assert tree.graph.is_connected()


def connected_by_rebuilding(n, seed, m):
    """The drawn edges of `random_instance("tree", n, m, seed)` made
    connected the slow way: rebuild the graph after each added edge and join
    the smallest vertex the root does not reach."""
    drawn = random_instance("tree", n, m, seed=seed).graph
    edges = [(u, v) for u, v, _ in sorted(drawn.edges(), key=lambda e: e[2])]
    graph = RootedGraph(n, 0, edges)
    while not graph.is_connected():
        mask = graph.reach_mask()
        edges.append((0, min(v for v in range(n) if not (mask >> v) & 1)))
        graph = RootedGraph(n, 0, edges)
    return graph


@pytest.mark.parametrize("n,m,seed", [
    (1, 0, 0), (2, 1, 0), (10, 9, 1), (60, 59, 2), (300, 299, 3), (500, 499, 4), (500, 5000, 5),
])
def test_connected_repair_matches_rebuilding_after_each_edge(n, m, seed):
    repaired = random_instance("tree", n, m, seed=seed, ensure="connected").graph
    assert repaired.is_connected()
    assert repaired == connected_by_rebuilding(n, seed, m)


def test_connected_repair_adds_edges_on_sparse_draws():
    # the parametrised cases above compare real repairs, not only no-ops
    assert random_instance("tree", 500, 499, seed=4, ensure="connected").graph.edge_count > 499


def test_connected_repair_is_one_pass_at_scale():
    # rebuilding after each added edge took 3.4 s at n = 2,000 and grows
    # quadratically; one union-find pass takes about 0.6 s at n = 50,000
    started = time.perf_counter()
    tree = random_instance("tree", 50_000, 49_999, seed=0, ensure="connected")
    assert time.perf_counter() - started < 20
    assert tree.graph.is_connected()


def test_random_instance_trivial_and_errors():
    assert random_instance("arb", 1, 5, seed=0).graph.n == 1
    with pytest.raises(GenerationError):
        random_instance("arb", 5, 3, seed=0, ensure="2-root-connected")
    with pytest.raises(GenerationError):
        random_instance("tree", 5, 2, seed=0, ensure="connected")
    with pytest.raises(GenerationError):
        random_instance("tree", 5, 20, seed=0, ensure="2-root-connected")

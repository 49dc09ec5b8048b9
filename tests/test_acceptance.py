"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance and count
is pinned here; the suites are seeded and deterministic.
"""

import itertools
import json
import random
import time

import pytest

import rootedpack as rp
from rootedpack.graphs import (
    ProblemInstance,
    RootedDigraph,
    RootedGraph,
    hanging_component_sizes,
)
from rootedpack.instancegen import CnfFormula, random_instance, sat_reduction, witness_tree_from_assignment
from conftest import random_digraph, random_graph


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def all_digraphs(n: int, max_mult: int):
    pairs = [(u, v) for u in range(n) for v in range(1, n) if u != v]
    for mults in itertools.product(range(max_mult + 1), repeat=len(pairs)):
        arcs = []
        for (u, v), m in zip(pairs, mults):
            arcs.extend([(u, v)] * m)
        yield RootedDigraph(n, 0, arcs)


def all_graphs(n: int, max_mult: int):
    pairs = list(itertools.combinations(range(n), 2))
    for mults in itertools.product(range(max_mult + 1), repeat=len(pairs)):
        edges = []
        for (u, v), m in zip(pairs, mults):
            edges.extend([(u, v)] * m)
        yield RootedGraph(n, 0, edges)


def test_criterion_1_oracle_equivalence_arborescences():
    t0 = time.perf_counter()
    checked = 0
    for n in (1, 2, 3, 4):
        for d in all_digraphs(n, 2):
            for k in (1, 2, 3):
                report = rp.solve_arb(d, k)
                want = rp.oracle_arb(d, k).decision
                assert report.decision == want, (list(d.arcs()), k)
                if report.decision:
                    assert report.validation["ok"], (list(d.arcs()), k)
                checked += 1
    rng = random.Random(101)
    for _ in range(500):
        d = random_digraph(rng, max_n=6, max_m=18)
        for k in (1, 2, 3):
            report = rp.solve_arb(d, k)
            want = rp.oracle_arb(d, k).decision
            assert report.decision == want, (list(d.arcs()), k)
            if report.decision:
                assert report.validation["ok"]
            checked += 1
    elapsed = time.perf_counter() - t0
    _report("1 arb-oracle-equivalence",
            elapsed < 600, f"{checked} checks, {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence_flow():
    t0 = time.perf_counter()
    rng = random.Random(202)
    checked = 0
    for _ in range(300):
        d = random_digraph(rng, max_n=5, max_m=12, max_mult=4)
        for k in (1, 2):
            report = rp.solve_flow(d, k)
            want = rp.oracle_flow(d, k).decision
            assert report.decision == want, (list(d.arcs()), k)
            if report.decision:
                # flow feasibility re-derived independently by the validator
                assert report.validation["ok"]
            checked += 1
    elapsed = time.perf_counter() - t0
    _report("2 flow-oracle-equivalence",
            elapsed < 600, f"{checked} checks, {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence_trees():
    t0 = time.perf_counter()
    checked = 0
    for n in (1, 2, 3, 4):
        for g in all_graphs(n, 2):
            for k in (1, 2, 3):
                report = rp.solve_tree(g, k)
                want = rp.oracle_tree(g, k).decision
                assert report.decision == want, (list(g.edges()), k)
                checked += 1
    rng = random.Random(303)
    for _ in range(500):
        g = random_graph(rng, max_n=6, max_m=18)
        for k in (1, 2, 3):
            report = rp.solve_tree(g, k)
            want = rp.oracle_tree(g, k).decision
            assert report.decision == want, (list(g.edges()), k)
            if report.decision:
                assert report.validation["ok"]
            checked += 1
    elapsed = time.perf_counter() - t0
    _report("3 tree-oracle-equivalence",
            elapsed < 600, f"{checked} checks, {elapsed:.1f}s")


def test_criterion_4_k1_collapse_laws():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for i in range(1000):
        n = rng.randint(1, 12)
        d = random_instance("arb", n, rng.randint(0, 3 * n), seed=40000 + i).graph
        want = rp.is_k_root_connected(d, 2)[0]
        assert rp.solve_arb(d, 1).decision == want, list(d.arcs())
        assert rp.solve_flow(d, 1).decision == want, list(d.arcs())
    for i in range(1000):
        n = rng.randint(1, 12)
        g = random_instance("tree", n, rng.randint(0, 3 * n), seed=44000 + i).graph
        want = rp.has_two_disjoint_spanning_trees(g)
        assert rp.solve_tree(g, 1).decision == want, list(g.edges())
    elapsed = time.perf_counter() - t0
    _report("4 k1-collapse-laws", True, f"3000 checks, {elapsed:.1f}s")


def test_criterion_5_property_suites():
    t0 = time.perf_counter()
    import subprocess
    import sys
    from pathlib import Path
    root = Path(__file__).resolve().parent.parent
    suites = [
        "tests/test_connectivity.py::test_submodularity",
        "tests/test_connectivity.py::test_critical_arc_bound",
        "tests/test_flows.py::test_minimize_triple_free_when_large_enough",
        "tests/test_flows.py::test_decompose_recomposition_exact",
        "tests/test_matroid.py::test_tree_mapping_random_validated",
        "tests/test_solver_arb.py::test_pruning_soundness",
        "tests/test_solver_flow.py::test_pruning_soundness_flow",
        "tests/test_solver_tree.py::test_pruning_soundness_tree",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", *suites],
        capture_output=True, text=True, cwd=root)
    elapsed = time.perf_counter() - t0
    _report("5 property-suites", proc.returncode == 0,
            f"8 suites, {elapsed:.1f}s" + ("" if proc.returncode == 0
                                           else f"; {proc.stdout[-400:]}"))


def test_criterion_6_sat_reduction():
    t0 = time.perf_counter()
    rng = random.Random(606)
    for _ in range(100):
        ell = rng.randint(1, 10)
        m = rng.randint(1, 6)
        clauses = []
        for _ in range(m):
            size = rng.randint(1, min(3, ell))
            vars_ = rng.sample(range(1, ell + 1), size)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vars_))
        phi = CnfFormula(num_vars=ell, clauses=tuple(clauses))
        out = sat_reduction(phi)
        assert out.graph.n == out.q + out.k + out.num_vars + 1
    validated = 0
    attempts = 0
    while validated < 25 and attempts < 400:
        attempts += 1
        ell = rng.randint(1, 10)
        m = rng.randint(1, 5)
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
        validated += 1
        out = sat_reduction(phi)
        sel = witness_tree_from_assignment(out, models[0])
        sizes = hanging_component_sizes(sel)
        assert len(sizes) == out.graph.n - 1
        margins = [(out.graph.n - 1) - s for s in sizes.values()]
        assert min(margins) == out.k  # tight margin from the proof
    # unsatisfiable direction is NOT exercised at generated sizes (k >= 12
    # makes both the solver and the oracle infeasible there); documented.
    elapsed = time.perf_counter() - t0
    _report("6 sat-reduction",
            validated >= 25, f"100 identities + {validated} witnesses, {elapsed:.1f}s")


def test_criterion_7_determinism():
    t0 = time.perf_counter()
    import io
    from contextlib import redirect_stdout
    from rootedpack.cli import run as cli_run

    fixtures = []
    d_yes = ProblemInstance(
        kind="arb",
        graph=RootedDigraph(4, 0, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 3), (2, 3)]),
        k=2)
    fixtures.append(("solve", "arb", d_yes))
    f_yes = ProblemInstance(
        kind="flow",
        graph=RootedDigraph(4, 0, [(0, 1), (0, 1), (1, 2), (1, 2), (0, 3), (0, 3)]),
        k=1)
    fixtures.append(("solve", "flow", f_yes))
    t_yes = ProblemInstance(
        kind="tree",
        graph=RootedGraph(4, 0, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 3), (1, 3)]),
        k=1)
    fixtures.append(("solve", "tree", t_yes))
    t_no = ProblemInstance(
        kind="arb", graph=RootedDigraph(3, 0, [(0, 1), (1, 2)]), k=1)
    fixtures.append(("solve", "arb", t_no))

    import tempfile
    for _, problem, inst in fixtures:
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            fh.write(inst.to_json())
            path = fh.name
        outputs = set()
        for _ in range(20):
            buf = io.StringIO()
            with redirect_stdout(buf):
                cli_run(["solve", problem, "--input", path])
            outputs.add(buf.getvalue())
        assert len(outputs) == 1, f"{problem} not byte-identical"
    elapsed = time.perf_counter() - t0
    _report("7 determinism", True, f"4 fixtures x 20 runs, {elapsed:.1f}s")


def test_criterion_8_engineering_envelope():
    t0 = time.perf_counter()
    results = []
    d = random_instance("arb", 300, 3000, seed=88, ensure="2-root-connected").graph
    g = random_instance("tree", 300, 3000, seed=89, ensure="connected").graph
    budgets = {2: 60.0, 3: 600.0}
    for k in (2, 3):
        start = time.perf_counter()
        report = rp.solve_arb(d, k)
        took = time.perf_counter() - start
        assert report.decision and report.validation["ok"]
        assert took < budgets[k], f"solve_arb k={k} took {took:.1f}s"
        results.append(f"arb k={k}: {took:.1f}s")
        start = time.perf_counter()
        report = rp.solve_tree(g, k)
        took = time.perf_counter() - start
        assert report.decision and report.validation["ok"]
        assert took < budgets[k], f"solve_tree k={k} took {took:.1f}s"
        results.append(f"tree k={k}: {took:.1f}s")
    elapsed = time.perf_counter() - t0
    _report("8 engineering-envelope", True, "; ".join(results))

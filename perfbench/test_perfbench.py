"""Tests of the benchmark's own generators, workloads and tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rootedpack  # noqa: E402
from rootedpack import solver_arb, solver_tree  # noqa: E402
from rootedpack.graphs import RootedDigraph, parse_instance, serialize_instance  # noqa: E402
from rootedpack.oracles import (  # noqa: E402
    OracleBudget,
    oracle_arb,
    oracle_flow,
    oracle_tree,
    validate_witness,
)

from generators import pendant_tree_no, planted_yes, root_degree_three_no  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, relabel, relabelled  # noqa: E402

ORACLE = {"arb": oracle_arb, "flow": oracle_flow, "tree": oracle_tree}
BUDGET = OracleBudget(max_vertices=7, max_arcs=16)
SEEDS = range(6)


def _oracle(inst):
    return ORACLE[inst.kind](inst.graph, inst.k, BUDGET).decision


@pytest.mark.parametrize("kind", ["arb", "flow", "tree"])
@pytest.mark.parametrize("seed", SEEDS)
def test_planted_yes_agrees_with_oracle(kind, seed):
    noise = 2 if kind == "flow" else 3
    inst = planted_yes(kind, 7, 2, noise, seed, root_children=2)
    assert _oracle(inst) is True


@pytest.mark.parametrize("kind", ["arb", "flow", "tree"])
@pytest.mark.parametrize("seed", SEEDS)
def test_root_degree_three_is_no_for_k2_and_yes_for_k1(kind, seed):
    noise = 2 if kind == "flow" else 3
    inst = root_degree_three_no(kind, 7, 2, noise, seed)
    root_arcs = sum(1 for u, v in inst.graph.parallel_classes()
                    for _ in inst.graph.class_ids(u, v) if 0 in (u, v))
    assert root_arcs == 3
    assert _oracle(inst) is False
    twin = type(inst)(kind=kind, graph=inst.graph, k=1)
    assert _oracle(twin) is True


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_pendant_tree_agrees_with_oracle(k, seed):
    inst = pendant_tree_no(7, 11, k, seed)
    degrees = [inst.graph.degree(v) for v in range(inst.graph.n)]
    assert 1 in degrees
    assert _oracle(inst) is False


@pytest.mark.parametrize("kind", ["arb", "flow", "tree"])
def test_relabel_keeps_the_oracle_decision(kind):
    for seed in SEEDS:
        inst = planted_yes(kind, 7, 2, 2, seed, root_children=2)
        for make in (lambda i: i, lambda i: root_degree_three_no(kind, 7, 2, 2, seed)):
            base = make(inst)
            moved = relabel(base, seed + 100)
            assert moved.graph.n == base.graph.n
            assert len(moved.graph.parallel_classes()) == len(base.graph.parallel_classes())
            assert _oracle(moved) == _oracle(base)


def _texts(workload, seed, copies):
    return [serialize_instance(inst) for index, case in enumerate(WORKLOADS[workload])
            for inst in relabelled(case.make(), seed, index, copies)]


def test_build_is_deterministic():
    first = _texts("sparse-planted", 3, 2)
    assert first == _texts("sparse-planted", 3, 2)
    assert first != _texts("sparse-planted", 4, 2)
    assert first[0] != first[1]


CASES = [(name, index) for name, cases in WORKLOADS.items() for index in range(len(cases))]


@pytest.mark.parametrize("workload,index", CASES,
                         ids=[f"{w}-{WORKLOADS[w][i].label}" for w, i in CASES])
def test_benchmark_instances_match_their_certified_decision(workload, index):
    case = WORKLOADS[workload][index]
    inst = parse_instance(serialize_instance(relabel(case.make(), 7)))
    report = rootedpack.solve_instance(inst)
    assert report.decision is case.expected
    if report.decision:
        assert validate_witness(inst, report.witness).ok


def test_tracer_keeps_report_bytes_and_restores_attributes():
    inst = planted_yes("arb", 14, 3, 8, 5, root_children=3)
    text = serialize_instance(inst)
    tree_text = serialize_instance(planted_yes("tree", 12, 3, 6, 5, root_children=3))
    before = {name: getattr(solver_arb, name) for name in dir(solver_arb)}
    reach = RootedDigraph.reach_mask
    plain = [rootedpack.solve_instance(rootedpack.graphs.parse_instance(t)).to_json()
             for t in (text, tree_text)]

    tracer = Tracer()
    tracer.install()
    try:
        traced = [rootedpack.solve_instance(rootedpack.graphs.parse_instance(t)).to_json()
                  for t in (text, tree_text)]
    finally:
        tracer.uninstall()

    assert traced == plain
    assert {name: getattr(solver_arb, name) for name in dir(solver_arb)} == before
    assert RootedDigraph.reach_mask is reach
    assert solver_tree.max_forest_pair is rootedpack.matroid.max_forest_pair
    total, own, calls = tracer.layer_totals()
    for name in ("graphs.parse", "graphs.reach_mask", "connectivity.gate",
                 "fptcommon.pair_search", "solver_arb.solve", "solver_tree.solve",
                 "matroid.max_forest_pair", "reports.serialize"):
        assert calls[name] > 0, name
    assert 0 < own["solver_arb.solve"] < total["solver_arb.solve"]
    assert tracer.counts["pair_tests"] == sum(
        json.loads(out)["counters"]["pairsTested"] for out in plain)
    assert 0 < tracer.counts["reach_ok"] <= tracer.counts["reach_calls"]

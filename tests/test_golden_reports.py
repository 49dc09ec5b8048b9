"""Deterministic report bytes pinned for every stage of every solver.

Each case in `golden_reports.json` is a small instance (most drawn with
`random_instance` at the seed its `source` names) with the decision, stage,
counters and sha256 of the deterministic `to_json()` report recorded for it.
A change to the solvers that keeps behaviour must keep all of them.

A YES case that the partner phase of `fptcommon.run_pipeline` answers also
keeps, under `exhaustive`, the counters and sha256 of the report without
that phase, the exhaustive search's: with `PARTNER_STATES` patched to 0
every case must give those, or its own where it has none.
"""

import hashlib
import json
from pathlib import Path

import pytest

from rootedpack import fptcommon, solve_instance
from rootedpack.graphs import parse_instance

CASES = json.loads(Path(__file__).with_name("golden_reports.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_golden(case):
    report = solve_instance(parse_instance(case["instance"]))
    assert report.decision == case["decision"]
    assert report.stage == case["stage"]
    assert report.counters == case["counters"]
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_without_partner_phase_matches_the_exhaustive_golden(case, monkeypatch):
    monkeypatch.setattr(fptcommon, "PARTNER_STATES", 0)
    want = case.get("exhaustive", case)
    assert "exhaustive" not in case or case["decision"]
    report = solve_instance(parse_instance(case["instance"]))
    assert report.decision == case["decision"]
    assert report.stage == case["stage"]
    assert report.counters == want["counters"]
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == want["sha256"]


def test_cases_reach_every_stage():
    reached = {(parse_instance(c["instance"]).kind, c["stage"], c["decision"])
               for c in CASES}
    gates = {"arb": "connectivity-gate", "flow": "connectivity-gate",
             "tree": "global-union-gate"}
    for kind, gate in gates.items():
        assert (kind, gate, False) in reached
        assert (kind, "pair-search", False) in reached
        assert (kind, "completed", True) in reached
        assert any(k == kind and stage == "oracle-smallcase" for k, stage, _ in reached)
    completed_k = {(parse_instance(c["instance"]).kind, parse_instance(c["instance"]).k)
                   for c in CASES if c["stage"] == "completed"}
    assert {(kind, k) for kind in gates for k in (1, 2, 3)} <= completed_k
    assert all(c["counters"]["growSteps"] > 0 for c in CASES
               if c["name"].endswith("growth"))

import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import rootedpack
from rootedpack.cli import run
from rootedpack.errors import InternalError
from rootedpack.graphs import MAX_COPIES, MAX_VERTICES


def cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(list(argv))
    return code, buf.getvalue()


@pytest.fixture
def yes_instance(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("D 3 0\n0 1 2\n0 2 2\n")
    return str(path)


@pytest.fixture
def tree_instance(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("U 3 0\n0 1 2\n0 2 2\n")
    return str(path)


def test_solve_yes_exit_zero(yes_instance):
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance)
    assert code == 0
    report = json.loads(out)
    assert report["decision"] is True
    assert report["witness"]["tree1"] == [0, 2]
    assert report["validation"]["ok"] is True
    assert "timings" not in report


def test_solve_no_exit_one(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("D 3 0\n0 1\n1 2\n")
    code, out = cli("solve", "arb", "--k", "1", "--input", str(path))
    assert code == 1
    assert json.loads(out)["decision"] is False


def test_solve_timings_only_when_not_deterministic(yes_instance):
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance,
                    "--no-deterministic")
    assert code == 0
    assert "timings" in json.loads(out)


def test_validate_round_trip(yes_instance, tmp_path):
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance)
    witness_file = tmp_path / "w.json"
    witness_file.write_text(out)
    code, out = cli("validate", "--input", yes_instance,
                    "--witness", str(witness_file))
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_corrupted_witness_names_failure(yes_instance, tmp_path):
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance)
    report = json.loads(out)
    report["witness"]["tree2"] = report["witness"]["tree1"]
    witness_file = tmp_path / "w.json"
    witness_file.write_text(json.dumps(report))
    code, out = cli("validate", "--input", yes_instance,
                    "--witness", str(witness_file))
    assert code == 1
    verdict = json.loads(out)
    assert not verdict["ok"]
    assert any(c["check"] == "disjoint" and not c["ok"] for c in verdict["checks"])


def test_validate_stated_flow_with_unknown_arc_exits_one(yes_instance, tmp_path):
    path = tmp_path / "w.json"
    path.write_text('{"problem": "flow", "k": 2, "tree1": [999], "tree2": [],'
                    ' "flow1": [[999, 1]]}')
    code, out = cli("validate", "--input", yes_instance, "--witness", str(path))
    assert code == 1
    verdict = json.loads(out)
    assert {"check": "tree1:stated-flow", "ok": False,
            "detail": "stated flow invalid"} in verdict["checks"]


def test_reserved_p_flag(tree_instance):
    code, out = cli("solve", "tree", "--p", "3", "--k", "1", "--input", tree_instance)
    assert code == 2
    assert "not implemented" in json.loads(out)["error"]
    code, _ = cli("solve", "tree", "--p", "2", "--k", "1", "--input", tree_instance)
    assert code == 0


def test_unknown_flag_rejected(yes_instance):
    code, out = cli("solve", "arb", "--k", "1", "--input", yes_instance, "--bogus")
    assert code == 2


def test_usage_error_on_missing_command():
    code, out = cli()
    assert code == 2


def test_solve_rejects_too_many_copies(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("D 2 0\n0 1 1000001\n")
    code, out = cli("solve", "arb", "--k", "1", "--input", str(path))
    assert code == 2
    assert "more than 1000000 arc copies" in json.loads(out)["error"]


def test_solve_rejects_too_many_vertices(tmp_path):
    # a 16-byte input naming one vertex over the limit exits 2 without
    # building any per-vertex table
    path = tmp_path / "wide.txt"
    path.write_text(f"D {MAX_VERTICES + 1} 0\n")
    tracemalloc.start()
    try:
        code, out = cli("solve", "arb", "--k", "1", "--input", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"more than {MAX_VERTICES} vertices" in json.loads(out)["error"]
    assert peak < 1_000_000


def test_oracle_command(yes_instance):
    code, out = cli("oracle", "arb", "--k", "2", "--input", yes_instance)
    assert code == 0
    assert json.loads(out)["decision"] is True


def test_oracle_budget_refusal(tmp_path):
    path = tmp_path / "big.txt"
    lines = ["D 9 0"] + [f"0 {v}" for v in range(1, 9)]
    path.write_text("\n".join(lines) + "\n")
    code, out = cli("oracle", "arb", "--k", "1", "--input", str(path))
    assert code == 2
    assert "budget" in json.loads(out)["error"]


def test_gen_random_and_solve(tmp_path):
    out_file = tmp_path / "inst.json"
    code, _ = cli("gen", "random", "--kind", "tree", "--n", "7", "--arcs", "18",
                  "--seed", "3", "--ensure", "connected", "--k", "1",
                  "--output", str(out_file))
    assert code == 0
    code, out = cli("solve", "tree", "--input", str(out_file))
    assert code in (0, 1)
    assert json.loads(out)["problem"] == "tree"


def test_gen_random_refuses_an_arc_budget_past_the_copy_limit():
    """The budget is checked before any arc is drawn, so this returns at once."""
    started = time.perf_counter()
    code, out = cli("gen", "random", "--kind", "arb", "--n", "10",
                    "--arcs", str(100_000_000_000), "--seed", "1")
    assert code == 2
    assert f"exceeds the limit of {MAX_COPIES} copies" in json.loads(out)["error"]
    assert time.perf_counter() - started < 1.0


def test_gen_sat_with_roles(tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 4 1\n-1 2 -4 0\n")
    inst = tmp_path / "inst.json"
    roles = tmp_path / "roles.json"
    code, _ = cli("gen", "sat", "--cnf", str(cnf), "--output", str(inst),
                  "--roles", str(roles))
    assert code == 0
    obj = json.loads(inst.read_text())
    assert obj["k"] == 12
    assert obj["n"] == 29
    role_map = json.loads(roles.read_text())
    assert role_map["0"] == "root"


def test_stats_command(yes_instance):
    code, out = cli("stats", "--input", yes_instance)
    assert code == 0
    stats = json.loads(out)
    assert stats["n"] == 3
    assert stats["two_root_connected"] is True


def test_text_format(yes_instance):
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance,
                    "--format", "text")
    assert code == 0
    assert out.startswith("arb k=2: YES")


def test_output_file(yes_instance, tmp_path):
    target = tmp_path / "report.json"
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance,
                    "--output", str(target))
    assert code == 0
    assert target.read_text() == out


@pytest.mark.parametrize("error", [
    InternalError("invariant violated", {"hint": "test"}),
    MemoryError(), RecursionError("maximum recursion depth exceeded"),
    SystemError("error return without exception set"),
], ids=lambda error: type(error).__name__)
def test_internal_error_exit_three(yes_instance, monkeypatch, tmp_path, error):
    # exit 1 would read as NO: every unexpected error exits 3 instead
    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(rootedpack, "solve_instance", boom)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # where the bundle goes
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance)
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == (str(error) if isinstance(error, InternalError)
                                else f"{type(error).__name__}: {error}")
    assert Path(payload["diagnostics"]).parent == tmp_path
    bundle = json.loads(Path(payload["diagnostics"]).read_text())["diagnostics"]
    if isinstance(error, InternalError):
        assert bundle == error.diagnostics
    else:
        assert bundle["traceback"][-1].startswith(type(error).__name__)

    # a bundle that cannot be written leaves the message only
    def no_bundle(*args, **kwargs):
        raise OSError("no space left on device")

    monkeypatch.setattr(tempfile, "NamedTemporaryFile", no_bundle)
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance)
    assert code == 3
    assert json.loads(out) == {"error": payload["error"]}


def test_keyboard_interrupt_propagates(yes_instance, monkeypatch):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(rootedpack, "solve_instance", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli("solve", "arb", "--k", "2", "--input", yes_instance)


def test_solve_smallcase_budget_refusal(tmp_path):
    # k large enough to hit the oracle delegation; candidate budget 1 refuses
    path = tmp_path / "d.txt"
    lines = ["D 8 0"] + [f"0 {v} 2" for v in range(1, 8)] + [f"1 {v}" for v in range(2, 8)]
    path.write_text("\n".join(lines) + "\n")
    code, out = cli("solve", "arb", "--k", "6", "--input", str(path), "--budget", "1")
    assert code == 2
    assert "budget" in json.loads(out)["error"]


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_solve_rejects_budget_below_one(yes_instance, budget):
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance,
                    "--budget", budget)
    assert code == 2
    assert json.loads(out)["error"] == "--budget must be >= 1"


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_oracle_rejects_budget_below_one(yes_instance, budget):
    code, out = cli("oracle", "arb", "--k", "2", "--input", yes_instance,
                    "--budget", budget)
    assert code == 2
    assert json.loads(out)["error"] == "--budget must be >= 1"


def test_solve_rejects_bad_k(yes_instance):
    code, out = cli("solve", "arb", "--k", "0", "--input", yes_instance)
    assert code == 2


def test_gen_text_format_round_trips(tmp_path):
    out_file = tmp_path / "inst.txt"
    code, _ = cli("gen", "random", "--kind", "flow", "--n", "6", "--arcs", "14",
                  "--seed", "9", "--k", "2", "--format", "text",
                  "--output", str(out_file))
    assert code == 0
    from rootedpack.graphs import parse_instance
    inst = parse_instance(out_file.read_text())
    assert inst.kind == "flow" and inst.k == 2


def test_console_entry_point(yes_instance):
    # the child process finds the package where this one does
    src = str(Path(rootedpack.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "rootedpack.cli", "solve", "arb", "--k", "2",
         "--input", yes_instance],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["decision"] is True


def test_python_dash_m_package(yes_instance):
    """`python -m rootedpack` from a checkout, with PYTHONPATH=src: a YES
    instance exits 0 and an invalid k exits 2 (usage), never 1 (NO)."""
    src = str(Path(rootedpack.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    codes = []
    for k in ("2", "0"):
        proc = subprocess.run(
            [sys.executable, "-m", "rootedpack", "solve", "arb", "--k", k, "--input", yes_instance],
            capture_output=True, text=True, env=env)
        codes.append(proc.returncode)
        if k == "2":
            assert json.loads(proc.stdout)["decision"] is True
    assert codes == [0, 2]


def test_byte_identical_reports_across_runs(yes_instance):
    outputs = set()
    for _ in range(10):
        _, out = cli("solve", "arb", "--k", "2", "--input", yes_instance)
        outputs.add(out)
    assert len(outputs) == 1


def test_solve_has_no_workers_option(yes_instance):
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance,
                    "--workers", "2")
    assert code == 2
    assert "--workers" in json.loads(out)["error"]


@pytest.mark.parametrize("arcs", ["[[0, 1, 1.5], [0, 2]]", "[[0, 1, true], [0, 2]]",
                                  '[["0", 1], [0, 2]]'])
def test_json_instance_with_non_integers_exits_two(tmp_path, arcs):
    path = tmp_path / "d.json"
    path.write_text(f'{{"kind": "arb", "n": 3, "root": 0, "arcs": {arcs}, "k": 1}}')
    code, out = cli("solve", "arb", "--input", str(path))
    assert code == 2
    assert "must be an integer" in json.loads(out)["error"]


@pytest.mark.parametrize("witness", [
    "[0, 1]",
    '{"tree1": "x", "tree2": []}',
    '{"tree1": [0, 2.0], "tree2": [1, 3]}',
    '{"witness": {"tree1": [0, 2], "tree2": [1, 3], "flow1": [[0, "a"]]}}',
    '{"tree1": [0, 2], "tree2": [1, 3], "flow2": [[0]]}',
    '{"problem": "arb", "k": "2", "tree1": [0, 2], "tree2": [1, 3]}',
])
def test_validate_malformed_witness_exits_two(yes_instance, tmp_path, witness):
    path = tmp_path / "w.json"
    path.write_text(witness)
    code, out = cli("validate", "--k", "2", "--input", yes_instance, "--witness", str(path))
    assert code == 2
    assert "witness" in json.loads(out)["error"]


@pytest.mark.parametrize("bad", ["directory", "latin-1"])
def test_unreadable_input_or_witness_exits_two(yes_instance, tmp_path, bad):
    if bad == "directory":
        path = tmp_path
    else:
        path = tmp_path / "d.txt"
        path.write_bytes("D 3 0\n0 1 2\n0 2 2\n# café\n".encode("latin-1"))
    code, out = cli("solve", "arb", "--k", "2", "--input", str(path))
    assert code == 2
    assert json.loads(out)["error"].startswith(f"cannot read {path}")
    code, out = cli("validate", "--k", "2", "--input", yes_instance, "--witness", str(path))
    assert code == 2
    assert json.loads(out)["error"].startswith(f"cannot read {path}")


def test_permission_denied_input_exits_two(yes_instance, monkeypatch):
    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", denied)
    code, out = cli("solve", "arb", "--k", "2", "--input", yes_instance)
    assert code == 2
    assert "Permission denied" in json.loads(out)["error"]

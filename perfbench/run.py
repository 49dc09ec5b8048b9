"""Solver benchmark: end-to-end and per-layer metrics per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

One operation does what `rootedpack solve` does for one instance, in this
process: `parse_instance` on the canonical text, `solve_instance`, and
`SolveReport.to_json()` in deterministic mode.  Operations run one at a time
(closed loop, one client, no threads).  `--seed` draws `COPIES` relabellings
of every instance of the workload; a pass runs every operation of one copy,
and passes cycle through the copies until `--seconds` is used up.

Every operation is checked outside its timed span: the decision must match
the certified answer, a YES witness must pass `validate_witness`, the report
bytes must match those of the copy's first pass, and the operation must
finish within its deadline.  Any failure makes the run exit with code 1.

Machine speed: on a shared host the same loop runs up to a third slower for
minutes at a time, and CPU time follows wall time, so longer runs do not
average it out.  Each timed span (an operation, one set-up) is therefore
bracketed by a fixed pure-Python calibration loop that calls no rootedpack
code, and the end-to-end times are reported in reference seconds: measured
seconds times `CALIBRATION_S` over the mean of the two calibration times.
Measured seconds are printed on the comment lines as `raw_*`.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes of the same copy and prints the per-layer metrics measured
by `tracer.py`, in measured seconds.  The last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# Relabelled copies of every instance per run: the median over several
# labellings varies less from seed to seed than one labelling's time.
COPIES = 6
# Set-up repeats at least this often and for at least this long, so that
# the median of a set-up of a few milliseconds is still steady.
SETUP_MIN_REPEATS = 3
SETUP_MIN_S = 1.0
# The slowest operation takes under 1 s on a 2-core x86 machine, so an
# operation that needs 30 s is a regression to report, not to wait for.
OP_DEADLINE_S = 30.0
# No operation runs past this many seconds into a run, so a run ends within
# the 3 min it may take.
RUN_LIMIT_S = 150.0
# Iterations of the calibration loop, and the seconds they take at the
# reference speed, close to their median (0.013 to 0.016 s) over the
# baseline runs on a 2-core x86-64 host with Python 3.11.
CALIBRATION_STEPS = 12000
CALIBRATION_S = 0.014
SHAPE_COUNTER = {"arb": "kernels", "flow": "cores", "tree": "certificates"}


class MissedDeadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise MissedDeadline()


class _Node:
    __slots__ = ("key", "mask", "out")

    def __init__(self, key: int):
        self.key = key
        self.mask = 1 << (key % 97)
        self.out: list[int] = []


def _mix(acc: int, m: int) -> int:
    return (acc ^ (m >> 3)) & 0xFFFF


def calibration_loop() -> float:
    """Seconds that a fixed pure-Python loop takes right now.

    The loop does what the solvers do most (bit masks wider than a machine
    word, attribute reads, tuple-keyed dicts, sets, short sorts and small
    calls) but calls no rootedpack code, so no change to the program can
    change it.
    """
    t0 = time.perf_counter()
    nodes = [_Node(key) for key in range(256)]
    seen, index, acc, stack = set(), {}, 0, []
    for i in range(CALIBRATION_STEPS):
        m = (i * 2654435761) & 0xFFFFFFFF
        node = nodes[m & 255]
        acc = (acc | node.mask) ^ (m << 40)
        key = (m & 63, node.key)
        if key not in index:
            index[key] = i
        if m & 1:
            seen.add(m & 8191)
        node.out.append(i)
        if len(node.out) > 8:
            node.out.sort(reverse=True)
            del node.out[4:]
        stack.append(_mix(acc & 0xFFFFFF, m))
        if len(stack) > 64:
            stack.pop()
    return time.perf_counter() - t0


def reference_scale(before: float, after: float) -> float:
    """Factor from measured to reference seconds for a span between two
    calibration runs."""
    return 2 * CALIBRATION_S / (before + after)


class Bench:
    """One workload: its operations, their outputs and the failures seen."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.calibrations: list[float] = []

    # -- set-up ----------------------------------------------------------

    def setup(self) -> None:
        """Build and serialise the workload several times; keep the median.

        Each case is its own timed span: it builds the base instance, draws
        its relabelled copies and serialises them.
        """
        cases = WORKLOADS[self.workload]
        texts = None
        setups, raw, generations = [], [], []
        begin = time.monotonic()
        while (len(setups) < SETUP_MIN_REPEATS
               or time.monotonic() - begin < SETUP_MIN_S):
            scaled = elapsed = generated = 0.0
            again = []
            before = self.calibrate()
            for index, case in enumerate(cases):
                t0 = time.perf_counter()
                base = case.make()
                t1 = time.perf_counter()
                again.append([serialize_instance(inst)
                              for inst in relabelled(base, self.seed, index, COPIES)])
                t2 = time.perf_counter()
                after = self.calibrate()
                scaled += (t2 - t0) * reference_scale(before, after)
                elapsed += t2 - t0
                generated += t1 - t0
                before = after
            if texts is not None and again != texts:
                raise RuntimeError("instance generation is not deterministic")
            texts = again
            setups.append(scaled)
            raw.append(elapsed)
            generations.append(generated)
        self.cases = cases
        self.texts = [list(copy) for copy in zip(*texts)]  # texts[copy][index]
        self.setup_s = statistics.median(setups)
        self.raw_setup_s = statistics.median(raw)
        self.generate_s = statistics.median(generations)
        # reference[copy][index]: report bytes of the copy's first pass
        self.reference: list[list[str | None]] = [[None] * len(cases)
                                                  for _ in range(COPIES)]
        # samples[index]: reference seconds of every untraced run of the case
        self.samples: list[list[float]] = [[] for _ in cases]
        self.raw_samples: list[list[float]] = [[] for _ in cases]

    def calibrate(self) -> float:
        """Collect garbage, so that no timed span pays for the one before;
        then time the calibration loop."""
        gc.collect()
        took = calibration_loop()
        self.calibrations.append(took)
        return took

    # -- passes ----------------------------------------------------------

    def run_pass(self, copy: int, wrap=None) -> float:
        """Run every operation of one copy once; its measured seconds.

        A calibration run sits between consecutive operations, so each
        operation is scaled by the calibration runs right before and after.
        """
        opts = SolveOptions()
        wall = 0.0
        before = self.calibrate()
        for index, (case, text) in enumerate(zip(self.cases, self.texts[copy])):
            op = operation if wrap is None else wrap(f"op:{case.label}", operation)
            self.attempted += 1
            left = RUN_LIMIT_S - (time.monotonic() - self.started)
            if left <= 0:
                self.failures.append(f"{case.label}: run limit reached before it started")
                continue
            signal.setitimer(signal.ITIMER_REAL, min(OP_DEADLINE_S, left))
            t0 = time.perf_counter()
            try:
                inst, out = op(text, opts)
            except MissedDeadline:
                self.failures.append(f"{case.label}: missed its deadline")
                out = None
            except Exception as exc:  # any crash is a failed operation
                self.failures.append(f"{case.label}: {type(exc).__name__}: {exc}")
                out = None
            finally:
                elapsed = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
            after = self.calibrate()
            if out is not None:
                wall += elapsed
                if wrap is None:
                    self.samples[index].append(elapsed * reference_scale(before, after))
                    self.raw_samples[index].append(elapsed)
                self.check(copy, index, case, inst, out)
            before = after
        return wall

    def check(self, copy: int, index: int, case, inst, out: str) -> None:
        report = json.loads(out)
        if report["decision"] != case.expected:
            self.failures.append(f"{case.label}: decision {report['decision']}, "
                                 f"certified {case.expected}")
        elif report["decision"]:
            verdict = validate_witness(inst, report["witness"])
            if not verdict.ok:
                self.failures.append(f"{case.label}: invalid witness {verdict.failures()}")
        if self.reference[copy][index] is None:
            self.reference[copy][index] = out
        elif self.reference[copy][index] != out:
            self.failures.append(f"{case.label}: report bytes differ between passes")

    def schedule(self, traced: bool):
        """Yield (copy, traced) per pass until `seconds` is used up.

        Untraced passes cycle through the copies; with tracing, each is
        followed by a traced pass of the same copy.  Every copy runs once;
        after that no pass starts that would, at the mean pass time so far,
        end after `seconds`.
        """
        per_copy = 2 if traced else 1
        begin = time.monotonic()
        step = 0
        while True:
            yield step // per_copy % COPIES, step % per_copy == 1
            step += 1
            used = time.monotonic() - begin
            if (step >= per_copy * COPIES and step % per_copy == 0
                    and used / step * (step + 1) > self.seconds):
                return

    def traced_pass(self, copy: int) -> float:
        tracer.install()
        try:
            return self.run_pass(copy, tracer.span)
        finally:
            tracer.uninstall()

    # -- report ----------------------------------------------------------

    def reports(self) -> list[dict]:
        """The first report of every operation of every copy."""
        return [json.loads(out) if out else {}
                for outs in self.reference for out in outs]

    def digest(self) -> str:
        h = hashlib.sha256()
        for outs in self.reference:
            for out in outs:
                h.update((out or "").encode())
        return h.hexdigest()


def operation(text: str, opts):
    """What `rootedpack solve` does: parse, solve, serialise the report."""
    inst = graphs.parse_instance(text)
    report = rootedpack.solve_instance(inst, opts)
    return inst, report.to_json()


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _medians(samples: list[list[float]]) -> list[float]:
    return [statistics.median(ts) if ts else float("inf") for ts in samples]


def end_to_end(bench: Bench) -> dict:
    """Per case the median over its runs of all copies; then over cases."""
    per_op = _medians(bench.samples)
    return {
        "wall_s": _metric(sum(per_op), "s"),
        "solve_p50_s": _metric(statistics.median(per_op), "s"),
        "solve_max_s": _metric(max(per_op), "s"),
        "setup_s": _metric(bench.setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(bench: Bench, passes: int, overhead: float) -> dict:
    """Per traced pass: inclusive span time and call count per layer.

    `<solver>.self_s` is the solver span minus its wrapped children; shapes
    and pairs come from the reports' counters, averaged over the copies.
    """
    total, own, calls = tracer.layer_totals()
    counts = tracer.counts

    def secs(name):
        return _metric(total.get(name, 0.0) / passes, "s")

    def count(value):
        return _metric(value / passes, "count")

    out = {
        "graphs.parse_s": secs("graphs.parse"),
        "graphs.cap_parallel_s": secs("graphs.cap_parallel"),
        "graphs.reach_mask_calls": count(calls["graphs.reach_mask"]),
        "graphs.reach_mask_s": secs("graphs.reach_mask"),
        "graphs.reach_ok_ratio": _metric(
            counts["reach_ok"] / max(counts["reach_calls"], 1), "ratio"),
        "connectivity.gate_s": secs("connectivity.gate"),
        "connectivity.max_flow_calls": count(calls["connectivity.max_flow"]),
        "connectivity.max_flow_s": secs("connectivity.max_flow"),
        "fptcommon.grow_s": secs("fptcommon.grow"),
        "fptcommon.complete_s": secs("fptcommon.complete"),
        "fptcommon.complete_stalls": count(counts["complete_stalls"]),
        "fptcommon.pair_search_s": secs("fptcommon.pair_search"),
        "fptcommon.pair_test_calls": count(counts["pair_tests"]),
        "fptcommon.branch_structure_calls": count(calls["fptcommon.branch_structure"]),
        "fptcommon.branch_structure_s": secs("fptcommon.branch_structure"),
    }
    reports = bench.reports()
    for kind in ("arb", "flow", "tree"):
        mine = [r for r in reports if r.get("problem") == kind]
        module = f"solver_{kind}"
        out[f"{module}.self_s"] = _metric(own.get(f"{module}.solve", 0.0) / passes, "s")
        out[f"{module}.shapes_built"] = _metric(
            sum(r["counters"][SHAPE_COUNTER[kind]] for r in mine) / COPIES, "count")
        out[f"{module}.pairs_tested"] = _metric(
            sum(r["counters"]["pairsTested"] for r in mine) / COPIES, "count")
    out.update({
        "matroid.max_forest_pair_calls": count(calls["matroid.max_forest_pair"]),
        "matroid.max_forest_pair_s": secs("matroid.max_forest_pair"),
        "flows.complete_s": secs("flows.complete"),
        "oracles.validate_s": secs("oracles.validate"),
        "reports.serialize_s": secs("reports.serialize"),
        "instancegen.generate_s": _metric(bench.generate_s, "s"),
        "trace.overhead_s": _metric(overhead, "s"),
    })
    return out


def print_operations(bench: Bench, passes: int) -> None:
    per_op = _medians(bench.samples)
    raw = _medians(bench.raw_samples)
    print(f"# workload {bench.workload}, seed {bench.seed}, {len(bench.cases)} "
          f"operations, {COPIES} copies, {passes} untraced passes")
    for index, case in enumerate(bench.cases):
        text = bench.texts[0][index]
        report = json.loads(bench.reference[0][index] or "{}")
        n, arcs = text.split("\n")[2].split()[1], sum(
            int(line.split()[2]) for line in text.split("\n")[3:] if line)
        counters = report.get("counters", {})
        print(f"#   {case.label:28s} n={n:>5s} m={arcs:<6d} expected="
              f"{'YES' if case.expected else 'NO ':3s} stage={report.get('stage', '-'):18s}"
              f" median={per_op[index]:.4f}s raw={raw[index]:.4f}s"
              f" counters={json.dumps(counters, sort_keys=True)} why: {case.why}")
    print(f"# report_sha256 {bench.digest()}")
    print(f"# raw_wall_s {sum(raw)} s")
    print(f"# raw_setup_s {bench.raw_setup_s} s")
    print(f"# calibration_s {statistics.median(bench.calibrations)} s, "
          f"{CALIBRATION_S} s at the reference speed")


def print_dominance() -> None:
    for root, layers in sorted(tracer.self_by_root().items()):
        top = sorted(layers.items(), key=lambda kv: -kv[1])[:4]
        print(f"#   {root[3:]:28s} self time: "
              + ", ".join(f"{name} {t:.3f}s" for name, t in top))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGALRM, _on_alarm)

    bench = Bench(args.workload, args.seed, args.seconds)
    bench.setup()
    walls = {False: [], True: []}
    for copy, traced in bench.schedule(bool(args.trace)):
        walls[traced].append(bench.traced_pass(copy) if traced else bench.run_pass(copy))

    print_operations(bench, len(walls[False]))
    if args.trace:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics = per_layer(bench, len(walls[True]), overhead)
        print("# self time per operation, traced passes summed:")
        print_dominance()
    else:
        metrics = end_to_end(bench)
    failed = len(bench.failures)
    for failure in bench.failures:
        print(f"# FAILED {failure}")
    print(f"# failed_ratio {failed / bench.attempted} ratio")
    for name, m in metrics.items():
        print(f"# {name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    if not (SRC / "rootedpack" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rootedpack sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import rootedpack
    from rootedpack import graphs
    from rootedpack.graphs import serialize_instance
    from rootedpack.oracles import validate_witness
    from rootedpack.solver_arb import SolveOptions

    from tracer import Tracer
    from workloads import WORKLOADS, relabelled

    tracer = Tracer()
    sys.exit(main())

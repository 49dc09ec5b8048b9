#!/usr/bin/env python3
"""Print one sha256 per deterministic solve report over a fixed corpus.

Each line is `label sha256` of the report's canonical JSON, and the last
line is `total <solves> <sha256 of every line before it>`.  Diffing the
output of two checkouts shows whether a change kept every report
byte-identical, and which instance moved if not.

The corpus, 744 solves:
- `random_instance` for every kind at n in {8, 12, 16, 20, 30}, k in
  {1, 2, 3}, m in {2n, 3n, 5n} and seeds 0..3, with the kind's `ensure`
  (2-root-connected for arb and flow, connected for tree); flow at k = 3
  takes only m in {2n, 3n}, as flow n = 8, m = 40, k = 3 runs past 20 s;
- the benchmark's `planted_yes` and `root_degree_three_no` for every kind
  at n in {20, 30}, k = 3, seeds 0..4, with round(0.7 n) noise arcs;
- tree solves that run real matroid unions, at seeds 0..1: the benchmark's
  `pendant_tree_no` at (n, m) in {(80, 480), (200, 1200)}, k = 2, which fail
  the union gate after many failed augmenting searches, and `random_instance`
  at n in {200, 500}, m = 10n, k = 3, connected, which complete by unions
  with forced forests and seeds;
- `fuzz_agreement.planted`'s YES instances and their certified NO twins,
  each drawn from `random.Random(seed)`: arb and tree at k in {3, 4} with
  seeds 0..11, and flow at k = 2 with seeds 0..29.  Their large hub makes
  30 of the YES solves grow their compact pair (arb 10, tree 17, flow 3);
  elsewhere in the corpus only the four dense random tree solves grow.

Each solve gets a 20 s alarm; one that hits it prints `timeout` instead of
a digest, and one that raises prints `error:` and the exception's name
(its traceback goes to standard error).
The corpus takes about 6 s on a 2-core x86-64 host.

`.github/workflows/tests.yml` pins the total line, so a change that moves
any report fails there; one that changes reports on purpose re-pins it.

Example:
    python3 scripts/report_digest.py > digests.txt
"""

import hashlib
import random
import signal
import sys
import traceback
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "perfbench"))

from fuzz_agreement import planted  # noqa: E402
from generators import pendant_tree_no, planted_yes, root_degree_three_no  # noqa: E402

from rootedpack.graphs import ProblemInstance  # noqa: E402
from rootedpack.instancegen import random_instance  # noqa: E402
from rootedpack.solver_arb import solve_arb  # noqa: E402
from rootedpack.solver_flow import solve_flow  # noqa: E402
from rootedpack.solver_tree import solve_tree  # noqa: E402

SOLVERS = {"arb": solve_arb, "flow": solve_flow, "tree": solve_tree}
ENSURE = {"arb": "2-root-connected", "flow": "2-root-connected", "tree": "connected"}
TIMEOUT_S = 20


class Timeout(Exception):
    pass


def fuzz_planted(kind, k, seed, twin):
    """`fuzz_agreement.planted`'s YES instance, or its NO twin, drawn from
    `random.Random(seed)`."""
    return ProblemInstance(kind=kind, graph=planted(random.Random(seed), kind, k)[twin], k=k)


def corpus():
    """(label, a maker of its instance) for every solve of the corpus, in a
    fixed order."""
    for kind in SOLVERS:
        for n in (8, 12, 16, 20, 30):
            for k in (1, 2, 3):
                for per_vertex in (2, 3) if kind == "flow" and k == 3 else (2, 3, 5):
                    for seed in range(4):
                        yield (f"random {kind} n={n} m={per_vertex * n} k={k} seed={seed}",
                               partial(random_instance, kind, n, per_vertex * n, seed,
                                       ENSURE[kind], k))
    for name, make in (("planted", planted_yes), ("root3", root_degree_three_no)):
        for kind in SOLVERS:
            for n in (20, 30):
                for seed in range(5):
                    yield (f"{name} {kind} n={n} k=3 seed={seed}",
                           partial(make, kind, n, 3, round(0.7 * n), seed))
    for n, m in ((80, 480), (200, 1200)):
        for seed in range(2):
            yield (f"pendant tree n={n} m={m} k=2 seed={seed}",
                   partial(pendant_tree_no, n, m, 2, seed))
    for n in (200, 500):
        for seed in range(2):
            yield (f"random tree n={n} m={10 * n} k=3 seed={seed}",
                   partial(random_instance, "tree", n, 10 * n, seed, "connected", 3))
    for kind, ks, seeds in (("arb", (3, 4), 12), ("tree", (3, 4), 12), ("flow", (2,), 30)):
        for k in ks:
            for seed in range(seeds):
                for twin, name in enumerate(("yes", "twin")):
                    yield (f"fuzz-planted {kind} k={k} seed={seed} {name}",
                           partial(fuzz_planted, kind, k, seed, twin))


def digest(make) -> str:
    inst = make()
    signal.alarm(TIMEOUT_S)
    try:
        report = SOLVERS[inst.kind](inst.graph, inst.k)
    except Timeout:
        return "timeout"
    except Exception as exc:  # noqa: BLE001 - the corpus goes on, and a diff shows it
        traceback.print_exc()
        return f"error:{type(exc).__name__}"
    finally:
        signal.alarm(0)
    return hashlib.sha256(report.to_json().encode()).hexdigest()


def main() -> int:
    def expire(signum, frame):
        raise Timeout

    signal.signal(signal.SIGALRM, expire)
    total = hashlib.sha256()
    count = 0
    for label, make in corpus():
        line = f"{label} {digest(make)}"
        print(line, flush=True)
        total.update(line.encode() + b"\n")
        count += 1
    print(f"total {count} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front end.

Exit codes: 0 = YES/valid, 1 = NO/invalid, 2 = usage error, 3 = internal
invariant violation or any other unexpected error, MemoryError included (a
diagnostics bundle path is printed when one can be written).  Reports are
always machine-readable JSON; --format text renders the same JSON for
humans.  Deterministic mode (default) omits timings so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import traceback
from pathlib import Path
from typing import Optional, Sequence

from .errors import InternalError, PackError, ParseError
from .graphs import ProblemInstance, RootedDigraph, json_int, parse_instance
from .instancegen import parse_dimacs, random_instance, sat_reduction
from .matroid import has_two_disjoint_spanning_trees
from .connectivity import is_k_root_connected
from .oracles import OracleBudget, run_oracle, validate_witness
from .fptcommon import SolveOptions
from .reports import SolveReport

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _CliParser(argparse.ArgumentParser):
    def error(self, message: str):  # JSON error object instead of usage text
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _emit(obj: dict, fmt: str, output: Optional[str]) -> None:
    if fmt == "json":
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    else:
        text = _render_text(obj)
    if output:
        Path(output).write_text(text)
    sys.stdout.write(text)


def _render_text(obj: dict) -> str:
    lines = []
    if "decision" in obj:
        verdict = "YES" if obj["decision"] else "NO"
        lines.append(f"{obj.get('problem', '?')} k={obj.get('k', '?')}: {verdict}"
                     f" (stage: {obj.get('stage', '?')})")
        witness = obj.get("witness")
        if witness:
            lines.append(f"tree1: {witness.get('tree1')}")
            lines.append(f"tree2: {witness.get('tree2')}")
        if obj.get("cut_witness"):
            lines.append(f"cut witness: {obj['cut_witness']}")
        if obj.get("counters"):
            lines.append(f"counters: {obj['counters']}")
    else:
        for key in sorted(obj):
            lines.append(f"{key}: {obj[key]}")
    return "\n".join(lines) + "\n"


def _build_parser() -> _CliParser:
    parser = _CliParser(prog="rootedpack", description=__doc__)
    sub = parser.add_subparsers()

    def common(p):
        p.add_argument("--input", required=True)
        p.add_argument("--output")
        p.add_argument("--format", choices=("text", "json"), default="json")

    solve = sub.add_parser("solve")
    solve.set_defaults(handler=_cmd_solve)
    solve.add_argument("problem", choices=("arb", "flow", "tree"))
    common(solve)
    solve.add_argument("--k", type=int)
    solve.add_argument("--p", type=int, default=2)
    solve.add_argument("--deterministic", action=argparse.BooleanOptionalAction, default=True)
    solve.add_argument("--budget", type=int)

    validate = sub.add_parser("validate")
    validate.set_defaults(handler=_cmd_validate)
    common(validate)
    validate.add_argument("--witness", required=True)
    validate.add_argument("--k", type=int)

    oracle = sub.add_parser("oracle")
    oracle.set_defaults(handler=_cmd_oracle)
    oracle.add_argument("problem", choices=("arb", "flow", "tree"))
    common(oracle)
    oracle.add_argument("--k", type=int)
    oracle.add_argument("--budget", type=int)

    gen = sub.add_parser("gen")
    gen.set_defaults(handler=_cmd_gen_missing)
    gen_sub = gen.add_subparsers()
    gen_sat = gen_sub.add_parser("sat")
    gen_sat.set_defaults(handler=_cmd_gen_sat)
    gen_sat.add_argument("--cnf", required=True)
    gen_sat.add_argument("--q", type=int)
    gen_sat.add_argument("--output")
    gen_sat.add_argument("--roles")
    gen_sat.add_argument("--format", choices=("text", "json"), default="json")
    gen_rand = gen_sub.add_parser("random")
    gen_rand.set_defaults(handler=_cmd_gen_random)
    gen_rand.add_argument("--kind", choices=("arb", "flow", "tree"), required=True)
    gen_rand.add_argument("--n", type=int, required=True)
    gen_rand.add_argument("--arcs", type=int, required=True)
    gen_rand.add_argument("--seed", type=int, required=True)
    gen_rand.add_argument("--ensure", choices=("2-root-connected", "connected"))
    gen_rand.add_argument("--k", type=int, default=1)
    gen_rand.add_argument("--output")
    gen_rand.add_argument("--format", choices=("text", "json"), default="json")

    stats = sub.add_parser("stats")
    stats.set_defaults(handler=_cmd_stats)
    common(stats)
    return parser


def _read_text(path: str) -> str:
    """The file's UTF-8 text; ParseError when it cannot be read as such."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_instance(path: str, kind: Optional[str], k: Optional[int]) -> ProblemInstance:
    return parse_instance(_read_text(path), kind=kind, k=k)


def _load_witness(path: str) -> tuple[dict, dict]:
    """(metadata, witness) of a solve report or a bare witness object, whose
    arc ids and [id, value] flow pairs must be JSON integers (ParseError)."""
    meta = json.loads(_read_text(path))
    if not isinstance(meta, dict):
        raise ParseError("witness file must hold a JSON object")
    witness = meta["witness"] if isinstance(meta.get("witness"), dict) else meta
    json_int(meta.get("k", 0), "witness file field 'k'")
    for tag in ("tree1", "tree2", "flow1", "flow2"):
        items, pairs = witness.get(tag, []), tag.startswith("flow")
        if not isinstance(items, list) or pairs and not all(
                isinstance(p, list) and len(p) == 2 for p in items):
            raise ParseError(f"witness {tag!r} must be a list of "
                             + ("[arc id, value] pairs" if pairs else "arc ids"))
        for x in [x for p in items for x in p] if pairs else items:
            json_int(x, f"witness {tag!r} entry")
    return meta, witness


def _budget(args, inst: ProblemInstance) -> Optional[OracleBudget]:
    """The oracle budget that `--budget` asks for, or None without it."""
    if args.budget is None:
        return None
    if args.budget < 1:
        raise _UsageError("--budget must be >= 1")
    return OracleBudget(
        max_vertices=inst.graph.n,
        max_arcs=getattr(inst.graph, "arc_count", getattr(inst.graph, "edge_count", 0)),
        max_candidates=args.budget,
    )


def _cmd_solve(args) -> int:
    if args.p != 2:
        raise _UsageError(f"--p {args.p} not implemented; only p = 2 is supported")
    inst = _load_instance(args.input, args.problem, args.k)
    opts = SolveOptions(deterministic=args.deterministic, oracle_budget=_budget(args, inst))
    from . import solve_instance

    report = solve_instance(inst, opts)
    _emit(report.to_json_dict(), args.format, args.output)
    return EXIT_YES if report.decision else EXIT_NO


def _cmd_validate(args) -> int:
    meta, witness = _load_witness(args.witness)
    k = args.k if args.k is not None else meta.get("k")
    inst = _load_instance(args.input, meta.get("problem"), k)
    verdict = validate_witness(inst, witness)
    _emit(verdict.to_json_dict(), args.format, args.output)
    return EXIT_YES if verdict.ok else EXIT_NO


def _cmd_oracle(args) -> int:
    inst = _load_instance(args.input, args.problem, args.k)
    answer = run_oracle(inst, _budget(args, inst) or OracleBudget())
    report = SolveReport(
        problem=inst.kind, k=inst.k, decision=answer.decision, stage="oracle",
        witness=None if answer.witness is None else {
            "tree1": list(answer.witness[0]), "tree2": list(answer.witness[1])},
        counters={"candidates": answer.candidates})
    _emit(report.to_json_dict(), args.format, args.output)
    return EXIT_YES if answer.decision else EXIT_NO


def _write_instance(inst: ProblemInstance, args) -> None:
    """`inst` in `--format` to `--output`, or to stdout without it."""
    text = inst.to_json() if args.format == "json" else inst.to_text()
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_gen_sat(args) -> int:
    out = sat_reduction(parse_dimacs(_read_text(args.cnf)), q=args.q)
    _write_instance(ProblemInstance(kind="tree", graph=out.graph, k=out.k), args)
    if args.roles:
        Path(args.roles).write_text(
            json.dumps(out.to_roles_json(), sort_keys=True, indent=2) + "\n")
    return EXIT_YES


def _cmd_gen_random(args) -> int:
    _write_instance(random_instance(args.kind, args.n, args.arcs, args.seed,
                                    ensure=args.ensure, k=args.k), args)
    return EXIT_YES


def _cmd_gen_missing(args) -> int:
    raise _UsageError("gen requires a generator: sat or random")


def _cmd_stats(args) -> int:
    inst = _load_instance(args.input, None, None)
    g = inst.graph
    directed = isinstance(g, RootedDigraph)
    classes = g.parallel_classes()
    obj = {
        "kind": inst.kind,
        "k": inst.k,
        "n": g.n,
        "root": g.root,
        "directed": directed,
        "arcs": g.arc_count if directed else g.edge_count,
        "parallel_classes": len(classes),
        "max_multiplicity": max((len(ids) for ids in classes.values()), default=0),
    }
    if directed:
        ok1 = g.is_root_connected_without()
        ok2, _ = is_k_root_connected(g, 2)
        obj["root_connected"] = ok1
        obj["two_root_connected"] = ok2
    else:
        obj["connected"] = g.is_connected()
        obj["two_disjoint_spanning_trees"] = has_two_disjoint_spanning_trees(g)
    _emit(obj, args.format, args.output)
    return EXIT_YES


def run(argv: Sequence[str]) -> int:
    """Entry point returning the exit code; output goes to stdout."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if "handler" not in args:
            raise _UsageError("missing command")
        return args.handler(args)
    except InternalError as exc:
        return _internal(exc)
    except (_UsageError, PackError, OSError, json.JSONDecodeError) as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return EXIT_USAGE
    except Exception as exc:  # a crash must not exit 1, which reads as NO
        return _internal(exc)


def _internal(exc: Exception) -> int:
    """Exit 3 for an InternalError or any unexpected exception, with the path
    of a diagnostics bundle when one can be written (it may not be after a
    MemoryError, say), else with the message only."""
    internal = isinstance(exc, InternalError)
    message = str(exc) if internal else f"{type(exc).__name__}: {exc}"
    out = {"error": message}
    try:
        diagnostics = exc.diagnostics if internal else {
            "traceback": traceback.format_exception(type(exc), exc, exc.__traceback__)}
        with tempfile.NamedTemporaryFile(
                mode="w", prefix="rootedpack-diag-", suffix=".json", delete=False) as fh:
            json.dump({"error": message, "diagnostics": diagnostics},
                      fh, sort_keys=True, default=str)
        out["diagnostics"] = fh.name
    except Exception:
        pass
    sys.stdout.write(json.dumps(out, sort_keys=True) + "\n")
    return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

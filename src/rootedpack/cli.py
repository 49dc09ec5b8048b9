"""Batch command-line front end.

Exit codes: 0 = YES/valid, 1 = NO/invalid, 2 = usage error, 3 = internal
invariant violation (a diagnostics bundle path is printed).  Reports are
always machine-readable JSON; --format text renders the same JSON for
humans.  Deterministic mode (default) omits timings so identical inputs
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from .errors import (
    BudgetExceededError,
    ContractError,
    GenerationError,
    InternalError,
    PackError,
    ParseError,
)
from .graphs import ProblemInstance, RootedDigraph, parse_instance
from .instancegen import parse_dimacs, random_instance, sat_reduction
from .matroid import has_two_disjoint_spanning_trees
from .connectivity import is_k_root_connected
from .oracles import OracleBudget, run_oracle, validate_witness
from .fptcommon import SolveOptions

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
    if "error" in obj:
        lines.append(f"error: {obj['error']}")
        if "diagnostics" in obj:
            lines.append(f"diagnostics: {obj['diagnostics']}")
    elif "decision" in obj:
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
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--input", required=True)
        p.add_argument("--output")
        p.add_argument("--format", choices=("text", "json"), default="json")

    solve = sub.add_parser("solve")
    solve.add_argument("problem", choices=("arb", "flow", "tree"))
    common(solve)
    solve.add_argument("--k", type=int)
    solve.add_argument("--p", type=int, default=2)
    solve.add_argument("--deterministic", action=argparse.BooleanOptionalAction, default=True)
    solve.add_argument("--budget", type=int)

    validate = sub.add_parser("validate")
    common(validate)
    validate.add_argument("--witness", required=True)
    validate.add_argument("--k", type=int)

    oracle = sub.add_parser("oracle")
    oracle.add_argument("problem", choices=("arb", "flow", "tree"))
    common(oracle)
    oracle.add_argument("--k", type=int)
    oracle.add_argument("--budget", type=int)

    gen = sub.add_parser("gen")
    gen_sub = gen.add_subparsers(dest="generator")
    gen_sat = gen_sub.add_parser("sat")
    gen_sat.add_argument("--cnf", required=True)
    gen_sat.add_argument("--q", type=int)
    gen_sat.add_argument("--output")
    gen_sat.add_argument("--roles")
    gen_sat.add_argument("--format", choices=("text", "json"), default="json")
    gen_rand = gen_sub.add_parser("random")
    gen_rand.add_argument("--kind", choices=("arb", "flow", "tree"), required=True)
    gen_rand.add_argument("--n", type=int, required=True)
    gen_rand.add_argument("--arcs", type=int, required=True)
    gen_rand.add_argument("--seed", type=int, required=True)
    gen_rand.add_argument("--ensure", choices=("2-root-connected", "connected"))
    gen_rand.add_argument("--k", type=int, default=1)
    gen_rand.add_argument("--output")
    gen_rand.add_argument("--format", choices=("text", "json"), default="json")

    stats = sub.add_parser("stats")
    common(stats)
    return parser


def _load_instance(path: str, kind: Optional[str], k: Optional[int]) -> ProblemInstance:
    text = Path(path).read_text()
    return parse_instance(text, kind=kind, k=k)


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
    witness_obj = json.loads(Path(args.witness).read_text())
    if "witness" in witness_obj and isinstance(witness_obj["witness"], dict):
        meta = witness_obj
        witness = witness_obj["witness"]
    else:
        meta = witness_obj
        witness = witness_obj
    kind = meta.get("problem")
    k = args.k if args.k is not None else meta.get("k")
    inst = _load_instance(args.input, kind, k)
    verdict = validate_witness(inst, witness)
    _emit(verdict.to_json_dict(), args.format, args.output)
    return EXIT_YES if verdict.ok else EXIT_NO


def _cmd_oracle(args) -> int:
    inst = _load_instance(args.input, args.problem, args.k)
    answer = run_oracle(inst, _budget(args, inst) or OracleBudget())
    obj = {
        "problem": inst.kind,
        "k": inst.k,
        "decision": answer.decision,
        "stage": "oracle",
        "witness": None if answer.witness is None else {
            "tree1": list(answer.witness[0]), "tree2": list(answer.witness[1])},
        "counters": {"candidates": answer.candidates},
    }
    _emit(obj, args.format, args.output)
    return EXIT_YES if answer.decision else EXIT_NO


def _cmd_gen(args) -> int:
    if args.generator == "sat":
        formula = parse_dimacs(Path(args.cnf).read_text())
        out = sat_reduction(formula, q=args.q)
        inst = ProblemInstance(kind="tree", graph=out.graph, k=out.k)
        text = inst.to_json() if args.format == "json" else inst.to_text()
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        if args.roles:
            Path(args.roles).write_text(
                json.dumps(out.to_roles_json(), sort_keys=True, indent=2) + "\n")
        return EXIT_YES
    if args.generator == "random":
        inst = random_instance(args.kind, args.n, args.arcs, args.seed,
                               ensure=args.ensure, k=args.k)
        text = inst.to_json() if args.format == "json" else inst.to_text()
        if args.output:
            Path(args.output).write_text(text)
        else:
            sys.stdout.write(text)
        return EXIT_YES
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
        if args.command is None:
            raise _UsageError("missing command")
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "validate":
            return _cmd_validate(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "stats":
            return _cmd_stats(args)
        raise _UsageError(f"unknown command {args.command!r}")
    except _UsageError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return EXIT_USAGE
    except (ParseError, ContractError, GenerationError, BudgetExceededError,
            FileNotFoundError, json.JSONDecodeError) as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return EXIT_USAGE
    except InternalError as exc:
        handle = tempfile.NamedTemporaryFile(
            mode="w", prefix="rootedpack-diag-", suffix=".json", delete=False)
        with handle as fh:
            json.dump({"error": str(exc), "diagnostics": exc.diagnostics},
                      fh, sort_keys=True, default=str)
        sys.stdout.write(json.dumps(
            {"error": str(exc), "diagnostics": handle.name}, sort_keys=True) + "\n")
        return EXIT_INTERNAL
    except PackError as exc:
        sys.stdout.write(json.dumps({"error": str(exc)}, sort_keys=True) + "\n")
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

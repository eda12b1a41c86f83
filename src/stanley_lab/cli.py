"""Command-line interface.

Subcommands: analyze, construct, verify, sdepth, depth, certify, sweep,
question.  Graphs are JSON files or presets (path:k, cycle:k, star:k,
complete:k, joined with '+').  Exit codes: 0 success, 1 verification or
claim failure, 2 input error (bad input, or an output file that cannot be
written), 3 budget exceeded or out of memory, 4 internal error (an
unexpected exception: the invocation and the traceback go to stderr); a
sweep whose failing rows are all undecided (a search stopped by its budget)
exits 3.  Reports embed the tool version and the full invocation so
certificates are reproducible artifacts.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
import traceback

from . import __version__
from .bounds import (
    FAILS,
    INCONCLUSIVE,
    KIND_S_MOD,
    KINDS,
    analytic_spread_edge,
    depth_by_trung,
    module_for,
    stanley_verdict,
)
from .constructions import DECOMPOSE
from .depth import homology_profile
from .errors import (
    BudgetExceededError,
    ContradictionError,
    InputError,
    UndefinedValueError,
    load_json,
    write_json,
)
from .graphs import parse_graph
from .sdepth import DEFAULT_BUDGET, build_poset, sdepth_exact, search_partition
from .sdepth import partition_to_decomposition
from .stanley import ModulePresentation, StanleyDecomposition, verify, verify_upper
from .sweeps import QUESTION_GRAPHS, question_report, run_sweep

EXIT_OK = 0
EXIT_CLAIM = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _emit(args: argparse.Namespace, result: dict, lines: list[str]) -> None:
    if args.json:
        payload = {
            "tool": "stanley-lab",
            "version": __version__,
            "invocation": args.invocation,
            "result": result,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_analyze(args: argparse.Namespace) -> int:
    graph = parse_graph(args.graph)
    comps = graph.components()
    details = [
        {"vertices": list(c.vertices), "bipartite": c.bipartite, "tree": c.tree,
         "edges": len(c.edges)}
        for c in comps
    ]
    p = graph.bipartite_component_count()
    result = {
        "n": graph.num_vertices,
        "ambient": graph.n,
        "edges": [list(e) for e in graph.edges],
        "components": details,
        "bipartite_components": p,
        "analytic_spread": analytic_spread_edge(graph),
    }
    lines = [
        f"n = {graph.num_vertices}",
        f"edges = {len(graph.edges)}",
        f"components = {len(comps)}",
    ]
    for i, d in enumerate(details, 1):
        lines.append(
            f"  component {i}: vertices {d['vertices']}, "
            f"bipartite = {'yes' if d['bipartite'] else 'no'}, "
            f"tree = {'yes' if d['tree'] else 'no'}"
        )
    lines.append(f"p = {p}")
    lines.append(f"l(I) = {result['analytic_spread']}")
    _emit(args, result, lines)
    return EXIT_OK


def cmd_construct(args: argparse.Namespace) -> int:
    graph = parse_graph(args.graph)
    # DECOMPOSE verifies what it returns, save the empty (trivially valid) zero layer
    dec = DECOMPOSE[args.kind](graph, args.k, args.budget)
    cert = dec.to_json()
    if args.out:
        write_json(args.out, cert)
    result = {"certificate": cert, "sdepth": dec.sdepth(), "spaces": len(dec.spaces)}
    lines = [
        f"constructed {args.kind} certificate: {len(dec.spaces)} spaces, "
        f"sdepth {dec.sdepth()}"
        + (f", written to {args.out}" if args.out else "")
    ]
    _emit(args, result, lines)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    dec = StanleyDecomposition.from_json(load_json(args.certificate))
    report = verify(dec)
    result = report.to_json()
    if report.valid:
        _emit(args, result, [f"valid, sdepth {report.sdepth}"])
        return EXIT_OK
    _emit(
        args,
        result,
        [f"INVALID: {report.failure} at {list(report.witness)}"],
    )
    return EXIT_CLAIM


def _module_from_args(args: argparse.Namespace) -> ModulePresentation:
    if args.module:
        return ModulePresentation.from_json(load_json(args.module))
    if args.graph and args.k is not None:
        return module_for(parse_graph(args.graph), args.k, args.kind)
    raise InputError("provide --module, or --graph with --k")


def cmd_sdepth(args: argparse.Namespace) -> int:
    module = _module_from_args(args)
    if args.target is not None:
        poset = build_poset(module)
        outcome = search_partition(poset, args.target, args.budget)
        result = {"target": args.target, "status": outcome.status,
                  "nodes": outcome.nodes}
        if outcome.status == "found":
            result["value"] = outcome.partition.value(poset)
        _emit(args, result, [f"target {args.target}: {outcome.status}"])
        return EXIT_BUDGET if outcome.status == "exceeded" else EXIT_OK
    res = sdepth_exact(module, args.budget)
    result = {"sdepth": res.value, "exact": res.exact, "upper": res.upper}
    if args.cert:
        dec = partition_to_decomposition(res.poset, res.partition, module)
        write_json(args.cert, dec.to_json())
        result["certificate"] = args.cert
    flag = "exact" if res.exact else "lower-bound only"
    if res.value == res.upper and res.witness and not verify_upper(module, res.witness):
        raise AssertionError(f"upper witness {res.witness} fails its re-check")
    proof = (f"the Hilbert-depth cap {res.upper} is reached" if res.value == res.upper
             else f"target {res.value + 1} is proven impossible" if res.exact
             else f"the Hilbert-depth cap is {res.upper}")
    _emit(args, result, [f"sdepth = {res.value} ({flag}), {proof}"])
    return EXIT_OK if res.exact else EXIT_BUDGET


def cmd_depth(args: argparse.Namespace) -> int:
    if args.debug and not args.module:
        raise InputError("--debug dumps the degree table of a module: provide --module")
    result: dict = {}
    lines = []
    if args.module:
        module = ModulePresentation.from_json(load_json(args.module))
        profile = homology_profile(module)
        result["depth"] = profile.depth
        result["homology_ranks"] = list(profile.ranks)
        lines.append(f"depth = {profile.depth}")
        if args.debug:
            table = [{"degree": list(a), "ranks": list(r)} for a, r in profile.degrees.items()]
            lines += [f"  degree {d['degree']}: ranks {d['ranks']}" for d in table]
            result["degree_table"] = table
    if args.trung:
        graph = parse_graph(args.trung[0])
        try:
            k = int(args.trung[1])
        except ValueError as exc:
            raise InputError(f"--trung power must be an integer, got {args.trung[1]!r}") from exc
        value = depth_by_trung(graph, k)
        result["limit_depth_formula"] = value
        lines.append(
            f"limit-depth formula: {value if value is not None else 'not applicable (k < n-1)'}"
        )
    if not result:
        raise InputError("provide --module and/or --trung")
    _emit(args, result, lines)
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    graph = parse_graph(args.graph)
    report = stanley_verdict(args.kind, graph, args.k, args.budget)
    result = {"reports": [report.to_json()]}
    lines = [
        f"{report.claim}: verdict {report.verdict} "
        f"(bound {report.bound}, oracle {report.oracle})"
    ]
    _emit(args, result, lines)
    return EXIT_CLAIM if report.verdict == FAILS else EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    results = run_sweep(args.nmax, args.kmax, args.budget, args.jobs)
    summary = {}
    lines = [f"{'claim':34} {'instances':>9} {'failures':>8}"]
    failures = undecided = 0
    for claim, rows in results.items():
        bad = [r for r in rows if not r["ok"]]
        failures += len(bad)
        # a search stopped by its budget decides nothing: not a counterexample
        undecided += sum(
            1 for r in bad if r.get("exact") is False or r.get("verdict") == INCONCLUSIVE
        )
        summary[claim] = {"instances": len(rows), "failures": len(bad)}
        lines.append(f"{claim:34} {len(rows):>9} {len(bad):>8}")
    result = {"summary": summary}
    if args.full:
        result["rows"] = results
    if failures == 0:
        lines.append("all claims hold")
        code = EXIT_OK
    elif undecided == failures:
        lines.append(f"{failures} FAILURES, all undecided within the search budget")
        code = EXIT_BUDGET
    else:
        lines.append(f"{failures} FAILURES, {failures - undecided} of them decided")
        code = EXIT_CLAIM
    _emit(args, result, lines)
    return code


def cmd_question(args: argparse.Namespace) -> int:
    rows = question_report(args.graphs, args.k, args.budget)
    result = {"rows": rows}
    lines = [f"{'graph':12} {'k':>2} {'sdepth':>6} {'exact':>6} verdict"]
    for r in rows:
        lines.append(
            f"{r['graph']:12} {r['k']:>2} {r['sdepth']:>6} "
            f"{str(r['exact']):>6} {r['verdict']}"
        )
    _emit(args, result, lines)
    return EXIT_OK


def _count(text: str) -> int:
    """A nonnegative integer option (a budget, a largest power)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _workers(text: str) -> int:
    """A positive worker count; 1 runs serially."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stanley-lab",
        description="Stanley depth of edge-ideal powers: oracles, bounds, certificates",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p):
        p.add_argument(
            "--budget",
            type=_count,
            default=DEFAULT_BUDGET,
            help=f"search node budget (default: {DEFAULT_BUDGET})",
        )

    p = sub.add_parser("analyze", help="graph invariants: components, p, l(I)")
    p.add_argument("graph")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("construct", help="build a decomposition certificate")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=KINDS, required=True)
    p.add_argument("--out")
    add_budget(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a certificate JSON")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sdepth", help="exact Stanley depth of a module")
    p.add_argument("--module")
    p.add_argument("--graph")
    p.add_argument("--k", type=int)
    p.add_argument("--kind", choices=KINDS, default=KIND_S_MOD)
    # a search at one target builds no certificate to write
    target_or_cert = p.add_mutually_exclusive_group()
    target_or_cert.add_argument("--target", type=int)
    target_or_cert.add_argument("--cert", help="write the witnessing certificate JSON here")
    add_budget(p)
    p.set_defaults(func=cmd_sdepth)

    p = sub.add_parser("depth", help="exact depth of a module")
    p.add_argument("--module")
    p.add_argument("--trung", nargs=2, metavar=("GRAPH", "K"),
                   help="also evaluate the large-power closed form")
    p.add_argument("--debug", action="store_true",
                   help="dump per-degree homology ranks")
    p.set_defaults(func=cmd_depth)

    p = sub.add_parser("certify", help="verdict report for one instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=KINDS, required=True)
    add_budget(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("sweep", help="check every claim on all small graphs")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--kmax", type=_count, default=2)
    p.add_argument("--jobs", type=_workers, default=1)
    p.add_argument("--full", action="store_true", help="include per-instance rows")
    add_budget(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("question", help="bipartite power evidence report")
    p.add_argument("--graphs", nargs="+", default=list(QUESTION_GRAPHS))
    p.add_argument("--k", type=int, nargs="+", default=[1, 2])
    add_budget(p)
    p.set_defaults(func=cmd_question)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.invocation = sys.argv[1:] if argv is None else list(argv)
    try:
        return args.func(args)
    except (InputError, UndefinedValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:  # a resource limit, like a budget: no claim is made
        print("out of memory: the input is too large for this process", file=sys.stderr)
        return EXIT_BUDGET
    except ContradictionError as exc:
        print(f"CLAIM FAILURE: {exc}", file=sys.stderr)
        return EXIT_CLAIM
    except Exception:  # a bug, not a failed claim: exit 1 keeps its meaning
        print(f"internal error in: stanley-lab {shlex.join(args.invocation)}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every subcommand writes one JSON document to standard output: tool,
version, subcommand, the inputs it ran on (paths with the hashes of the
bytes that were parsed, or builtin markers), elapsed time, and a
payload.  Files are read and described by `files`.  `--pretty` adds a
human-readable rendering on standard error without touching the JSON.

Exit codes: 0 pass, 1 verification failure, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .cwscode import (
    CwsCode,
    distance,
    error_pattern_set,
    error_patterns,
    kl_verify,
    proof_check,
    reduced_transitions,
    the_9_12_3,
    transition_set,
)
from .files import read_code, read_graph, render_code
# unused since `files` reads each input once; bench/tracing.py patches them here
from .files import load_code, resolve_graph_reference  # noqa: F401
from .graphstate import is_loop_graph, loop_graph, state_vector
from .operatoralg import (
    adjoint,
    build_projector,
    projector_from_codewords,
    sum_mul,
    trace,
    weight_enumerator,
)
from .pauli import PauliOperator, render_label
from .search import SearchConfig, compatibility_search, empty_pattern_present


def _code_inputs(args) -> tuple:
    """The code to work on plus its self-describing inputs block."""
    if args.code is None:
        return the_9_12_3(), {"code": {"builtin": "the_9_12_3"}}
    return read_code(args.code)


def _graph_inputs(args) -> tuple:
    if args.graph is None:
        return loop_graph(9), {"graph": {"builtin": "loop9"}}
    return read_graph(args.graph)


def _exact_value(v: complex) -> str:
    for exact, label in ((0, "0"), (1, "1"), (-1, "-1"), (1j, "i"), (-1j, "-i")):
        if v == exact:
            return label
    return str(v)


def _violation_rows(report) -> list:
    return [
        {"error": render_label(v.error), "i": v.i, "j": v.j, "value": _exact_value(v.value)}
        for v in report.violations
    ]


def _budget(text: str) -> float:
    raw = text[:-1] if text.endswith("s") else text
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}")
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError("duration must be positive")
    return value


def _eprint(*lines: str) -> None:
    for line in lines:
        print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, inputs, exit_code, pretty_lines)


def _cmd_verify(args):
    code, inputs = _code_inputs(args)
    report = kl_verify(code, args.weight)
    payload = {
        "passed": report.passed,
        "pure": report.pure,
        "checked_weight": report.checked_weight,
        "violations": _violation_rows(report),
        "violations_capped": report.violations_capped,
        "counts": {"violations": report.violation_count, "codewords": code.size},
    }
    pretty = [
        f"code: {code.size} codewords on {code.n} qubits",
        f"checked error weight: <= {report.checked_weight}",
        f"passed: {report.passed}   pure: {report.pure}",
        f"violations: {report.violation_count}"
        + (" (capped)" if report.violations_capped else ""),
    ]
    pretty += [
        f"  {row['error']}  <{row['i']}|E|{row['j']}> = {row['value']}"
        for row in payload["violations"][:20]
    ]
    return payload, inputs, 0 if report.passed else 1, pretty


def _cmd_distance(args):
    code, inputs = _code_inputs(args)
    max_d = args.max if args.max is not None else code.n
    found = distance(code, max_d)
    payload = {
        "passed": True,
        "distance": found,
        "checked_weight": max_d,
        "violations": [],
        "counts": {"codewords": code.size},
    }
    if found is not None:
        witness = kl_verify(code, found)
        payload["violations"] = _violation_rows(witness)
        payload["counts"]["violations"] = witness.violation_count
    pretty = [
        f"distance: {found if found is not None else f'> {max_d}'}"
        f" (scanned weights 1..{max_d})",
    ]
    return payload, inputs, 0, pretty


def _cmd_patterns(args):
    g, inputs = _graph_inputs(args)
    patterns = error_pattern_set(g, args.weight)
    payload = {
        "passed": True,
        "checked_weight": args.weight,
        "counts": {"patterns": len(patterns)},
        "empty_pattern_present": frozenset() in patterns,
    }
    pretty = [f"patterns reachable by weight <= {args.weight} errors: {len(patterns)}"]
    if is_loop_graph(g) and args.weight == 2:
        classes = error_patterns(g)
        payload["counts"]["classes"] = {str(k): len(v) for k, v in sorted(classes.items())}
        pretty += [f"  size {k}: {len(v)}" for k, v in sorted(classes.items())]
    return payload, inputs, 0, pretty


def _cmd_proofcheck(args):
    code, inputs = _code_inputs(args)
    passed = proof_check(code)
    patterns = error_pattern_set(code.graph, 2)
    payload = {
        "passed": passed,
        "checked_weight": 2,
        "violations": [],
        "counts": {
            "patterns": len(patterns),
            "transitions": len(transition_set(code)),
            "reduced_transitions": len(reduced_transitions(code)),
        },
        "empty_pattern_present": frozenset() in patterns,
    }
    pretty = [
        f"patterns: {payload['counts']['patterns']}"
        f"   transitions: {payload['counts']['transitions']}"
        f"   reduced: {payload['counts']['reduced_transitions']}",
        f"disjoint, so the code detects all weight <= 2 errors: {passed}",
    ]
    return payload, inputs, 0 if passed else 1, pretty


def _cmd_projector(args):
    code, inputs = _code_inputs(args)
    p = projector_from_codewords(code)
    idempotent = sum_mul(p, p) == p
    hermitian = adjoint(p) == p
    tr = trace(p)
    matches = build_projector() == p if code == the_9_12_3() else None
    terms = [
        f"{c} {render_label(PauliOperator(p.n, key[0], key[1], 0))}"
        for key, c in p.terms
    ]
    verdict = {
        "idempotent": idempotent,
        "hermitian": hermitian,
        "trace": str(tr),
        "trace_equals_size": tr == code.size,
        "matches_product_form": matches,
    }
    passed = idempotent and hermitian and tr == code.size and matches is not False
    payload = {"passed": passed, "term_count": len(terms), "verdict": verdict, "terms": terms}
    pretty = [
        f"terms: {len(terms)}",
        f"idempotent: {idempotent}   hermitian: {hermitian}   trace: {tr}",
        f"matches product form: {matches}",
        *terms,
    ]
    return payload, inputs, 0 if passed else 1, pretty


def _cmd_enumerator(args):
    code, inputs = _code_inputs(args)
    payload = {"passed": True, "counts": {"codewords": code.size}}
    pretty = []
    if args.method in ("fast", "brute"):
        result = weight_enumerator(code, args.method)
        payload["method"] = args.method
        payload["a"] = list(result.a)
        payload["sum"] = sum(result.a)
    else:
        fast = weight_enumerator(code, "fast")
        brute = weight_enumerator(code, "brute")
        payload["method"] = "both"
        payload["a"] = list(fast.a)
        payload["brute_a"] = list(brute.a)
        payload["sum"] = sum(fast.a)
        payload["methods_agree"] = fast == brute
        payload["passed"] = fast == brute
        pretty.append(f"fast and brute agree: {fast == brute}")
    pretty = [
        " ".join(f"A_{d}={v}" for d, v in enumerate(payload["a"])),
        f"sum: {payload['sum']}",
    ] + pretty
    return payload, inputs, 0 if payload["passed"] else 1, pretty


def _cmd_statevec(args):
    g, inputs = _graph_inputs(args)
    state = state_vector(g)
    denom = f"1/√{1 << g.n}"
    signs = ["+" if a.real > 0 else "-" for a in state.amps]
    payload = {
        "n": g.n,
        "scale": denom,
        "amplitudes": [s + denom for s in signs],
    }
    pretty = [
        f"{1 << g.n} amplitudes, all {denom} up to sign",
        f"positive: {signs.count('+')}   negative: {signs.count('-')}",
    ]
    return payload, inputs, 0, pretty


def _cmd_search(args):
    g, inputs = _graph_inputs(args)
    cfg = SearchConfig(
        graph=g,
        target_distance=args.distance,
        time_budget=args.budget,
        strategy=args.strategy,
    )
    if args.min_size < 1:
        raise ValueError("min_size must be at least 1")
    result = compatibility_search(cfg)
    graph_ref = args.graph if args.graph is not None else f"builtin:loop{g.n}"
    code_file = render_code(CwsCode(g, result.codewords), graph_ref)
    payload = {
        "passed": result.certified and result.size >= args.min_size,
        "size": result.size,
        "certified": result.certified,
        "exhausted": result.exhausted,
        "search_seconds": round(result.elapsed, 6),
        "empty_pattern_present": empty_pattern_present(g, args.distance - 1),
        "codewords": [sorted(c) for c in result.codewords],
        "code_file": code_file,
    }
    pretty = [
        f"found {result.size} codewords"
        f" (certified: {result.certified}, exhausted: {result.exhausted})",
        code_file.rstrip(),
    ]
    return payload, inputs, 0 if payload["passed"] else 1, pretty


def _cmd_paper_demo(args):
    code = the_9_12_3()
    checks = []

    report = kl_verify(code, 2)
    checks.append({
        "name": "error conditions hold to weight 2",
        "passed": report.passed and report.pure,
        "detail": f"passed={report.passed} pure={report.pure}",
    })

    found = distance(code, 3)
    checks.append({
        "name": "distance is exactly 3",
        "passed": found == 3,
        "detail": f"first failing weight: {found}",
    })

    checks.append({
        "name": "pattern/transition sets are disjoint",
        "passed": proof_check(code),
        "detail": "combinatorial detection proof",
    })

    p = build_projector()
    q = projector_from_codewords(code)
    laws = sum_mul(p, p) == p and adjoint(p) == p and trace(p) == 12
    checks.append({
        "name": "projector product form is the codeword projector",
        "passed": p == q and laws,
        "detail": f"equal={p == q} idempotent+hermitian+trace12={laws}",
    })

    fast = weight_enumerator(code, "fast")
    brute = weight_enumerator(code, "brute")
    checks.append({
        "name": "weight enumerator methods agree",
        "passed": fast == brute,
        "detail": f"A = {list(fast.a)}",
    })

    all_passed = all(c["passed"] for c in checks)
    payload = {"passed": all_passed, "checks": checks}
    width = max(len(c["name"]) for c in checks)
    table = ["", "((9,12,3)) reproduction"]
    table += [
        f"  {'PASS' if c['passed'] else 'FAIL'}  {c['name']:<{width}}  {c['detail']}"
        for c in checks
    ]
    table.append(f"  => {'all checks pass' if all_passed else 'FAILURES PRESENT'}")
    _eprint(*table)
    inputs = {"code": {"builtin": "the_9_12_3"}}
    return payload, inputs, 0 if all_passed else 1, []


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwskit",
        description="Exact verification and search of graph-state codes.",
    )
    parser.add_argument("--version", action="version", version=f"cwskit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, code=False, graph=False):
        if code:
            p.add_argument("--code", help="code file (default: the builtin ((9,12,3)) code)")
        if graph:
            p.add_argument("--graph", help="graph file (default: the builtin 9-vertex loop)")
        p.add_argument("--pretty", action="store_true", help="human summary on stderr")

    p = sub.add_parser("verify", help="check the error conditions up to a weight")
    common(p, code=True)
    p.add_argument("--weight", type=int, default=2, help="maximum error weight")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("distance", help="first error weight that breaks the conditions")
    common(p, code=True)
    p.add_argument("--max", type=int, default=None, help="largest weight to scan")
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("patterns", help="phase-flip patterns reachable by small errors")
    common(p, graph=True)
    p.add_argument("--weight", type=int, default=2, help="maximum error weight")
    p.set_defaults(handler=_cmd_patterns)

    p = sub.add_parser("proofcheck", help="pattern/transition disjointness argument")
    common(p, code=True)
    p.set_defaults(handler=_cmd_proofcheck)

    p = sub.add_parser("projector", help="exact code projector and its laws")
    common(p, code=True)
    p.set_defaults(handler=_cmd_projector)

    p = sub.add_parser("enumerator", help="weight enumerator of the code projector")
    common(p, code=True)
    p.add_argument("--method", choices=("fast", "brute", "both"), default="both")
    p.set_defaults(handler=_cmd_enumerator)

    p = sub.add_parser("statevec", help="graph state amplitudes as exact signs")
    common(p, graph=True)
    p.set_defaults(handler=_cmd_statevec)

    p = sub.add_parser("search", help="look for large codeword sets on a graph")
    common(p, graph=True)
    p.add_argument("--distance", type=int, default=3, help="target distance")
    p.add_argument("--min-size", type=int, default=1, help="size the result must reach to pass")
    p.add_argument("--budget", type=_budget, default=60.0, help="time budget, e.g. 60s")
    p.add_argument("--strategy", choices=("bb", "greedy"), default="bb")
    p.set_defaults(handler=_cmd_search)

    p = sub.add_parser("paper-demo", help="run the full ((9,12,3)) reproduction")
    common(p)
    p.set_defaults(handler=_cmd_paper_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        payload, inputs, exit_code, pretty = args.handler(args)
    except (OSError, ValueError) as exc:  # FileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "tool": "cwskit",
        "version": __version__,
        "subcommand": args.subcommand,
        "inputs": inputs,
        "elapsed_seconds": round(time.perf_counter() - start, 6),
        "payload": payload,
    }
    json.dump(report, sys.stdout, indent=2)
    print()
    if args.pretty and pretty:
        _eprint(*pretty)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())

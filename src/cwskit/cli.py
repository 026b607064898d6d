"""Command-line front end.

Every subcommand writes one JSON document to standard output: tool,
version, subcommand, the inputs it ran on (paths with the hashes of the
bytes that were parsed, or builtin markers), elapsed time, and a
payload.  The document is byte for byte `json.dumps(report, indent=2)`
and one newline.  `_json_text` lays it out into one list, which is
joined once and written once: with `indent` set, `json.dumps` takes
the stdlib's pure-Python encoder, which spends more than twice as long
on a report of a few hundred violation rows.  One table, `_COMMANDS`,
declares each subcommand's input (code, graph or neither), handler and
options; `main` reads the input its row declares, from a file or the
builtin, before the handler runs, sets the exit code alone, and builds
its one parser from the table on its first call.  `--pretty` also
prints the payload's fields on standard error, one `key: value` line
each (nested keys dotted, a list by its length), so it cannot disagree
with the JSON.  `paper-demo` always prints its pass/fail table there.

Exit codes: 0 pass, 1 when `payload["passed"]` is false, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from . import __version__
from .cwscode import (
    CwsCode,
    _kl_report,
    _weight_scans,
    error_pattern_set,
    kl_verify,
    proof_check,
    the_9_12_3,
    transition_set,
)
# unused since the commands scan through `_weight_scans`; bench/tracing.py patches it here
from .cwscode import distance  # noqa: F401
from .files import read_code, read_graph, render_code
# unused since `files` reads each input once; bench/tracing.py patches them here
from .files import load_code, resolve_graph_reference  # noqa: F401
from .graphstate import _stabilizer_table, is_loop_graph, loop_graph
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


def _read_input(args) -> tuple:
    """The input the command's row declares, from its file or builtin, and its inputs block."""
    if args.input == "graph":
        if args.graph is None:
            return loop_graph(9), {"graph": {"builtin": "loop9"}}
        return read_graph(args.graph)
    if args.input == "code" and args.code is not None:
        return read_code(args.code)
    return the_9_12_3(), {"code": {"builtin": "the_9_12_3"}}


# a violation value is phase_value of an int, so always a unit
_EXACT_VALUES = {1: "1", -1: "-1", 1j: "i", -1j: "-i"}


def _violation_rows(report) -> list:
    """One row per listed violation, with one label per distinct error.

    `kl_verify` and `_kl_report` list an error's violations next to each
    other, sharing one operator, so a label is rendered only when the
    operator object changes.
    """
    rows = []
    last = label = None
    for error, i, j, value in report.violations:
        if error is not last:
            last, label = error, render_label(error)
        rows.append({"error": label, "i": i, "j": j, "value": _EXACT_VALUES[value]})
    return rows


def _budget(text: str) -> float:
    raw = text[:-1] if text.endswith("s") else text
    try:
        value = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad duration {text!r}")
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError("duration must be positive")
    return value


def _weight_option(flag: str, value: int, low: int, high: int) -> int:
    """value, or ValueError naming the option when it lies outside low..high."""
    if not low <= value <= high:
        raise ValueError(f"{flag} {value} outside {low}..{high}")
    return value


def _eprint(*lines: str) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def _json_text(value, out: list, indent: str = "") -> None:
    """Append `value` to `out` in the layout of `json.dumps(value, indent=2)`.

    Strings go through the stdlib's own C escaper and exact ints through
    `int.__repr__`, as the stdlib renders them; every other scalar (bool,
    None, float with nan and inf) through `json.dumps` itself.  Dicts,
    lists and tuples nest with the stdlib's separators, an empty one as
    `{}` or `[]`; dict keys are strings in every report.
    """
    if type(value) is str:
        out.append(_json_str(value))
    elif type(value) is int:
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for k, v in value.items():
            out.append(sep + _json_str(k) + ": ")
            _json_text(v, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for v in value:
            out.append(sep)
            _json_text(v, out, inner)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(json.dumps(value))


def _pretty_lines(value, key: str = ""):
    """One `key: value` line per leaf: nested keys dotted, each list by its length."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _pretty_lines(v, f"{key}.{k}" if key else k)
    elif isinstance(value, list):
        yield f"{key}: {len(value)} items"
    else:
        yield f"{key}: {json.dumps(value, ensure_ascii=False)}"


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes (args, code or graph) and returns its payload


def _cmd_verify(args, code):
    report = kl_verify(code, _weight_option("--weight", args.weight, 1, code.n))
    return {
        "passed": report.passed,
        "pure": report.pure,
        "checked_weight": report.checked_weight,
        "violations": _violation_rows(report),
        "violations_capped": report.violations_capped,
        "counts": {"violations": report.violation_count, "codewords": code.size},
    }


def _cmd_distance(args, code):
    max_d = code.n if args.max is None else _weight_option("--max", args.max, 1, code.n)
    found, violations = next(
        ((d, v) for d, v, _ in _weight_scans(code, max_d, True) if v), (None, [])
    )
    payload = {
        "passed": True,
        "distance": found,
        "checked_weight": max_d,
        "violations": [],
        "counts": {"codewords": code.size},
    }
    if found is not None:
        witness = _kl_report(code, found, violations, False)
        payload["violations"] = _violation_rows(witness)
        payload["counts"]["violations"] = witness.violation_count
    return payload


def _cmd_patterns(args, g):
    patterns = error_pattern_set(g, _weight_option("--weight", args.weight, 1, g.n))
    payload = {
        "passed": True,
        "checked_weight": args.weight,
        "counts": {"patterns": len(patterns)},
        "empty_pattern_present": frozenset() in patterns,
    }
    if is_loop_graph(g) and args.weight == 2:
        # a single-qubit step on a loop flips at most three qubits, so the
        # non-empty weight-2 patterns fall into sizes 1..6
        sizes = [len(p) for p in patterns]
        payload["counts"]["classes"] = {str(k): sizes.count(k) for k in range(1, 7)}
    return payload


def _cmd_proofcheck(args, code):
    passed = proof_check(code)
    # proof_check's weight: no error has weight 2 on one qubit
    weight = min(2, code.n)
    patterns = error_pattern_set(code.graph, weight)
    # the reduced transitions of the half-shift argument are the transition set
    transitions = len(transition_set(code))
    return {
        "passed": passed,
        "checked_weight": weight,
        "violations": [],
        "counts": {
            "patterns": len(patterns),
            "transitions": transitions,
            "reduced_transitions": transitions,
        },
        "empty_pattern_present": frozenset() in patterns,
    }


def _projector_laws(code):
    """The codeword projector, its verdict, and whether the three projector laws hold."""
    p = projector_from_codewords(code)
    tr = trace(p)
    # P depends on the set of codewords only, not on the order a file lists them in
    builtin = the_9_12_3()
    paper_code = code.graph == builtin.graph and set(code.codewords) == set(builtin.codewords)
    verdict = {
        "idempotent": sum_mul(p, p) == p,
        "hermitian": adjoint(p) == p,
        "trace": str(tr),
        "trace_equals_size": tr == code.size,
        "matches_product_form": build_projector() == p if paper_code else None,
    }
    return p, verdict, all(verdict[k] for k in ("idempotent", "hermitian", "trace_equals_size"))


def _cmd_projector(args, code):
    p, verdict, laws = _projector_laws(code)
    terms = [f"{c} {render_label(PauliOperator(p.n, x, z, 0))}" for (x, z), c in p.terms]
    passed = laws and verdict["matches_product_form"] is not False
    return {"passed": passed, "term_count": len(terms), "verdict": verdict, "terms": terms}


def _cmd_enumerator(args, code):
    fast = weight_enumerator(code, "fast")
    brute = weight_enumerator(code, "brute")
    agree = fast == brute
    return {
        "passed": agree,
        "counts": {"codewords": code.size},
        "method": "both",
        "a": list(fast.a),
        "brute_a": list(brute.a),
        "sum": sum(fast.a),
        "methods_agree": agree,
    }


def _cmd_statevec(args, g):
    denom = f"1/√{1 << g.n}"
    return {
        "n": g.n,
        "scale": denom,
        # the table's sign for u is the parity of the edges inside u
        "amplitudes": [("-" if sign else "+") + denom for _, sign in _stabilizer_table(g)],
    }


def _cmd_search(args, g):
    _weight_option("--distance", args.distance, 2, g.n + 1)
    if args.min_size < 1:
        raise ValueError(f"--min-size {args.min_size} below 1")
    cfg = SearchConfig(
        graph=g,
        target_distance=args.distance,
        time_budget=args.budget,
    )
    result = compatibility_search(cfg)
    # a code file resolves its graph relative to itself, so name the graph absolutely
    graph_ref = f"builtin:loop{g.n}" if args.graph is None else str(Path(args.graph).absolute())
    code_file = render_code(CwsCode(g, result.codewords), graph_ref)
    return {
        "passed": result.certified and result.size >= args.min_size,
        "size": result.size,
        "certified": result.certified,
        "exhausted": result.exhausted,
        "search_seconds": round(result.elapsed, 6),
        "empty_pattern_present": empty_pattern_present(g, args.distance - 1),
        "codewords": [sorted(c) for c in result.codewords],
        "code_file": code_file,
    }


def _cmd_paper_demo(args, code):
    checks = []

    # one pass over weights 1..3: weights 1-2 give the weight-2 verdict,
    # the first failing weight gives the distance
    scans = [(d, bool(found), pure) for d, found, pure in _weight_scans(code, 3, False)]
    passed = not any(failed for _, failed, _ in scans[:2])
    pure = passed and all(p for *_, p in scans[:2])
    found = next((d for d, failed, _ in scans if failed), None)
    checks.append({
        "name": "error conditions hold to weight 2",
        "passed": passed and pure,
        "detail": f"passed={passed} pure={pure}",
    })

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

    # the same verdict as `projector`, without rendering its terms
    _, verdict, laws = _projector_laws(code)
    equal = verdict["matches_product_form"]
    checks.append({
        "name": "projector product form is the codeword projector",
        "passed": equal and laws,
        "detail": f"equal={equal} idempotent+hermitian+trace12={laws}",
    })

    enumerator = _cmd_enumerator(args, code)
    checks.append({
        "name": "weight enumerator methods agree",
        "passed": enumerator["passed"],
        "detail": f"A = {enumerator['a']}",
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
    return payload


_INPUT_HELP = {
    "code": "code file (default: the builtin ((9,12,3)) code)",
    "graph": "graph file (default: the builtin 9-vertex loop)",
}

# One row per subcommand: name, help, the input it reads (a key of `_INPUT_HELP`,
# or None for the builtin code), handler, and its options as (flag, type, default, help).
_COMMANDS = (
    ("verify", "check the error conditions up to a weight", "code", _cmd_verify,
     [("--weight", int, 2, "maximum error weight")]),
    ("distance", "first error weight that breaks the conditions", "code", _cmd_distance,
     [("--max", int, None, "largest weight to scan")]),
    ("patterns", "phase-flip patterns reachable by small errors", "graph", _cmd_patterns,
     [("--weight", int, 2, "maximum error weight")]),
    ("proofcheck", "pattern/transition disjointness argument", "code", _cmd_proofcheck, []),
    ("projector", "exact code projector and its laws", "code", _cmd_projector, []),
    ("enumerator", "weight enumerator of the code projector", "code", _cmd_enumerator, []),
    ("statevec", "graph state amplitudes as exact signs", "graph", _cmd_statevec, []),
    ("search", "look for large codeword sets on a graph", "graph", _cmd_search, [
        ("--distance", int, 3, "target distance"),
        ("--min-size", int, 1, "size the result must reach to pass"),
        ("--budget", _budget, SearchConfig.time_budget, "time budget, e.g. 60s"),
    ]),
    ("paper-demo", "run the full ((9,12,3)) reproduction", None, _cmd_paper_demo, []),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwskit",
        description="Exact verification and search of graph-state codes.",
    )
    parser.add_argument("--version", action="version", version=f"cwskit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, help_text, source, handler, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if source is not None:
            p.add_argument(f"--{source}", help=_INPUT_HELP[source])
        p.add_argument("--pretty", action="store_true", help="payload fields on stderr")
        for flag, kind, default, option_help in options:
            p.add_argument(flag, type=kind, default=default, help=option_help)
        p.set_defaults(handler=handler, input=source)
    return parser


# built by the first `main` call, not at import; parsing leaves no state in it
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    start = time.perf_counter()
    try:
        subject, inputs = _read_input(args)
        payload = args.handler(args, subject)
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
    # the layout of json.dumps(report, indent=2), joined once, written once
    text = []
    _json_text(report, text)
    text.append("\n")
    sys.stdout.write("".join(text))
    if args.pretty:
        _eprint(*_pretty_lines(payload))
    return 0 if payload.get("passed", True) else 1


if __name__ == "__main__":
    sys.exit(main())

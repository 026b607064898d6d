"""The command-line interface: JSON reports, exit codes, diagnostics."""

import argparse
import builtins
import functools
import hashlib
import json
import random
import shutil
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwskit import __version__, cli, cwscode, search
from cwskit.cli import main
from cwskit.cwscode import CODEWORDS_9_12_3, CwsCode
from cwskit.dense import state_vector
from cwskit.files import read_code, render_code, render_graph
from cwskit.graphstate import Graph, loop_graph, reduce_error
from cwskit.pauli import PauliOperator, enumerate_errors, render_label

DATA = Path(__file__).resolve().parent.parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    # a report is one JSON document, indented by two spaces, and a newline
    assert captured.out == ("" if doc is None else json.dumps(doc, indent=2) + "\n")
    return code, doc, captured.err


def file_record(path):
    return {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


CODE_COMMANDS = ("verify", "distance", "proofcheck", "projector", "enumerator")
GRAPH_COMMANDS = ("patterns", "statevec", "search")


def test_verify_builtin_passes(capsys):
    code, doc, _ = run(capsys, "verify", "--weight", "2")
    assert code == 0
    assert doc["tool"] == "cwskit"
    assert doc["version"] == __version__
    assert doc["subcommand"] == "verify"
    assert doc["inputs"]["code"] == {"builtin": "the_9_12_3"}
    assert doc["payload"]["passed"] and doc["payload"]["pure"]
    assert doc["payload"]["violations"] == []
    assert doc["payload"]["checked_weight"] == 2


def test_verify_code_file_inputs_are_hashed(capsys, tmp_path, monkeypatch):
    builtin_ref = tmp_path / "builtin_ref.code"
    builtin_ref.write_text((DATA / "code_9_12_3.code").read_text()
                           .replace("graph loop9.graph", "graph builtin:loop9"))

    graph_file = DATA / "loop9.graph"
    cases = [
        (["verify", "--code", str(DATA / "code_9_12_3.code")],
         {"code": file_record(DATA / "code_9_12_3.code"), "graph": file_record(graph_file)}),
        (["verify", "--code", str(builtin_ref)],
         {"code": file_record(builtin_ref), "graph": {"builtin": "loop9"}}),
        (["patterns", "--graph", str(graph_file)], {"graph": file_record(graph_file)}),
        # a relative code path: its graph is recorded as reached from it
        (["verify", "--code", "data/code_9_12_3.code"],
         {"code": file_record(Path("data/code_9_12_3.code")),
          "graph": file_record(Path("data/loop9.graph"))}),
    ]

    # every file the command opens, through pathlib or the open builtin
    opened = Counter()
    path_open, builtin_open = Path.open, builtins.open

    def counting_path_open(self, *args, **kwargs):
        opened[self.resolve()] += 1
        return path_open(self, *args, **kwargs)

    def counting_builtin_open(file, *args, **kwargs):
        if isinstance(file, (str, Path)):
            opened[Path(file).resolve()] += 1
        return builtin_open(file, *args, **kwargs)

    monkeypatch.chdir(DATA.parent)
    monkeypatch.setattr(Path, "open", counting_path_open)
    monkeypatch.setattr(builtins, "open", counting_builtin_open)
    for argv, inputs in cases:
        opened.clear()
        code, doc, _ = run(capsys, *argv)
        assert code == 0
        assert doc["inputs"] == inputs
        files = {Path(r["path"]).resolve() for r in inputs.values() if "path" in r}
        assert {p: opened[p] for p in files} == {p: 1 for p in files}


def test_verify_failure_lists_violations(capsys, tmp_path):
    bad = tmp_path / "bad.code"
    bad.write_text("graph builtin:loop9\n-\n1\n")
    code, doc, _ = run(capsys, "verify", "--code", str(bad), "--weight", "1")
    assert code == 1
    assert not doc["payload"]["passed"]
    rows = doc["payload"]["violations"]
    assert rows
    assert any(r["error"] == "Z1" for r in rows)
    assert all(set(r) == {"error", "i", "j", "value"} for r in rows)


def test_violation_rows_match_rows_rendered_one_by_one(capsys, tmp_path, monkeypatch):
    # seeded random codes that all fail; the last lists 1280 violations at
    # weight 4, past the 1000-row cap.  The slow way renders each row of
    # the library's own report from a fresh operator
    values = {1: "1", -1: "-1", 1j: "i", -1j: "-i"}

    def slow_rows(report, n):
        return [
            {"error": render_label(PauliOperator(n, v.error.x, v.error.z)),
             "i": v.i, "j": v.j, "value": values[v.value]}
            for v in report.violations
        ]

    rendered = []
    monkeypatch.setattr(cli, "render_label", lambda p: rendered.append(p) or render_label(p))
    rng = random.Random(23)
    counts = []
    for index in range(6):
        n = rng.choice([8, 9, 10])
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        g = Graph.from_edges(n, [pq for pq in pairs if rng.random() < 0.5])
        words = rng.sample(range(1 << n), rng.randint(2, 8))
        code = CwsCode(g, [frozenset(v + 1 for v in range(n) if w >> v & 1) for w in words])
        graph_file = tmp_path / f"r{index}.graph"
        graph_file.write_text(render_graph(g))
        code_file = tmp_path / f"r{index}.code"
        code_file.write_text(render_code(code, graph_file.name))
        report = cwscode.kl_verify(code, 4)
        found = cwscode.distance(code, n)
        runs = [
            (["verify", "--weight", "4"], report, 1,
             {"passed": False, "violations_capped": report.violations_capped}),
            # weights below the distance scan clean, so its scan lists the
            # first failing weight's violations
            (["distance"], cwscode.kl_verify(code, found), 0, {"passed": True, "distance": found}),
        ]
        for argv, listed, exit_code, fields in runs:
            rendered.clear()
            status, doc, _ = run(capsys, *argv, "--code", str(code_file))
            payload = doc["payload"]
            assert status == exit_code, argv
            assert {k: payload[k] for k in fields} == fields, argv
            assert payload["violations"] == slow_rows(listed, n), argv
            assert len(payload["violations"]) == min(listed.violation_count, 1000)
            assert payload["counts"]["violations"] == listed.violation_count
            # one label per distinct listed error
            assert rendered == list(dict.fromkeys(v.error for v in listed.violations))
        counts.append(report.violation_count)
    assert counts[-1] == 1280 and 0 < min(counts) and max(counts[:-1]) < 1000


def test_duplicate_codeword_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "dup.code"
    bad.write_text("graph builtin:loop9\n2,6,7\n2,6,7\n")
    code, doc, err = run(capsys, "verify", "--code", str(bad))
    assert code == 2
    assert doc is None
    assert "duplicate codeword 2,6,7" in err
    assert "dup.code:3" in err


def test_missing_file_exits_two(capsys):
    code, doc, err = run(capsys, "verify", "--code", "no_such.code")
    assert code == 2 and doc is None
    assert "error:" in err


def test_out_of_range_weight_exits_two(capsys):
    code, doc, err = run(capsys, "verify", "--weight", "99")
    assert code == 2 and doc is None


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 2


def test_removed_threads_option_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--threads", "2"])
    assert info.value.code == 2


def test_nan_budget_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["search", "--budget", "nan"])
    assert info.value.code == 2
    assert "duration must be positive" in capsys.readouterr().err


def test_distance_reports_three(capsys):
    code, doc, _ = run(capsys, "distance", "--max", "4")
    assert code == 0
    assert doc["payload"]["distance"] == 3
    assert doc["payload"]["counts"]["violations"] > 0


def test_distance_scans_each_weight_once(capsys, monkeypatch):
    scanned = []
    scan = cwscode._scan_errors

    def counted(code, errors, collect):
        scanned.append(len(errors))
        return scan(code, errors, collect)

    monkeypatch.setattr(cwscode, "_scan_errors", counted)
    code, doc, _ = run(capsys, "distance", "--max", "4")
    assert code == 0
    assert doc["payload"]["distance"] == 3
    # weights 1, 2 and 3 of 9 qubits, each once: 2619 errors; the witness
    # rows come from the weight-3 scan
    assert scanned == [27, 324, 2268]
    witness = cwscode.kl_verify(cwscode.the_9_12_3(), 3)
    assert doc["payload"]["counts"]["violations"] == witness.violation_count
    assert len(doc["payload"]["violations"]) == len(witness.violations)


def test_paper_demo_scans_each_weight_once(capsys, monkeypatch):
    scanned = []
    scan = cwscode._scan_errors

    def counted(code, errors, collect):
        scanned.append(len(errors))
        return scan(code, errors, collect)

    monkeypatch.setattr(cwscode, "_scan_errors", counted)
    code, doc, _ = run(capsys, "paper-demo")
    assert code == 0
    # one pass over weights 1, 2 and 3 gives both the weight-2 verdict and
    # the distance
    assert scanned == [27, 324, 2268]
    details = {c["name"]: c["detail"] for c in doc["payload"]["checks"]}
    assert details["error conditions hold to weight 2"] == "passed=True pure=True"
    assert details["distance is exactly 3"] == "first failing weight: 3"


def test_paper_demo_reads_the_projector_and_enumerator_verdicts(capsys, monkeypatch):
    _, projector, _ = run(capsys, "projector")
    _, enumerator, _ = run(capsys, "enumerator")
    calls = Counter()

    def counting(name):
        fn = getattr(cli, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in ("sum_mul", "build_projector"):
        monkeypatch.setattr(cli, name, counting(name))
    code, doc, _ = run(capsys, "paper-demo")
    assert code == 0
    # P·P is formed once, and the product form is built once
    assert calls == {"sum_mul": 1, "build_projector": 1}
    checks = {c["name"]: c for c in doc["payload"]["checks"]}
    verdict = projector["payload"]["verdict"]
    laws = verdict["idempotent"] and verdict["hermitian"] and verdict["trace_equals_size"]
    proj = checks["projector product form is the codeword projector"]
    assert proj["detail"] == (
        f"equal={verdict['matches_product_form']} idempotent+hermitian+trace12={laws}")
    assert proj["passed"] == projector["payload"]["passed"] is True
    enum = checks["weight enumerator methods agree"]
    assert enum["detail"] == f"A = {enumerator['payload']['a']}"
    assert enum["passed"] == enumerator["payload"]["methods_agree"] is True


def test_search_derives_the_pattern_set_once(capsys, monkeypatch):
    calls = []
    pattern_masks = cwscode._pattern_masks

    def counted(g, max_weight):
        calls.append(max_weight)
        return pattern_masks(g, max_weight)

    for module in (cwscode, search):
        monkeypatch.setattr(module, "_pattern_masks", counted)
    code, doc, _ = run(capsys, "search", "--min-size", "12")
    assert code == 0
    assert doc["payload"]["empty_pattern_present"] is False
    assert calls == [2]


def test_patterns_derives_the_pattern_set_once(capsys, monkeypatch):
    # the size classes on a loop group the weight-2 set that patterns reports
    calls = []
    pattern_masks = cwscode._pattern_masks

    def counted(g, max_weight):
        calls.append(max_weight)
        return pattern_masks(g, max_weight)

    monkeypatch.setattr(cwscode, "_pattern_masks", counted)
    code, doc, _ = run(capsys, "patterns")
    assert code == 0
    assert doc["payload"]["counts"]["classes"]["6"] == 18
    assert calls == [2]


def test_proofcheck_builds_the_transition_set_once(capsys, monkeypatch):
    calls = []
    transitions = cwscode.transition_set

    def counted(code):
        calls.append(code.size)
        return transitions(code)

    for module in (cwscode, cli):
        monkeypatch.setattr(module, "transition_set", counted)
    code, doc, _ = run(capsys, "proofcheck")
    assert code == 0
    assert doc["payload"]["counts"]["transitions"] == 31
    assert doc["payload"]["counts"]["reduced_transitions"] == 31
    assert calls == [12]


# (argv, codeword-pair walks, signed-count transforms) per command
FACT_DERIVATIONS = [
    (["paper-demo"], 1, 1),
    (["verify"], 1, 0),
    (["verify", "--weight", "4"], 1, 0),
    (["distance"], 1, 0),
    (["proofcheck"], 1, 0),
    (["projector"], 0, 1),
    (["enumerator"], 0, 1),
    (["search"], 1, 0),
    (["patterns"], 0, 0),
    (["statevec"], 0, 0),
]


@pytest.mark.parametrize("argv, walks, transforms", FACT_DERIVATIONS)
def test_each_code_derives_its_facts_at_most_once(
        capsys, monkeypatch, argv, walks, transforms):
    derived = {"pairs_by_diff": [], "signed_counts": []}
    for name, codes in derived.items():
        def counted(code, fn=getattr(CwsCode, name).func, codes=codes):
            codes.append(code)
            return fn(code)

        fact = functools.cached_property(counted)
        fact.__set_name__(CwsCode, name)
        monkeypatch.setattr(CwsCode, name, fact)
    run(capsys, *argv)
    # the lists keep every code alive, so no two codes share an id
    for name, expected in (("pairs_by_diff", walks), ("signed_counts", transforms)):
        per_code = Counter(map(id, derived[name]))
        assert sum(per_code.values()) == expected, name
        assert set(per_code.values()) <= {1}, name


@pytest.fixture
def one_vertex_code(tmp_path):
    """A code file with the words - and 1 on the 1-vertex graph one.graph beside it."""
    (tmp_path / "one.graph").write_text("n 1\n")
    one = tmp_path / "one.code"
    one.write_text("graph one.graph\n-\n1\n")
    return one


def test_weight_options_outside_the_input_name_the_option(capsys, one_vertex_code):
    one = one_vertex_code
    for argv, message in (
        (["verify", "--code", str(one)], "--weight 2 outside 1..1"),
        (["distance", "--code", str(one), "--max", "2"], "--max 2 outside 1..1"),
        (["patterns", "--graph", str(one.parent / "one.graph")], "--weight 2 outside 1..1"),
        (["verify", "--weight", "0"], "--weight 0 outside 1..9"),
        (["verify", "--weight", "10"], "--weight 10 outside 1..9"),
        (["distance", "--max", "0"], "--max 0 outside 1..9"),
        (["distance", "--max", "10"], "--max 10 outside 1..9"),
        (["patterns", "--weight", "10"], "--weight 10 outside 1..9"),
    ):
        code, doc, err = run(capsys, *argv)
        assert (code, doc, err) == (2, None, f"error: {message}\n"), argv
    # without --max, distance scans up to n: Z1 joins - and 1
    code, doc, _ = run(capsys, "distance", "--code", str(one))
    assert code == 0 and doc["payload"]["distance"] == 1


def test_proofcheck_runs_on_a_one_vertex_code(capsys, one_vertex_code):
    code, doc, _ = run(capsys, "proofcheck", "--code", str(one_vertex_code))
    assert code == 1
    payload = doc["payload"]
    # no error has weight 2 on one qubit; X1 reduces to the empty pattern
    assert payload["passed"] is False and payload["checked_weight"] == 1
    assert payload["empty_pattern_present"] is True
    assert payload["counts"] == {"patterns": 2, "transitions": 1, "reduced_transitions": 1}


EXIT_RULE_CASES = [
    *[([c], "builtin", True) for c in CODE_COMMANDS + ("patterns", "search", "paper-demo")],
    (["statevec"], "builtin", None),
    *[([c, "--code"], "file", True) for c in CODE_COMMANDS],
    *[([c, "--graph"], "file", True) for c in ("patterns", "search")],
    (["statevec", "--graph"], "file", None),
    # the twelve builtin words plus {1}, and a size the loop cannot reach
    (["verify", "--code"], "thirteen", False),
    (["proofcheck", "--code"], "thirteen", False),
    (["search", "--min-size", "13"], "builtin", False),
    (["search", "--min-size", "13", "--graph"], "file", False),
]


@pytest.mark.parametrize("argv, source, passed", EXIT_RULE_CASES,
                         ids=[" ".join(a) + f" [{s}]" for a, s, _ in EXIT_RULE_CASES])
def test_exit_code_follows_passed_and_inputs_name_the_source(
        capsys, tmp_path, argv, source, passed):
    graph_file, code_file = DATA / "loop9.graph", DATA / "code_9_12_3.code"
    if argv[0] in GRAPH_COMMANDS:
        inputs = {"graph": {"builtin": "loop9"}}
        if source == "file":
            argv, inputs = [*argv, str(graph_file)], {"graph": file_record(graph_file)}
    else:
        inputs = {"code": {"builtin": "the_9_12_3"}}
        if source == "file":
            argv = [*argv, str(code_file)]
            inputs = {"code": file_record(code_file), "graph": file_record(graph_file)}
        elif source == "thirteen":
            code_file = tmp_path / "thirteen.code"
            words = CODEWORDS_9_12_3 + (frozenset({1}),)
            code_file.write_text(render_code(CwsCode(loop_graph(9), words), "builtin:loop9"))
            argv = [*argv, str(code_file)]
            inputs = {"code": file_record(code_file), "graph": {"builtin": "loop9"}}
    code, doc, _ = run(capsys, *argv)
    assert doc["payload"].get("passed") == passed
    assert code == (0 if doc["payload"].get("passed", True) else 1)
    assert doc["inputs"] == inputs


@pytest.mark.parametrize("n", [3, 4])
def test_patterns_on_small_loops_leave_the_empty_pattern_unclassed(capsys, tmp_path, n):
    # some weight-<=2 errors on these loops reduce to the empty pattern
    path = tmp_path / f"loop{n}.graph"
    path.write_text(render_graph(loop_graph(n)))
    code, doc, _ = run(capsys, "patterns", "--graph", str(path))
    assert code == 0
    payload = doc["payload"]
    assert payload["empty_pattern_present"] is True
    assert sum(payload["counts"]["classes"].values()) == payload["counts"]["patterns"] - 1


def test_patterns_counts(capsys):
    code, doc, _ = run(capsys, "patterns")
    assert code == 0
    assert doc["payload"]["counts"]["patterns"] == 243
    # 9 and 36 are every single vertex and every pair of the 9 vertices
    assert doc["payload"]["counts"]["classes"] == {
        "1": 9, "2": 36, "3": 72, "4": 72, "5": 36, "6": 18}
    assert doc["payload"]["empty_pattern_present"] is False


def test_patterns_classes_match_the_error_enumeration_on_loops(capsys, tmp_path):
    # the reference multiplies out every error of weight <= 2 and reduces
    # it, sharing nothing with the pattern walk
    for n in range(3, 13):
        g = loop_graph(n)
        path = tmp_path / f"loop{n}.graph"
        path.write_text(render_graph(g))
        expected = {
            reduce_error(g, e).pattern for w in (1, 2) for e in enumerate_errors(n, w)
        }
        code, doc, _ = run(capsys, "patterns", "--graph", str(path))
        assert code == 0
        assert doc["payload"]["counts"]["patterns"] == len(expected), n
        assert doc["payload"]["counts"]["classes"] == {
            str(k): sum(len(p) == k for p in expected) for k in range(1, 7)}, n


def test_patterns_report_classes_only_on_a_loop_at_weight_two(capsys, tmp_path):
    path = tmp_path / "path.graph"
    path.write_text(render_graph(Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])))
    for argv in (["--graph", str(path)], ["--weight", "1"], ["--weight", "3"]):
        code, doc, _ = run(capsys, "patterns", *argv)
        assert code == 0
        assert doc["payload"]["counts"]["patterns"] > 0
        assert "classes" not in doc["payload"]["counts"], argv


def test_proofcheck_passes(capsys):
    code, doc, _ = run(capsys, "proofcheck")
    assert code == 0
    assert doc["payload"]["passed"]
    assert doc["payload"]["counts"] == {
        "patterns": 243, "transitions": 31, "reduced_transitions": 31}


def test_projector_verdict(capsys):
    code, doc, _ = run(capsys, "projector")
    assert code == 0
    payload = doc["payload"]
    assert payload["term_count"] == 176
    assert payload["verdict"] == {
        "idempotent": True,
        "hermitian": True,
        "trace": "12",
        "trace_equals_size": True,
        "matches_product_form": True,
    }
    assert "3/128 I" in payload["terms"]
    assert len(payload["terms"]) == 176


def test_projector_matches_the_product_form_in_any_word_order(capsys, tmp_path):
    # P depends on the set of codewords only, so the builtin words listed
    # in another order are still the paper's code
    path = tmp_path / "reversed.code"
    words = tuple(reversed(CODEWORDS_9_12_3))
    path.write_text(render_code(CwsCode(loop_graph(9), words), "builtin:loop9"))
    assert read_code(path)[0].codewords == words
    code, doc, _ = run(capsys, "projector", "--code", str(path))
    assert code == 0
    assert doc["payload"]["verdict"]["matches_product_form"] is True


def test_enumerator_both_methods(capsys):
    code, doc, _ = run(capsys, "enumerator")
    assert code == 0
    assert doc["payload"]["method"] == "both"
    assert doc["payload"]["a"] == [144, 0, 0, 0, 96, 0, 1536, 3072, 1296, 0]
    assert doc["payload"]["brute_a"] == doc["payload"]["a"]
    assert doc["payload"]["methods_agree"]
    assert doc["payload"]["sum"] == 6144


def test_removed_method_option_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["enumerator", "--method", "fast"])
    assert info.value.code == 2


def test_statevec_signs_match_the_state(capsys, tmp_path):
    # the command reads each sign from the stabilizer table's phases; the
    # dense oracle builds the state from the edge list.  At the table cap:
    # loop 14, and the empty and complete graphs, the extremes of the
    # edge-parity identity behind those signs
    rng = random.Random(19)
    graphs = [loop_graph(9), loop_graph(14), Graph(14, (0,) * 14),
              Graph(14, tuple(((1 << 14) - 1) ^ (1 << a) for a in range(14)))]
    for n in [*range(1, 12), *range(1, 12)]:
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        density = rng.random()
        graphs.append(Graph.from_edges(n, [pq for pq in pairs if rng.random() < density]))
    runs = [(loop_graph(9), [])]  # the builtin
    for index, g in enumerate(graphs):
        path = tmp_path / f"g{index}.graph"
        path.write_text(render_graph(g))
        runs.append((g, ["--graph", str(path)]))
    for g, argv in runs:
        code, doc, _ = run(capsys, "statevec", *argv)
        assert code == 0
        scale = f"1/√{1 << g.n}"
        expected = [("-" if a.real < 0 else "+") + scale for a in state_vector(g).amps]
        assert doc["payload"] == {"n": g.n, "scale": scale, "amplitudes": expected}, g


def test_search_budget_defaults_to_the_search_config():
    assert cli.build_parser().parse_args(["search"]).budget == search.SearchConfig.time_budget


def test_search_reaches_twelve(capsys):
    code, doc, _ = run(capsys, "search", "--min-size", "12", "--budget", "60s")
    assert code == 0
    payload = doc["payload"]
    assert payload["size"] == 12
    assert payload["certified"] and payload["exhausted"]
    assert payload["code_file"].startswith("graph builtin:loop9\n-\n")
    assert payload["codewords"][0] == []
    # the exhausted loop-9 words, as masks with bit a-1 for vertex a
    masks = [sum(1 << (v - 1) for v in word) for word in payload["codewords"]]
    assert masks == [0, 73, 140, 175, 197, 230, 280, 307, 337, 378, 446, 503]


def test_removed_strategy_option_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["search", "--strategy", "greedy"])
    assert info.value.code == 2


def test_search_distance_beyond_n_plus_one_exits_two(capsys):
    code, doc, err = run(capsys, "search", "--distance", "11")
    assert code == 2 and doc is None
    assert "error: --distance 11 outside 2..10" in err


def test_search_unreachable_min_size_exits_one(capsys):
    code, doc, _ = run(capsys, "search", "--min-size", "13")
    assert code == 1
    assert doc["payload"]["size"] == 12
    assert doc["payload"]["exhausted"]


def test_search_min_size_below_one_exits_two(capsys):
    code, doc, err = run(capsys, "search", "--min-size", "0")
    assert code == 2 and doc is None
    assert "error: --min-size 0 below 1" in err


def test_paper_demo_all_green(capsys):
    code, doc, err = run(capsys, "paper-demo")
    assert code == 0
    checks = doc["payload"]["checks"]
    assert len(checks) == 5
    assert all(c["passed"] for c in checks)
    assert "all checks pass" in err


def test_no_command_writes_to_stderr_without_pretty(capsys, tmp_path):
    # paper-demo always prints its table, so it is left out; the eleven
    # builtin words are not the builtin code, so `projector` reports
    # `matches_product_form` as None, and on the path graph, which is not
    # a loop, `patterns` reports no size classes.  A warning would reach
    # stderr outside pytest, which records it instead, so warnings are
    # collected here as well
    code_file = tmp_path / "eleven.code"
    eleven = CwsCode(loop_graph(9), CODEWORDS_9_12_3[:11])
    code_file.write_text(render_code(eleven, "builtin:loop9"))
    graph_file = tmp_path / "path.graph"
    graph_file.write_text(render_graph(Graph.from_edges(6, [(a, a + 1) for a in range(1, 6)])))
    runs = [[command] for command in CODE_COMMANDS + GRAPH_COMMANDS]
    runs += [[command, "--code", str(code_file)] for command in CODE_COMMANDS]
    runs += [[command, "--graph", str(graph_file)] for command in GRAPH_COMMANDS]
    for argv in runs:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, doc, err = run(capsys, *argv)
        assert code in (0, 1) and doc is not None, argv
        assert (err, [str(w.message) for w in caught]) == ("", []), argv


def test_search_code_file_names_a_graph_path_with_spaces(capsys, tmp_path):
    graph_file = tmp_path / "my dir" / "loop 9.graph"
    graph_file.parent.mkdir()
    graph_file.write_text(render_graph(loop_graph(9)))
    code, doc, _ = run(capsys, "search", "--graph", str(graph_file))
    assert code == 0
    code_file = tmp_path / "found.code"
    code_file.write_text(doc["payload"]["code_file"])
    found, inputs = read_code(code_file)
    assert found.graph == loop_graph(9)
    assert [sorted(c) for c in found.codewords] == doc["payload"]["codewords"]
    assert inputs["graph"] == doc["inputs"]["graph"]


def test_search_code_file_saved_next_to_a_relative_graph(capsys, tmp_path, monkeypatch):
    # a code file resolves its graph relative to itself, not to the
    # directory the search ran in
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "loop9.graph").write_text(render_graph(loop_graph(9)))
    code, doc, _ = run(capsys, "search", "--graph", "data/loop9.graph", "--min-size", "12")
    assert code == 0
    Path("data/found.code").write_text(doc["payload"]["code_file"])
    code, doc, _ = run(capsys, "verify", "--code", "data/found.code")
    assert code == 0
    assert Path(doc["inputs"]["graph"]["path"]).resolve() == tmp_path / "data" / "loop9.graph"


def test_pretty_goes_to_stderr(capsys):
    # --pretty adds one line per payload field after what the command
    # writes anyway: nested keys dotted, values spelled as in the JSON,
    # and each list by its length; the JSON and the exit code stay
    def fields(value, key=""):
        if isinstance(value, dict):
            return [line for k, v in value.items()
                    for line in fields(v, f"{key}.{k}" if key else k)]
        if isinstance(value, list):
            return [f"{key}: {len(value)} items"]
        return [f"{key}: {json.dumps(value, ensure_ascii=False)}"]

    def timeless(doc):
        doc.pop("elapsed_seconds")
        doc["payload"].pop("search_seconds", None)
        return doc

    for command in ("paper-demo", *CODE_COMMANDS, *GRAPH_COMMANDS):
        code, doc, err = run(capsys, command)
        pretty_code, pretty_doc, pretty_err = run(capsys, command, "--pretty")
        lines = fields(pretty_doc["payload"])
        assert pretty_code == code, command
        assert pretty_err == err + "".join(f"{line}\n" for line in lines), command
        assert timeless(pretty_doc) == timeless(doc), command
        if command == "verify":
            assert {"passed: true", "counts.violations: 0", "violations: 0 items"} <= set(lines)


def test_input_files_with_nothing_in_them_exit_two(capsys, tmp_path):
    graph_file, code_file = tmp_path / "none.graph", tmp_path / "comments.code"
    graph_file.write_text("n 0\n")
    code_file.write_text("# graph builtin:loop9\n\n# -\n")
    for argv, message in (
        (["patterns", "--graph", str(graph_file)], f"{graph_file}:1: need at least one vertex"),
        (["verify", "--code", str(code_file)], f"{code_file}:1: empty code file"),
    ):
        code, doc, err = run(capsys, *argv)
        assert code == 2 and doc is None, argv
        assert message in err, argv


def test_unparsable_budget_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["search", "--budget", "abc"])
    assert info.value.code == 2
    assert "bad duration" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_one_parser_serves_every_call_and_keeps_no_state(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    # an option given to one call does not carry over to the next
    assert run(capsys, "verify", "--weight", "3")[1]["payload"]["checked_weight"] == 3
    assert run(capsys, "verify")[1]["payload"]["checked_weight"] == 2
    assert run(capsys, "distance", "--max", "2")[1]["payload"]["checked_weight"] == 2
    assert run(capsys, "distance")[1]["payload"]["checked_weight"] == 9
    # a rejected argv between two good calls leaves the second call's output as it was
    before = run(capsys, "proofcheck")
    with pytest.raises(SystemExit) as info:
        main(["verify", "--weight", "two"])
    assert info.value.code == 2
    capsys.readouterr()
    after = run(capsys, "proofcheck")
    for doc in (before[1], after[1]):
        del doc["elapsed_seconds"]
    assert after == before
    assert len(built) == 1
    assert build() is not build()


def declared_inputs():
    """Each subcommand the parser declares, with the input its defaults name."""
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: parser.parse_args([name]).input for name in sub.choices}


def test_command_lists_name_every_declared_subcommand_and_its_input():
    # the exit-rule, inputs and stderr checks loop over these lists, so a
    # subcommand missing from them would skip those checks
    listed = {**dict.fromkeys(CODE_COMMANDS, "code"), **dict.fromkeys(GRAPH_COMMANDS, "graph"),
              "paper-demo": None}
    assert len(listed) == len(CODE_COMMANDS) + len(GRAPH_COMMANDS) + 1
    assert declared_inputs() == listed


PARSED = {
    "verify": {"code": None, "weight": 2, "input": "code", "handler": cli._cmd_verify},
    "distance": {"code": None, "max": None, "input": "code", "handler": cli._cmd_distance},
    "patterns": {"graph": None, "weight": 2, "input": "graph", "handler": cli._cmd_patterns},
    "proofcheck": {"code": None, "input": "code", "handler": cli._cmd_proofcheck},
    "projector": {"code": None, "input": "code", "handler": cli._cmd_projector},
    "enumerator": {"code": None, "input": "code", "handler": cli._cmd_enumerator},
    "statevec": {"graph": None, "input": "graph", "handler": cli._cmd_statevec},
    "search": {"graph": None, "distance": 3, "min_size": 1, "budget": 60.0, "input": "graph",
               "handler": cli._cmd_search},
    "paper-demo": {"input": None, "handler": cli._cmd_paper_demo},
}


def test_each_subcommand_parses_to_its_defaults_input_and_handler():
    assert set(PARSED) == set(declared_inputs())
    for name, fields in PARSED.items():
        parsed = vars(cli.build_parser().parse_args([name]))
        assert parsed == {"subcommand": name, "pretty": False, **fields}, name


def test_each_command_reads_only_the_file_its_option_names(capsys, monkeypatch):
    reads = Counter()

    def counted(kind, read):
        def counting(path):
            reads[kind, path] += 1
            return read(path)
        return counting

    monkeypatch.setattr(cli, "read_code", counted("code", cli.read_code))
    monkeypatch.setattr(cli, "read_graph", counted("graph", cli.read_graph))
    code_file, graph_file = str(DATA / "code_9_12_3.code"), str(DATA / "loop9.graph")
    runs = [([command], {}) for command in ("paper-demo", *CODE_COMMANDS, *GRAPH_COMMANDS)]
    runs += [([c, "--code", code_file], {("code", code_file): 1}) for c in CODE_COMMANDS]
    runs += [([c, "--graph", graph_file], {("graph", graph_file): 1}) for c in GRAPH_COMMANDS]
    for argv, expected in runs:
        reads.clear()
        code, doc, _ = run(capsys, *argv)
        assert code == 0 and doc is not None, argv
        assert reads == Counter(expected), argv
    # paper-demo takes neither option, so it cannot be pointed at a file
    reads.clear()
    for option, path in (("--code", code_file), ("--graph", graph_file)):
        with pytest.raises(SystemExit) as info:
            main(["paper-demo", option, path])
        assert info.value.code == 2 and not reads, option
    capsys.readouterr()


def json_text(value):
    out = []
    cli._json_text(value, out)
    return "".join(out)


# strings the stdlib escapes in every way it can: quotes, backslashes,
# control characters, non-ASCII, astral characters as surrogate pairs, and
# lone surrogates, which only the stdlib's \uXXXX escape can carry
TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "/", "é", "ü", "\u2028",
                          "\U0001f600", "\ud800", "\udfff"])
JSON_STRINGS = st.text(st.characters(exclude_categories=()) | TRICKY, max_size=12)
JSON_SCALARS = (JSON_STRINGS | st.booleans() | st.none()
                | st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
                | st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-0.0, 1e300]))
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(JSON_STRINGS, inner, max_size=4)),
    max_leaves=24,
)
# the payload of the builtin `verify --weight 3`: 762 violation rows
WEIGHT_3_PAYLOAD = cli._cmd_verify(argparse.Namespace(weight=3), cwscode.the_9_12_3())
WEIGHT_3_REPORT = {"tool": "cwskit", "version": __version__, "subcommand": "verify",
                   "inputs": {"code": {"builtin": "the_9_12_3"}}, "elapsed_seconds": 0.012345,
                   "payload": WEIGHT_3_PAYLOAD}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(JSON_TREES)
@example(WEIGHT_3_REPORT)
@example([True, False, None, 0, -1, 2**70, -0.0, float("nan"), float("inf"), -float("inf")])
@example({"a": [(), [], {}, ({"b": [[{"c": ({},)}]]},)], "": ("\ud800", "x\U0001f600\"")})
def test_json_text_lays_out_as_json_dumps_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_weight_3_payload_lists_every_violation():
    assert len(WEIGHT_3_PAYLOAD["violations"]) == WEIGHT_3_PAYLOAD["counts"]["violations"] == 762


def test_input_paths_outside_ascii_round_trip(capsys, tmp_path):
    # the report escapes every non-ASCII character of a path, as json.dumps
    # does, and the path reads back as it was typed
    folder = tmp_path / "cws dätä"
    shutil.copytree(DATA, folder)
    code_file, graph_file = folder / "code_9_12_3.code", folder / "loop9.graph"
    for command in ("verify", "projector"):
        code, doc, _ = run(capsys, command, "--code", str(code_file))
        assert code == 0, command
        assert doc["inputs"] == {"code": file_record(code_file), "graph": file_record(graph_file)}
        # run() has pinned stdout to this text
        text = json.dumps(doc, indent=2)
        assert "cws d\\u00e4t\\u00e4" in text and text.isascii(), command

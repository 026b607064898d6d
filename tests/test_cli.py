"""The command-line interface: JSON reports, exit codes, diagnostics."""

import builtins
import hashlib
import json
import warnings
from collections import Counter
from pathlib import Path

import pytest

from cwskit import __version__, cwscode, search
from cwskit.cli import main
from cwskit.cwscode import CODEWORDS_9_12_3, CwsCode
from cwskit.dense import state_vector
from cwskit.files import read_code, render_code, render_graph
from cwskit.graphstate import Graph, loop_graph

DATA = Path(__file__).resolve().parent.parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


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

    def record(path):
        return {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

    graph_file = DATA / "loop9.graph"
    cases = [
        (["verify", "--code", str(DATA / "code_9_12_3.code")],
         {"code": record(DATA / "code_9_12_3.code"), "graph": record(graph_file)}),
        (["verify", "--code", str(builtin_ref)],
         {"code": record(builtin_ref), "graph": {"builtin": "loop9"}}),
        (["patterns", "--graph", str(graph_file)], {"graph": record(graph_file)}),
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
    assert doc["payload"]["counts"]["classes"] == {
        "1": 9, "2": 36, "3": 72, "4": 72, "5": 36, "6": 18}
    assert doc["payload"]["empty_pattern_present"] is False


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


def test_statevec_signs_match_the_state(capsys):
    code, doc, _ = run(capsys, "statevec")
    assert code == 0
    amps = doc["payload"]["amplitudes"]
    state = state_vector(loop_graph(9))
    assert len(amps) == 512
    for text, amp in zip(amps, state.amps):
        assert text == ("+" if amp.real > 0 else "-") + "1/√512"


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
    assert "error: target_distance outside 2..10" in err


def test_search_unreachable_min_size_exits_one(capsys):
    code, doc, _ = run(capsys, "search", "--min-size", "13")
    assert code == 1
    assert doc["payload"]["size"] == 12
    assert doc["payload"]["exhausted"]


def test_search_min_size_below_one_exits_two(capsys):
    code, doc, err = run(capsys, "search", "--min-size", "0")
    assert code == 2 and doc is None
    assert "error: min_size must be at least 1" in err


def test_paper_demo_all_green(capsys):
    code, doc, err = run(capsys, "paper-demo")
    assert code == 0
    checks = doc["payload"]["checks"]
    assert len(checks) == 5
    assert all(c["passed"] for c in checks)
    assert "all checks pass" in err


def test_no_command_writes_to_stderr_without_pretty(capsys, tmp_path):
    # paper-demo always prints its table, so it is left out; the eleven
    # builtin words lack the half-shift structure, and the path graph is
    # not a loop.  A warning would reach stderr outside pytest, which
    # records it instead, so warnings are collected here as well
    code_commands = ("verify", "distance", "proofcheck", "projector", "enumerator")
    graph_commands = ("patterns", "statevec", "search")
    code_file = tmp_path / "eleven.code"
    eleven = CwsCode(loop_graph(9), CODEWORDS_9_12_3[:11])
    code_file.write_text(render_code(eleven, "builtin:loop9"))
    graph_file = tmp_path / "path.graph"
    graph_file.write_text(render_graph(Graph.from_edges(6, [(a, a + 1) for a in range(1, 6)])))
    runs = [[command] for command in code_commands + graph_commands]
    runs += [[command, "--code", str(code_file)] for command in code_commands]
    runs += [[command, "--graph", str(graph_file)] for command in graph_commands]
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


def test_pretty_goes_to_stderr(capsys):
    code, doc, err = run(capsys, "verify", "--pretty")
    assert code == 0
    assert doc is not None
    assert "passed" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out

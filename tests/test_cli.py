"""The command-line interface: JSON reports, exit codes, diagnostics."""

import builtins
import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from cwskit import __version__
from cwskit.cli import main
from cwskit.graphstate import loop_graph, state_vector

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
    code, doc, _ = run(capsys, "enumerator", "--method", "both")
    assert code == 0
    assert doc["payload"]["a"] == [144, 0, 0, 0, 96, 0, 1536, 3072, 1296, 0]
    assert doc["payload"]["brute_a"] == doc["payload"]["a"]
    assert doc["payload"]["methods_agree"]
    assert doc["payload"]["sum"] == 6144


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


def test_search_greedy_strategy(capsys):
    code, doc, _ = run(capsys, "search", "--strategy", "greedy")
    assert code == 0
    assert doc["payload"]["size"] == 8
    assert not doc["payload"]["exhausted"]


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

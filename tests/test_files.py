"""Graph and code file parsing, rendering, and diagnostics."""

import hashlib
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwskit.cwscode import CwsCode, the_9_12_3
from cwskit.files import (
    FileFormatError,
    load_code,
    load_graph,
    read_code,
    read_graph,
    render_code,
    render_graph,
    resolve_graph_reference,
)
from cwskit.graphstate import Graph, loop_graph

DATA = Path(__file__).resolve().parent.parent / "data"


def test_shipped_graph_file_is_the_builtin_loop():
    assert load_graph(DATA / "loop9.graph") == loop_graph(9)


def test_shipped_code_file_is_the_builtin_code():
    assert load_code(DATA / "code_9_12_3.code") == the_9_12_3()


def test_code_roundtrip_with_builtin_reference(tmp_path):
    code = the_9_12_3()
    path = tmp_path / "c.code"
    path.write_text(render_code(code, "builtin:loop9"))
    assert load_code(path) == code


def test_comments_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("# loop on three vertices\n\nn 3\n1 2\n\n# middle\n2 3\n1 3\n")
    assert load_graph(path) == loop_graph(3)


def checked_load_graph(tmp_path, text):
    path = tmp_path / "bad.graph"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FileFormatError) as info:
        load_graph(path)
    return info.value


def test_graph_file_diagnostics(tmp_path):
    err = checked_load_graph(tmp_path, "vertices 3\n")
    assert err.line == 1 and "header" in err.message
    err = checked_load_graph(tmp_path, "n 5\n5 5\n")
    assert err.line == 2 and "self-loop" in err.message
    err = checked_load_graph(tmp_path, "n 5\n3 2\n")
    assert err.line == 2
    err = checked_load_graph(tmp_path, "n 5\n1 6\n")
    assert err.line == 2
    err = checked_load_graph(tmp_path, "n 5\n1 2\n# fine\n1 2\n")
    assert err.line == 4 and "duplicate" in err.message
    err = checked_load_graph(tmp_path, "n 5\n1 2 3\n")
    assert err.line == 2
    err = checked_load_graph(tmp_path, "")
    assert err.line == 1 and "empty" in err.message
    # counts are ASCII digits: '²' and '３' pass str.isdigit but are refused
    for text, line in (("n ²\n", 1), ("n ３\n", 1), ("n 5\n1 ²\n", 2), ("n 5\n1 ３\n", 2)):
        err = checked_load_graph(tmp_path, text)
        assert err.line == line, text


def checked_load_code(tmp_path, text):
    path = tmp_path / "bad.code"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FileFormatError) as info:
        load_code(path)
    return info.value


def test_code_file_diagnostics(tmp_path):
    err = checked_load_code(tmp_path, "-\n2,6,7\n")
    assert err.line == 1 and "graph" in err.message
    err = checked_load_code(tmp_path, "graph builtin:loopy\n-\n")
    assert err.line == 1
    err = checked_load_code(tmp_path, "graph builtin:loop9\n-\n2,x,7\n")
    assert err.line == 3
    err = checked_load_code(tmp_path, "graph builtin:loop9\n2,10\n")
    assert err.line == 2 and "outside" in err.message
    err = checked_load_code(tmp_path, "graph builtin:loop9\n2,2,7\n")
    assert err.line == 2 and "repeated" in err.message
    err = checked_load_code(tmp_path, "graph builtin:loop9\n-\n2,6,7\n7,2,6\n")
    assert err.line == 4
    assert "duplicate codeword 2,6,7" in err.message
    assert "line 3" in err.message
    err = checked_load_code(tmp_path, "graph builtin:loop9\n")
    assert "no codeword" in err.message
    err = checked_load_code(tmp_path, "graph nowhere.graph\n-\n")
    assert err.line == 1
    err = checked_load_code(tmp_path, "graph \n-\n")
    assert err.line == 1 and "expected 'graph <ref>'" in err.message
    for text, line in (("graph builtin:loop9\n-\n1,²\n", 3),
                       ("graph builtin:loop9\n1,３\n", 2),
                       ("graph builtin:loop９\n-\n", 1)):
        err = checked_load_code(tmp_path, text)
        assert err.line == line, text


def test_non_utf8_bytes_name_the_file_and_line(tmp_path):
    code_path = tmp_path / "bytes.code"
    code_path.write_bytes(b"graph builtin:loop9\n-\n1,2\xff\n")
    with pytest.raises(FileFormatError) as info:
        load_code(code_path)
    assert (info.value.path, info.value.line) == (str(code_path), 3)
    assert "0xff" in info.value.message
    # a graph file named by a code file is the one reported
    graph_path = tmp_path / "bytes.graph"
    graph_path.write_bytes(b"n 3\n1 2\n\xfe 3\n")
    (tmp_path / "ref.code").write_text("graph bytes.graph\n-\n")
    for load, path in ((load_graph, graph_path), (load_code, tmp_path / "ref.code")):
        with pytest.raises(FileFormatError) as info:
            load(path)
        assert Path(info.value.path).resolve() == graph_path.resolve()
        assert info.value.line == 3
        assert "0xfe" in info.value.message


def test_oversized_graphs_rejected_before_building(tmp_path):
    # a 3000-vertex graph would take seconds to build and check; the header alone
    # is refused at the table cap every command needs
    err = checked_load_graph(tmp_path, "# huge\nn 3000\n")
    assert (err.line, err.message) == (2, "graphs limited to 14 vertices")
    assert str(err).startswith(f"{tmp_path / 'bad.graph'}:2: ")
    err = checked_load_code(tmp_path, "graph builtin:loop3000\n-\n")
    assert (err.line, err.message) == (1, "graphs limited to 14 vertices")
    assert str(err).startswith(f"{tmp_path / 'bad.code'}:1: ")
    (tmp_path / "cap.graph").write_text("n 14\n")
    assert load_graph(tmp_path / "cap.graph") == Graph(14, (0,) * 14)
    (tmp_path / "cap.code").write_text("graph builtin:loop14\n-\n")
    assert load_code(tmp_path / "cap.code").graph == loop_graph(14)


def test_code_file_with_relative_graph_path(tmp_path):
    (tmp_path / "tiny.graph").write_text("n 4\n1 2\n2 3\n3 4\n1 4\n")
    (tmp_path / "tiny.code").write_text("graph tiny.graph\n-\n1,3\n")
    code = load_code(tmp_path / "tiny.code")
    assert code.graph == loop_graph(4)
    assert code.codewords == (frozenset(), frozenset({1, 3}))


def test_resolve_builtin_reference():
    g, record = resolve_graph_reference("builtin:loop5", Path("."))
    assert record == {"builtin": "loop5"}
    assert g == loop_graph(5)
    with pytest.raises(ValueError):
        resolve_graph_reference("builtin:loop", Path("."))


def test_render_code_uses_dash_for_the_empty_word():
    code = CwsCode(loop_graph(3), (frozenset(), frozenset({1, 3})))
    assert render_code(code, "builtin:loop3") == "graph builtin:loop3\n-\n1,3\n"


# A function-scoped tmp_path would be shared by every Hypothesis example
# and trips its health check, so these round trips make their own
# temporary directory.
@st.composite
def random_graphs(draw, largest: int = 14):
    n = draw(st.integers(1, largest))
    return Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if draw(st.booleans())])


def random_words(draw, n: int) -> tuple[frozenset[int], ...]:
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12, unique=True))
    return tuple(frozenset(a for a in range(1, n + 1) if m >> (a - 1) & 1) for m in masks)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(random_graphs())
def test_graph_roundtrip(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.graph"
        path.write_text(render_graph(g))
        read, inputs = read_graph(path)
    assert read == g
    assert inputs["graph"]["sha256"] == hashlib.sha256(render_graph(g).encode()).hexdigest()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.data())
def test_render_read_code_roundtrip(data):
    g = data.draw(random_graphs(10), "graph")
    code = CwsCode(g, random_words(data.draw, g.n))
    k = data.draw(st.integers(3, 14), "loop")
    loop_code = CwsCode(loop_graph(k), random_words(data.draw, k))
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sub dir").mkdir()
        for ref in ("g.graph", "sub dir/g 1.graph"):
            (Path(tmp) / ref).write_text(render_graph(g))
            (Path(tmp) / "c.code").write_text(render_code(code, ref))
            read, inputs = read_code(Path(tmp) / "c.code")
            assert read == code
            assert inputs["graph"]["path"] == str(Path(tmp) / ref)
        (Path(tmp) / "loop.code").write_text(render_code(loop_code, f"builtin:loop{k}"))
        read_loop, loop_inputs = read_code(Path(tmp) / "loop.code")
    assert read_loop == loop_code
    assert loop_inputs["graph"] == {"builtin": f"loop{k}"}

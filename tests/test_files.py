"""Graph and code file parsing, rendering, and diagnostics."""

import hashlib
import re
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
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


def test_a_line_ends_at_newline_only(tmp_path):
    # str.splitlines also breaks at a form feed, which read this file as three
    # edges and refused it at line 4; grep -n and editors show the edge on line 3
    err = checked_load_graph(tmp_path, "n 5\n1 2\x0c3 4\n1 2\n")
    assert (err.line, err.message) == (2, "expected edge 'a b', got '1 2\\x0c3 4'")
    err = checked_load_code(tmp_path, "graph builtin:loop9\n-\n1,2\u20283\n")
    assert (err.line, err.message) == (3, "bad codeword entry '2\\u20283'")
    # a decode error is counted in the same lines
    path = tmp_path / "bytes.code"
    path.write_bytes(b"graph builtin:loop9\n-\x0c\n1,2\x0c3\n2,6\xff\n")
    with pytest.raises(FileFormatError) as info:
        load_code(path)
    assert info.value.line == 4 and "0xff" in info.value.message


def test_crlf_files_read_as_lf_files(tmp_path):
    (tmp_path / "g.graph").write_bytes(b"# loop\r\nn 3\r\n1 2\r\n\r\n2 3\r\n1 3\r\n")
    (tmp_path / "c.code").write_bytes(b"graph g.graph\r\n# words\r\n-\r\n1,3\r\n")
    graph, graph_inputs = read_graph(tmp_path / "g.graph")
    code, code_inputs = read_code(tmp_path / "c.code")
    assert graph == loop_graph(3) and graph_inputs["graph"] == code_inputs["graph"]
    assert code == CwsCode(loop_graph(3), (frozenset(), frozenset({1, 3})))
    for name, text, want in (
            ("crlf.graph", b"n 5\r\n\r\n1 2\r\n1 2\r\n", (4, "duplicate edge 1 2")),
            ("crlf.code", b"graph builtin:loop9\r\n-\r\n\r\n2,2,7\r\n",
             (4, "repeated vertex in codeword '2,2,7'"))):
        load = load_graph if name.endswith("graph") else load_code
        for data in (text, text.replace(b"\r\n", b"\n")):
            (tmp_path / name).write_bytes(data)
            with pytest.raises(FileFormatError) as info:
                load(tmp_path / name)
            assert (info.value.line, info.value.message) == want


def test_builtin_loop_recorded_by_its_integer(tmp_path):
    for ref in ("builtin:loop9", "builtin:loop09"):
        (tmp_path / "c.code").write_text(render_code(the_9_12_3(), ref))
        code, inputs = read_code(tmp_path / "c.code")
        assert code == the_9_12_3() and inputs["graph"] == {"builtin": "loop9"}, ref
    assert resolve_graph_reference("builtin:loop005", Path("."))[1] == {"builtin": "loop5"}


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


def random_words(draw, n: int, most: int = 12) -> tuple[frozenset[int], ...]:
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=most, unique=True))
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


@st.composite
def edited_files(draw):
    """(kind, text): a graph file (n = 1-14) or a `builtin:loop<k>` code file
    (1-8 words) with comment and blank lines and LF or CRLF ends, edited once."""
    if draw(st.booleans()):
        kind, g = "graph", draw(random_graphs())
        n, lines = g.n, render_graph(g).split("\n")[:-1]
    else:
        kind, n = "code", draw(st.integers(3, 14))
        words = random_words(draw, n, most=8)
        lines = render_code(CwsCode(loop_graph(n), words), f"builtin:loop{n}").split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(("", "  ", "# note", "  # 1 2")))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    i = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(("drop", "duplicate", "swap", "token", "separator")))
    if edit == "drop":
        del lines[i]
    elif edit == "duplicate":
        lines.insert(i, lines[i])
    elif edit == "swap":
        j = draw(st.integers(0, len(lines) - 1))
        lines[i], lines[j] = lines[j], lines[i]
    elif edit == "token":  # the even places hold tokens, the odd ones separators
        parts = re.split("( |,|builtin:loop)", lines[i])
        t = 2 * draw(st.integers(0, len(parts) // 2))
        parts[t] = draw(st.sampled_from(("x", "0", str(n + 1), "\uff10", "")))
        lines[i] = "".join(parts)
    else:
        at = draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + draw(st.sampled_from(("\x0c", "\x85", "\u2028"))) + lines[i][at:]
    end = draw(st.sampled_from(("\n", "\r\n")))
    return kind, end.join(lines) + draw(st.sampled_from((end, "")))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(edited_files())
@example(("graph", "n 5\n1 2\x0c3 4\n1 2\n"))  # splitlines put the duplicate on line 4
def test_every_refusal_points_at_a_line_an_editor_shows(case):
    kind, text = case
    if kind == "graph":
        read, render = read_graph, render_graph
    else:
        read, render = read_code, lambda code: render_code(code, f"builtin:loop{code.n}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"edited.{kind}"
        path.write_bytes(text.encode())
        try:
            parsed = read(path)[0]
        except FileFormatError as exc:
            err = exc
        else:
            path.write_text(render(parsed))
            assert read(path)[0] == parsed
            return
    assert str(err).startswith(f"{path}:{err.line}: ")
    assert 1 <= err.line <= text.count("\n") + 1
    if err.message != f"empty {kind} file":
        line = text.split("\n")[err.line - 1].strip()
        assert line and not line.startswith("#"), (str(err), line)

"""Plain-text formats for graphs and codes.

Graph files: a header line `n <count>`, then one `a b` line per edge
with 1-based labels and a < b.  Code files: a `graph <ref>` line naming
the underlying graph, then one codeword line each, comma-separated
labels with `-` standing for the empty word.  The graph reference is
the rest of that line, so a path may contain spaces: a path relative to
the code file, or `builtin:loop<k>` for a loop without a separate file.

Blank lines and `#` comments are skipped everywhere.  All structural
complaints carry the file and line they point at.  A vertex count over
the stabilizer table's cap is refused before any graph is built.

`read_graph` and `read_code` open each file once and return the object
with its inputs block, hashed from the bytes parsed; `load_*` drop it.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterator

from .cwscode import CwsCode
from .graphstate import Graph, _check_cap, loop_graph

_BUILTIN_PREFIX = "builtin:loop"


class FileFormatError(ValueError):
    def __init__(self, path: str | Path, line: int, message: str) -> None:
        super().__init__(f"{path}:{line}: {message}")
        self.path = str(path)
        self.line = line
        self.message = message


def _meaningful_lines(text: str) -> Iterator[tuple[int, str]]:
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield number, line


def _read(path: Path) -> tuple[str, dict]:
    """The file's text plus its inputs record, hashed from the same bytes."""
    data = path.read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise FileFormatError(path, data.count(b"\n", 0, exc.start) + 1, str(exc)) from None
    return text, {"path": str(path), "sha256": hashlib.sha256(data).hexdigest()}


def read_graph(path: str | Path) -> tuple[Graph, dict]:
    """The graph in a file plus its inputs block {"graph": record}."""
    path = Path(path)
    text, record = _read(path)
    lines = list(_meaningful_lines(text))
    if not lines:
        raise FileFormatError(path, 1, "empty graph file")
    number, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "n" or not parts[1].isdigit():
        raise FileFormatError(path, number, f"expected header 'n <count>', got {header!r}")
    n = int(parts[1])
    try:
        # every command needs the stabilizer table, so no larger graph is usable
        _check_cap(n, "table", "graphs")
    except ValueError as exc:
        raise FileFormatError(path, number, str(exc)) from None
    edges = []
    seen: set[tuple[int, int]] = set()
    for number, line in lines[1:]:
        parts = line.split()
        if len(parts) != 2 or not all(p.isdigit() for p in parts):
            raise FileFormatError(path, number, f"expected edge 'a b', got {line!r}")
        a, b = int(parts[0]), int(parts[1])
        if a == b:
            raise FileFormatError(path, number, f"self-loop {a} {b}")
        if not (1 <= a < b <= n):
            raise FileFormatError(path, number, f"edge {a} {b} must satisfy 1 <= a < b <= {n}")
        if (a, b) in seen:
            raise FileFormatError(path, number, f"duplicate edge {a} {b}")
        seen.add((a, b))
        edges.append((a, b))
    try:
        return Graph.from_edges(n, edges), {"graph": record}
    except ValueError as exc:
        raise FileFormatError(path, lines[0][0], str(exc)) from exc


def load_graph(path: str | Path) -> Graph:
    return read_graph(path)[0]


def render_graph(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{a} {b}" for a, b in g.edges())
    return "\n".join(lines) + "\n"


def resolve_graph_reference(ref: str, base: Path) -> tuple[Graph, dict]:
    """Turn a code file's graph line into (graph, inputs record).

    The record is {"builtin": "loop<k>"} or the resolved file's path and hash.
    """
    if ref.startswith(_BUILTIN_PREFIX):
        suffix = ref[len(_BUILTIN_PREFIX):]
        if not suffix.isdigit():
            raise ValueError(f"bad builtin graph reference {ref!r}")
        _check_cap(int(suffix), "table", "graphs")
        return loop_graph(int(suffix)), {"builtin": ref[len("builtin:"):]}
    target = (base / ref).resolve() if not Path(ref).is_absolute() else Path(ref)
    graph, inputs = read_graph(target)
    return graph, inputs["graph"]


def _parse_codeword_line(path: Path, number: int, line: str, n: int) -> frozenset[int]:
    if line == "-":
        return frozenset()
    vertices = []
    for token in line.split(","):
        token = token.strip()
        if not token.isdigit():
            raise FileFormatError(path, number, f"bad codeword entry {token!r}")
        v = int(token)
        if not 1 <= v <= n:
            raise FileFormatError(path, number, f"vertex {v} outside 1..{n}")
        vertices.append(v)
    word = frozenset(vertices)
    if len(word) != len(vertices):
        raise FileFormatError(path, number, f"repeated vertex in codeword {line!r}")
    return word


def read_code(path: str | Path) -> tuple[CwsCode, dict]:
    """The code in a file plus its inputs block {"code": record, "graph": record}."""
    path = Path(path)
    text, record = _read(path)
    lines = list(_meaningful_lines(text))
    if not lines:
        raise FileFormatError(path, 1, "empty code file")
    number, header = lines[0]
    ref = header[len("graph "):].strip() if header.startswith("graph ") else ""
    if not ref:
        raise FileFormatError(path, number, f"expected 'graph <ref>', got {header!r}")
    try:
        graph, graph_record = resolve_graph_reference(ref, path.parent)
    except (OSError, ValueError) as exc:
        if isinstance(exc, FileFormatError):
            raise
        raise FileFormatError(path, number, str(exc)) from exc
    codewords = []
    seen: dict[frozenset[int], int] = {}
    for number, line in lines[1:]:
        word = _parse_codeword_line(path, number, line, graph.n)
        if word in seen:
            shown = ",".join(map(str, sorted(word))) or "-"
            raise FileFormatError(
                path, number, f"duplicate codeword {shown} (first on line {seen[word]})")
        seen[word] = number
        codewords.append(word)
    if not codewords:
        raise FileFormatError(path, lines[0][0], "no codeword lines")
    return CwsCode(graph, tuple(codewords)), {"code": record, "graph": graph_record}


def load_code(path: str | Path) -> CwsCode:
    return read_code(path)[0]


def render_code(code: CwsCode, graph_ref: str) -> str:
    lines = [f"graph {graph_ref}"]
    for word in code.codewords:
        lines.append(",".join(map(str, sorted(word))) if word else "-")
    return "\n".join(lines) + "\n"

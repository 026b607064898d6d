"""Dense numpy reference for the benchmark's verdicts.

This module never imports cwskit.  It builds the graph state as a dense
+-1 vector and gets every overlap <G| X^x Z^u |G> from one Walsh-Hadamard
transform per graph, so it shares no arithmetic with the mask route that
the benchmark times (stabilizer tables, `pauli.mul`, pattern sets).

Conventions match cwskit's public surface: bit a-1 of a mask is vertex a,
and the error with masks (x, z) is i**|x&z| X^x Z^z, so a Y letter is
iXZ.  The common phase i**|x&z| of an error's matrix drops out of every
verdict checked here (zero tests and equality against the first diagonal
entry), so the matrices are kept as real integers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

# The ((9,12,3)) loop code, written out independently of the package.
PAPER_CODEWORDS = (
    (), (2, 6, 7), (4, 5, 9), (2, 3, 6, 8), (3, 5, 8, 9), (2, 3, 4, 5, 6, 7, 8, 9),
    (1, 4, 7), (1, 2, 4, 6), (1, 5, 7, 9), (1, 2, 3, 4, 6, 7, 8), (1, 3, 4, 5, 7, 8, 9),
    (1, 2, 3, 5, 6, 8, 9),
)
PAPER_ENUMERATOR = (144, 0, 0, 0, 96, 0, 1536, 3072, 1296, 0)
PAPER_DISTANCE = 3
PAPER_PROJECTOR_TERMS = 176
PAPER_TRACE = 12

# Largest number of int32 matrix entries held at once while scanning.
_CHUNK_ENTRIES = 1 << 22


def loop_edges(n: int) -> list[tuple[int, int]]:
    return sorted(tuple(sorted((a, a % n + 1))) for a in range(1, n + 1))


def mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << (v - 1)
    return out


def _popcount(a: np.ndarray) -> np.ndarray:
    return np.bitwise_count(a).astype(np.int64)


def graph_state(n: int, edges) -> np.ndarray:
    """+-1 amplitudes of |G> scaled by sqrt(2**n): (-1)**(edges inside mu)."""
    idx = np.arange(1 << n, dtype=np.int64)
    parity = np.zeros(1 << n, dtype=np.int64)
    for a, b in edges:
        parity ^= (idx >> (a - 1)) & (idx >> (b - 1)) & 1
    return 1 - 2 * parity


@lru_cache(maxsize=None)
def errors(n: int, weight: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) masks of every Pauli acting on exactly `weight` of n qubits."""
    xs, zs = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for support in combinations(range(n), weight):
        # each qubit in the support carries X (1,0), Y (1,1) or Z (0,1)
        letters = np.array(np.meshgrid(*([np.arange(3)] * weight), indexing="ij"))
        letters = letters.reshape(weight, -1)
        bits = np.array([1 << q for q in support], dtype=np.int64)[:, None]
        xs.append(((letters <= 1) * bits).sum(axis=0))
        zs.append(((letters >= 1) * bits).sum(axis=0))
    return np.concatenate(xs), np.concatenate(zs)


class GraphOracle:
    """All overlaps <G| X^x Z^u |G> of one graph, as a table of 0 and +-1."""

    def __init__(self, n: int, edges) -> None:
        self.n = n
        size = 1 << n
        g = graph_state(n, edges)
        idx = np.arange(size, dtype=np.int64)
        # row x holds G[m] G[m ^ x]; a transform along m gives sum_m ... (-1)**|m&u|
        table = (g[None, :] * g[idx[:, None] ^ idx[None, :]]).astype(np.int32)
        h = 1
        while h < size:
            table = table.reshape(size, size // (2 * h), 2, h)
            low, high = table[:, :, 0, :], table[:, :, 1, :]
            table = np.concatenate((low + high, low - high), axis=2)
            h *= 2
        table = table.reshape(size, size)
        if not np.all((table == 0) | (np.abs(table) == size)):
            raise AssertionError("graph-state overlaps must be 0 or +-1")
        self.table = (table // size).astype(np.int8)

    def scan(self, codewords: list[int], weight: int) -> dict:
        """KL counts over all errors of exactly this weight.

        Returns off-diagonal non-zeros, diagonal entries differing from the
        first codeword's, and whether any diagonal entry was non-zero.
        """
        x, z = errors(self.n, weight)
        c = np.asarray(codewords, dtype=np.int64)
        k = len(c)
        off = diag = 0
        diag_nonzero = False
        step = max(1, _CHUNK_ENTRIES // (k * k))
        eye = np.eye(k, dtype=bool)
        for start in range(0, len(x), step):
            xe = x[start:start + step, None, None]
            ze = z[start:start + step, None, None]
            u = c[None, :, None] ^ c[None, None, :] ^ ze
            sign = 1 - 2 * (_popcount(xe & (ze ^ c[None, None, :])) & 1)
            m = self.table[xe, u].astype(np.int32) * sign
            off += int(np.count_nonzero(m[:, ~eye]))
            d = m[:, eye]
            diag += int(np.count_nonzero(d != d[:, :1]))
            diag_nonzero = diag_nonzero or bool(np.any(d[:, 0]))
        return {"off": off, "diag": diag, "diag_nonzero": diag_nonzero}

    def empty_pattern(self, max_weight: int) -> bool:
        """True when some error of weight <= max_weight is +- a stabilizer element."""
        for w in range(1, max_weight + 1):
            x, z = errors(self.n, w)
            if np.any(self.table[x, z]):
                return True
        return False

    def verify(self, codewords: list[int], max_weight: int) -> dict:
        """`verify --weight max_weight` as the CLI reports it."""
        count = 0
        diag_nonzero = False
        for w in range(1, max_weight + 1):
            s = self.scan(codewords, w)
            count += s["off"] + s["diag"]
            diag_nonzero = diag_nonzero or s["diag_nonzero"]
        return {"passed": count == 0, "pure": count == 0 and not diag_nonzero,
                "violations": count}

    def distance(self, codewords: list[int], max_weight: int) -> tuple[int, int] | None:
        """(first failing weight, its violation count), or None up to max_weight."""
        for w in range(1, max_weight + 1):
            s = self.scan(codewords, w)
            if s["off"] + s["diag"]:
                return w, s["off"] + s["diag"]
        return None

    def enumerator(self, codewords: list[int]) -> tuple[tuple[int, ...], int]:
        """(A_0..A_n, number of Paulis with non-zero Tr(P E)) for the code projector."""
        n = self.n
        size = 1 << n
        c = np.asarray(codewords, dtype=np.int64)
        x = np.repeat(np.arange(size, dtype=np.int64), size)
        z = np.tile(np.arange(size, dtype=np.int64), size)
        signs = 1 - 2 * (_popcount(x[:, None] & (z[:, None] ^ c[None, :])) & 1)
        tr = self.table[x, z].astype(np.int64) * signs.sum(axis=1)
        wt = _popcount(x | z)
        a = np.bincount(wt, weights=tr * tr, minlength=n + 1).astype(np.int64)
        return tuple(int(v) for v in a), int(np.count_nonzero(tr))


def paper_self_check() -> list[str]:
    """Recompute the ((9,12,3)) constants; returns the mismatches found."""
    oracle = GraphOracle(9, loop_edges(9))
    words = [mask(c) for c in PAPER_CODEWORDS]
    problems = []
    a, terms = oracle.enumerator(words)
    if a != PAPER_ENUMERATOR:
        problems.append(f"enumerator {a} != {PAPER_ENUMERATOR}")
    if terms != PAPER_PROJECTOR_TERMS:
        problems.append(f"projector terms {terms} != {PAPER_PROJECTOR_TERMS}")
    if a[0] != PAPER_TRACE ** 2:
        problems.append(f"trace {a[0]} != {PAPER_TRACE}**2")
    if not oracle.verify(words, PAPER_DISTANCE - 1)["pure"]:
        problems.append(f"not pure at weight {PAPER_DISTANCE - 1}")
    found = oracle.distance(words, PAPER_DISTANCE + 1)
    found = found and found[0]
    if found != PAPER_DISTANCE:
        problems.append(f"distance {found} != {PAPER_DISTANCE}")
    return problems

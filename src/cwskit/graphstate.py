"""Simple graphs, their stabilizer states, and a dense-vector oracle.

A graph on n vertices is held as n adjacency-row masks over GF(2).  The
graph state |G> is the unique joint +1 eigenvector of the vertex
stabilizers G_a = X_a Z_{N(a)}; in the computational basis its amplitude
at mu is (-1)**(number of edges inside the support of mu) / sqrt(2**n).

The dense-vector side stores amplitudes scaled by sqrt(2**n), so every
graph-basis state has entries in {+-1, +-i} and all arithmetic performed
here stays inside the dyadic rationals, which IEEE doubles represent
exactly at these magnitudes.  The dense path exists to cross-check the
mask arithmetic, so it deliberately shares none of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from ._masks import mask_of, vertices_of
from .pauli import PauliOperator, _product_phase, identity, mul, phase_value

_DENSE_LIMIT = 14


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; rows[a-1] is the neighbor mask of vertex a."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one vertex")
        if len(self.rows) != self.n:
            raise ValueError("adjacency row count differs from n")
        full = (1 << self.n) - 1
        for a, row in enumerate(self.rows):
            if not 0 <= row <= full:
                raise ValueError(f"row {a + 1} outside vertex range")
            if row & (1 << a):
                raise ValueError(f"self-loop at vertex {a + 1}")
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if bool(self.rows[a] & (1 << b)) != bool(self.rows[b] & (1 << a)):
                    raise ValueError(f"asymmetric edge between {a + 1} and {b + 1}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (1 <= a <= n and 1 <= b <= n):
                raise ValueError(f"edge ({a}, {b}) outside 1..{n}")
            rows[a - 1] |= 1 << (b - 1)
            rows[b - 1] |= 1 << (a - 1)
        return cls(n, tuple(rows))

    def neighbors(self, a: int) -> frozenset[int]:
        if not 1 <= a <= self.n:
            raise ValueError(f"vertex {a} outside 1..{self.n}")
        return vertices_of(self.rows[a - 1])

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (a, b) pairs with a < b, sorted."""
        out = []
        for a in range(1, self.n + 1):
            row = self.rows[a - 1]
            for b in range(a + 1, self.n + 1):
                if row & (1 << (b - 1)):
                    out.append((a, b))
        return tuple(out)

    def gamma(self, x_mask: int) -> int:
        """The adjacency matrix applied to a mask over GF(2)."""
        z = 0
        a = 0
        m = x_mask
        while m:
            if m & 1:
                z ^= self.rows[a]
            m >>= 1
            a += 1
        return z


def loop_graph(n: int) -> Graph:
    """The cycle 1-2-...-n-1."""
    if n < 3:
        raise ValueError("a loop needs at least 3 vertices")
    rows = tuple((1 << ((a + 1) % n)) | (1 << ((a - 1) % n)) for a in range(n))
    return Graph(n, rows)


def is_loop_graph(g: Graph) -> bool:
    """True iff g is exactly the canonical cycle labeling from loop_graph."""
    return g.n >= 3 and g == loop_graph(g.n)


def vertex_stabilizer(g: Graph, a: int) -> PauliOperator:
    """G_a = X_a Z_{N(a)}."""
    if not 1 <= a <= g.n:
        raise ValueError(f"vertex {a} outside 1..{g.n}")
    return PauliOperator(g.n, 1 << (a - 1), g.rows[a - 1], 0)


def stabilizer_element(g: Graph, u: Iterable[int]) -> PauliOperator:
    """The product of vertex stabilizers over the subset u.

    The factors commute exactly, so the product is order-free; its x mask
    equals the mask of u and its z mask is the adjacency image of u.
    """
    return _stab_element(g, mask_of(u, g.n))


def _stab_element(g: Graph, u_mask: int) -> PauliOperator:
    p = identity(g.n)
    m = u_mask
    a = 1
    while m:
        if m & 1:
            p = mul(p, vertex_stabilizer(g, a))
        m >>= 1
        a += 1
    return p


# Each public call works on one graph, so one cached table serves all of
# its weights; a bound of 1 keeps memory flat over many graphs.
@lru_cache(maxsize=1)
def _stabilizer_table(g: Graph) -> list[tuple[int, int]]:
    """(z_mask, phase) of the stabilizer element for every x mask.

    Internal scan substrate; index by the x mask of the element.  Only
    sensible for small n since the table has 2**n entries.
    """
    if g.n > _DENSE_LIMIT:
        raise ValueError("stabilizer table limited to 14 vertices")
    table: list[tuple[int, int]] = [(0, 0)]
    for m in range(1, 1 << g.n):
        # element(m) = element(m without its lowest bit) * G_low
        rest = m & (m - 1)
        bit = m & -m
        z, phase = table[rest]
        row = g.rows[bit.bit_length() - 1]
        table.append((z ^ row, (phase + _product_phase(rest, z, bit, row)) % 4))
    return table


def overlap(g: Graph, p: PauliOperator) -> complex:
    """<G| p |G>, exactly one of 0, +1, -1, +i, -i.

    Non-zero iff p is a phase times the stabilizer element sharing its
    x mask, in which case the value is that phase.
    """
    if p.n != g.n:
        raise ValueError("qubit counts differ")
    s = _stab_element(g, p.x)
    q = mul(p, s)  # s is an involution, so q*s = p and s|G> = |G>
    if q.z:
        return 0
    return phase_value(q.phase)


class ReducedError(NamedTuple):
    pattern: frozenset[int]
    sign: complex


def reduce_error(g: Graph, e: PauliOperator) -> ReducedError:
    """Reduce e modulo the stabilizer group to a pure phase-flip pattern.

    Returns (S, sign) with S = z_mask(e) + Gamma.x_mask(e) over GF(2) and
    sign the phase of e times the stabilizer element matching its x mask.
    On basis states the two sides agree up to a tracked commutation sign:
    e Z_B|G> = sign * (-1)**|x_support(e) & B| * Z_S Z_B|G>, so e and Z_S
    connect exactly the same pairs of codewords.
    """
    if e.n != g.n:
        raise ValueError("qubit counts differ")
    q = mul(e, _stab_element(g, e.x))
    return ReducedError(vertices_of(q.z), phase_value(q.phase))


# ---------------------------------------------------------------------------
# Dense oracle


@dataclass(frozen=True)
class DenseState:
    """State vector with amplitudes scaled by sqrt(2**n).

    The scaling keeps graph-basis states integer-valued; the squared norm
    of the scaled vector must equal 2**n exactly.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        if self.amps.shape != (1 << self.n,):
            raise ValueError("amplitude count differs from 2**n")
        arr = np.ascontiguousarray(self.amps, dtype=np.complex128)
        arr.flags.writeable = False
        object.__setattr__(self, "amps", arr)
        norm_sq = float(np.sum(arr.real * arr.real + arr.imag * arr.imag))
        if norm_sq != float(1 << self.n):
            raise ValueError("scaled squared norm differs from 2**n")


def state_vector(g: Graph) -> DenseState:
    """The graph state of g as a dense vector.

    Amplitude at basis index mu is (-1)**(edges inside the support of mu)
    before scaling; limited to 14 vertices.
    """
    if g.n > _DENSE_LIMIT:
        raise ValueError("dense states limited to 14 vertices")
    idx = np.arange(1 << g.n, dtype=np.int64)
    parity = np.zeros(1 << g.n, dtype=np.int64)
    for a, b in g.edges():
        parity ^= (idx >> (a - 1)) & (idx >> (b - 1)) & 1
    return DenseState(g.n, np.where(parity, -1.0, 1.0).astype(np.complex128))


def apply_pauli(s: DenseState, p: PauliOperator) -> DenseState:
    """p|s> on the dense side: a permutation, signs, and a global phase."""
    if p.n != s.n:
        raise ValueError("qubit counts differ")
    idx = np.arange(1 << s.n, dtype=np.int64)
    src = idx ^ p.x
    signs = 1 - 2 * (np.bitwise_count(src & p.z).astype(np.int64) & 1)
    front = phase_value(p.phase + p.y_count)  # X-before-Z normal form phase
    return DenseState(s.n, front * signs * s.amps[src])


def inner_product(a: DenseState, b: DenseState) -> complex:
    """<a|b> with the scaling divided back out; exact for dyadic data."""
    if a.n != b.n:
        raise ValueError("qubit counts differ")
    return complex(np.vdot(a.amps, b.amps)) / float(1 << a.n)


_LETTER_MATRICES = {
    (0, 0): np.eye(2, dtype=np.complex128),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=np.complex128),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def dense_matrix(p: PauliOperator) -> np.ndarray:
    """p as an explicit 2**n x 2**n matrix, for oracle comparisons.

    Built purely from 2x2 letter blocks and Kronecker products so that it
    shares no phase bookkeeping with `mul`.  Qubit 1 is the least
    significant index bit, hence the reversed Kronecker order.
    """
    if p.n > 10:
        raise ValueError("dense matrices limited to 10 qubits")
    m = np.array([[1]], dtype=np.complex128)
    for qubit in range(p.n, 0, -1):
        bit = 1 << (qubit - 1)
        m = np.kron(m, _LETTER_MATRICES[(int(bool(p.x & bit)), int(bool(p.z & bit)))])
    return phase_value(p.phase) * m

"""Dense-vector oracle for graph states and Pauli operators (numpy).

The rest of the package works on bit masks and integers; this module is
the independent cross-check the tests hold them to, and the only one
that imports numpy.  It builds states from the edge list, operators from
2x2 letter blocks, and reads phases only through `phase_value`, so it
shares none of the mask arithmetic it checks: no stabilizer table, no
Pauli phase rule of `mul`, no error enumeration.

Amplitudes are stored scaled by sqrt(2**n), so every graph-basis state
has entries in {+-1, +-i} and all arithmetic performed here stays inside
the dyadic rationals, which IEEE doubles represent exactly at these
magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graphstate import Graph, _check_cap
from .pauli import PauliOperator, phase_value

if TYPE_CHECKING:
    from .operatoralg import PauliSum


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
    before scaling; limited by the stabilizer table's vertex cap.
    """
    _check_cap(g.n, "table", "dense states")
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


def apply_sum(state: DenseState, x: PauliSum) -> np.ndarray:
    """x|state> as a scaled amplitude array.

    General sums do not preserve normalization, so the result is a bare
    array in the same sqrt(2**n) scaling as DenseState.  Dyadic
    coefficients at these sizes stay exact in double precision.
    """
    if x.n != state.n:
        raise ValueError("qubit counts differ")
    out = np.zeros_like(state.amps)
    for (xm, zm), c in x.terms:
        out += complex(c) * apply_pauli(state, PauliOperator(x.n, xm, zm, 0)).amps
    return out


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
    _check_cap(p.n, "matrix", "dense matrices", "qubits")
    m = np.array([[1]], dtype=np.complex128)
    for qubit in range(p.n, 0, -1):
        bit = 1 << (qubit - 1)
        m = np.kron(m, _LETTER_MATRICES[(int(bool(p.x & bit)), int(bool(p.z & bit)))])
    return phase_value(p.phase) * m

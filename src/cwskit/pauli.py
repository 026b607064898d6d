"""Exact n-qubit Pauli operators in binary-symplectic form.

An operator is a pair of bit masks plus a power of i:

    operator = i**phase * product over qubits of L_a

where L_a is the Hermitian single-qubit letter selected by the mask bits
(x bit only -> X, z bit only -> Z, both -> Y, neither -> identity), and
bit a-1 of a mask belongs to qubit a.  Qubit labels are 1-based on every
public surface.  The letters obey Y = iXZ, so rewriting an operator in
the X-before-Z normal form X**x Z**z costs one extra factor of i per Y
letter.  That phase rule lives once, in `mul`; `operatoralg.sum_mul`
applies it split into its parts, so a term pair costs one sign bit.

Likewise the order of error enumeration is written once, in the mask
generator `_error_masks`, which yields (x, z) pairs.  The error scans
consume those pairs; the public `enumerate_errors` only wraps them as
`PauliOperator`s.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from ._masks import mask_of

# i**k for k = 0..3, as exact complex values.
_PHASE_VALUES = (1 + 0j, 1j, -1 + 0j, -1j)

_PHASE_TOKENS = {"+": 0, "i": 1, "-": 2, "-i": 3}
_PHASE_PREFIXES = {0: "", 1: "i ", 2: "- ", 3: "-i "}

_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_TOKEN_RE = re.compile(r"([XYZ])([1-9][0-9]*)")


@dataclass(frozen=True)
class PauliOperator:
    """A signed Pauli on n qubits; `phase` is the exponent of i."""

    n: int
    x: int
    z: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one qubit")
        full = (1 << self.n) - 1
        if not 0 <= self.x <= full or not 0 <= self.z <= full:
            raise ValueError(f"mask outside {self.n}-qubit range")
        object.__setattr__(self, "phase", self.phase % 4)

    @property
    def y_count(self) -> int:
        return (self.x & self.z).bit_count()


def identity(n: int) -> PauliOperator:
    return PauliOperator(n, 0, 0, 0)


def z_on(n: int, qubits: Iterable[int]) -> PauliOperator:
    return PauliOperator(n, 0, mask_of(qubits, n), 0)


def phase_value(k: int) -> complex:
    """The exact complex value of i**k."""
    return _PHASE_VALUES[k % 4]


def mul(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Exact operator product p*q: the package's one copy of the Pauli phase rule.

    Each factor turns into X-before-Z normal form (one i per Y letter), each
    Z of p hopping over an X of q gives -1, and the product turns back to letters.
    """
    if p.n != q.n:
        raise ValueError("qubit counts differ")
    x, z = p.x ^ q.x, p.z ^ q.z
    phase = p.phase + q.phase + p.y_count + q.y_count + 2 * (p.z & q.x).bit_count()
    return PauliOperator(p.n, x, z, phase - (x & z).bit_count())


def _error_masks(n: int, d: int) -> Iterator[tuple[int, int]]:
    """Yield the (x, z) masks of every phase-free Pauli acting on exactly d qubits.

    This generator defines the one error order of the package: supports
    ascend lexicographically as index tuples, then the letters run
    through X < Y < Z with the last qubit of the support varying fastest.
    Error scans consume these pairs directly; `enumerate_errors` wraps
    them as operators.  There are 3**d * C(n, d) pairs in total.
    """
    if not 0 <= d <= n:
        raise ValueError(f"weight {d} outside 0..{n}")
    # letter words as local (x, z) masks, bit k for support position k;
    # the position added last varies fastest
    letters = [_LETTER_BITS[c] for c in "XYZ"]
    words = [(0, 0)]
    for k in range(d):
        words = [(wx | xb << k, wz | zb << k) for wx, wz in words for xb, zb in letters]
    for support in itertools.combinations(range(n), d):
        # spread[m] moves local mask m onto the support's qubits
        spread = [0]
        for q in support:
            spread += [s | 1 << q for s in spread]
        for lx, lz in words:
            yield spread[lx], spread[lz]


def enumerate_errors(n: int, d: int) -> Iterator[PauliOperator]:
    """Yield every phase-free Hermitian Pauli acting on exactly d qubits.

    The order is the one `_error_masks` defines, the only place it is
    written: supports ascending, letters X < Y < Z, last qubit fastest.
    There are 3**d * C(n, d) operators in total.
    """
    for x, z in _error_masks(n, d):
        yield PauliOperator(n, x, z, 0)


def parse_label(s: str, n: int) -> PauliOperator:
    """Parse a whitespace-separated label such as "-i Y1 Z4" or "I".

    An optional leading phase token from {+, -, i, -i} is followed either
    by the single token I or by letter-index tokens with 1-based indices.
    A qubit index may appear at most once.
    """
    tokens = s.split()
    phase = 0
    if tokens and tokens[0] in _PHASE_TOKENS:
        phase = _PHASE_TOKENS[tokens[0]]
        tokens = tokens[1:]
    if not tokens:
        raise ValueError(f"label {s!r} has no Pauli body")
    if tokens == ["I"]:
        return PauliOperator(n, 0, 0, phase)
    x = 0
    z = 0
    seen: set[int] = set()
    for token in tokens:
        m = _TOKEN_RE.fullmatch(token)
        if m is None:
            raise ValueError(f"bad token {token!r} in label {s!r}")
        qubit = int(m.group(2))
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit {qubit} outside 1..{n} in label {s!r}")
        if qubit in seen:
            raise ValueError(f"qubit {qubit} repeated in label {s!r}")
        seen.add(qubit)
        xb, zb = _LETTER_BITS[m.group(1)]
        bit = 1 << (qubit - 1)
        if xb:
            x |= bit
        if zb:
            z |= bit
    return PauliOperator(n, x, z, phase)


def render_label(p: PauliOperator) -> str:
    """Canonical label: phase prefix, then letters by ascending qubit.

    Only the set bits of the support x | z are visited, lowest first.
    """
    x, z = p.x, p.z
    parts = []
    rest = x | z
    while rest:
        bit = rest & -rest
        rest ^= bit
        letter = "Y" if x & z & bit else "X" if x & bit else "Z"
        parts.append(f"{letter}{bit.bit_length()}")
    body = " ".join(parts) if parts else "I"
    return _PHASE_PREFIXES[p.phase] + body

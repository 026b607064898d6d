"""Exact sparse sums of Pauli operators and what the code does with them.

A `PauliSum` maps phase-free Pauli keys (mask pairs) to exact complex
rational coefficients; any i-power carried by an operator is folded into
its coefficient, so equal sums compare equal structurally.  Products run
on integers in the X-before-Z normal form X**x Z**z: each factor is
rescaled once to Gaussian-integer numerators over the lcm of its
denominators (a power of two for every sum the package builds) and each
of its terms turns once by i**|x & z| into normal form.  A Gaussian
integer re + im i travels as the one int re + im * 2**shift, with shift
wide enough that the two parts never overlap, so a term pair costs one
parity bit, the sign (-1)**|z1 & x2|, and one packed-int update under
the key (x << n) | z; each product term unpacks and turns back once by
i**-|x & z|.  `Coeff` appears only where terms enter and leave, and the
result is exact for any rational coefficients.

The code projector is built twice on purpose: from the published product
form, each factor summed from its (vertex subset, coefficient) pairs and
the overall 2**-10 carried by the first factor, and as the sum of
codeword projectors; the two must agree term for term.

`projector_from_codewords` and the fast enumerator read the signed
codeword counts t_u = sum_c (-1)**|u & c| as `CwsCode.signed_counts`, a
fact of the code computed on first read from one integer Walsh-Hadamard
transform of the codeword indicator, n * 2**n additions, and kept with
the code (the standard form of Cross, Smith, Smolin and Zeng,
arXiv:0708.1021).

The weight enumerator A_d, the sum of Tr(P E)**2 over weight-d Paulis E,
is derived twice too: fast from the signed counts, brute from the
expanded projector, where Tr(P E) is 2**n times E's coefficient and is 0
for every E missing from P's terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import Union

from .cwscode import CwsCode, matrix_element
from .graphstate import loop_graph, stabilizer_element, _stabilizer_table
from .pauli import PauliOperator
# unused since brute sums the projector's terms; bench/tracing.py patches it here
from .pauli import enumerate_errors  # noqa: F401

_Scalar = Union[int, Fraction, "Coeff"]
_ZERO = Fraction(0)


def _turn(re, im, k: int) -> tuple:
    """(re, im) for the complex number re + im i times i**k; exact on ints and Fractions."""
    k &= 3
    if k == 1:
        return -im, re
    if k == 2:
        return -re, -im
    if k == 3:
        return im, -re
    return re, im


@dataclass(frozen=True)
class Coeff:
    """An exact complex number with rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for part in (self.re, self.im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"Coeff parts must be int or Fraction, not {type(part).__name__}")

    def __add__(self, other: "Coeff") -> "Coeff":
        return Coeff(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "Coeff":
        return Coeff(-self.re, -self.im)

    def __mul__(self, other: "Coeff") -> "Coeff":
        return Coeff(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def rotated(self, k: int) -> "Coeff":
        """self times i**k."""
        return Coeff(*_turn(self.re, self.im, k))

    def conjugate(self) -> "Coeff":
        return Coeff(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Coeff):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # a real Coeff equals its int or Fraction value, so it hashes like it
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return float(self.re) + 1j * float(self.im)

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im} i"
        sign = "-" if self.im < 0 else "+"
        return f"{self.re} {sign} {abs(self.im)} i"


def coeff(value: _Scalar) -> Coeff:
    """value as a Coeff; only int, Fraction and Coeff are exact inputs."""
    if isinstance(value, Coeff):
        return value
    if isinstance(value, (int, Fraction)):
        return Coeff(Fraction(value), Fraction(0))
    # a float would silently become a binary fraction, a complex would lose i
    raise TypeError(f"coefficient must be int, Fraction or Coeff, not {type(value).__name__}")


@dataclass(frozen=True)
class PauliSum:
    """Canonical term list: ((x_mask, z_mask), coefficient), keys sorted.

    Construction merges duplicate keys and drops zero coefficients, so
    structural equality is equality of operators.
    """

    n: int
    terms: tuple[tuple[tuple[int, int], Coeff], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one qubit")
        full = (1 << self.n) - 1
        merged: dict[tuple[int, int], Coeff] = {}
        for (x, z), c in self.terms:
            if not 0 <= x <= full or not 0 <= z <= full:
                raise ValueError(f"mask outside {self.n}-qubit range")
            c = coeff(c)
            key = (x, z)
            merged[key] = merged[key] + c if key in merged else c
        canon = tuple(sorted((k, c) for k, c in merged.items() if c))
        object.__setattr__(self, "terms", canon)


def identity_sum(n: int, c: _Scalar = 1) -> PauliSum:
    return PauliSum(n, (((0, 0), coeff(c)),))


def from_pauli(p: PauliOperator, c: _Scalar = 1) -> PauliSum:
    """p as a one-term sum; the i-power of p moves into the coefficient."""
    return PauliSum(p.n, (((p.x, p.z), coeff(c).rotated(p.phase)),))


def sum_add(x: PauliSum, y: PauliSum) -> PauliSum:
    if x.n != y.n:
        raise ValueError("qubit counts differ")
    return PauliSum(x.n, x.terms + y.terms)


def _normal_terms(x: PauliSum) -> tuple[int, int, list[tuple[int, int, int, int, int]]]:
    """(den, norm, [(key, x, z, re, im)]): x in X-before-Z normal form, over one denominator.

    The letter string (x, z) is i**|x & z| X**x Z**z, so each coefficient
    turns once by that power; key packs the masks as (x << n) | z, and
    norm is the sum of |re| + |im| over the numerators.
    """
    den = lcm(*(d for _, c in x.terms for d in (c.re.denominator, c.im.denominator)))
    terms = []
    norm = 0
    for (xm, zm), c in x.terms:
        re = c.re.numerator * (den // c.re.denominator)
        im = c.im.numerator * (den // c.im.denominator)
        norm += abs(re) + abs(im)
        terms.append((xm << x.n | zm, xm, zm, *_turn(re, im, (xm & zm).bit_count())))
    return den, norm, terms


def sum_mul(x: PauliSum, y: PauliSum) -> PauliSum:
    """Exact product, expanding all pairwise Pauli products.

    `pauli.mul`'s phase rule split into its three parts: each factor term
    turns into normal form once, each term pair picks up only the sign
    (-1)**|z1 & x2| of the Zs hopping over the Xs, and each product term
    turns back by i**-|x & z| once.  A Gaussian integer re + im i travels
    packed as the int re + im * 2**shift; no part of a product term can
    exceed the product of the factors' numerator norms, so with shift two
    bits past that product the parts never overlap and unpack exactly.
    """
    if x.n != y.n:
        raise ValueError("qubit counts differ")
    n = x.n
    dx, nx, xs = _normal_terms(x)
    dy, ny, ys = _normal_terms(y)
    shift = (nx * ny).bit_length() + 2
    # each right term as +-v and +-(i v), indexed by the pair's sign bit
    right = []
    for k2, x2, _, a2, b2 in ys:
        v = a2 + (b2 << shift)
        iv = (a2 << shift) - b2
        right.append((k2, x2, (v, -v), (iv, -iv)))
    acc: dict[int, int] = {}
    get = acc.get
    for k1, _, z1, a1, b1 in xs:
        for k2, x2, v, iv in right:
            s = (z1 & x2).bit_count() & 1
            key = k1 ^ k2
            acc[key] = get(key, 0) + a1 * v[s] + b1 * iv[s]
    den = dx * dy
    full = (1 << n) - 1
    mask = (1 << shift) - 1
    half = 1 << (shift - 1)
    terms = []
    for key, packed in acc.items():
        if packed:
            re = ((packed + half) & mask) - half
            im = (packed - re) >> shift
            xm, zm = key >> n, key & full
            re, im = _turn(re, im, -(xm & zm).bit_count())
            terms.append(((xm, zm), Coeff(Fraction(re, den) if re else _ZERO,
                                          Fraction(im, den) if im else _ZERO)))
    return PauliSum(n, tuple(terms))


def adjoint(x: PauliSum) -> PauliSum:
    # term keys are Hermitian, so only coefficients conjugate
    return PauliSum(x.n, tuple((k, c.conjugate()) for k, c in x.terms))


def trace(x: PauliSum) -> Coeff:
    """Tr(x) = 2**n times the identity coefficient; all other terms are traceless."""
    for key, c in x.terms:
        if key == (0, 0):
            return c * coeff(1 << x.n)
    return Coeff()


# ---------------------------------------------------------------------------
# The ((9,12,3)) projector


def _factor(pairs) -> PauliSum:
    """The sum of c G_U over (vertex subset U, coefficient c) pairs; G_() is the identity."""
    g = loop_graph(9)
    return reduce(sum_add, (from_pauli(stabilizer_element(g, u), c) for u, c in pairs))


def build_A() -> PauliSum:
    """The 12-term anchor operator of the ((9,12,3)) projector.

    A = G_14 (1 - G_36 + G_39 - G_69 + 2 G_369 + 2 G_9)
      + G_17 (1 - G_39 + G_36 - G_69 + 2 G_369 + 2 G_6)
    """
    left = _factor([((), 1), ((3, 6), -1), ((3, 9), 1), ((6, 9), -1), ((3, 6, 9), 2), ((9,), 2)])
    right = _factor([((), 1), ((3, 9), -1), ((3, 6), 1), ((6, 9), -1), ((3, 6, 9), 2), ((6,), 2)])
    return sum_add(sum_mul(_factor([((1, 4), 1)]), left), sum_mul(_factor([((1, 7), 1)]), right))


def build_projector() -> PauliSum:
    """P = 2**-10 (1 + G_38)(1 + G_62)(1 + G_95) A (A + 8), multiplied left to right.

    Each local factor 1 + G_U is the (vertex subset, coefficient) list [((), 1), (U, 1)];
    the scale 2**-10 rides on the first, [((), 2**-10), ((3, 8), 2**-10)], so no
    closing rescale passes the product's terms through `Coeff` again.
    """
    a = build_A()
    s = Fraction(1, 1 << 10)
    local = [_factor([((), c), (u, c)]) for u, c in (((3, 8), s), ((6, 2), 1), ((9, 5), 1))]
    return reduce(sum_mul, (*local, a, sum_add(a, identity_sum(9, 8))))


def projector_from_codewords(code: CwsCode) -> PauliSum:
    """Sum of codeword projectors, expanded in the stabilizer basis.

    Conjugating a stabilizer element G_U by Z on codeword c flips its
    sign iff |U & c| is odd, so the coefficient of G_U in the projector
    is the signed codeword count over 2**n, times (-1)**(sign + |U & z| / 2)
    to turn the table's (-1)**sign X**U Z**z into letters; |U & z| counts
    the odd-degree vertices of the graph induced on U, so it is even.
    """
    n = code.n
    table = _stabilizer_table(code.graph)
    den = 1 << n
    terms = []
    for u, t in enumerate(code.signed_counts):
        if t:
            z, sign = table[u]
            if (sign + (u & z).bit_count() // 2) & 1:
                t = -t
            terms.append(((u, z), Coeff(Fraction(t, den), _ZERO)))
    return PauliSum(n, tuple(terms))


def stabilizes(p: PauliOperator, code: CwsCode) -> tuple[bool, ...]:
    """Per codeword w_i, whether p fixes it: <w_i| p |w_i> = 1, from matrix elements."""
    return tuple(matrix_element(code, i, i, p) == 1 for i in range(1, code.size + 1))


# ---------------------------------------------------------------------------
# Weight enumerator


@dataclass(frozen=True)
class EnumeratorResult:
    """A_d = sum of squared error traces of the projector, d = 0..n."""

    a: tuple[int, ...]


def weight_enumerator(code: CwsCode, method: str = "fast") -> EnumeratorResult:
    """The integer vector (A_0, ..., A_n) for the code projector.

    fast bins the squared signed codeword count of each of the 2**n
    stabilizer elements, all read from one transform; brute expands the
    projector and sums Tr(P E)**2 = (2**n c)**2 over its terms (E, c),
    binning each by the weight |x | z| of E's masks.  Every other E has
    Tr(P E) = 0.  Both are exact, must agree, and share the stabilizer
    table's vertex cap.
    """
    n = code.n
    if method == "fast":
        table = _stabilizer_table(code.graph)
        a = [0] * (n + 1)
        for u, t in enumerate(code.signed_counts):
            a[(u | table[u][0]).bit_count()] += t * t
        return EnumeratorResult(tuple(a))
    if method == "brute":
        a = [0] * (n + 1)
        for (x, z), c in projector_from_codewords(code).terms:
            if c.im != 0:
                raise RuntimeError("projector coefficient not real")
            tr = c.re * (1 << n)
            if tr.denominator != 1:
                raise RuntimeError("error trace not an integer")
            a[(x | z).bit_count()] += int(tr) ** 2
        return EnumeratorResult(tuple(a))
    raise ValueError(f"unknown method {method!r}")

"""Codeword-stabilized codes on graph states.

A code is a graph together with an ordered list of distinct vertex
subsets; basis state i is Z applied on subset i of the graph state.  The
built-in instance is the nonadditive ((9,12,3)) code on the 9-vertex
loop, whose twelve subsets are listed below.

Two verification routes live here.  `kl_verify` evaluates every matrix
element <w_i| e |w_j> and demands the scalar-matrix form c_e * Identity.
It does so in closed form on bit masks: with s = (-1)**sigma X**x(e)
Z**z(s) the stabilizer element sharing e's x mask, as the table stores
it, and D = z(e) + z(s) over GF(2) the induced phase-flip pattern,

    <w_i| e |w_j> = (-1)**|x(e) & c_j| * i**r   if c_i + c_j = D,

and 0 otherwise, where Z_D e s = i**r with r = 2 sigma - |x(e) & z(e)|.
So the diagonal is i**r (-1)**|x(e) & c| when D is empty, and the only
non-zero off-diagonal elements sit on the codeword pairs with transition D.
Each fact about a code is derived at most once per code object, on
masks, and kept with it.  `CwsCode.masks` packs the codewords when the
code is built.  `CwsCode.transitions`, the set of codeword-mask xors,
and `CwsCode.signed_counts`, the one transform giving every
t_u = sum_c (-1)**|u & c|, are computed on first read: the scan,
`transition_set` and `proof_check` read the transitions, and the
projector and the fast enumerator the signed counts.  The scans take
each error as its (x, z) mask pair from `pauli._error_masks`, at most
`_SCAN_SLICE` at a time.  `_weight_scans` is the one loop over error
weights: `kl_verify`, `distance` and the `distance` and `paper-demo`
commands read it, so each scans a weight at most once.  A
`PauliOperator` appears only in reports, one per distinct listed error,
and in `matrix_element`, which computes one element through explicit Pauli
products and the graph-state overlap; it is the reference the scan is
tested against.  `proof_check` never touches matrix elements or lists
errors: on any graph it sums single-qubit patterns up to weight 2 (1 on
a 1-vertex graph) and intersects them with the codeword transition set.
The routes must agree, and tests hold them to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice
from operator import add, sub
from typing import NamedTuple

from ._masks import mask_of, vertices_of
from .graphstate import Graph, _check_cap, loop_graph, overlap, _stabilizer_table
from .pauli import PauliOperator, _error_masks, mul, phase_value, z_on
# unused since the scans take (x, z) masks; bench/tracing.py patches it here
from .pauli import enumerate_errors  # noqa: F401

# The twelve codeword subsets of the ((9,12,3)) loop code.  The last six
# are the first six shifted by {1,4,7}, which is why pairwise transitions
# collapse onto a 31-element set.
CODEWORDS_9_12_3: tuple[frozenset[int], ...] = (
    frozenset(),
    frozenset({2, 6, 7}),
    frozenset({4, 5, 9}),
    frozenset({2, 3, 6, 8}),
    frozenset({3, 5, 8, 9}),
    frozenset({2, 3, 4, 5, 6, 7, 8, 9}),
    frozenset({1, 4, 7}),
    frozenset({1, 2, 4, 6}),
    frozenset({1, 5, 7, 9}),
    frozenset({1, 2, 3, 4, 6, 7, 8}),
    frozenset({1, 3, 4, 5, 7, 8, 9}),
    frozenset({1, 2, 3, 5, 6, 8, 9}),
)


@dataclass(frozen=True)
class CwsCode:
    """Graph plus ordered distinct codeword subsets (1-based labels).

    `masks` is the codewords packed in order, outside equality, hash and
    repr, as are `transitions` and `signed_counts`, kept from first read.
    """

    graph: Graph
    codewords: tuple[frozenset[int], ...]
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "codewords", tuple(frozenset(c) for c in self.codewords))
        if not self.codewords:
            raise ValueError("a code needs at least one codeword")
        masks: dict[int, None] = {}  # insertion-ordered, with set lookups
        for c in self.codewords:
            try:
                m = mask_of(c, self.n)
            except ValueError as exc:
                raise ValueError(f"codeword {exc}") from None
            if m in masks:
                raise ValueError(f"duplicate codeword {sorted(c) or '-'}")
            masks[m] = None
        object.__setattr__(self, "masks", tuple(masks))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def size(self) -> int:
        return len(self.codewords)

    @cached_property
    def transitions(self) -> frozenset[int]:
        """The non-zero xors of codeword masks, at most min(K**2, 2**n) ints."""
        out: set[int] = set()
        for i, c in enumerate(self.masks, start=1):
            out.update(map(c.__xor__, self.masks[i:]))
        return frozenset(out)

    @cached_property
    def signed_counts(self) -> tuple[int, ...]:
        """t_u = sum over codewords c of (-1)**|u & c|, for every x mask u.

        The integer Walsh-Hadamard transform of the codeword indicator, in
        n * 2**n additions, under the stabilizer table's vertex cap.  Each
        pass is the butterfly on the top index bit, written with its output
        bit at the bottom (t'[2j] = t[j] + t[j + h], t'[2j + 1] = t[j] - t[j + h]),
        so the index bits rotate once per pass and are back in place after all n.
        """
        _check_cap(self.n, "table", "signed counts")
        t = [0] * (1 << self.n)
        for c in self.masks:
            t[c] = 1
        h = len(t) >> 1
        for _ in range(self.n):
            lo, hi = t[:h], t[h:]
            t[::2] = map(add, lo, hi)
            t[1::2] = map(sub, lo, hi)
        return tuple(t)


def the_9_12_3() -> CwsCode:
    """The built-in ((9,12,3)) code on the 9-vertex loop."""
    return CwsCode(loop_graph(9), CODEWORDS_9_12_3)


def matrix_element(code: CwsCode, i: int, j: int, e: PauliOperator) -> complex:
    """<w_i| e |w_j> = <G| Z_{c_i} e Z_{c_j} |G>, exactly."""
    if not 1 <= i <= code.size or not 1 <= j <= code.size:
        raise ValueError(f"codeword index outside 1..{code.size}")
    if e.n != code.n:
        raise ValueError("qubit counts differ")
    left = mul(z_on(code.n, code.codewords[i - 1]), e)
    return overlap(code.graph, mul(left, z_on(code.n, code.codewords[j - 1])))


# Violations listed in a report; the count stays exact past it.
_VIOLATION_CAP = 1000

# Errors listed at a time by a weight scan, so memory stays flat in the weight.
_SCAN_SLICE = 1 << 16


class KLViolation(NamedTuple):
    error: PauliOperator
    i: int
    j: int
    value: complex


@dataclass(frozen=True)
class KLReport:
    """Outcome of a scalar-matrix scan over all errors up to a weight."""

    checked_weight: int
    passed: bool
    pure: bool
    violations: tuple[KLViolation, ...]
    violation_count: int
    violations_capped: bool


def _scan_errors(code: CwsCode, errors, collect: bool):
    """Check M_e = c_e * I for each error; returns (violations, pure).

    errors is a list of phase-free (x, z) mask pairs, and each violation
    carries its pair as `error`.  With collect false the scan stops at
    the first violation, recording a single witness.  The reference
    scalar is M[1][1].  Elements come from the closed form in the module
    docstring; the pairs with transition D are the (i, j) with c_j = c_i ^ D.
    """
    table = _stabilizer_table(code.graph)
    transitions = code.transitions
    masks = code.masks
    index = {c: j for j, c in enumerate(masks, start=1)}
    violations: list[KLViolation] = []
    pure = True
    for e in errors:
        ex, ez = e
        z_stab, s_sign = table[ex]
        diff = ez ^ z_stab
        if diff == 0:
            # every diagonal element is a unit, so c_e != 0; entries break
            # the scalar form where their sign differs from M[1][1]'s
            pure = False
            first = (ex & masks[0]).bit_count() & 1
            pairs = [
                (i, i)
                for i, c in enumerate(masks, start=1)
                if (ex & c).bit_count() & 1 != first
            ]
        elif diff in transitions:
            pairs = [
                (i, index[c ^ diff]) for i, c in enumerate(masks, start=1) if c ^ diff in index
            ]
        else:
            continue
        if not pairs:
            continue
        # Z_diff e s has no letters left, so only its phase i**r remains
        r = 2 * s_sign - (ex & ez).bit_count()
        for i, j in pairs:
            sign = (ex & masks[j - 1]).bit_count() & 1
            violations.append(KLViolation(e, i, j, phase_value(r + 2 * sign)))
            if not collect:
                return violations, pure
    return violations, pure


def _weight_scans(code: CwsCode, max_weight: int, collect: bool):
    """The one loop over error weights: (d, violations, pure) for d = 1..max_weight.

    The range is checked before the first scan.  Each weight's errors are
    listed once and scanned when the caller asks for the next weight, so
    a caller that stops early scans no further.
    """
    if not 1 <= max_weight <= code.n:
        raise ValueError(f"max_weight outside 1..{code.n}")
    return (_scan_weight(code, d, collect) for d in range(1, max_weight + 1))


def _scan_weight(code: CwsCode, d: int, collect: bool):
    """(d, violations, pure) over the weight-d errors, listed `_SCAN_SLICE` at a time.

    Without collect the scan stops after the first slice with a violation.
    """
    errors = _error_masks(code.n, d)
    violations: list[KLViolation] = []
    pure = True
    while chunk := list(islice(errors, _SCAN_SLICE)):
        found, chunk_pure = _scan_errors(code, chunk, collect)
        violations += found
        pure = pure and chunk_pure
        if found and not collect:
            break
    return d, violations, pure


def _kl_report(
    code: CwsCode, max_weight: int, violations: list[KLViolation], pure: bool
) -> KLReport:
    """A KLReport on scanned violations, one operator per distinct listed error.

    The scan lists several codeword pairs for most errors, so the listed
    violations that share an error share its `PauliOperator`.
    """
    count = len(violations)
    listed = violations[:_VIOLATION_CAP]
    operators = {e: PauliOperator(code.n, *e) for e in dict.fromkeys(v.error for v in listed)}
    reported = tuple(KLViolation(operators[e], i, j, value) for e, i, j, value in listed)
    return KLReport(
        checked_weight=max_weight,
        passed=count == 0,
        pure=pure and count == 0,
        violations=reported,
        violation_count=count,
        violations_capped=count > _VIOLATION_CAP,
    )


def kl_verify(code: CwsCode, max_weight: int) -> KLReport:
    """Exhaustive scalar-matrix check over all errors of weight 1..max_weight.

    Passing with every scalar zero makes the code pure at this weight;
    passing with a non-zero scalar is the degenerate case and still
    counts as passing.  Violations are listed in error-enumeration order,
    the first 1000 of them, with the count kept exact.
    """
    scans = list(_weight_scans(code, max_weight, True))
    violations = [v for _, found, _ in scans for v in found]
    return _kl_report(code, max_weight, violations, all(pure for *_, pure in scans))


def distance(code: CwsCode, max_d: int) -> int | None:
    """Smallest weight whose error scan breaks the scalar-matrix form.

    Returns None when every weight up to max_d scans clean, meaning the
    distance is at least max_d + 1.  No weight past the first failing one
    is scanned.
    """
    return next((d for d, violations, _ in _weight_scans(code, max_d, False) if violations), None)


# ---------------------------------------------------------------------------
# Pattern route


def _pattern_masks(g: Graph, max_weight: int) -> set[int]:
    """Non-empty phase-flip patterns of all errors with weight 1..max_weight, as masks.

    The pattern of Z^v X^u is v + Gamma u over GF(2), a sum of single-qubit
    steps: Z_a gives e_a, X_a gives row a and Y_a gives both.  The walk
    adds one step per level, up to max_weight levels.  Two steps on the
    same qubit sum to the third step or to 0, so a walk never needs a
    qubit twice: a non-empty mask reached in k steps is the pattern of an
    error of weight at most k, and every weight-k pattern is reached in k.
    """
    if not 1 <= max_weight <= g.n:
        raise ValueError(f"max_weight outside 1..{g.n}")
    steps = {s for a, row in enumerate(g.rows) for s in (1 << a, row, row ^ (1 << a))}
    seen = frontier = {0}
    for _ in range(max_weight):
        frontier = {m ^ s for m in frontier for s in steps} - seen
        seen = seen | frontier
    return seen - {0}


def _empty_pattern_xs(g: Graph, max_weight: int) -> list[int]:
    """X parts u != 0 of the errors up to max_weight with the empty pattern.

    Such an error is the stabilizer element s_u up to phase, of weight |u | z(s_u)|.
    """
    if not 1 <= max_weight <= g.n:
        raise ValueError(f"max_weight outside 1..{g.n}")
    table = _stabilizer_table(g)
    return [u for u in range(1, 1 << g.n) if (u | table[u][0]).bit_count() <= max_weight]


def error_pattern_set(g: Graph, max_weight: int) -> frozenset[frozenset[int]]:
    """Phase-flip patterns of the errors of weight 1..max_weight, on any graph.

    The empty pattern is included when some error reduces to it.
    """
    patterns = frozenset(vertices_of(m) for m in _pattern_masks(g, max_weight))
    return patterns | {frozenset()} if _empty_pattern_xs(g, max_weight) else patterns


def transition_set(code: CwsCode) -> frozenset[frozenset[int]]:
    """Symmetric differences of all unordered codeword pairs."""
    return frozenset(map(vertices_of, code.transitions))


def proof_check(code: CwsCode) -> bool:
    """Correctability of single-qubit errors by the counting argument, on any graph.

    True iff no error of weight <= w reduces to an empty pattern and no
    reduced pattern coincides with a codeword transition, with w = 2, or 1
    on a 1-vertex graph, where no error has weight 2.  That is the
    scalar-matrix condition at weight w with every scalar zero, computed
    without matrix elements, so it agrees with `kl_verify(code, w)`
    passing pure.
    """
    g = code.graph
    w = min(2, g.n)
    return not _empty_pattern_xs(g, w) and code.transitions.isdisjoint(_pattern_masks(g, w))

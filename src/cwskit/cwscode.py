"""Codeword-stabilized codes on graph states.

A code is a graph together with an ordered list of distinct vertex
subsets; basis state i is Z applied on subset i of the graph state.  The
built-in instance is the nonadditive ((9,12,3)) code on the 9-vertex
loop, whose twelve subsets are listed below.

Two verification routes live here.  `kl_verify` evaluates every matrix
element <w_i| e |w_j> and demands the scalar-matrix form c_e * Identity.
It does so in closed form on bit masks: with s the stabilizer element
sharing e's x mask and D = z(e) + z(s) over GF(2) the induced phase-flip
pattern,

    <w_i| e |w_j> = (-1)**|x(e) & c_j| * <G| Z_D e s |G>   if c_i + c_j = D,

and 0 otherwise, where Z_D e s is a pure phase i**r.  So the diagonal is
i**r (-1)**|x(e) & c| when D is empty, and the only non-zero off-diagonal
elements sit on the codeword pairs whose transition is D.
The scans take each error as its (x, z) mask pair from
`pauli._error_masks`.  A `PauliOperator` appears only in reports, one
per listed violation, and in `matrix_element`, which computes one
element through explicit Pauli products and the graph-state overlap; it
is the reference the scan is tested against.  `proof_check` never
touches matrix elements: it reduces single- and two-qubit errors to
phase-flip patterns and intersects them with the codeword transition
set.  The routes must agree, and tests hold them to that.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

from ._masks import mask_of, vertices_of
from .graphstate import Graph, is_loop_graph, loop_graph, overlap, _stabilizer_table
from .pauli import PauliOperator, _error_masks, _product_phase, mul, phase_value, z_on
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
    """Graph plus ordered distinct codeword subsets (1-based labels)."""

    graph: Graph
    codewords: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "codewords", tuple(frozenset(c) for c in self.codewords))
        if not self.codewords:
            raise ValueError("a code needs at least one codeword")
        seen: set[frozenset[int]] = set()
        for c in self.codewords:
            for v in c:
                if not 1 <= v <= self.graph.n:
                    raise ValueError(f"codeword vertex {v} outside 1..{self.graph.n}")
            if c in seen:
                raise ValueError(f"duplicate codeword {sorted(c) or '-'}")
            seen.add(c)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def size(self) -> int:
        return len(self.codewords)


def the_9_12_3() -> CwsCode:
    """The built-in ((9,12,3)) code on the 9-vertex loop."""
    return CwsCode(loop_graph(9), CODEWORDS_9_12_3)


def _codeword_masks(code: CwsCode) -> tuple[int, ...]:
    return tuple(mask_of(c, code.n) for c in code.codewords)


def _diff_pair_map(code: CwsCode) -> dict[int, tuple[tuple[int, int], ...]]:
    """Ordered off-diagonal index pairs keyed by codeword-mask xor."""
    masks = _codeword_masks(code)
    out: dict[int, list[tuple[int, int]]] = {}
    for i, ci in enumerate(masks, start=1):
        for j, cj in enumerate(masks, start=1):
            if i != j:
                out.setdefault(ci ^ cj, []).append((i, j))
    return {d: tuple(sorted(pairs)) for d, pairs in out.items()}


def matrix_element(code: CwsCode, i: int, j: int, e: PauliOperator) -> complex:
    """<w_i| e |w_j> = <G| Z_{c_i} e Z_{c_j} |G>, exactly."""
    if not 1 <= i <= code.size or not 1 <= j <= code.size:
        raise ValueError(f"codeword index outside 1..{code.size}")
    if e.n != code.n:
        raise ValueError("qubit counts differ")
    left = mul(z_on(code.n, code.codewords[i - 1]), e)
    return overlap(code.graph, mul(left, z_on(code.n, code.codewords[j - 1])))


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
    docstring.
    """
    table = _stabilizer_table(code.graph)
    pairs_by_diff = _diff_pair_map(code)
    masks = _codeword_masks(code)
    violations: list[KLViolation] = []
    pure = True
    for e in errors:
        ex, ez = e
        z_stab, s_phase = table[ex]
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
        else:
            pairs = pairs_by_diff.get(diff, ())
        if not pairs:
            continue
        # Z_diff e s has no letters left, so only its phase i**r remains
        r = s_phase + _product_phase(0, diff, ex, ez)
        for i, j in pairs:
            sign = (ex & masks[j - 1]).bit_count() & 1
            violations.append(KLViolation(e, i, j, phase_value(r + 2 * sign)))
            if not collect:
                return violations, pure
    return violations, pure


def kl_verify(
    code: CwsCode,
    max_weight: int,
    *,
    violation_cap: int = 1000,
) -> KLReport:
    """Exhaustive scalar-matrix check over all errors of weight 1..max_weight.

    Passing with every scalar zero makes the code pure at this weight;
    passing with a non-zero scalar is the degenerate case and still
    counts as passing.  Violations are listed in error-enumeration order,
    truncated at violation_cap with the count kept exact.
    """
    if not 1 <= max_weight <= code.n:
        raise ValueError(f"max_weight outside 1..{code.n}")
    if violation_cap < 0:
        raise ValueError("violation_cap must be non-negative")
    all_violations: list[KLViolation] = []
    pure = True
    for d in range(1, max_weight + 1):
        violations, weight_pure = _scan_errors(code, list(_error_masks(code.n, d)), True)
        all_violations.extend(violations)
        pure = pure and weight_pure
    count = len(all_violations)
    capped = count > violation_cap
    reported = tuple(
        v._replace(error=PauliOperator(code.n, *v.error)) for v in all_violations[:violation_cap]
    )
    return KLReport(
        checked_weight=max_weight,
        passed=count == 0,
        pure=pure and count == 0,
        violations=reported,
        violation_count=count,
        violations_capped=capped,
    )


def distance(code: CwsCode, max_d: int) -> int | None:
    """Smallest weight whose error scan breaks the scalar-matrix form.

    Returns None when every weight up to max_d scans clean, meaning the
    distance is at least max_d + 1.
    """
    if not 1 <= max_d <= code.n:
        raise ValueError(f"max_d outside 1..{code.n}")
    for d in range(1, max_d + 1):
        violations, _ = _scan_errors(code, list(_error_masks(code.n, d)), False)
        if violations:
            return d
    return None


# ---------------------------------------------------------------------------
# Pattern route


def _pattern_masks(g: Graph, max_weight: int) -> set[int]:
    """Phase-flip patterns of all errors with weight 1..max_weight, as masks."""
    if not 1 <= max_weight <= g.n:
        raise ValueError(f"max_weight outside 1..{g.n}")
    table = _stabilizer_table(g)
    return {
        z ^ table[x][0] for d in range(1, max_weight + 1) for x, z in _error_masks(g.n, d)
    }


def error_pattern_set(g: Graph, max_weight: int) -> frozenset[frozenset[int]]:
    """Reachable phase-flip patterns for any graph, untagged."""
    return frozenset(vertices_of(m) for m in _pattern_masks(g, max_weight))


def _loop_shape_classes(n: int) -> dict[int, set[int]]:
    """Closed-form pattern classes on the n-vertex loop, keyed by size 1..6.

    Each shape is a product of Z factors at positions written relative to
    one or two anchors; repeated positions cancel, and an instantiation
    belongs to the class matching its surviving size.
    """

    def m(*vs: int) -> int:
        mask = 0
        for v in vs:
            mask ^= 1 << ((v - 1) % n)
        return mask

    shape_sets: dict[int, set[int]] = {k: set() for k in range(1, 7)}

    def put(k: int, mask: int) -> None:
        if mask.bit_count() == k:
            shape_sets[k].add(mask)

    vertices = range(1, n + 1)
    for a in vertices:
        put(1, m(a))
        # the two offset signs are independent, giving four orientations
        put(3, m(a, a + 1, a + 3))
        put(3, m(a, a - 1, a - 3))
        put(3, m(a, a - 1, a + 3))
        put(3, m(a, a + 1, a - 3))
        put(4, m(a - 2, a - 1, a + 1, a + 2))
        for b in vertices:
            if b != a:
                put(2, m(a, b))
                put(4, m(a - 1, a + 1, b - 1, b + 1))
                put(4, m(a - 1, a, a + 1, b))
                put(5, m(a - 1, a, a + 1, b - 1, b + 1))
                put(6, m(a - 1, a, a + 1, b - 1, b, b + 1))
            put(3, m(a - 1, b, a + 1))
    return shape_sets


def error_patterns(g: Graph) -> dict[int, frozenset[frozenset[int]]]:
    """Weight-<=2 phase-flip patterns on a loop, tagged by class 1..6.

    Class k holds the patterns flipping exactly k qubits.  On loops of at
    least 7 vertices each class is checked against its closed form; other
    graphs have no class structure, so tagging is refused and
    `error_pattern_set` serves the raw set instead.
    """
    if not is_loop_graph(g):
        raise ValueError("pattern classes are defined on loop graphs; use error_pattern_set")
    masks = _pattern_masks(g, 2)
    classes = {k: frozenset(m for m in masks if m.bit_count() == k) for k in range(1, 7)}
    leftovers = {m for m in masks if not 1 <= m.bit_count() <= 6}
    if leftovers:
        raise RuntimeError(f"loop pattern outside size 1..6: {sorted(leftovers)}")
    if g.n >= 7:
        shapes = _loop_shape_classes(g.n)
        for k in range(1, 7):
            if classes[k] != frozenset(shapes[k]):
                raise RuntimeError(f"class {k} patterns differ from their closed form")
    return {
        k: frozenset(vertices_of(m) for m in masks_k) for k, masks_k in classes.items()
    }


def _transition_masks(code: CwsCode) -> set[int]:
    """Codeword-mask xors over all unordered pairs of distinct codewords."""
    masks = _codeword_masks(code)
    return {masks[i] ^ masks[j] for i in range(len(masks)) for j in range(i + 1, len(masks))}


def transition_set(code: CwsCode) -> frozenset[frozenset[int]]:
    """Symmetric differences of all unordered codeword pairs."""
    return frozenset(vertices_of(m) for m in _transition_masks(code))


def reduced_transitions(code: CwsCode) -> frozenset[frozenset[int]]:
    """Transition set collapsed through the half-shift structure.

    When the second half of the codeword list is the first half shifted
    by a fixed pivot subset p (and the first codeword is empty), every
    transition equals p, a first-half difference, or p plus one, so those
    generators are returned.  Codes without the structure fall back to
    the plain transition set with a warning.
    """
    masks = _codeword_masks(code)
    k = len(masks)
    half = k // 2
    structured = (
        k >= 2
        and k % 2 == 0
        and masks[0] == 0
        and all(masks[half + t] == masks[t] ^ masks[half] for t in range(half))
    )
    if not structured:
        warnings.warn("codeword list lacks the half-shift structure; returning transition_set")
        return transition_set(code)
    pivot = masks[half]
    out = {pivot}
    for i in range(half):
        for j in range(i + 1, half):
            d = masks[i] ^ masks[j]
            out.add(d)
            out.add(pivot ^ d)
    return frozenset(vertices_of(m) for m in out)


def proof_check(code: CwsCode) -> bool:
    """Correctability of single-qubit errors by the counting argument.

    True iff no weight-<=2 error reduces to an empty pattern and no
    reduced pattern coincides with a codeword transition.  On a loop this
    is the scalar-matrix condition at weight 2 computed without matrix
    elements, and `kl_verify(code, 2)` must reach the same verdict.
    """
    if not is_loop_graph(code.graph):
        raise ValueError("the counting argument is stated for loop graphs")
    patterns = _pattern_masks(code.graph, 2)
    return 0 not in patterns and not (_transition_masks(code) & patterns)

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
`pauli._error_masks`.  `_weight_scans` is the one loop over error
weights: `kl_verify`, `distance` and the `distance` and `paper-demo`
commands read it, so each scans a weight at most once.  A
`PauliOperator` appears only in reports, one per listed violation, and
in `matrix_element`, which computes one element through explicit Pauli
products and the graph-state overlap; it is the reference the scan is
tested against.  `proof_check` never touches matrix elements or lists
errors: it sums single-qubit patterns up to weight 2 and intersects
them with the codeword transition set.  The routes must agree, and
tests hold them to that.  `error_patterns` is that walk grouped by
size on a loop, and `reduced_transitions` is that transition set.
"""

from __future__ import annotations

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


# Violations listed in a report; the count stays exact past it.
_VIOLATION_CAP = 1000


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


def _weight_scans(code: CwsCode, max_weight: int, collect: bool):
    """The one loop over error weights: (d, violations, pure) for d = 1..max_weight.

    The range is checked before the first scan.  Each weight's errors are
    listed once and scanned when the caller asks for the next weight, so
    a caller that stops early scans no further.
    """
    if not 1 <= max_weight <= code.n:
        raise ValueError(f"max_weight outside 1..{code.n}")
    return (
        (d, *_scan_errors(code, list(_error_masks(code.n, d)), collect))
        for d in range(1, max_weight + 1)
    )


def _kl_report(
    code: CwsCode, max_weight: int, violations: list[KLViolation], pure: bool
) -> KLReport:
    """A KLReport on scanned violations, with operators only for the reported ones."""
    count = len(violations)
    reported = tuple(
        v._replace(error=PauliOperator(code.n, *v.error)) for v in violations[:_VIOLATION_CAP]
    )
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
    """Reachable phase-flip patterns for any graph, untagged."""
    patterns = frozenset(vertices_of(m) for m in _pattern_masks(g, max_weight))
    return patterns | {frozenset()} if _empty_pattern_xs(g, max_weight) else patterns


def error_patterns(g: Graph) -> dict[int, frozenset[frozenset[int]]]:
    """Weight-<=2 phase-flip patterns on a loop, tagged by class 1..6.

    Class k holds the patterns flipping exactly k qubits: the walk of
    `_pattern_masks(g, 2)` grouped by size.  On a loop each single-qubit
    step flips at most three qubits, so a two-step pattern flips at most
    six and the six classes cover the walk.  The empty pattern, which
    some errors reach on loops of 3 and 4 vertices, is in no class;
    `search.empty_pattern_present` reports it.  Other graphs have no
    class structure, so tagging is refused and `error_pattern_set`
    serves the raw set instead.
    """
    if not is_loop_graph(g):
        raise ValueError("pattern classes are defined on loop graphs; use error_pattern_set")
    classes: dict[int, set[frozenset[int]]] = {k: set() for k in range(1, 7)}
    for m in _pattern_masks(g, 2):
        classes[m.bit_count()].add(vertices_of(m))
    return {k: frozenset(members) for k, members in classes.items()}


def _transition_masks(code: CwsCode) -> set[int]:
    """Codeword-mask xors over all unordered pairs of distinct codewords."""
    masks = _codeword_masks(code)
    return {masks[i] ^ masks[j] for i in range(len(masks)) for j in range(i + 1, len(masks))}


def transition_set(code: CwsCode) -> frozenset[frozenset[int]]:
    """Symmetric differences of all unordered codeword pairs."""
    return frozenset(vertices_of(m) for m in _transition_masks(code))


def reduced_transitions(code: CwsCode) -> frozenset[frozenset[int]]:
    """The transitions as the half-shift structure generates them: the transition set.

    When the first codeword is empty and the second half of the list is
    the first half shifted by a pivot subset p, pairs within one half
    give the first-half differences d, and pairs across the halves give
    p + d, or p itself when both words sit at the same place in their
    halves.  Those are exactly the transitions, so the reduced set is
    `transition_set(code)` on every code, with the structure or without.
    """
    return transition_set(code)


def proof_check(code: CwsCode) -> bool:
    """Correctability of single-qubit errors by the counting argument.

    True iff no weight-<=2 error reduces to an empty pattern and no
    reduced pattern coincides with a codeword transition.  On a loop this
    is the scalar-matrix condition at weight 2 computed without matrix
    elements, and `kl_verify(code, 2)` must reach the same verdict.
    """
    if not is_loop_graph(code.graph):
        raise ValueError("the counting argument is stated for loop graphs")
    g = code.graph
    return not _empty_pattern_xs(g, 2) and not (_transition_masks(code) & _pattern_masks(g, 2))

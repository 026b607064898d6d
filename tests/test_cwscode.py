"""Code verification checked against the dense oracle and frozen tables."""

from __future__ import annotations

import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwskit import cwscode
from cwskit.cwscode import (
    CODEWORDS_9_12_3,
    CwsCode,
    KLReport,
    KLViolation,
    distance,
    error_pattern_set,
    error_patterns,
    kl_verify,
    matrix_element,
    proof_check,
    reduced_transitions,
    the_9_12_3,
    transition_set,
)
from cwskit.dense import apply_pauli, inner_product, state_vector
from cwskit.graphstate import Graph, loop_graph, reduce_error, vertex_stabilizer
from cwskit.pauli import PauliOperator, _error_masks, enumerate_errors, parse_label, z_on

# Frozen from the published construction: the 31 distinct transitions of
# the ((9,12,3)) code, written as digit strings.
REDUCED_31 = {
    "147", "126", "1246", "2368", "12569", "1234678", "12345689",
    "159", "1348", "2569", "23678", "1235689", "12356789",
    "267", "1378", "3589", "34589", "1245679", "23456789",
    "348", "1579", "123468", "1345789",
    "378", "2467", "135789", "2345689",
    "459", "4579", "245679", "2356789",
}


def dense_states(code):
    base = state_vector(code.graph)
    return [apply_pauli(base, z_on(code.n, c)) for c in code.codewords]


def dense_element(states, i, j, e):
    return inner_product(states[i - 1], apply_pauli(states[j - 1], e))


def random_code(rng, size):
    pool = list(range(512))
    rng.shuffle(pool)
    words = [frozenset(v for v in range(1, 10) if m >> (v - 1) & 1) for m in pool[:size]]
    return CwsCode(loop_graph(9), tuple(words))


# --- construction -----------------------------------------------------------


def test_builtin_code_shape():
    code = the_9_12_3()
    assert code.n == 9
    assert code.size == 12
    assert code.codewords[0] == frozenset()
    assert code.codewords == CODEWORDS_9_12_3
    assert code.graph == loop_graph(9)
    # the second half is the first half shifted by {1,4,7}; only this test
    # checks it, since the library's transitions need no such structure
    shift = frozenset({1, 4, 7})
    for k in range(6):
        assert code.codewords[k + 6] == code.codewords[k] ^ shift


def test_duplicate_codewords_rejected():
    with pytest.raises(ValueError, match=r"duplicate codeword \[2, 6, 7\]"):
        CwsCode(loop_graph(9), (frozenset(), frozenset({2, 6, 7}), frozenset({2, 6, 7})))
    with pytest.raises(ValueError, match="duplicate codeword -"):
        CwsCode(loop_graph(9), (frozenset(), frozenset()))
    with pytest.raises(ValueError, match="outside"):
        CwsCode(loop_graph(9), (frozenset({10}),))
    with pytest.raises(ValueError):
        CwsCode(loop_graph(9), ())


# --- matrix elements --------------------------------------------------------


def test_matrix_element_between_first_two_codewords():
    code = the_9_12_3()
    value = matrix_element(code, 1, 2, z_on(9, [2, 6, 7]))
    assert value == 1  # frozen; the product collapses to the identity
    states = dense_states(code)
    assert dense_element(states, 1, 2, z_on(9, [2, 6, 7])) == value


def test_matrix_element_matches_dense_oracle_sampled():
    code = the_9_12_3()
    states = dense_states(code)
    rng = random.Random(51)
    errors = list(enumerate_errors(9, 1)) + list(enumerate_errors(9, 2))
    for e in rng.sample(errors, 60):
        i, j = rng.randrange(1, 13), rng.randrange(1, 13)
        assert matrix_element(code, i, j, e) == dense_element(states, i, j, e)


def test_matrix_element_index_validation():
    code = the_9_12_3()
    with pytest.raises(ValueError):
        matrix_element(code, 0, 1, z_on(9, [1]))
    with pytest.raises(ValueError):
        matrix_element(code, 1, 13, z_on(9, [1]))
    with pytest.raises(ValueError):
        matrix_element(code, 1, 1, z_on(8, [1]))


def test_vertex_stabilizer_eigenvalues_follow_codeword_membership():
    code = the_9_12_3()
    g = code.graph
    for a in range(1, 10):
        s = vertex_stabilizer(g, a)
        for i, c in enumerate(code.codewords, start=1):
            expected = -1 if a in c else 1
            assert matrix_element(code, i, i, s) == expected


# --- kl_verify --------------------------------------------------------------


def test_builtin_code_passes_weight_two_pure():
    report = kl_verify(the_9_12_3(), 2)
    assert report.passed
    assert report.pure
    assert report.checked_weight == 2
    assert report.violations == ()
    assert report.violation_count == 0
    assert not report.violations_capped


def test_thirteenth_codeword_breaks_verification():
    code = CwsCode(loop_graph(9), CODEWORDS_9_12_3 + (frozenset({1}),))
    report = kl_verify(code, 2)
    assert not report.passed
    assert not report.pure
    assert report.violation_count > 0
    witnesses = {(v.error, v.i, v.j) for v in report.violations}
    assert (parse_label("Z1", 9), 1, 13) in witnesses


def test_single_codeword_passes_and_is_pure():
    code = CwsCode(loop_graph(9), (frozenset(),))
    report = kl_verify(code, 1)
    assert report.passed and report.pure
    # dense brute force over all 27 weight-1 errors agrees that every scalar is 0
    states = dense_states(code)
    for e in enumerate_errors(9, 1):
        assert dense_element(states, 1, 1, e) == 0


def test_degenerate_code_passes_without_purity():
    # on the 4-loop, X1 X3 is a stabilizer element, so <G|X1 X3|G> = 1
    code = CwsCode(loop_graph(4), (frozenset(),))
    report = kl_verify(code, 2)
    assert report.passed
    assert not report.pure


def test_kl_scan_matches_matrix_elements_on_random_graphs():
    # Expected reports are built from matrix_element alone: diagonal
    # entries that differ from M[1][1] and non-zero off-diagonal entries,
    # in error-enumeration order, then row-major order within each error.
    rng = random.Random(2024)
    for n in (4, 5, 6, 7, 8, 9, 5, 7):
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        g = Graph.from_edges(n, [pq for pq in pairs if rng.random() < 0.5])
        masks = rng.sample(range(1 << n), rng.randint(2, 5))
        words = [frozenset(v for v in range(1, n + 1) if m >> (v - 1) & 1) for m in masks]
        code = CwsCode(g, tuple(words))
        k = code.size
        violations: list = []
        pure = True
        first_failing = None
        for w in range(1, 4):
            for e in enumerate_errors(n, w):
                m = [
                    [matrix_element(code, i, j, e) for j in range(1, k + 1)]
                    for i in range(1, k + 1)
                ]
                c = m[0][0]
                pure = pure and c == 0
                for i in range(k):
                    for j in range(k):
                        if m[i][j] != (c if i == j else 0):
                            violations.append(KLViolation(e, i + 1, j + 1, m[i][j]))
            if violations and first_failing is None:
                first_failing = w
            expected = KLReport(
                checked_weight=w,
                passed=not violations,
                pure=pure and not violations,
                violations=tuple(violations[:1000]),
                violation_count=len(violations),
                violations_capped=len(violations) > 1000,
            )
            assert kl_verify(code, w) == expected, (g, words, w)
        assert distance(code, 3) == first_failing


def test_violation_cap_keeps_exact_count():
    code = random_code(random.Random(5), 16)
    report = kl_verify(code, 3)
    # every violation of weights 1..3 in scan order, as (x, z) masks
    scanned = [
        v for d in range(1, 4) for v in cwscode._scan_errors(code, list(_error_masks(9, d)), True)[0]
    ]
    assert len(scanned) > 1000
    assert report.violations_capped
    assert len(report.violations) == 1000
    assert report.violation_count == len(scanned)
    assert report.violations == tuple(
        v._replace(error=PauliOperator(9, *v.error)) for v in scanned[:1000]
    )


def test_scans_build_operators_only_for_reported_violations(monkeypatch):
    # the scans work on (x, z) masks; a PauliOperator is built only for
    # each violation that kl_verify reports
    code = the_9_12_3()
    built = []
    post_init = PauliOperator.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PauliOperator, "__post_init__", counted)
    assert kl_verify(code, 2).passed
    assert distance(code, 3) == 3
    assert proof_check(code)
    assert built == []
    report = kl_verify(code, 3)
    assert report.violation_count == 762
    assert built == [v.error for v in report.violations]


def test_stabilizer_tables_do_not_accumulate_over_graphs():
    rng = random.Random(71)
    pairs = [(a, b) for a in range(1, 11) for b in range(a + 1, 11)]
    graphs = [
        Graph.from_edges(10, [pq for pq in pairs if rng.random() < 0.5]) for _ in range(200)
    ]
    tracemalloc.start()
    try:
        for g in graphs:
            kl_verify(CwsCode(g, (frozenset(),)), 1)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 2 * 1024 * 1024


def test_kl_verify_weight_range_validation(monkeypatch):
    def no_scan(code, errors, collect):
        raise AssertionError("scanned before the weight range was checked")

    # the range is checked before any weight is scanned
    monkeypatch.setattr(cwscode, "_scan_errors", no_scan)
    with pytest.raises(ValueError, match="max_weight outside 1..9"):
        cwscode._weight_scans(the_9_12_3(), 0, True)  # not iterated
    for check in (kl_verify, distance):
        for weight in (0, 10):
            with pytest.raises(ValueError, match="max_weight outside 1..9"):
                check(the_9_12_3(), weight)


# --- distance ---------------------------------------------------------------


def test_builtin_code_distance_is_three():
    assert distance(the_9_12_3(), 4) == 3


def test_weight_three_witness_hits_a_transition():
    report = kl_verify(the_9_12_3(), 3)
    assert not report.passed
    errors = {v.error for v in report.violations}
    assert parse_label("Z4 Z5 Z9", 9) in errors  # {4,5,9} is a transition


def test_distance_one_for_adjacent_codewords():
    code = CwsCode(loop_graph(9), (frozenset(), frozenset({1})))
    assert distance(code, 4) == 1


def test_distance_open_ended_result_is_none():
    code = CwsCode(loop_graph(9), (frozenset(),))
    assert distance(code, 2) is None


@st.composite
def small_codes(draw):
    n = draw(st.integers(3, 7))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = [pq for pq in pairs if draw(st.booleans())]
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6, unique=True))
    words = tuple(frozenset(v for v in range(1, n + 1) if m >> (v - 1) & 1) for m in masks)
    return CwsCode(Graph.from_edges(n, edges), words)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(small_codes())
def test_distance_is_the_first_weight_kl_verify_fails(code):
    first_failing = next(
        (w for w in range(1, code.n + 1) if not kl_verify(code, w).passed), None
    )
    assert distance(code, code.n) == first_failing


# --- patterns ---------------------------------------------------------------


def test_error_pattern_classes_on_the_9_loop():
    classes = error_patterns(loop_graph(9))
    assert {k: len(v) for k, v in classes.items()} == {1: 9, 2: 36, 3: 72, 4: 72, 5: 36, 6: 18}
    assert classes[1] == frozenset(frozenset({a}) for a in range(1, 10))
    # class 2 is every unordered pair
    assert classes[2] == frozenset(
        frozenset({a, b}) for a in range(1, 10) for b in range(a + 1, 10)
    )
    for k, members in classes.items():
        for p in members:
            assert len(p) == k


def test_error_pattern_set_size_frozen():
    pats = error_pattern_set(loop_graph(9), 2)
    assert len(pats) == 243
    assert frozenset() not in pats


def test_error_patterns_refused_off_loop():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match="loop"):
        error_patterns(g)
    # raw set still available
    assert error_pattern_set(g, 2)


def test_pattern_classes_hold_on_other_loop_sizes():
    # the reference multiplies out every error of weight <= 2 and reduces
    # it, sharing nothing with the walk that error_patterns groups
    for n in range(3, 13):
        g = loop_graph(n)
        expected: dict[int, set[frozenset[int]]] = {k: set() for k in range(1, 7)}
        for w in (1, 2):
            for e in enumerate_errors(n, w):
                pattern = reduce_error(g, e).pattern
                if pattern:
                    expected[len(pattern)].add(pattern)
        assert error_patterns(g) == {k: frozenset(v) for k, v in expected.items()}, n


def test_pattern_set_monotone_in_weight():
    rng = random.Random(61)
    graphs = [loop_graph(9)]
    for _ in range(5):
        edges = [
            (a, b)
            for a in range(1, 8)
            for b in range(a + 1, 8)
            if rng.random() < 0.4
        ]
        graphs.append(Graph.from_edges(7, edges))
    for g in graphs:
        p1 = error_pattern_set(g, 1)
        p2 = error_pattern_set(g, 2)
        p3 = error_pattern_set(g, 3)
        assert p1 <= p2 <= p3


# --- transitions ------------------------------------------------------------


def test_reduced_transitions_match_frozen_table():
    code = the_9_12_3()
    reduced = reduced_transitions(code)
    assert len(reduced) == 31
    assert {"".join(str(v) for v in sorted(s)) for s in reduced} == REDUCED_31


def test_transition_set_collapses_onto_reduced_set():
    code = the_9_12_3()
    assert transition_set(code) == reduced_transitions(code)


def test_reduced_transitions_without_the_half_shift_are_the_transition_set():
    # eleven words lack the half-shift structure; the reduced set is still
    # the transition set, and no warning is raised
    code = CwsCode(loop_graph(9), CODEWORDS_9_12_3[:11])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert reduced_transitions(code) == transition_set(code)


# --- the counting-argument route --------------------------------------------


def test_proof_check_passes_builtin_code():
    code = the_9_12_3()
    assert proof_check(code)
    assert not (transition_set(code) & error_pattern_set(code.graph, 2))


def test_proof_check_rejects_thirteenth_codeword():
    code = CwsCode(loop_graph(9), CODEWORDS_9_12_3 + (frozenset({1}),))
    assert not proof_check(code)


def test_proof_check_needs_a_loop():
    g = Graph.from_edges(4, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        proof_check(CwsCode(g, (frozenset(),)))


def test_proof_check_agrees_with_kl_verdict_on_random_codes():
    rng = random.Random(71)
    for _ in range(30):
        code = random_code(rng, rng.randrange(1, 9))
        report = kl_verify(code, 2)
        assert proof_check(code) == (report.passed and report.pure)

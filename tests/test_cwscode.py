"""Code verification checked against the dense oracle and frozen tables."""

from __future__ import annotations

import pickle
import random
import tracemalloc
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwskit import cwscode
from cwskit.cwscode import (
    CODEWORDS_9_12_3,
    CwsCode,
    KLReport,
    KLViolation,
    distance,
    error_pattern_set,
    kl_verify,
    matrix_element,
    proof_check,
    the_9_12_3,
    transition_set,
)
from cwskit.dense import apply_pauli, inner_product, state_vector
from cwskit.graphstate import Graph, is_loop_graph, loop_graph, vertex_stabilizer
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


def random_graph_code(rng):
    n = rng.randint(1, 9)
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    g = Graph.from_edges(n, [pq for pq in pairs if rng.random() < 0.5])
    masks = rng.sample(range(1 << n), rng.randint(1, min(12, 1 << n)))
    return g, [[v for v in range(1, n + 1) if m >> (v - 1) & 1] for m in masks]


def every_word_code(g):
    """The code on g whose words are all 2**n vertex subsets, in mask order."""
    return CwsCode(g, tuple(frozenset(v for v in range(1, g.n + 1) if m >> (v - 1) & 1)
                            for m in range(1 << g.n)))


def test_masks_pack_the_codewords_in_order():
    rng = random.Random(17)
    for _ in range(60):
        g, words = random_graph_code(rng)
        code = CwsCode(g, tuple(frozenset(w) for w in words))
        assert code.masks == tuple(sum(1 << (v - 1) for v in w) for w in words)
        # masks stay outside equality, hash and repr, as before they existed
        twin = CwsCode(g, tuple(set(w) for w in words))
        assert twin == code and hash(twin) == hash(code)
        assert repr(code) == f"CwsCode(graph={g!r}, codewords={code.codewords!r})"
        if len(words) > 1:
            assert CwsCode(g, code.codewords[::-1]) != code
    with pytest.raises(TypeError):
        CwsCode(loop_graph(9), CODEWORDS_9_12_3, masks=())
    with pytest.raises(AttributeError):
        the_9_12_3().masks = ()


def test_code_facts_are_derived_once_outside_equality():
    rng = random.Random(2803)
    for _ in range(40):
        g, words = random_graph_code(rng)
        code = CwsCode(g, tuple(frozenset(w) for w in words))
        twin = CwsCode(g, code.codewords)
        transitions = code.transitions
        pairs = [(a, b) for a in code.masks for b in code.masks]
        assert transitions == {a ^ b for a, b in pairs} - {0}
        # read once, kept with the code, and no part of equality, hash or
        # repr; a code that has read them still pickles
        assert code.transitions is transitions
        assert code.signed_counts is code.signed_counts
        assert twin == code and hash(twin) == hash(code) and repr(twin) == repr(code)
        assert pickle.loads(pickle.dumps(code)) == code
    assert [f.name for f in fields(CwsCode)] == ["graph", "codewords", "masks"]
    with pytest.raises(ValueError, match="signed counts limited to 14 vertices"):
        CwsCode(loop_graph(15), (frozenset(),)).signed_counts


def test_code_facts_do_not_accumulate_over_codes():
    rng = random.Random(2804)
    g = loop_graph(10)
    word_sets = [rng.sample(range(1 << 10), 16) for _ in range(200)]
    tracemalloc.start()
    try:
        for masks in word_sets:
            code = CwsCode(g, tuple(frozenset(v for v in range(1, 11) if m >> v - 1 & 1)
                                    for m in masks))
            assert len(code.transitions) <= 120 and len(code.signed_counts) == 1024
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # each code's facts are about 30 KiB, so 200 kept sets would hold about 6 MiB
    assert held < 2 * 1024 * 1024


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


@st.composite
def kl_scan_codes(draw):
    # every graph on 1-6 vertices and 1-5 distinct words; isolated vertices
    # and stabilizer-element differences make degenerate codes common
    n = draw(st.integers(1, 6))
    pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    edges = [pq for pq in pairs if draw(st.booleans())]
    size = min(1 << n, 5)
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=size, unique=True))
    words = tuple(frozenset(v for v in range(1, n + 1) if m >> (v - 1) & 1) for m in masks)
    return CwsCode(Graph.from_edges(n, edges), words)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(kl_scan_codes())
# degenerate and failing: X3 and X4 fix both words, and Z1 Z2 joins them
@example(CwsCode(Graph(4, (0, 0, 0, 0)), (frozenset(), frozenset({1, 2}))))
# degenerate and passing: the ((5,2,3)) ring code beside an isolated vertex 6
@example(CwsCode(Graph.from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
                 (frozenset(), frozenset({1, 2, 3, 4, 5}))))
# all eight words on the 3-vertex path: every difference is a transition
@example(every_word_code(Graph.from_edges(3, [(1, 2), (2, 3)])))
def test_kl_scan_matches_matrix_elements_on_random_graphs(code):
    # Expected reports are built from matrix_element alone: diagonal
    # entries that differ from M[1][1] and non-zero off-diagonal entries,
    # in error-enumeration order, then row-major order within each error.
    n, k = code.n, code.size
    violations: list = []
    pure = True
    first_failing = None
    for w in range(1, min(n, 2) + 1):
        for e in enumerate_errors(n, w):
            m = [[matrix_element(code, i, j, e) for j in range(1, k + 1)] for i in range(1, k + 1)]
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
        assert kl_verify(code, w) == expected
    assert distance(code, min(n, 2)) == first_failing


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


def test_every_word_on_a_loop_scans_without_a_pair_map():
    # no weight-1 error on a loop has an empty pattern, and with all 1,024
    # words every pattern is a transition joining each word to a partner;
    # the scan holds the transition set, not the K**2 codeword pairs
    code = every_word_code(loop_graph(10))
    tracemalloc.start()
    try:
        report = kl_verify(code, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.violation_count == 3 * 10 * 1024
    assert len(report.violations) == 1000 and report.violations_capped
    assert peak < 16 * 1024 * 1024


def test_scans_build_operators_only_for_reported_violations(monkeypatch):
    # the scans work on (x, z) masks; a PauliOperator is built only for
    # each distinct error among the violations that kl_verify reports
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
    assert built == list(dict.fromkeys(v.error for v in report.violations))
    assert len(built) == 172


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


def test_weight_scans_list_errors_a_slice_at_a_time():
    code = CwsCode(loop_graph(12), (frozenset(),))
    tracemalloc.start()
    try:
        report = kl_verify(code, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and not report.pure
    # 912,717 errors up to weight 6, 673,596 of them at weight 6; listing a
    # whole weight at once peaked at about 43 MiB
    assert peak < 12 * 1024 * 1024


def test_sliced_scans_equal_whole_weight_scans(monkeypatch):
    rng = random.Random(2805)
    cases = []
    for k in range(40):
        n = rng.randint(2, 8)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        g = Graph.from_edges(n, [pq for pq in pairs if rng.random() < 0.5])
        # every fourth code has one word, so it never fails and scans every slice
        size = 1 if k % 4 == 0 else rng.randint(2, min(6, 1 << n))
        masks = rng.sample(range(1 << n), size)
        words = tuple(frozenset(v for v in range(1, n + 1) if m >> (v - 1) & 1) for m in masks)
        cases.append((CwsCode(g, words), rng.randint(1, min(4, n))))

    def outcomes(code, w):
        scans = {c: list(cwscode._weight_scans(code, w, c)) for c in (True, False)}
        return kl_verify(code, w), distance(code, w), scans

    whole = [outcomes(code, w) for code, w in cases]
    lengths = []
    scan = cwscode._scan_errors

    def counted(code, errors, collect):
        lengths.append(len(errors))
        return scan(code, errors, collect)

    monkeypatch.setattr(cwscode, "_SCAN_SLICE", 50)
    monkeypatch.setattr(cwscode, "_scan_errors", counted)
    late_witnesses = 0
    for (code, w), expected in zip(cases, whole):
        assert outcomes(code, w) == expected, (code, w)
        # a first violation past the first slice of its weight
        for d, found, _ in expected[2][False]:
            if found:
                late_witnesses += list(_error_masks(code.n, d)).index(found[0].error) >= 50
    assert max(lengths) == 50 and late_witnesses > 0
    # and a weight scanned clean over several slices
    assert any(
        not found and len(list(_error_masks(code.n, d))) > 50
        for (code, _), (*_, scans) in zip(cases, whole) for d, found, _ in scans[True]
    )


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
    # the weight-2 set grouped by size: class k flips exactly k qubits
    pats = error_pattern_set(loop_graph(9), 2)
    classes = {k: frozenset(p for p in pats if len(p) == k) for k in range(1, 7)}
    assert sum(map(len, classes.values())) == len(pats)
    assert {k: len(v) for k, v in classes.items()} == {1: 9, 2: 36, 3: 72, 4: 72, 5: 36, 6: 18}
    assert classes[1] == frozenset(frozenset({a}) for a in range(1, 10))
    # class 2 is every unordered pair
    assert classes[2] == frozenset(
        frozenset({a, b}) for a in range(1, 10) for b in range(a + 1, 10)
    )


def test_error_pattern_set_size_frozen():
    pats = error_pattern_set(loop_graph(9), 2)
    assert len(pats) == 243
    assert frozenset() not in pats


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
    # the 31 reduced transitions of the half-shift argument are the transition set
    reduced = transition_set(the_9_12_3())
    assert len(reduced) == 31
    assert {"".join(str(v) for v in sorted(s)) for s in reduced} == REDUCED_31


def test_transition_set_is_every_unordered_pair_difference():
    rng = random.Random(29)
    codes = [CwsCode(g, tuple(map(frozenset, words)))
             for g, words in (random_graph_code(rng) for _ in range(40))]
    # one word has no transition, and all 2**n words have every non-empty one
    codes += [CwsCode(loop_graph(5), (frozenset({2}),)), every_word_code(loop_graph(5))]
    for code in codes:
        c = code.codewords
        brute = {c[i] ^ c[j] for i in range(len(c)) for j in range(i + 1, len(c))}
        assert transition_set(code) == brute


# --- the counting-argument route --------------------------------------------


def test_proof_check_passes_builtin_code():
    code = the_9_12_3()
    assert proof_check(code)
    assert not (transition_set(code) & error_pattern_set(code.graph, 2))


def test_proof_check_rejects_thirteenth_codeword():
    code = CwsCode(loop_graph(9), CODEWORDS_9_12_3 + (frozenset({1}),))
    assert not proof_check(code)


def test_proof_check_runs_on_one_vertex_codes():
    # no error has weight 2 on one qubit, so the argument stops at weight 1:
    # X1 fixes every word, and Z1 joins - and 1
    verdicts = []
    for words in ((frozenset(),), (frozenset({1}),), (frozenset(), frozenset({1}))):
        code = CwsCode(Graph(1, (0,)), words)
        report = kl_verify(code, 1)
        verdicts.append((report.passed, proof_check(code)))
        assert verdicts[-1][1] == (report.passed and report.pure)
    assert verdicts == [(True, False), (True, False), (False, False)]


def test_proof_check_agrees_with_kl_verdict_on_random_codes():
    rng = random.Random(71)
    for _ in range(30):
        code = random_code(rng, rng.randrange(1, 9))
        report = kl_verify(code, 2)
        assert proof_check(code) == (report.passed and report.pure)
    # the counting argument needs no loop: on any graph it is the weight-2
    # scan passing pure
    rng = random.Random(83)
    verdicts = []
    while len(verdicts) < 400:
        n = rng.randint(2, 8)
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        g = Graph.from_edges(n, [pq for pq in pairs if rng.random() < 0.5])
        if is_loop_graph(g):
            continue
        masks = rng.sample(range(1 << n), rng.randint(1, min(4, 1 << n)))
        words = tuple(frozenset(v for v in range(1, n + 1) if m >> (v - 1) & 1) for m in masks)
        code = CwsCode(g, words)
        report = kl_verify(code, 2)
        verdicts.append(proof_check(code))
        assert verdicts[-1] == (report.passed and report.pure), (g.edges(), words)
    assert True in verdicts and False in verdicts

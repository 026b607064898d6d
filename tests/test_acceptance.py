"""Acceptance gate: the nine headline claims, each as one pass/fail test.

Run with `pytest tests/test_acceptance.py -v` for one line per criterion.
Everything here is exact arithmetic; the time limits are generous
ceilings, not benchmarks.
"""

import random
import time

import numpy as np

from cwskit.cwscode import (
    CwsCode,
    distance,
    error_pattern_set,
    kl_verify,
    matrix_element,
    proof_check,
    the_9_12_3,
    transition_set,
)
from cwskit.dense import apply_pauli, apply_sum, inner_product, state_vector
from cwskit.graphstate import Graph, loop_graph, stabilizer_element
from cwskit.operatoralg import (
    adjoint,
    build_projector,
    projector_from_codewords,
    stabilizes,
    sum_mul,
    trace,
    weight_enumerator,
)
from cwskit.pauli import PauliOperator, enumerate_errors
from cwskit.search import SearchConfig, compatibility_search


def report(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok


def test_criterion_1_kl_verification_weight_2():
    start = time.perf_counter()
    r = kl_verify(the_9_12_3(), 2)
    elapsed = time.perf_counter() - start
    ok = r.passed and r.pure and r.violation_count == 0 and r.checked_weight == 2
    ok = ok and elapsed < 1.0
    report(1, ok, f"weight-2 scan passed pure with 0 violations in {elapsed:.3f}s")


def test_criterion_2_distance_is_exactly_3():
    start = time.perf_counter()
    d = distance(the_9_12_3(), 4)
    elapsed = time.perf_counter() - start
    weight3_count = sum(1 for _ in enumerate_errors(9, 3))
    witnesses = kl_verify(the_9_12_3(), 3)
    ok = d == 3 and weight3_count == 2268 and not witnesses.passed
    ok = ok and elapsed < 2.0
    report(2, ok, f"distance {d} over {weight3_count} weight-3 errors in {elapsed:.3f}s")


# The 31 reduced transition operators, written as the digits of each subset.
REDUCED_TRANSITIONS = (
    "147 126 1246 2368 12569 1234678 12345689 159 1348 2569 23678 1235689 "
    "12356789 267 1378 3589 34589 1245679 23456789 348 1579 123468 1345789 "
    "378 2467 135789 2345689 459 4579 245679 2356789"
)


def test_criterion_3_proof_path_equivalence():
    start = time.perf_counter()
    code = the_9_12_3()
    patterns = error_pattern_set(loop_graph(9), 2)
    # the reduced transitions of the half-shift argument are the transition set
    transitions = reduced = transition_set(code)
    expected = frozenset(frozenset(int(ch) for ch in word)
                         for word in REDUCED_TRANSITIONS.split())
    r = kl_verify(code, 2)
    elapsed = time.perf_counter() - start
    ok = not (patterns & transitions)
    ok = ok and len(reduced) == 31 and reduced == expected
    ok = ok and proof_check(code) == (r.passed and r.pure)
    ok = ok and elapsed < 1.0
    report(3, ok, f"patterns disjoint from transitions, 31 reduced ops, in {elapsed:.3f}s")


def test_criterion_4_projector():
    start = time.perf_counter()
    code = the_9_12_3()
    p = build_projector()
    laws = sum_mul(p, p) == p and adjoint(p) == p and trace(p) == 12
    same = p == projector_from_codewords(code)
    base = state_vector(loop_graph(9))
    fixes = True
    for mask in code.masks:
        v = apply_pauli(base, PauliOperator(9, 0, mask, 0))
        fixes = fixes and np.array_equal(apply_sum(v, p), v.amps)
    elapsed = time.perf_counter() - start
    ok = laws and same and fixes and elapsed < 5.0
    report(4, ok, f"idempotent self-adjoint trace-12 projector, fixed points, in {elapsed:.3f}s")


def test_criterion_5_weight_enumerator():
    expected = (144, 0, 0, 0, 96, 0, 1536, 3072, 1296, 0)
    code = the_9_12_3()
    start = time.perf_counter()
    fast = weight_enumerator(code, "fast")
    fast_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    brute = weight_enumerator(code, "brute")
    brute_elapsed = time.perf_counter() - start
    ok = fast.a == expected and brute.a == expected and sum(fast.a) == 6144
    ok = ok and fast_elapsed < 1.0 and brute_elapsed < 30.0
    report(5, ok, f"both methods give {expected}, fast {fast_elapsed:.3f}s brute {brute_elapsed:.3f}s")


def test_criterion_6_local_stabilizers():
    start = time.perf_counter()
    code = the_9_12_3()
    g = loop_graph(9)
    ok = True
    for pair in ((3, 8), (6, 2), (9, 5)):
        flags = stabilizes(stabilizer_element(g, pair), code)
        ok = ok and flags == (True,) * 12
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(6, ok, f"G_38, G_62, G_95 fix all twelve codewords in {elapsed:.3f}s")


def test_criterion_7_search_beats_the_stabilizer_bound():
    cfg = SearchConfig(loop_graph(9), target_distance=3, time_budget=60.0)
    start = time.perf_counter()
    result = compatibility_search(cfg)
    elapsed = time.perf_counter() - start
    ok = result.certified and result.size >= 12 and result.size > 8
    ok = ok and elapsed <= 60.0
    report(7, ok, f"certified size {result.size} > 8 in {elapsed:.3f}s")


def dense_states(code):
    base = state_vector(code.graph)
    return [apply_pauli(base, PauliOperator(code.n, 0, m, 0))
            for m in code.masks]


def dense_element(states, i, j, e):
    return inner_product(states[i - 1], apply_pauli(states[j - 1], e))


def test_criterion_8_dense_oracle_equivalence():
    code = the_9_12_3()
    states = dense_states(code)
    for d in (1, 2):
        for e in enumerate_errors(9, d):
            moved = [apply_pauli(s, e) for s in states]
            for i in range(1, 13):
                for j in range(1, 13):
                    got = matrix_element(code, i, j, e)
                    want = inner_product(states[i - 1], moved[j - 1])
                    assert got == want, (i, j, e)

    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(3, 6)
        edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                 if rng.random() < 0.5]
        g = Graph.from_edges(n, edges)
        size = rng.randint(1, min(6, 1 << n))
        words = tuple(frozenset(v + 1 for v in range(n) if m >> v & 1)
                      for m in rng.sample(range(1 << n), size))
        small = CwsCode(g, words)
        small_states = dense_states(small)
        for _ in range(10):
            x = z = 0
            for q in rng.sample(range(1, n + 1), rng.randint(1, 2)):
                letter = rng.choice("XYZ")
                if letter in "XY":
                    x |= 1 << (q - 1)
                if letter in "ZY":
                    z |= 1 << (q - 1)
            e = PauliOperator(n, x, z, 0)
            i = rng.randint(1, size)
            j = rng.randint(1, size)
            assert matrix_element(small, i, j, e) == dense_element(small_states, i, j, e)
    report(8, True, "dense inner products match matrix_element on 50544 + 1000 cases")


def test_criterion_9_the_code_is_nonadditive():
    # A CWS code is a stabilizer code exactly when its codeword masks form
    # a group under XOR (Cross, Smith, Smolin and Zeng, arXiv:0708.1021);
    # a stabilizer code's dimension is a power of two.
    code = the_9_12_3()
    words = set(code.masks)
    outside = sum(1 for a in code.masks for b in code.masks if a ^ b not in words)
    power_of_two = code.size & (code.size - 1) == 0
    ok = code.size == 12 and not power_of_two and outside == 80
    report(9, ok, f"{code.size} words, not a power of two; {outside} of 144 XORs leave the word set")

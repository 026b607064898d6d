"""Pauli algebra checked against dense matrices built from 2x2 blocks."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest

from cwskit.graphstate import dense_matrix
from cwskit.pauli import (
    PauliOperator,
    adjoint,
    commutes,
    enumerate_errors,
    identity,
    is_hermitian,
    mul,
    parse_label,
    phase_value,
    render_label,
    weight,
    x_on,
    z_on,
)


def all_paulis(n):
    for x in range(1 << n):
        for z in range(1 << n):
            for phase in range(4):
                yield PauliOperator(n, x, z, phase)


def phase_free_paulis(n):
    for x in range(1 << n):
        for z in range(1 << n):
            yield PauliOperator(n, x, z, 0)


# --- dense oracle -----------------------------------------------------------


def test_mul_matches_dense_matrices_exhaustively_n2():
    # every pair of phase-free Paulis on 2 qubits, exact matrix equality
    for p in phase_free_paulis(2):
        for q in phase_free_paulis(2):
            expected = dense_matrix(p) @ dense_matrix(q)
            assert np.array_equal(dense_matrix(mul(p, q)), expected)


def test_mul_matches_dense_matrices_sampled_n3():
    rng = random.Random(11)
    ops = [
        PauliOperator(3, rng.randrange(8), rng.randrange(8), rng.randrange(4))
        for _ in range(40)
    ]
    for p in ops:
        for q in ops:
            expected = dense_matrix(p) @ dense_matrix(q)
            assert np.array_equal(dense_matrix(mul(p, q)), expected)


def test_adjoint_matches_dense_matrices():
    for p in all_paulis(2):
        assert np.array_equal(dense_matrix(adjoint(p)), dense_matrix(p).conj().T)


def test_commutes_matches_dense_matrices():
    for p in phase_free_paulis(2):
        for q in phase_free_paulis(2):
            pq = dense_matrix(p) @ dense_matrix(q)
            qp = dense_matrix(q) @ dense_matrix(p)
            assert commutes(p, q) == np.array_equal(pq, qp)


def test_is_hermitian_matches_dense_matrices():
    for p in all_paulis(2):
        m = dense_matrix(p)
        assert is_hermitian(p) == np.array_equal(m, m.conj().T)


# --- group structure --------------------------------------------------------


def test_mul_identity_is_neutral():
    rng = random.Random(5)
    for _ in range(200):
        p = PauliOperator(9, rng.randrange(512), rng.randrange(512), rng.randrange(4))
        assert mul(p, identity(9)) == p
        assert mul(identity(9), p) == p


def test_mul_is_associative():
    rng = random.Random(7)
    for _ in range(300):
        p, q, r = (
            PauliOperator(9, rng.randrange(512), rng.randrange(512), rng.randrange(4))
            for _ in range(3)
        )
        assert mul(mul(p, q), r) == mul(p, mul(q, r))


def test_adjoint_is_inverse():
    rng = random.Random(9)
    for _ in range(200):
        p = PauliOperator(9, rng.randrange(512), rng.randrange(512), rng.randrange(4))
        assert mul(p, adjoint(p)) == identity(9)
        assert mul(adjoint(p), p) == identity(9)


def test_hermitian_paulis_square_to_identity():
    for p in all_paulis(2):
        if is_hermitian(p):
            assert mul(p, p) == identity(2)
        else:
            assert mul(p, p) == PauliOperator(2, 0, 0, 2)  # anti-Hermitian case


def test_single_qubit_table():
    X = parse_label("X1", 1)
    Y = parse_label("Y1", 1)
    Z = parse_label("Z1", 1)
    assert mul(X, Y) == PauliOperator(1, 0, 1, 1)  # iZ
    assert mul(Y, X) == PauliOperator(1, 0, 1, 3)  # -iZ
    assert mul(Y, Z) == PauliOperator(1, 1, 0, 1)  # iX
    assert mul(Z, X) == PauliOperator(1, 1, 1, 1)  # iY
    # the stated convention: Y = iXZ, i.e. XZ = -iY
    assert mul(X, Z) == PauliOperator(1, 1, 1, 3)


def test_weight_counts_nonidentity_letters():
    p = parse_label("X1 Y4 Z9", 9)
    assert weight(p) == 3
    assert weight(identity(9)) == 0
    assert p.support() == frozenset({1, 4, 9})


def test_commutation_phase_flip_rule():
    # anticommuting pair: product phases differ by i**2
    p = parse_label("X1", 2)
    q = parse_label("Z1", 2)
    assert not commutes(p, q)
    assert mul(p, q) == PauliOperator(2, 1, 1, (mul(q, p).phase + 2) % 4)


# --- labels -----------------------------------------------------------------


def test_label_roundtrip_examples():
    cases = ["I", "- I", "X1", "-i Y1", "Z2 Z6 Z7", "i X1 Y5 Z9", "- X2 Z3"]
    for s in cases:
        assert render_label(parse_label(s, 9)) == s


def test_roundtrip_all_paulis_n3():
    for p in all_paulis(3):
        assert parse_label(render_label(p), 3) == p


def test_mul_x1_z1_renders_minus_i_y1():
    out = mul(parse_label("X1", 1), parse_label("Z1", 1))
    assert out.phase == 3
    assert render_label(out) == "-i Y1"


def test_parse_rejects_bad_labels():
    for bad in ["", "+", "Q1", "X0", "X10", "X1 X1", "X1 Z1", "I X1", "X1 I", "x1"]:
        with pytest.raises(ValueError):
            parse_label(bad, 9)


def test_parse_accepts_phase_tokens():
    assert parse_label("+ X1", 2) == PauliOperator(2, 1, 0, 0)
    assert parse_label("i X1", 2) == PauliOperator(2, 1, 0, 1)
    assert parse_label("- X1", 2) == PauliOperator(2, 1, 0, 2)
    assert parse_label("-i X1", 2) == PauliOperator(2, 1, 0, 3)


def test_out_of_range_masks_rejected():
    with pytest.raises(ValueError):
        PauliOperator(2, 4, 0, 0)
    with pytest.raises(ValueError):
        PauliOperator(2, 0, -1, 0)


# --- error enumeration ------------------------------------------------------


def test_enumerate_errors_counts():
    for n in range(1, 10):
        for d in range(n + 1):
            errors = list(enumerate_errors(n, d))
            assert len(errors) == 3**d * math.comb(n, d)
            assert len(set(errors)) == len(errors)
            for e in errors:
                assert weight(e) == d
                assert is_hermitian(e)
                assert e.phase == 0


def test_enumerate_errors_order():
    first = [render_label(e) for e in itertools.islice(enumerate_errors(9, 2), 12)]
    assert first == [
        "X1 X2", "X1 Y2", "X1 Z2",
        "Y1 X2", "Y1 Y2", "Y1 Z2",
        "Z1 X2", "Z1 Y2", "Z1 Z2",
        "X1 X3", "X1 Y3", "X1 Z3",
    ]
    # supports ascend lexicographically
    supports = [tuple(sorted(e.support())) for e in enumerate_errors(5, 2)]
    assert supports == sorted(supports)
    # the whole sequence, rebuilt from supports times letter words
    for n in range(1, 7):
        for d in range(n + 1):
            expected = [
                " ".join(f"{letter}{q}" for letter, q in zip(letters, support)) or "I"
                for support in itertools.combinations(range(1, n + 1), d)
                for letters in itertools.product("XYZ", repeat=d)
            ]
            assert [render_label(e) for e in enumerate_errors(n, d)] == expected, (n, d)


def test_enumerate_errors_weight_zero_and_range():
    assert list(enumerate_errors(9, 0)) == [identity(9)]
    with pytest.raises(ValueError):
        list(enumerate_errors(3, 4))


def test_specific_error_counts_match_9_qubit_scan():
    assert sum(1 for _ in enumerate_errors(9, 1)) == 27
    assert sum(1 for _ in enumerate_errors(9, 2)) == 324


# --- helpers ----------------------------------------------------------------


def test_phase_value_cycle():
    assert [phase_value(k) for k in range(4)] == [1, 1j, -1, -1j]
    assert phase_value(7) == phase_value(3)


def test_x_on_z_on():
    assert x_on(9, [1, 4]) == PauliOperator(9, 0b1001, 0, 0)
    assert z_on(9, [2, 6, 7]) == PauliOperator(9, 0, 0b1100010, 0)
    with pytest.raises(ValueError):
        z_on(9, [10])

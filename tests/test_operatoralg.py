"""Exact operator algebra, the ((9,12,3)) projector, and the enumerator."""

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import xor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwskit import operatoralg as oa
from cwskit.cwscode import CwsCode, the_9_12_3
from cwskit.dense import apply_pauli, apply_sum, dense_matrix, inner_product, state_vector
from cwskit.graphstate import Graph, loop_graph, stabilizer_element
from cwskit.pauli import PauliOperator, mul, parse_label, z_on

C = oa.coeff


def dense_sum(x):
    m = np.zeros((1 << x.n, 1 << x.n), dtype=complex)
    for (xm, zm), c in x.terms:
        m += complex(c) * dense_matrix(PauliOperator(x.n, xm, zm, 0))
    return m


def random_coeff(rng):
    # odd denominators too, so products exercise the lcm rescaling
    return oa.Coeff(
        Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4, 5, 7))),
        Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 5))),
    )


def random_sum(rng, n, max_terms=4):
    full = 1 << n
    terms = tuple(
        ((rng.randrange(full), rng.randrange(full)), random_coeff(rng))
        for _ in range(rng.randint(1, max_terms))
    )
    return oa.PauliSum(n, terms)


def code_of(g, masks):
    return CwsCode(g, tuple(frozenset(a + 1 for a in range(g.n) if m >> a & 1) for m in masks))


def test_coeff_arithmetic():
    a = oa.Coeff(Fraction(1, 2), Fraction(-3))
    b = oa.Coeff(Fraction(2), Fraction(1, 4))
    assert a + b == oa.Coeff(Fraction(5, 2), Fraction(-11, 4))
    assert a * b == oa.Coeff(Fraction(7, 4), Fraction(-47, 8))
    assert -a == oa.Coeff(Fraction(-1, 2), Fraction(3))
    assert a.conjugate() == oa.Coeff(Fraction(1, 2), Fraction(3))
    assert a.rotated(1) == oa.Coeff(Fraction(3), Fraction(1, 2))
    assert a.rotated(2) == -a
    assert a.rotated(3) == a.rotated(-1)
    assert a.rotated(4) == a
    assert C(5) == 5 == C(5)
    assert C(Fraction(1, 2)) == Fraction(1, 2)
    assert C(0) != 1 and not C(0)
    assert oa.Coeff(Fraction(0), Fraction(1)) != 1
    assert complex(a) == 0.5 - 3j


def test_coeff_hash_agrees_with_equality():
    assert len({oa.Coeff(Fraction(3)), 3, Fraction(3)}) == 1
    assert hash(oa.Coeff(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert len({oa.Coeff(Fraction(1), Fraction(1)), oa.Coeff(Fraction(1))}) == 2


def test_coefficients_checked_at_the_boundary():
    s = oa.PauliSum(1, (((0, 0), 3), ((1, 0), Fraction(1, 2))))
    assert s.terms == (((0, 0), C(3)), ((1, 0), C(Fraction(1, 2))))
    assert all(type(c) is oa.Coeff for _, c in s.terms)
    for bad in (0.5, 1j, "x", None):
        with pytest.raises(TypeError):
            oa.PauliSum(1, (((0, 0), bad),))
        with pytest.raises(TypeError):
            oa.coeff(bad)
        with pytest.raises(TypeError):
            oa.identity_sum(1, bad)
    # a Coeff is checked too, so a float cannot slip past the boundary inside one
    for bad in ((0.5,), (Fraction(1, 2), 1j)):
        with pytest.raises(TypeError):
            oa.PauliSum(1, (((0, 0), oa.Coeff(*bad)),))


def test_coeff_str_spells_each_branch():
    assert str(C(Fraction(-3, 4))) == "-3/4"
    assert str(oa.Coeff(Fraction(0), Fraction(3))) == "3 i"
    assert str(oa.Coeff(Fraction(0), Fraction(-1, 2))) == "-1/2 i"
    assert str(oa.Coeff(Fraction(1, 2), Fraction(3))) == "1/2 + 3 i"
    assert str(oa.Coeff(Fraction(1, 2), Fraction(-3))) == "1/2 - 3 i"
    assert str(oa.Coeff(Fraction(-1), Fraction(-1, 4))) == "-1 - 1/4 i"


def test_pauli_sum_canonicalizes():
    dup = oa.PauliSum(2, (((1, 0), C(1)), ((1, 0), C(2)), ((0, 3), C(0))))
    assert dup.terms == (((1, 0), C(3)),)
    assert oa.PauliSum(2, (((1, 0), C(1)), ((1, 0), C(-1)))) == oa.PauliSum(2, ())
    with pytest.raises(ValueError):
        oa.PauliSum(2, (((4, 0), C(1)),))


def test_from_pauli_folds_phase():
    p = parse_label("- X1", 2)
    assert oa.from_pauli(p) == oa.from_pauli(parse_label("X1", 2), -1)
    q = parse_label("i X1 Y5 Z9", 9)
    assert oa.from_pauli(q).terms == (((q.x, q.z), oa.Coeff(Fraction(0), Fraction(1))),)
    assert oa.from_pauli(q, 3).terms == (((q.x, q.z), oa.Coeff(Fraction(0), Fraction(3))),)


def test_sum_mul_matches_operator_mul():
    rng = random.Random(11)
    scale_rng = random.Random(16)
    full = 1 << 9
    for _ in range(60):
        p = PauliOperator(9, rng.randrange(full), rng.randrange(full), rng.randrange(4))
        q = PauliOperator(9, rng.randrange(full), rng.randrange(full), rng.randrange(4))
        assert oa.sum_mul(oa.from_pauli(p), oa.from_pauli(q)) == oa.from_pauli(mul(p, q))
        a = random_coeff(scale_rng)
        b = random_coeff(scale_rng)
        assert oa.sum_mul(oa.from_pauli(p, a), oa.from_pauli(q, b)) == oa.from_pauli(mul(p, q), a * b)


def test_sum_mul_splits_the_one_phase_rule():
    # a unit term pair multiplies to mul's phase, exhaustively on 2 qubits
    n = 2
    letters = [(x, z) for x in range(4) for z in range(4)]
    for x1, z1 in letters:
        for x2, z2 in letters:
            got = oa.sum_mul(oa.PauliSum(n, (((x1, z1), 1),)), oa.PauliSum(n, (((x2, z2), 1),)))
            phase = mul(PauliOperator(n, x1, z1), PauliOperator(n, x2, z2)).phase
            assert got.terms == (((x1 ^ x2, z1 ^ z2), C(1).rotated(phase)),)


def distributive_product(x, y):
    """x y as the sum of every term pair's product through `mul`."""
    return reduce(oa.sum_add, (
        oa.from_pauli(mul(PauliOperator(x.n, *k1, 0), PauliOperator(x.n, *k2, 0)), a * b)
        for k1, a in x.terms for k2, b in y.terms
    ), oa.PauliSum(x.n, ()))


@pytest.mark.parametrize("n", [1, 5, 9, 14])
def test_sum_mul_matches_the_distributive_product(n):
    rng = random.Random(1800 + n)
    full = 1 << n
    # a few masks shared by both factors, so products collide, merge and cancel
    pool = [(rng.randrange(full), rng.randrange(full)) for _ in range(4)]
    for _ in range(25):
        x, y = (
            oa.PauliSum(n, tuple(
                (rng.choice(pool) if rng.random() < 0.5 else (rng.randrange(full), rng.randrange(full)),
                 random_coeff(rng))
                for _ in range(rng.randint(1, 6))
            ))
            for _ in range(2)
        )
        assert oa.sum_mul(x, y) == distributive_product(x, y)
        assert oa.sum_mul(x, x) == distributive_product(x, x)


@pytest.mark.parametrize("n", [1, 14])
def test_sum_mul_cancels_terms_exactly(n):
    def label(text, c=1):
        return oa.from_pauli(parse_label(text.replace("1", str(n)), n), c)

    x, z = label("X1"), label("Z1")
    # (X + Z)(X - Z) = 2i Y: the identity terms cancel
    product = oa.sum_mul(oa.sum_add(x, z), oa.sum_add(x, label("Z1", -1)))
    assert product == label("Y1", oa.Coeff(Fraction(0), Fraction(2)))
    assert product == distributive_product(oa.sum_add(x, z), oa.sum_add(x, label("Z1", -1)))
    # (X + i Y)**2 = 0: every term cancels
    raising = oa.sum_add(x, label("Y1", oa.Coeff(Fraction(0), Fraction(1))))
    assert oa.sum_mul(raising, raising) == oa.PauliSum(n, ())
    assert oa.sum_mul(raising, raising).terms == ()


def test_sum_mul_packs_every_kind_of_part():
    # each factor's terms purely real, purely imaginary or complex; parts
    # negative, over odd denominators and far beyond 2**70, so the packing
    # shift has to grow with the numerators
    rng = random.Random(2300)
    n = 4
    full = 1 << n
    pool = [(rng.randrange(full), rng.randrange(full)) for _ in range(3)]

    def part(big):
        top = 1 << rng.choice((0, 3, 71, 90)) if big else 3
        return Fraction(rng.randint(-top, top), rng.choice((1, 3, 5, 7, 9, 2**40)))

    kinds = {
        "real": lambda big: oa.Coeff(part(big), Fraction(0)),
        "imaginary": lambda big: oa.Coeff(Fraction(0), part(big)),
        "complex": lambda big: oa.Coeff(part(big), part(big)),
    }
    for kx in kinds:
        for ky in kinds:
            for big in (False, True):
                for _ in range(6):
                    x, y = (oa.PauliSum(n, tuple(
                        (rng.choice(pool) if rng.random() < 0.5 else (rng.randrange(full), rng.randrange(full)),
                         kinds[k](big))
                        for _ in range(rng.randint(1, 5))
                    )) for k in (kx, ky))
                    assert oa.sum_mul(x, y) == distributive_product(x, y), (kx, ky, big)


def test_sum_mul_keeps_a_part_that_survives_the_other_cancelling():
    def c(re, im=0):
        return oa.Coeff(Fraction(re), Fraction(im))

    def terms(*pairs):
        return oa.PauliSum(1, tuple(pairs))

    X, Z, Y, I = (1, 0), (0, 1), (1, 1), (0, 0)
    big = Fraction(2**80 + 1, 3)
    cases = [
        # (1 + i)**2 = 2i and (1 + i)(1 - i) = 2: one term pair each
        (terms((I, c(1, 1))), terms((I, c(1, 1))), terms((I, c(0, 2)))),
        (terms((I, c(1, 1))), terms((I, c(1, -1))), terms((I, c(2)))),
        # (X + Z)((1 + i) X + (-1 + i) Z) = 2i + 2i Y: at both keys two term
        # pairs cancel their real parts and add their imaginary ones
        (terms((X, c(1)), (Z, c(1))), terms((X, c(1, 1)), (Z, c(-1, 1))),
         terms((I, c(0, 2)), (Y, c(0, 2)))),
        # the same with the parts swapped and at a scale far beyond 2**70
        (terms((X, big), (Z, big)), terms((X, c(1, 1)), (Z, c(1, -1))),
         terms((I, oa.Coeff(2 * big, Fraction(0))), (Y, oa.Coeff(-2 * big, Fraction(0))))),
        # (X + Z)**2 = 2: X Z and Z X cancel in both parts, so Y drops out
        (terms((X, big), (Z, big)), terms((X, Fraction(-5, 7)), (Z, Fraction(-5, 7))),
         terms((I, big * Fraction(-10, 7)))),
    ]
    for x, y, expected in cases:
        assert oa.sum_mul(x, y) == expected == distributive_product(x, y)


def test_sum_mul_of_an_empty_sum_is_empty():
    empty = oa.PauliSum(3, ())
    x = oa.PauliSum(3, (((1, 2), oa.Coeff(Fraction(2**75, 9), Fraction(-1, 3))),))
    for a, b in ((empty, empty), (empty, x), (x, empty)):
        assert oa.sum_mul(a, b) == empty == distributive_product(a, b)
        assert oa.sum_mul(a, b).terms == ()


def test_pauli_sum_needs_a_qubit():
    with pytest.raises(ValueError, match="^need at least one qubit$"):
        oa.PauliSum(0, ())
    with pytest.raises(ValueError, match="^need at least one qubit$"):
        oa.PauliSum(-1, ())
    with pytest.raises(ValueError, match="^mask outside 1-qubit range$"):
        oa.PauliSum(1, (((2, 0), 1),))


@st.composite
def sum_triples(draw):
    # n = 1..4 and 1..5 terms; odd denominators and imaginary parts too
    n = draw(st.integers(1, 4))
    masks = st.integers(0, (1 << n) - 1)
    parts = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2, 3, 4, 5, 7)))
    terms = st.lists(st.tuples(st.tuples(masks, masks), st.builds(oa.Coeff, parts, parts)),
                     min_size=1, max_size=5)
    return tuple(oa.PauliSum(n, tuple(draw(terms))) for _ in range(3))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(sum_triples())
def test_algebra_laws_against_dense(xyz):
    x, y, z = xyz
    assert np.allclose(dense_sum(oa.sum_mul(x, y)), dense_sum(x) @ dense_sum(y))
    assert oa.sum_mul(oa.sum_add(x, y), z) == oa.sum_add(oa.sum_mul(x, z), oa.sum_mul(y, z))
    assert oa.sum_mul(x, oa.sum_mul(y, z)) == oa.sum_mul(oa.sum_mul(x, y), z)
    assert oa.adjoint(oa.sum_mul(x, y)) == oa.sum_mul(oa.adjoint(y), oa.adjoint(x))
    assert np.allclose(dense_sum(oa.adjoint(x)), dense_sum(x).conj().T)
    assert complex(oa.trace(x)) == pytest.approx(np.trace(dense_sum(x)))


def test_trace_and_coefficient_lookup():
    assert oa.trace(oa.identity_sum(4, Fraction(3, 8))) == 6
    assert oa.trace(oa.from_pauli(z_on(3, [1]))) == 0
    with pytest.raises(ValueError):
        oa.sum_add(oa.PauliSum(2, ()), oa.PauliSum(3, ()))
    with pytest.raises(ValueError):
        oa.sum_mul(oa.PauliSum(2, ()), oa.PauliSum(3, ()))


def test_apply_sum_matches_dense():
    rng = random.Random(13)
    g = loop_graph(3)
    base = state_vector(g)
    for _ in range(15):
        x = random_sum(rng, 3)
        assert np.allclose(apply_sum(base, x), dense_sum(x) @ base.amps)
    with pytest.raises(ValueError):
        apply_sum(base, oa.PauliSum(4, ()))


# The expansion of A multiplied out by hand: G_U G_V = G_(U xor V), so each
# product collapses to a single stabilizer element with the scalar in front.
A_EXPANSION = (
    ((1, 4), 1),
    ((1, 3, 4, 6), -1),
    ((1, 3, 4, 9), 1),
    ((1, 4, 6, 9), -1),
    ((1, 3, 4, 6, 9), 2),
    ((1, 4, 9), 2),
    ((1, 7), 1),
    ((1, 3, 7, 9), -1),
    ((1, 3, 6, 7), 1),
    ((1, 6, 7, 9), -1),
    ((1, 3, 6, 7, 9), 2),
    ((1, 6, 7), 2),
)


def test_build_a_matches_hand_expansion():
    g = loop_graph(9)
    by_hand = oa.PauliSum(9, ())
    for vertices, k in A_EXPANSION:
        by_hand = oa.sum_add(by_hand, oa.from_pauli(stabilizer_element(g, vertices), k))
    a = oa.build_A()
    assert a == by_hand
    assert len(a.terms) == 12
    assert oa.trace(a) == 0
    assert oa.adjoint(a) == a


def test_build_projector_equals_codeword_projector():
    p = oa.build_projector()
    q = oa.projector_from_codewords(the_9_12_3())
    assert p == q
    assert len(p.terms) == 176


def test_build_projector_multiplies_no_coefficient_after_the_products(monkeypatch):
    # 2**-10 rides on the first local factor, so the six products (two in A)
    # are the whole construction and no term passes through Coeff.__mul__
    pairs = []
    sum_mul = oa.sum_mul

    def counted(x, y):
        pairs.append(len(x.terms) * len(y.terms))
        return sum_mul(x, y)

    def refused(self, other):
        raise AssertionError("Coeff product in build_projector")

    monkeypatch.setattr(oa, "sum_mul", counted)
    monkeypatch.setattr(oa.Coeff, "__mul__", refused)
    p = oa.build_projector()
    monkeypatch.undo()
    assert p == oa.projector_from_codewords(the_9_12_3())
    assert pairs == [6, 6, 4, 8, 96, 1248]
    assert sum(pairs) + len(p.terms) ** 2 == 32344  # with P·P, the paper demo's count


def test_projector_laws():
    p = oa.build_projector()
    assert oa.sum_mul(p, p) == p
    assert oa.adjoint(p) == p
    assert oa.trace(p) == 12
    assert dict(p.terms)[(0, 0)] == Fraction(12, 512)


def test_projector_square_has_real_coefficients_that_hash_like_them():
    p = oa.build_projector()
    square = oa.sum_mul(p, p)
    assert square == p
    for _, c in square.terms:
        assert type(c.re) is Fraction and type(c.im) is Fraction
        assert c.im == Fraction(0)
        assert hash(c) == hash(c.re)


def test_local_stabilizers_fix_the_projector_in_operator_form():
    # exact operator products, where `stabilizes` reads matrix elements
    p = oa.build_projector()
    g = loop_graph(9)
    for pair in ((3, 8), (6, 2), (9, 5)):
        s = oa.from_pauli(stabilizer_element(g, pair))
        assert oa.sum_mul(s, p) == p == oa.sum_mul(p, s), pair
    g1 = oa.from_pauli(stabilizer_element(g, (1,)))
    assert oa.sum_mul(g1, p) != p
    assert oa.sum_mul(p, g1) != p


def test_projector_action_on_graph_basis():
    p = oa.build_projector()
    base = state_vector(loop_graph(9))
    for m in the_9_12_3().masks:
        v = apply_pauli(base, PauliOperator(9, 0, m, 0))
        assert np.array_equal(apply_sum(v, p), v.amps)
    stray = apply_pauli(base, z_on(9, [1]))
    assert not apply_sum(stray, p).any()


def test_single_codeword_projector_is_graph_state_projector():
    g = loop_graph(5)
    code = CwsCode(g, (frozenset(),))
    p = oa.projector_from_codewords(code)
    product = oa.identity_sum(5, Fraction(1, 32))
    for a in range(1, 6):
        factor = oa.sum_add(oa.identity_sum(5), oa.from_pauli(stabilizer_element(g, (a,))))
        product = oa.sum_mul(product, factor)
    assert p == product
    assert oa.sum_mul(p, p) == p
    assert oa.trace(p) == 1


def test_stabilizes_local_elements():
    code = the_9_12_3()
    g = loop_graph(9)
    for pair in ((3, 8), (6, 2), (9, 5)):
        flags = oa.stabilizes(stabilizer_element(g, pair), code)
        assert flags == (True,) * 12
    # G_1 flips exactly the six codewords containing vertex 1
    flags = oa.stabilizes(stabilizer_element(g, (1,)), code)
    assert flags == (True,) * 6 + (False,) * 6


EXPECTED_ENUMERATOR = (144, 0, 0, 0, 96, 0, 1536, 3072, 1296, 0)


def test_weight_enumerator_frozen_vector():
    code = the_9_12_3()
    fast = oa.weight_enumerator(code, "fast")
    assert fast.a == EXPECTED_ENUMERATOR
    assert sum(fast.a) == 6144 == (1 << 9) * 12
    assert fast.a[0] == 144 == 12 * 12


def test_weight_enumerator_brute_agrees():
    code = the_9_12_3()
    brute = oa.weight_enumerator(code, "brute")
    assert brute.a == EXPECTED_ENUMERATOR


def test_weight_enumerator_random_codes():
    rng = random.Random(14)
    graph_rng = random.Random(15)
    graphs = [loop_graph(5), loop_graph(6)]
    for n in (4, 5, 6, 7, 8):
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        graphs.append(Graph.from_edges(n, [pq for pq in pairs if graph_rng.random() < 0.5]))
    for g in graphs:
        n = g.n
        for _ in range(5):
            size = rng.randint(1, 4)
            masks = rng.sample(range(1 << n), size)
            code = code_of(g, masks)
            fast = oa.weight_enumerator(code, "fast")
            assert fast == oa.weight_enumerator(code, "brute")
            assert sum(fast.a) == (1 << n) * size
            assert fast.a[0] == size * size


def test_signed_counts_match_their_definition():
    rng = random.Random(2301)
    for n in range(1, 11):
        g = Graph.from_edges(n, [])
        full = 1 << n
        for size in sorted({1, 2, rng.randint(1, full), full}):
            masks = rng.sample(range(full), size)
            assert code_of(g, masks).signed_counts == tuple(
                sum(-1 if (u & c).bit_count() & 1 else 1 for c in masks) for u in range(full)
            ), (n, size)


def test_signed_counts_of_the_paper_code_show_its_local_stabilizers():
    code = the_9_12_3()
    t = code.signed_counts
    assert Counter(map(abs, t)) == {0: 336, 4: 120, 8: 48, 12: 8}
    # t_u = K exactly when G_u fixes every codeword: the group generated by
    # the paper's G_62, G_38 and G_95
    gens = [(1 << a - 1) | (1 << b - 1) for a, b in ((6, 2), (3, 8), (9, 5))]
    group = {reduce(xor, (g for g, bit in zip(gens, bits) if bit), 0)
             for bits in product((0, 1), repeat=3)}
    assert len(group) == 8
    assert {u for u, v in enumerate(t) if v == 12} == group
    g = loop_graph(9)
    for u in group:
        element = stabilizer_element(g, [a + 1 for a in range(9) if u >> a & 1])
        assert oa.stabilizes(element, code) == (True,) * 12


def dense_enumerator(code):
    """A_d = sum over weight-d Paulis E of |sum_i <w_i| E |w_i>|**2, on dense states."""
    n = code.n
    base = state_vector(code.graph)
    words = [apply_pauli(base, PauliOperator(n, 0, m, 0)) for m in code.masks]
    a = [0] * (n + 1)
    for x in range(1 << n):
        for z in range(1 << n):
            e = PauliOperator(n, x, z, 0)
            tr = sum(inner_product(w, apply_pauli(w, e)) for w in words)
            square = tr.real ** 2 + tr.imag ** 2
            assert square == round(square)
            a[(x | z).bit_count()] += round(square)
    return tuple(a)


def test_weight_enumerator_methods_match_dense_states():
    # a third route: Tr(P E) summed over codeword states, every Pauli E listed
    rng = random.Random(2302)
    for n in range(1, 6):
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        for _ in range(3):
            g = Graph.from_edges(n, [pq for pq in pairs if rng.random() < 0.5])
            code = code_of(g, rng.sample(range(1 << n), rng.randint(1, min(5, 1 << n))))
            a = dense_enumerator(code)
            assert oa.weight_enumerator(code, "fast").a == a == oa.weight_enumerator(code, "brute").a


def test_weight_enumerator_brute_runs_to_the_table_cap(monkeypatch):
    rng = random.Random(61)
    for n in (13, 14):
        pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        g = Graph.from_edges(n, [pq for pq in pairs if rng.random() < 0.5])
        masks = rng.sample(range(1 << n), 6)
        code = code_of(g, masks)
        assert oa.weight_enumerator(code, "brute") == oa.weight_enumerator(code, "fast")
    # the cap is checked before the 2**n signed counts are listed
    def refused(code):
        raise AssertionError("signed counts listed past the cap")

    monkeypatch.setattr(CwsCode, "signed_counts", property(refused))
    big = CwsCode(loop_graph(15), (frozenset(),))
    for build in (oa.projector_from_codewords, lambda c: oa.weight_enumerator(c, "fast"),
                  lambda c: oa.weight_enumerator(c, "brute")):
        with pytest.raises(ValueError, match="limited to 14 vertices"):
            build(big)


def test_weight_enumerator_rejects_unknown_method():
    with pytest.raises(ValueError):
        oa.weight_enumerator(the_9_12_3(), "exact")

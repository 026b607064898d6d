"""Graph states checked against dense linear algebra.

The dense oracle used here builds operators from 2x2 blocks and applies
the controlled-phase product form edge by edge, so it shares none of the
mask arithmetic under test.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwskit._masks import vertices_of
from cwskit.cwscode import CwsCode, distance, kl_verify, the_9_12_3
from cwskit.dense import DenseState, apply_pauli, dense_matrix, inner_product, state_vector
from cwskit.graphstate import (
    _VERTEX_CAPS,
    Graph,
    is_loop_graph,
    loop_graph,
    overlap,
    reduce_error,
    stabilizer_element,
    vertex_stabilizer,
    _stabilizer_table,
)
from cwskit.pauli import PauliOperator, identity, mul, parse_label, z_on
from cwskit.search import SearchConfig, compatibility_search


def random_graph(n, rng):
    edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    return Graph.from_edges(n, [e for e in edges if rng.random() < 0.5])


def all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for k, e in enumerate(pairs) if bits >> k & 1])


def cz_product_state(g):
    """Independent oracle: apply (1 + Z_a + Z_b - Z_a Z_b)/2 per edge to |+...+>."""
    vec = np.ones(1 << g.n, dtype=np.complex128)
    eye = np.eye(1 << g.n, dtype=np.complex128)
    for a, b in g.edges():
        za = dense_matrix(z_on(g.n, [a]))
        zb = dense_matrix(z_on(g.n, [b]))
        u = (eye + za + zb - za @ zb) / 2
        vec = u @ vec
    return vec


# --- Graph ------------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 2))  # self-loop at vertex 2
    with pytest.raises(ValueError):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])
    with pytest.raises(ValueError):
        loop_graph(2)
    with pytest.raises(ValueError, match="^adjacency row count differs from n$"):
        Graph(2, (0,))
    with pytest.raises(ValueError, match="^row 1 outside vertex range$"):
        Graph(1, (2,))


def test_vertex_labels_checked_at_the_boundary():
    g = loop_graph(5)
    with pytest.raises(ValueError, match=r"^vertex 0 outside 1\.\.5$"):
        vertex_stabilizer(g, 0)


def test_symmetry_check_is_linear_in_the_edges():
    start = time.perf_counter()
    assert loop_graph(3000).n == 3000
    assert time.perf_counter() - start < 0.2
    # 2 -> 4 and 3 -> 1 are one-way, 4 - 5 is a proper edge; the
    # lexicographically first one-way pair is named, smaller vertex first
    with pytest.raises(ValueError, match="^asymmetric edge between 1 and 3$"):
        Graph(5, (0b00000, 0b01000, 0b00001, 0b10000, 0b01000))


def test_loop_graph_structure():
    g = loop_graph(9)
    assert vertices_of(g.rows[0]) == frozenset({2, 9})
    assert vertices_of(g.rows[4]) == frozenset({4, 6})
    assert vertices_of(g.rows[8]) == frozenset({8, 1})
    assert len(g.edges()) == 9
    assert is_loop_graph(g)
    assert not is_loop_graph(Graph.from_edges(3, [(1, 2), (2, 3)]))


def test_list_rows_give_the_same_graph():
    # rows are stored as a tuple, so a list-built graph is equal, hashable
    # and usable as the key of the cached stabilizer table
    g = Graph(9, list(loop_graph(9).rows))
    assert g == loop_graph(9) and hash(g) == hash(loop_graph(9))
    assert isinstance(g.rows, tuple)
    assert is_loop_graph(g)
    code = the_9_12_3()
    assert kl_verify(CwsCode(g, code.codewords), 2).passed
    assert distance(CwsCode(g, code.codewords), 3) == 3


def test_from_edges_roundtrip():
    g = Graph.from_edges(4, [(1, 3), (2, 4), (1, 2)])
    assert g.edges() == ((1, 2), (1, 3), (2, 4))


# --- stabilizers ------------------------------------------------------------


def test_vertex_stabilizer_on_loop():
    g = loop_graph(9)
    assert vertex_stabilizer(g, 1) == parse_label("X1 Z2 Z9", 9)
    assert vertex_stabilizer(g, 5) == parse_label("Z4 X5 Z6", 9)


def test_stabilizer_element_x_mask_is_subset():
    g = loop_graph(9)
    rng = random.Random(3)
    for _ in range(50):
        u = frozenset(v for v in range(1, 10) if rng.random() < 0.5)
        s = stabilizer_element(g, u)
        assert vertices_of(s.x | s.z) >= u
        assert frozenset(v for v in range(1, 10) if s.x >> (v - 1) & 1) == u


def test_stabilizer_element_product_identity():
    g = loop_graph(9)
    p = mul(vertex_stabilizer(g, 1), vertex_stabilizer(g, 2))
    assert p == stabilizer_element(g, {1, 2})
    # dense cross-check of the same product
    expected = dense_matrix(vertex_stabilizer(g, 1)) @ dense_matrix(vertex_stabilizer(g, 2))
    assert np.array_equal(dense_matrix(p), expected)


def test_stabilizer_elements_commute_and_square():
    g = loop_graph(9)
    rng = random.Random(4)
    for _ in range(40):
        u = [v for v in range(1, 10) if rng.random() < 0.5]
        w = [v for v in range(1, 10) if rng.random() < 0.5]
        su, sw = stabilizer_element(g, u), stabilizer_element(g, w)
        assert mul(su, sw) == mul(sw, su)
        assert mul(su, su) == identity(9)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = itertools.combinations(range(1, n + 1), 2)
    return Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(graphs())
@example(loop_graph(9))
@example(Graph.from_edges(10, itertools.combinations(range(1, 11), 2)))
def test_stabilizer_table_matches_elementwise_products(g):
    # entry u holds the mul-route element's z mask and its normal-form sign,
    # i**(phase + |u & z|) = (-1)**sign, and that sign is the parity of the
    # edges inside u, counted from the edge list
    table = _stabilizer_table(g)
    assert len(table) == 1 << g.n
    for m, (z, sign) in enumerate(table):
        u = vertices_of(m)
        s = stabilizer_element(g, u)
        assert (s.x, s.z) == (m, z)
        assert sign in (0, 1)
        assert (s.phase + (m & z).bit_count()) % 4 == 2 * sign
        assert sign == sum(a in u and b in u for a, b in g.edges()) % 2


# --- graph state vector -----------------------------------------------------


def test_triangle_state_signs():
    amps = state_vector(loop_graph(3)).amps
    assert list(amps.real.astype(int)) == [1, 1, 1, -1, 1, -1, -1, -1]
    assert not amps.imag.any()


def test_state_vector_matches_cz_product_for_all_small_graphs():
    for n in range(1, 5):
        for g in all_graphs(n):
            assert np.array_equal(state_vector(g).amps, cz_product_state(g))


def test_state_vector_matches_cz_product_sampled_n5_and_loop9():
    rng = random.Random(12)
    for _ in range(60):
        g = random_graph(5, rng)
        assert np.array_equal(state_vector(g).amps, cz_product_state(g))
    g = loop_graph(9)
    assert np.array_equal(state_vector(g).amps, cz_product_state(g))


def test_graph_state_is_stabilized():
    g = loop_graph(9)
    s = state_vector(g)
    for a in range(1, 10):
        assert np.array_equal(apply_pauli(s, vertex_stabilizer(g, a)).amps, s.amps)


def test_graph_state_is_unique_joint_eigenvector():
    # rank of the stacked (G_a - 1) blocks must be 2**n - 1
    rng = random.Random(13)
    graphs = list(all_graphs(3)) + [random_graph(4, rng) for _ in range(20)]
    graphs += [random_graph(5, rng) for _ in range(10)]
    for g in graphs:
        dim = 1 << g.n
        blocks = [
            dense_matrix(vertex_stabilizer(g, a)) - np.eye(dim) for a in range(1, g.n + 1)
        ]
        assert np.linalg.matrix_rank(np.vstack(blocks)) == dim - 1


def test_state_vector_guard():
    with pytest.raises(ValueError):
        state_vector(Graph(15, tuple(0 for _ in range(15))))


# Each use of a vertex cap: the table key it reads and a call at size n.
CAP_USES = {
    "stabilizer table": ("table", lambda n: _stabilizer_table(Graph(n, (0,) * n))),
    "dense state": ("table", lambda n: state_vector(Graph(n, (0,) * n))),
    "dense matrix": ("matrix", lambda n: dense_matrix(PauliOperator(n, 1, 1, 0))),
    "search": ("search", lambda n: compatibility_search(
        SearchConfig(loop_graph(n), 3, time_budget=1e-9))),
}


@pytest.mark.parametrize("use", sorted(CAP_USES))
def test_vertex_caps_are_the_real_limits(use):
    assert {cap for cap, _ in CAP_USES.values()} == set(_VERTEX_CAPS)
    cap, call = CAP_USES[use]
    limit = _VERTEX_CAPS[cap]
    call(limit)
    with pytest.raises(ValueError, match=f"limited to {limit} "):
        call(limit + 1)


def test_qubit_counts_checked_at_the_boundary():
    g = loop_graph(5)
    s4, s5 = state_vector(loop_graph(4)), state_vector(g)
    for call in (
        lambda: reduce_error(g, identity(4)),
        lambda: overlap(g, identity(6)),
        lambda: apply_pauli(s4, identity(5)),
        lambda: inner_product(s4, s5),
    ):
        with pytest.raises(ValueError, match="^qubit counts differ$"):
            call()


# --- dense state operations -------------------------------------------------


def test_dense_state_norm_enforced():
    with pytest.raises(ValueError):
        DenseState(1, np.array([1.0, 1.0, 1.0], dtype=np.complex128))
    with pytest.raises(ValueError):
        DenseState(1, np.array([1.0, 0.5], dtype=np.complex128))


def test_apply_pauli_matches_dense_matrix():
    g = loop_graph(9)
    s = state_vector(g)
    rng = random.Random(21)
    for _ in range(60):
        p = PauliOperator(9, rng.randrange(512), rng.randrange(512), rng.randrange(4))
        assert np.array_equal(apply_pauli(s, p).amps, dense_matrix(p) @ s.amps)


def test_apply_hermitian_pauli_twice_is_identity():
    g = loop_graph(5)
    s = state_vector(g)
    rng = random.Random(22)
    for _ in range(40):
        x, z = rng.randrange(32), rng.randrange(32)
        p = PauliOperator(5, x, z, (x & z).bit_count() % 2 * 0)  # phase 0, Hermitian
        assert np.array_equal(apply_pauli(apply_pauli(s, p), p).amps, s.amps)


def test_inner_product_normalization():
    g = loop_graph(9)
    s = state_vector(g)
    assert inner_product(s, s) == 1
    t = apply_pauli(s, z_on(9, [1]))
    assert inner_product(s, t) == 0


# --- overlap ----------------------------------------------------------------


def test_overlap_z_only_is_delta_on_empty_set():
    g = loop_graph(9)
    for mask in range(512):
        p = PauliOperator(9, 0, mask, 0)
        assert overlap(g, p) == (1 if mask == 0 else 0)


def test_overlap_of_stabilizer_elements_is_one():
    g = loop_graph(9)
    for mask in range(512):
        s = stabilizer_element(g, [v for v in range(1, 10) if mask >> (v - 1) & 1])
        assert overlap(g, s) == 1
        assert overlap(g, mul(s, PauliOperator(9, 0, 0, 1))) == 1j


def test_overlap_matches_dense_expectation():
    g = loop_graph(9)
    s = state_vector(g)
    rng = random.Random(31)
    ops = [
        PauliOperator(9, rng.randrange(512), rng.randrange(512), rng.randrange(4))
        for _ in range(200)
    ]
    for p in ops:
        dense = inner_product(s, apply_pauli(s, p))
        assert overlap(g, p) == dense


def test_overlap_matches_dense_on_random_graphs():
    rng = random.Random(32)
    for _ in range(25):
        g = random_graph(6, rng)
        s = state_vector(g)
        for _ in range(40):
            p = PauliOperator(6, rng.randrange(64), rng.randrange(64), rng.randrange(4))
            assert overlap(g, p) == inner_product(s, apply_pauli(s, p))


# --- error reduction --------------------------------------------------------


def test_reduce_error_z_only_is_itself():
    g = loop_graph(9)
    for a in range(1, 10):
        r = reduce_error(g, z_on(9, [a]))
        assert r.pattern == frozenset({a})
        assert r.sign == 1


def test_reduce_error_x_gives_neighborhood():
    g = loop_graph(9)
    r = reduce_error(g, parse_label("X1", 9))
    assert r.pattern == frozenset({2, 9})
    assert r.sign == 1


def test_reduce_error_y_gives_closed_neighborhood():
    g = loop_graph(9)
    r = reduce_error(g, parse_label("Y4", 9))
    assert r.pattern == frozenset({3, 4, 5})
    assert r.sign == -1j  # sign fixed by the Y = iXZ convention


def test_reduce_error_pattern_is_gamma_image():
    rng = random.Random(41)
    for _ in range(30):
        g = random_graph(7, rng)
        for _ in range(20):
            e = PauliOperator(7, rng.randrange(128), rng.randrange(128), rng.randrange(4))
            r = reduce_error(g, e)
            mask = 0
            for v in r.pattern:
                mask |= 1 << (v - 1)
            # Gamma x, taken from the mul-built stabilizer element with x mask x
            assert mask == e.z ^ stabilizer_element(g, vertices_of(e.x)).z


def test_reduce_error_dense_soundness():
    # e Z_B|G> = sign * (-1)**|x-support(e) & B| * Z_S Z_B |G>, exactly
    g = loop_graph(9)
    base = state_vector(g)
    rng = random.Random(42)
    for _ in range(50):
        e = PauliOperator(9, rng.randrange(512), rng.randrange(512), rng.randrange(4))
        s, sign = reduce_error(g, e)
        for _ in range(20):
            b = [v for v in range(1, 10) if rng.random() < 0.5]
            shifted = apply_pauli(base, z_on(9, b))
            lhs = apply_pauli(shifted, e).amps
            flip = -1 if len([v for v in b if e.x >> (v - 1) & 1]) % 2 else 1
            rhs = sign * flip * apply_pauli(shifted, z_on(9, sorted(s))).amps
            assert np.array_equal(lhs, rhs)


@st.composite
def errors_and_subsets(draw):
    n = draw(st.integers(1, 8))
    pairs = itertools.combinations(range(1, n + 1), 2)
    g = Graph.from_edges(n, [e for e in pairs if draw(st.booleans())])
    masks = st.integers(0, (1 << n) - 1)
    e = PauliOperator(n, draw(masks), draw(masks), draw(st.integers(0, 3)))
    u = [a for a in range(1, n + 1) if draw(st.booleans())]
    return g, e, u


@settings(derandomize=True, deadline=None, max_examples=200)
@given(errors_and_subsets())
def test_reduce_error_is_invariant_under_the_stabilizer(case):
    # the vertex stabilizers commute and square to I, so s_U s_V = s_{U+V}
    # exactly and e s_U reduces to e's pattern with e's sign
    g, e, u = case
    assert reduce_error(g, mul(e, stabilizer_element(g, u))) == reduce_error(g, e)


def test_reduce_error_weight_guard_none():
    # reduction is defined for every Pauli, including high weight
    g = loop_graph(9)
    e = parse_label("X1 Y2 Z3 X4 Y5 Z6 X7 Y8 Z9", 9)
    r = reduce_error(g, e)
    assert isinstance(r.pattern, frozenset)

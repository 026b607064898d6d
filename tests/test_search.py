"""Forbidden differences and the clique search over candidate codewords."""

import random
import sys
import time
from itertools import combinations
from operator import itemgetter
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwskit import cli, cwscode, pauli, search
from cwskit._masks import mask_of, vertices_of
from cwskit.cwscode import error_pattern_set, kl_verify, proof_check, the_9_12_3
from cwskit.graphstate import Graph, loop_graph, reduce_error, stabilizer_element
from cwskit.pauli import enumerate_errors, mul
from cwskit.search import (
    SearchConfig,
    certify,
    compatibility_search,
    empty_pattern_present,
    forbidden_differences,
)


def test_forbidden_differences_on_the_nine_loop():
    g = loop_graph(9)
    f = forbidden_differences(g, 2)
    assert len(f) == 243
    assert frozenset() not in f
    assert not empty_pattern_present(g, 2)
    for a in range(1, 10):
        assert frozenset([a]) in f
    assert max(len(s) for s in f) == 6


def test_forbidden_differences_monotone():
    g = loop_graph(9)
    f1 = forbidden_differences(g, 1)
    f2 = forbidden_differences(g, 2)
    f3 = forbidden_differences(g, 3)
    assert f1 <= f2 <= f3


def test_config_validation():
    g = loop_graph(9)
    with pytest.raises(ValueError):
        SearchConfig(g, 1)
    # weights run to n, so the distance runs to n + 1
    SearchConfig(g, 10)
    with pytest.raises(ValueError, match="target_distance"):
        SearchConfig(g, 11)
    with pytest.raises(ValueError):
        SearchConfig(g, 3, time_budget=0.0)
    # nan <= 0 is false, so a nan budget must be rejected explicitly
    with pytest.raises(ValueError):
        SearchConfig(g, 3, time_budget=float("nan"))


# masks of the exhausted loop-9, distance-3 search; bit a-1 is vertex a
LOOP9_D3_MASKS = [0, 73, 140, 175, 197, 230, 280, 307, 337, 378, 446, 503]


def test_search_finds_a_certified_twelve_word_code():
    r = compatibility_search(SearchConfig(loop_graph(9), 3))
    assert r.size == 12
    assert r.certified
    assert r.exhausted
    assert r.size == len(r.codewords)
    assert frozenset() in r.codewords
    assert [mask_of(w, 9) for w in r.codewords] == LOOP9_D3_MASKS


def test_exhausted_search_is_reproducible():
    cfg = SearchConfig(loop_graph(9), 3)
    assert compatibility_search(cfg).codewords == compatibility_search(cfg).codewords


def test_search_candidates_agree_with_verifier():
    g = loop_graph(9)
    f = forbidden_differences(g, 2)
    r = compatibility_search(SearchConfig(g, 3))
    words = r.codewords
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            assert a ^ b not in f
    assert certify(words, g, 3)


def test_translated_code_still_certifies():
    g = loop_graph(9)
    r = compatibility_search(SearchConfig(g, 3))
    for t in (frozenset([1, 4, 7]), frozenset([2]), frozenset(range(1, 10))):
        assert certify(tuple(c ^ t for c in r.codewords), g, 3)


# a budget that ends before the rows are built returns the greedy words
def test_greedy_is_deterministic_and_certified():
    cfg = SearchConfig(loop_graph(9), 3, time_budget=1e-9)
    a = compatibility_search(cfg)
    b = compatibility_search(cfg)
    assert a.codewords == b.codewords
    assert a.size == 8
    assert a.certified
    assert not a.exhausted


def test_branch_and_bound_beats_greedy_here():
    g = loop_graph(9)
    greedy = compatibility_search(SearchConfig(g, 3, time_budget=1e-9))
    bb = compatibility_search(SearchConfig(g, 3))
    assert bb.size > greedy.size


def test_tiny_budget_reports_not_exhausted():
    g = loop_graph(9)
    r = compatibility_search(SearchConfig(g, 3, time_budget=1e-9))
    assert not r.exhausted
    assert r.size >= 8
    assert r.certified
    # the budget ends before the rows are built, leaving the greedy words
    assert [mask_of(w, 9) for w in r.codewords] == [0, 31, 70, 89, 140, 147, 202, 213]


def test_triangle_collapses_to_the_empty_word():
    g = loop_graph(3)
    assert empty_pattern_present(g, 2)
    r = compatibility_search(SearchConfig(g, 3))
    assert r.codewords == (frozenset(),)
    assert r.size == 1
    assert r.certified
    assert r.exhausted


def test_certify_matches_direct_verification():
    g = loop_graph(9)
    assert certify(the_9_12_3().codewords, g, 3)
    assert certify((frozenset(),), g, 3)
    assert not certify((frozenset(), frozenset([1])), g, 3)
    assert certify((frozenset(), frozenset([1])), g, 1)


def test_search_rejects_large_graphs():
    with pytest.raises(ValueError):
        compatibility_search(SearchConfig(loop_graph(13), 3))


def test_budget_holds_before_the_rows_are_built():
    # building and gathering the rows of loop 12 takes about 0.6 s (2 vCPU,
    # Python 3.11), more than the budget; the budget is read per row built
    # and per row gathered, so the search stops near 0.25 s
    r = compatibility_search(SearchConfig(loop_graph(12), 3, time_budget=0.25))
    assert r.elapsed < 1.0
    assert not r.exhausted
    assert r.certified


def test_budget_holds_while_the_rows_are_gathered(monkeypatch):
    # the clock expires right after the row build, so the first read in
    # the gather loop ends the search and hands back the seed itself, not
    # the sorted incumbent of a timed-out branch and bound
    g = loop_graph(9)
    forbidden = search._forbidden_masks(g, 2)
    candidates = [m for m in range(1, 1 << g.n) if m not in forbidden]
    seed = search._greedy_masks(candidates, forbidden)
    # the row build reads the clock once per candidate; the next read expires
    ticks = iter([0.0] * len(candidates) + [1.0])
    monkeypatch.setattr(search, "time", SimpleNamespace(monotonic=lambda: next(ticks)))
    chosen, exhausted = search._max_clique_masks(candidates, forbidden, seed, 0.5)
    assert chosen is seed and exhausted is False
    assert next(ticks, None) is None


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # the loop-9, distance-2 search starts from a 64-word greedy seed and
    # at once follows branches about as deep; a recursive branch and bound
    # spends one frame per branch word, so 60 frames above the caller's
    # raise RecursionError, while the loop needs the same frames at any depth
    depth, frame = 0, sys._getframe()
    while frame:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        r = compatibility_search(SearchConfig(loop_graph(9), 2, time_budget=0.5))
    finally:
        sys.setrecursionlimit(limit)
    assert r.certified
    assert r.size >= 64


def _bron_kerbosch_maximum(adjacent: dict[int, set[int]]) -> int:
    """Size of a largest clique, by Bron–Kerbosch with pivoting."""
    best = 0

    def extend(size: int, p: set[int], x: set[int]) -> None:
        nonlocal best
        if not p and not x:
            best = max(best, size)
            return
        pivot = max(p | x, key=lambda u: len(p & adjacent[u]))
        for v in list(p - adjacent[pivot]):
            extend(size + 1, p & adjacent[v], x & adjacent[v])
            p = p - {v}
            x = x | {v}

    extend(0, set(adjacent), set())
    return best


# The clique search as it stood before its rows came from translated
# bitmaps, its colour sort listed only colours that can branch and its
# branch and bound became one loop: each pair tested once against
# `forbidden`, every coloured vertex listed, one recursive call per node.
# Kept verbatim as the reference the faster search must match exactly.
def _reference_max_clique_masks(
    candidates: list[int],
    forbidden: set[int],
    seed: list[int],
    deadline: float,
) -> tuple[list[int], bool]:
    """Branch and bound over bitset adjacency, greedy coloring as the bound.

    Each pair is tested once, in mask order; branch order (compatibility
    degree descending, ties in ascending mask order) only regathers the
    bits.  A budget that ends before the rows are gathered returns the
    seed.  The run is single-threaded, so an exhausted run is
    reproducible bit for bit.
    """
    if not candidates:
        return [], True
    rows = []
    for a in candidates:
        if time.monotonic() > deadline:
            return seed, False
        # the leftmost character, the highest bit, stands for candidates[0]
        rows.append(int("".join("0" if a ^ b in forbidden else "1" for b in candidates), 2))
    # sorted is stable, so equal degrees keep the ascending mask order
    order = sorted(range(len(candidates)), key=lambda i: -rows[i].bit_count())
    words = [candidates[i] for i in order]
    gather = itemgetter(*reversed(order))
    adj = []
    for v, i in enumerate(order):
        if time.monotonic() > deadline:
            return seed, False
        # bit j stands for words[j]; a ^ a = 0 is never forbidden, so drop bit v
        adj.append(int("".join(gather(format(rows[i], f"0{len(words)}b"))), 2) ^ (1 << v))

    best = seed
    current: list[int] = []
    timed_out = False

    def color_sort(pool: int) -> tuple[list[int], list[int]]:
        sequence: list[int] = []
        bounds: list[int] = []
        color = 0
        uncolored = pool
        while uncolored:
            color += 1
            classable = uncolored
            while classable:
                low = classable & -classable
                v = low.bit_length() - 1
                sequence.append(v)
                bounds.append(color)
                classable &= ~(adj[v] | low)
                uncolored ^= low
        return sequence, bounds

    def expand(pool: int) -> None:
        nonlocal best, timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return
        sequence, bounds = color_sort(pool)
        for k in range(len(sequence) - 1, -1, -1):
            if len(current) + bounds[k] <= len(best):
                return
            v = sequence[k]
            current.append(v)
            narrowed = pool & adj[v]
            if narrowed:
                expand(narrowed)
            elif len(current) > len(best):
                best = [words[u] for u in current]
            current.pop()
            if timed_out:
                return
            pool ^= 1 << v

    expand((1 << len(words)) - 1)
    return sorted(best), not timed_out


def test_clique_search_matches_the_reference_search():
    cases = [(loop_graph(9), 3)] + [(Graph(len(rows), rows), 3) for rows, _ in NO_EMPTY_PATTERN_D3_MASKS]
    rng = random.Random(22)
    for _ in range(40):
        n = rng.randint(5, 9)
        # distance 2 above n = 6 can run for seconds, so it stays at n <= 6
        cases.append((_random_graph(rng, n, 0.5), rng.choice((2, 3)) if n <= 6 else 3))
    assert {d for g, d in cases[3:]} == {2, 3}
    # loops 5-8 at distance 2 exhaust at 6, 16, 22 and 64 words, so the
    # search unwinds through trees up to 64 levels deep
    loop_sizes = {5: 6, 6: 16, 7: 22, 8: 64}
    cases += [(loop_graph(n), 2) for n in loop_sizes]
    sizes = {}
    for g, d in cases:
        forbidden = search._forbidden_masks(g, d - 1)
        candidates = [m for m in range(1, 1 << g.n) if m not in forbidden]
        seed = search._greedy_masks(candidates, forbidden)
        deadline = time.monotonic() + 60.0
        expected = _reference_max_clique_masks(candidates, forbidden, seed, deadline)
        assert expected[1], (g, d)
        assert search._max_clique_masks(candidates, forbidden, seed, deadline) == expected, (g, d)
        sizes[g, d] = len(expected[0]) + 1
    assert {n: sizes[loop_graph(n), 2] for n in loop_sizes} == loop_sizes


def test_exhausted_search_is_a_maximum_clique():
    rng = random.Random(2007)
    exhausted = 0
    for _ in range(20):
        n = rng.randint(5, 8)
        # Bron–Kerbosch lists every maximal clique, too many for the
        # 24-word distance-2 codes at n = 7, so distance 2 stays at n <= 6
        d = rng.choice((2, 3)) if n <= 6 else 3
        pairs = combinations(range(1, n + 1), 2)
        g = Graph.from_edges(n, [e for e in pairs if rng.random() < 0.5])
        r = compatibility_search(SearchConfig(g, d, time_budget=2.0))
        if not r.exhausted:
            continue
        exhausted += 1
        f = forbidden_differences(g, d - 1)
        assert frozenset() in r.codewords
        for i, a in enumerate(r.codewords):
            for b in r.codewords[i + 1:]:
                assert a ^ b not in f
        subsets = (frozenset(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k))
        words = [w for w in subsets if w not in f]
        adjacent = {a: {b for b in words if b != a and a ^ b not in f} for a in words}
        assert r.size == _bron_kerbosch_maximum(adjacent)
    assert exhausted >= 15


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < p])


def test_forbidden_differences_match_two_word_certificates():
    # a second route to the pairwise rule: {}, m is a code at distance d
    # exactly when m is not a forbidden difference; most of these graphs
    # have an error below d that reduces to the empty pattern
    rng = random.Random(1)
    cases = [(loop_graph(3), 3), (loop_graph(4), 3)]
    for _ in range(15):
        n, d = rng.randint(4, 7), rng.choice((2, 3))
        cases.append((_random_graph(rng, n, 0.5), d))
    assert sum(empty_pattern_present(g, d - 1) for g, d in cases) >= 10
    for g, d in cases:
        f = forbidden_differences(g, d - 1)
        for m in range(1, 1 << g.n):
            w = vertices_of(m)
            assert (w in f) == (not certify((frozenset(), w), g, d)), (g, d, m)


def least_pattern_weights(g: Graph) -> dict[int, int]:
    """Least weight of an error reaching each pattern mask, by enumeration.

    The reference for the pattern walk and the empty-pattern rule.  Each
    error e reduces as in `reduce_error`, to the z mask of e times the
    stabilizer element sharing its x mask, but each element is multiplied
    out once.  It shares neither the walk nor the stabilizer table.
    """
    stab = [stabilizer_element(g, vertices_of(u)) for u in range(1 << g.n)]
    least: dict[int, int] = {}
    for d in range(1, g.n + 1):
        for e in enumerate_errors(g.n, d):
            least.setdefault(mul(e, stab[e.x]).z, d)
    return least


@st.composite
def random_graphs(draw, smallest: int = 1, largest: int = 9):
    n = draw(st.integers(smallest, largest))
    return Graph.from_edges(n, [e for e in combinations(range(1, n + 1), 2) if draw(st.booleans())])


@st.composite
def graphs_and_weights(draw):
    g = draw(random_graphs(3))
    return g, draw(st.integers(1, g.n))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(random_graphs())
def test_pattern_walk_matches_the_error_enumeration(g):
    least = least_pattern_weights(g)
    for w in range(1, g.n + 1):
        assert cwscode._pattern_masks(g, w) == {m for m, d in least.items() if m and d <= w}
        assert empty_pattern_present(g, w) == (least.get(0, w + 1) <= w)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(graphs_and_weights())
def test_empty_pattern_rule_matches_the_error_enumeration(case):
    g, w = case
    errors = (e for d in range(1, w + 1) for e in enumerate_errors(g.n, d))
    assert empty_pattern_present(g, w) == any(not reduce_error(g, e).pattern for e in errors)


@st.composite
def search_graphs(draw):
    g = draw(random_graphs(largest=12))
    if draw(st.booleans()):
        # vertex n alone: X_n reduces to no pattern and forbids every mask
        # holding n, so every candidate lies below 2**(n - 1)
        g = Graph.from_edges(g.n, [e for e in g.edges() if g.n not in e])
    return g


@settings(derandomize=True, deadline=None, max_examples=30)
@given(search_graphs())
@example(loop_graph(12))
def test_translated_rows_follow_the_pairwise_rule(g):
    for w in range(1, g.n + 1):
        forbidden = search._forbidden_masks(g, w)
        candidates = [m for m in range(1, 1 << g.n) if m not in forbidden]
        if not g.rows[-1]:
            assert max(candidates, default=0) < 1 << (g.n - 1)
        if not candidates:
            break  # the forbidden set only grows with the weight
        rows = list(search._compatible_rows(candidates))
        assert len(rows) == len(candidates)
        # the pairwise rule costs N² lookups, so above 256 candidates an
        # evenly spaced 256 of the rows are checked
        step = -(-len(rows) // 256)
        for a, row in list(zip(candidates, rows))[::step]:
            compatible = [b for b in candidates if a ^ b not in forbidden]
            # character b of the reversed binary string is bit b
            bits = format(row, f"0{1 << g.n}b")[::-1]
            assert [b for b in candidates if bits[b] == "1"] == compatible, (g, w, a)
            assert row.bit_count() == len(compatible)


@pytest.fixture
def no_error_enumeration(monkeypatch):
    def no_errors(n, d):
        raise AssertionError("errors enumerated")

    monkeypatch.setattr(pauli, "_error_masks", no_errors)
    monkeypatch.setattr(cwscode, "_error_masks", no_errors)


def test_empty_pattern_rule_enumerates_no_errors(no_error_enumeration):
    assert empty_pattern_present(loop_graph(11), 11)
    assert not empty_pattern_present(loop_graph(11), 2)
    with pytest.raises(ValueError, match="max_weight outside 1..11"):
        empty_pattern_present(loop_graph(11), 12)


def test_pattern_route_enumerates_no_errors(no_error_enumeration):
    assert len(error_pattern_set(loop_graph(12), 12)) == 4096
    for weight in (0, 13):
        with pytest.raises(ValueError, match="max_weight outside 1..12"):
            error_pattern_set(loop_graph(12), weight)
    assert len(forbidden_differences(loop_graph(11), 11)) == (1 << 11) - 1
    assert proof_check(the_9_12_3())
    assert cli.main(["patterns"]) == 0
    assert cli.main(["proofcheck"]) == 0


def test_searches_with_an_empty_pattern_certify_exhausted_or_cut():
    rng = random.Random(8)
    exhausted = cut = 0
    for _ in range(10):
        n, d = rng.randint(8, 10), rng.choice((2, 3))
        g = _random_graph(rng, n, 0.3)
        if not empty_pattern_present(g, d - 1):
            continue
        for budget in (0.05, 0.5):
            r = compatibility_search(SearchConfig(g, d, time_budget=budget))
            assert r.certified, (g, d, budget)
            exhausted += r.exhausted
            cut += budget == 0.05 and not r.exhausted
    assert exhausted >= 10
    assert cut >= 1


# exhausted words on two graphs where no error below distance 3 reduces
# to the empty pattern; bit a-1 is vertex a
NO_EMPTY_PATTERN_D3_MASKS = [
    ((212, 296, 161, 146, 105, 470, 177, 109, 34), [0, 7, 25, 30, 267, 268, 274, 277]),
    ((336, 204, 170, 54, 329, 140, 19, 38, 17),
     [0, 79, 153, 158, 212, 247, 314, 373, 386, 417, 491, 492]),
]


@pytest.mark.parametrize("rows, masks", NO_EMPTY_PATTERN_D3_MASKS)
def test_exhausted_words_without_an_empty_pattern(rows, masks):
    g = Graph(len(rows), rows)
    assert not empty_pattern_present(g, 2)
    r = compatibility_search(SearchConfig(g, 3))
    assert r.exhausted and r.certified
    assert [mask_of(w, g.n) for w in r.codewords] == masks

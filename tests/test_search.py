"""Forbidden differences and the clique search over candidate codewords."""

import pytest

from cwskit.cwscode import kl_verify, the_9_12_3
from cwskit.graphstate import loop_graph
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
    with pytest.raises(ValueError):
        SearchConfig(g, 3, strategy="anneal")
    with pytest.raises(ValueError):
        SearchConfig(g, 3, time_budget=0.0)
    # nan <= 0 is false, so a nan budget must be rejected explicitly
    with pytest.raises(ValueError):
        SearchConfig(g, 3, time_budget=float("nan"))


def test_search_finds_a_certified_twelve_word_code():
    r = compatibility_search(SearchConfig(loop_graph(9), 3))
    assert r.size == 12
    assert r.certified
    assert r.exhausted
    assert r.size == len(r.codewords)
    assert frozenset() in r.codewords


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


def test_greedy_is_deterministic_and_certified():
    cfg = SearchConfig(loop_graph(9), 3, strategy="greedy")
    a = compatibility_search(cfg)
    b = compatibility_search(cfg)
    assert a.codewords == b.codewords
    assert a.size == 8
    assert a.certified
    assert not a.exhausted


def test_branch_and_bound_beats_greedy_here():
    g = loop_graph(9)
    greedy = compatibility_search(SearchConfig(g, 3, strategy="greedy"))
    bb = compatibility_search(SearchConfig(g, 3))
    assert bb.size > greedy.size


def test_tiny_budget_reports_not_exhausted():
    r = compatibility_search(SearchConfig(loop_graph(9), 3, time_budget=1e-9))
    assert not r.exhausted
    assert r.size >= 8
    assert r.certified


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

"""Clique search for codeword sets over a fixed graph.

Two codewords can coexist at distance d exactly when their symmetric
difference passes the verifier's pairwise rule (`forbidden_differences`).
Candidate codewords therefore form a Cayley graph on the subsets of
1..n, and code search is maximum clique.  The empty word is pinned into
every clique: translating a valid set by one of its members keeps it
valid, so nothing is lost.  The patterns and the empty-pattern errors
come from `cwscode`, the one module that knows the pattern rule.

Two candidates a and b are compatible exactly when a ^ b is 0 or a
candidate, so a's bitset row is the candidate bitmap translated by a.
Branch and bound builds the rows that way, gathers them into the order it
branches in, and at each node colours the pool greedily but lists only
the colours that can still beat the incumbent (Tomita's kmin rule).  The
branch order and the incumbent rule fix the result, so an exhausted
search always returns the same words.  The time budget is read once per
row built, once per row gathered and once per node.  The forbidden set
before them lists no errors; only the closing `certify` is unbudgeted.

Found sets are never trusted: `certify` reruns the full verifier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

from ._masks import vertices_of
from .cwscode import CwsCode, _empty_pattern_xs, _pattern_masks, kl_verify
from .graphstate import Graph, _check_cap


@dataclass(frozen=True)
class SearchConfig:
    graph: Graph
    target_distance: int
    time_budget: float = 60.0

    def __post_init__(self) -> None:
        if not 2 <= self.target_distance <= self.graph.n + 1:
            raise ValueError(f"target_distance outside 2..{self.graph.n + 1}")
        if not self.time_budget > 0:  # also rejects nan
            raise ValueError("time_budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    codewords: tuple[frozenset[int], ...]
    size: int
    certified: bool
    elapsed: float
    exhausted: bool


def _forbidden_masks(g: Graph, max_weight: int) -> set[int]:
    forbidden = _pattern_masks(g, max_weight)
    xs = _empty_pattern_xs(g, max_weight)
    forbidden.update(m for m in range(1, 1 << g.n) if any((m & u).bit_count() & 1 for u in xs))
    return forbidden


def forbidden_differences(g: Graph, max_weight: int) -> frozenset[frozenset[int]]:
    """Differences no two codewords may have at distance max_weight + 1.

    These are the non-empty patterns of all errors with weight
    1..max_weight, and every set with odd overlap with the X part u of
    such an error that reduces to the empty pattern: that error is a
    stabilizer element up to phase and acts on codeword c as (-1)**|u & c|.
    This is the verifier's rule, pair by pair; `certify` stays independent.
    """
    return frozenset(vertices_of(m) for m in _forbidden_masks(g, max_weight))


def empty_pattern_present(g: Graph, max_weight: int) -> bool:
    """True when some error of weight <= max_weight reduces to no pattern at all."""
    return bool(_empty_pattern_xs(g, max_weight))


def certify(candidate: Iterable[frozenset[int]], g: Graph, d: int) -> bool:
    """Independent verdict on a found set; the search never self-certifies."""
    if d <= 1:
        return True
    return kl_verify(CwsCode(g, tuple(candidate)), d - 1).passed


def _greedy_masks(candidates: list[int], forbidden: set[int]) -> list[int]:
    # candidates ascend, so the outcome is fixed by the mask order alone
    chosen: list[int] = []
    for m in candidates:
        if all(m ^ c not in forbidden for c in chosen):
            chosen.append(m)
    return chosen


def _compatible_rows(candidates: list[int]) -> Iterator[int]:
    """Yield each candidate's row: bit b for every candidate b compatible with it.

    `candidates` must be every non-zero mask that is not forbidden, so a and
    b are compatible exactly when a ^ b is 0 or a candidate.  The row of a
    is then the candidate bitmap, with bit 0, translated by a and masked to
    the candidates.  The translation swaps blocks of 2**k bits for each set
    bit k of a, one masked swap each, on a 2**bitlen(max candidate)-bit int.
    Each row holds its own bit, since a ^ a = 0.
    """
    width = 1 << max(candidates).bit_length()
    full = (1 << width) - 1
    # for each k: 2**k, and the positions whose bit k is clear
    sizes = [1 << k for k in range(width.bit_length() - 1)]
    swaps = [(s, full // ((1 << 2 * s) - 1) * ((1 << s) - 1)) for s in sizes]
    bits = sum(1 << c for c in candidates)
    for a in candidates:
        row = bits | 1
        for s, low in swaps:
            if a & s:
                row = (row & low) << s | (row >> s) & low
        yield row & bits


def _max_clique_masks(
    candidates: list[int],
    forbidden: set[int],
    seed: list[int],
    deadline: float,
) -> tuple[list[int], bool]:
    """Branch and bound over bitset adjacency, greedy coloring as the bound.

    The rows come from `_compatible_rows`, so `candidates` must be every
    non-zero mask outside `forbidden`, in ascending order; `forbidden` itself
    is not read.  The rows are gathered into branch order: compatibility
    degree descending, ties in ascending mask order.  Each node colours its
    pool greedily and lists only the vertices whose colour could still lift
    the clique past the incumbent (Tomita's kmin rule); the others are never
    branched on.  The incumbent changes only on a strictly larger clique.
    The budget is read once per row built, once per row gathered and once
    per node; a budget that ends before the rows are gathered returns the
    seed itself.  The run is single-threaded, so an exhausted run is
    reproducible bit for bit.
    """
    if not candidates:
        return [], True
    rows = []
    for row in _compatible_rows(candidates):
        if time.monotonic() > deadline:
            return seed, False
        rows.append(row)
    # sorted is stable, so equal degrees keep the ascending mask order
    order = sorted(range(len(candidates)), key=lambda i: -rows[i].bit_count())
    words = [candidates[i] for i in order]
    # character -1 - w of a row's binary string is bit w; the first
    # character gathered, the highest bit, stands for words[-1]
    gather = itemgetter(*(-1 - w for w in reversed(words)))
    pad = f"0{max(candidates) + 1}b"
    full = (1 << len(words)) - 1
    adj = []
    rest = []
    for v, i in enumerate(order):
        if time.monotonic() > deadline:
            return seed, False
        # bit j stands for words[j]; bit v is the word itself
        row = int("".join(gather(format(rows[i], pad))), 2)
        adj.append(row ^ (1 << v))
        # what one colour class leaves classable once v joins it
        rest.append(full ^ row)

    best = seed
    current: list[int] = []
    timed_out = False

    def color_sort(pool: int, kmin: int) -> tuple[list[int], list[int]]:
        # colours up to kmin cannot lift the clique past best, so their
        # vertices are coloured but not listed
        sequence: list[int] = []
        bounds: list[int] = []
        color = 0
        uncolored = pool
        while uncolored:
            color += 1
            classable = uncolored
            if color <= kmin:
                while classable:
                    low = classable & -classable
                    classable &= rest[low.bit_length() - 1]
                    uncolored ^= low
                continue
            while classable:
                low = classable & -classable
                v = low.bit_length() - 1
                sequence.append(v)
                bounds.append(color)
                classable &= rest[v]
                uncolored ^= low
        return sequence, bounds

    def expand(pool: int) -> None:
        nonlocal best, timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return
        sequence, bounds = color_sort(pool, len(best) - len(current))
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

    expand(full)
    return sorted(best), not timed_out


def compatibility_search(cfg: SearchConfig) -> SearchResult:
    """Search for the largest codeword set at the configured distance.

    The greedy pass seeds the branch-and-bound incumbent.  `exhausted` is
    true only when the whole space was explored.
    """
    g = cfg.graph
    _check_cap(g.n, "search", "search")
    start = time.monotonic()
    deadline = start + cfg.time_budget
    forbidden = _forbidden_masks(g, cfg.target_distance - 1)
    candidates = [m for m in range(1, 1 << g.n) if m not in forbidden]
    seed = _greedy_masks(candidates, forbidden)
    chosen, exhausted = _max_clique_masks(candidates, forbidden, seed, deadline)
    codewords = tuple(vertices_of(m) for m in sorted((0, *chosen)))
    certified = certify(codewords, g, cfg.target_distance)
    return SearchResult(
        codewords=codewords,
        size=len(codewords),
        certified=certified,
        elapsed=time.monotonic() - start,
        exhausted=exhausted,
    )

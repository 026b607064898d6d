"""Clique search for codeword sets over a fixed graph.

Two codewords can coexist at distance d exactly when their symmetric
difference is not a phase-flip pattern reachable by an error of weight
below d.  Candidate codewords therefore form a Cayley graph on the
subsets of 1..n, and code search is maximum clique.  The empty word is
pinned into every clique: translating a valid set by one of its members
keeps it valid, so nothing is lost.

Branch and bound builds its bitset rows once, already in the one vertex
order it branches in.  The time budget is read in every phase: the
degree count, the row build and each search node.

Found sets are never trusted: `certify` reruns the full verifier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from ._masks import vertices_of
from .cwscode import CwsCode, _pattern_masks, kl_verify
from .graphstate import Graph, _check_cap


@dataclass(frozen=True)
class SearchConfig:
    graph: Graph
    target_distance: int
    time_budget: float = 60.0
    strategy: str = "bb"

    def __post_init__(self) -> None:
        if self.target_distance < 2:
            raise ValueError("target_distance must be at least 2")
        if self.strategy not in ("bb", "greedy"):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not self.time_budget > 0:  # also rejects nan
            raise ValueError("time_budget must be positive")


@dataclass(frozen=True)
class SearchResult:
    codewords: tuple[frozenset[int], ...]
    size: int
    certified: bool
    elapsed: float
    exhausted: bool


def forbidden_differences(g: Graph, max_weight: int) -> frozenset[frozenset[int]]:
    """Patterns of all errors with weight 1..max_weight, empty set removed.

    The empty pattern is not a usable difference (codewords are distinct)
    and is reported through `empty_pattern_present` instead.  An error e
    that reduces to it is not a scalar on the code: it acts on codeword c
    as (-1)**|x(e) & c| times one fixed phase, x(e) being its X part.  The
    clique does not constrain that sign, so such a search can exhaust
    with a set that `certify` rejects.
    """
    return frozenset(vertices_of(m) for m in _pattern_masks(g, max_weight) if m)


def empty_pattern_present(g: Graph, max_weight: int) -> bool:
    """True when some error of weight <= max_weight reduces to no pattern at all."""
    return 0 in _pattern_masks(g, max_weight)


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


def _max_clique_masks(
    candidates: list[int],
    forbidden: set[int],
    seed: list[int],
    deadline: float,
) -> tuple[list[int], bool]:
    """Branch and bound over bitset adjacency, greedy coloring as the bound.

    Branch order is compatibility degree descending, ties in ascending
    mask order; a budget that ends before the rows are built returns the
    seed.  The run is single-threaded, so an exhausted run is reproducible
    bit for bit.
    """
    if not candidates:
        return [], True
    degrees = []
    for a in candidates:
        if time.monotonic() > deadline:
            return seed, False
        degrees.append(sum(a ^ b not in forbidden for b in candidates))
    # sorted is stable, so equal degrees keep the ascending mask order
    order = sorted(range(len(candidates)), key=lambda i: -degrees[i])
    words = [candidates[i] for i in order]
    adj = []
    for v, a in enumerate(words):
        if time.monotonic() > deadline:
            return seed, False
        # bit j stands for words[j]; a ^ a = 0 is never forbidden, so drop bit v
        bits = "".join("0" if a ^ b in forbidden else "1" for b in reversed(words))
        adj.append(int(bits, 2) ^ (1 << v))

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


def compatibility_search(cfg: SearchConfig) -> SearchResult:
    """Search for the largest codeword set at the configured distance.

    The greedy pass always runs and seeds the branch-and-bound incumbent;
    strategy "greedy" stops there.  `exhausted` is true only when the
    whole space was explored, never for greedy results.
    """
    g = cfg.graph
    _check_cap(g.n, "search", "search")
    start = time.monotonic()
    deadline = start + cfg.time_budget
    forbidden = _pattern_masks(g, cfg.target_distance - 1)
    forbidden.discard(0)
    candidates = [m for m in range(1, 1 << g.n) if m not in forbidden]

    chosen = _greedy_masks(candidates, forbidden)
    exhausted = False
    if cfg.strategy == "bb":
        chosen, exhausted = _max_clique_masks(candidates, forbidden, chosen, deadline)

    codewords = tuple(vertices_of(m) for m in sorted((0, *chosen)))
    certified = certify(codewords, g, cfg.target_distance)
    return SearchResult(
        codewords=codewords,
        size=len(codewords),
        certified=certified,
        elapsed=time.monotonic() - start,
        exhausted=exhausted,
    )

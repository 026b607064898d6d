"""Clique search for codeword sets over a fixed graph.

Two codewords can coexist at distance d exactly when their symmetric
difference is not a phase-flip pattern reachable by an error of weight
below d.  Candidate codewords therefore form a Cayley graph on the
subsets of 1..n, and code search is maximum clique.  The empty word is
pinned into every clique: translating a valid set by one of its members
keeps it valid, so nothing is lost.

Found sets are never trusted: `certify` reruns the full verifier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from ._masks import vertices_of
from .cwscode import CwsCode, _pattern_masks, kl_verify
from .graphstate import Graph

_TIME_CHECK_NODES = 2048


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
    and is reported through `empty_pattern_present` instead, since an
    error that reduces to it acts as a scalar on every candidate code.
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

    Vertices are renumbered by compatibility degree descending before the
    search, and the run is single-threaded, so an exhausted run is
    reproducible bit for bit.
    """
    count = len(candidates)
    if count == 0:
        return [], True
    adjacency = [0] * count
    for i, a in enumerate(candidates):
        for j in range(i + 1, count):
            if a ^ candidates[j] not in forbidden:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    order = sorted(range(count), key=lambda i: (-adjacency[i].bit_count(), i))
    rank = [0] * count
    for new, old in enumerate(order):
        rank[old] = new
    adj = [0] * count
    for old in range(count):
        remaining = adjacency[old]
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            adj[rank[old]] |= 1 << rank[low.bit_length() - 1]

    position = {m: i for i, m in enumerate(candidates)}
    best = [rank[position[m]] for m in seed]
    current: list[int] = []
    nodes = 0
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
        nonlocal best, nodes, timed_out
        nodes += 1
        if nodes % _TIME_CHECK_NODES == 0 and time.monotonic() > deadline:
            timed_out = True
        if timed_out:
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
                best = current.copy()
            current.pop()
            if timed_out:
                return
            pool ^= 1 << v

    expand((1 << count) - 1)
    return sorted(candidates[order[v]] for v in best), not timed_out


def compatibility_search(cfg: SearchConfig) -> SearchResult:
    """Search for the largest codeword set at the configured distance.

    The greedy pass always runs and seeds the branch-and-bound incumbent;
    strategy "greedy" stops there.  `exhausted` is true only when the
    whole space was explored, never for greedy results.
    """
    g = cfg.graph
    if g.n > 12:
        raise ValueError("search limited to 12 vertices")
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

"""Seeded inputs for the three benchmark workloads.

`generate(workload, seed, workdir)` writes the graph and code files the
program reads, a `jobs.json` the measuring process runs, and `why.txt`
saying why the workload exists.  It returns the same jobs together with
the plain data (vertex count, edges, codeword masks) that the reference
checks use, so the references never go through the program's parsers.
The same seed always gives the same files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from oracle import PAPER_CODEWORDS, loop_edges, mask

WHY = {
    "paper": (
        "The headline ((9,12,3)) reproduction, cwskit paper-demo in-process; about 90% "
        "of a job is operatoralg (sum_mul(P, P) and the brute enumerator), so a change "
        "there shows here and nowhere else."
    ),
    "screen": (
        "Short verify (weights 2-4) and distance jobs through the CLI on seeded code "
        "files: images of the builtin code, which pass weight 2, and random codes on "
        "random graphs with n = 8-10.  The KL scan (cwscode, graphstate, pauli) does "
        "almost all the work, the per-call costs of cli and files and the per-code "
        "cache misses are in view, and operatoralg does nothing."
    ),
    "search": (
        "compatibility_search with a fixed per-job budget on loop 9 and seeded random "
        "graphs with n = 8-10 at distance 2 and 3, from about 1 ms to well past the "
        "budget; search (adjacency build, greedy, branch and bound) does almost all the "
        "work, with a little KL scanning through certify."
    ),
}

# Seconds each search job may run before it reports exhausted=False.
SEARCH_BUDGET = 0.25

# Distinct jobs per pool; the measuring process cycles through the pool.
SCREEN_ROUNDS = 32
SEARCH_ROUNDS = 32

# One screen round: three jobs on builtin images, five on random codes; the
# random codes step through n = 8-10 and 2-8 codewords, so every run has
# the same mix of sizes.
SCREEN_ROUND = [("paper", "verify", 2), ("paper", "verify", 3), ("paper", "distance", 4),
                ("random", "verify", 2), ("random", "verify", 3), ("random", "verify", 4),
                ("random", "distance", 4), ("random", "verify", 3)]

# One search round: loop 9 twice, then random graphs (n, d) from about 1 ms
# (n = 8, d = 3) to always past the budget.  About a third of the jobs are
# faster than loop 9 and a half slower, so the median job is a loop-9-sized
# search rather than a point between two far-apart clusters, which would
# move with every seed.
SEARCH_SHAPES = [(8, 3), (9, 3), (9, 3), (9, 3), (9, 3), (8, 2)]
SEARCH_PAST_BUDGET = [(9, 2), (10, 3)]


def _graph_text(n: int, edges) -> str:
    return "\n".join([f"n {n}", *(f"{a} {b}" for a, b in edges)]) + "\n"


def _code_text(graph_ref: str, words) -> str:
    lines = [f"graph {graph_ref}"]
    for w in words:
        labels = [str(v + 1) for v in range(w.bit_length()) if w >> v & 1]
        lines.append(",".join(labels) if labels else "-")
    return "\n".join(lines) + "\n"


def _random_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < 0.5]


def _paper_image(rng: random.Random, first: bool) -> list[int]:
    """The builtin codewords, or their image under a loop symmetry and a translation."""
    words = [mask(c) for c in PAPER_CODEWORDS]
    if first:
        return words
    shift = rng.randrange(9)
    flip = rng.random() < 0.5

    def image(v: int) -> int:
        w = (v - 1 + shift) % 9
        return (-w) % 9 + 1 if flip else w + 1

    words = [mask(image(v) for v in range(1, 10) if c >> (v - 1) & 1) for c in words]
    t = rng.randrange(1 << 9)
    return [c ^ t for c in words]


def _random_code(rng: random.Random, n: int, k: int) -> tuple[list, list[int]]:
    edges = _random_graph(rng, n)
    words: list[int] = []
    while len(words) < k:
        w = rng.randrange(1 << n)
        if w not in words:
            words.append(w)
    return edges, words


def _screen(rng: random.Random, workdir: Path) -> list[dict]:
    (workdir / "loop9.graph").write_text(_graph_text(9, loop_edges(9)))
    jobs = []
    for r in range(SCREEN_ROUNDS):
        for family, command, weight in SCREEN_ROUND:
            name = f"c{len(jobs):04d}"
            if family == "paper":
                n, edges = 9, loop_edges(9)
                words = _paper_image(rng, first=not jobs)
                ref = "loop9.graph" if rng.random() < 0.5 else "builtin:loop9"
            else:
                n, k = 8 + len(jobs) % 3, 2 + len(jobs) // 3 % 7
                edges, words = _random_code(rng, n, k)
                ref = f"{name}.graph"
                (workdir / ref).write_text(_graph_text(n, edges))
            path = workdir / f"{name}.code"
            path.write_text(_code_text(ref, words))
            flag = "--weight" if command == "verify" else "--max"
            jobs.append({
                "argv": [command, "--code", str(path), flag, str(weight)],
                "file": str(path),
                "command": command,
                "weight": weight,
                "n": n,
                "edges": edges,
                "codewords": words,
            })
    return jobs


def _search(rng: random.Random, workdir: Path) -> list[dict]:
    (workdir / "loop9.graph").write_text(_graph_text(9, loop_edges(9)))
    jobs = []
    for r in range(SEARCH_ROUNDS):
        for _ in range(2):
            jobs.append({"file": str(workdir / "loop9.graph"), "distance": 3,
                         "n": 9, "edges": loop_edges(9), "loop": True})
        for n, d in [*SEARCH_SHAPES, SEARCH_PAST_BUDGET[r % len(SEARCH_PAST_BUDGET)]]:
            path = workdir / f"g{len(jobs):04d}.graph"
            edges = _random_graph(rng, n)
            path.write_text(_graph_text(n, edges))
            jobs.append({"file": str(path), "distance": d, "n": n, "edges": edges,
                         "loop": False})
    for job in jobs:
        job["budget"] = SEARCH_BUDGET
    return jobs


def generate(workload: str, seed: int, workdir: Path) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "why.txt").write_text(WHY[workload] + "\n")
    if workload == "paper":
        jobs, round_size = [{"argv": ["paper-demo"]}], 1
    elif workload == "screen":
        jobs, round_size = _screen(rng, workdir), len(SCREEN_ROUND)
    else:
        jobs, round_size = _search(rng, workdir), 2 + len(SEARCH_SHAPES) + 1
    spec = {"workload": workload, "round": round_size, "jobs": jobs}
    (workdir / "jobs.json").write_text(json.dumps(spec))
    return jobs

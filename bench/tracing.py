"""Spans around cwskit's public functions, recorded from outside the package.

`install(tracer, cwskit)` prepares wrappers, which time each call, for
functions in the module namespaces that call them (for example
`cwskit.cwscode.matrix_element`, which the KL scan looks up as a global);
the returned `Patches` switches them in and out between jobs.  A span is
(id, name, start, end, parent id, job id); spans stay in memory and are
written out once the run ends.  A few private helpers are wrapped only to
count work where no public function exposes it: errors scanned by the KL
loop, and search candidates.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.job = -1
        self.spans: list[tuple] = []
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def call(self, name: str, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            self.spans.append((span_id, name, start, end, parent, self.job))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class Patches:
    """Module attributes with a traced replacement each."""

    def __init__(self) -> None:
        self._items: list[tuple] = []

    def add(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        self._items.append((module, attr, original, make(original)))

    def enable(self, on: bool) -> None:
        for module, attr, original, traced in self._items:
            setattr(module, attr, traced if on else original)


def install(tracer: Tracer, cwskit) -> Patches:
    patches = Patches()
    cli, cwscode, files = cwskit.cli, cwskit.cwscode, cwskit.files
    operatoralg, search = cwskit.operatoralg, cwskit.search

    def traced(name):
        return lambda fn: tracer.wrap(name, fn)

    for module in (cli, search):
        patches.add(module, "kl_verify", traced("cwscode.kl_verify"))
    patches.add(cli, "distance", traced("cwscode.distance"))
    patches.add(cli, "proof_check", traced("cwscode.proof_check"))
    patches.add(cwscode, "matrix_element", traced("cwscode.matrix_element"))
    patches.add(cwscode, "overlap", traced("graphstate.overlap"))
    patches.add(cli, "load_code", traced("files.load_code"))
    for module in (cli, files):
        patches.add(module, "resolve_graph_reference", traced("files.resolve_graph_reference"))
    patches.add(cli, "build_projector", traced("operatoralg.build_projector"))
    for module in (cli, operatoralg):
        patches.add(module, "projector_from_codewords", traced("operatoralg.projector_from_codewords"))
    patches.add(search, "certify", traced("search.certify"))

    def enumerate_errors(fn):
        def eager(n, d):
            # every caller lists or loops over the errors once, so listing
            # them here times the enumerator alone
            errors = tracer.call("pauli.enumerate_errors", lambda: list(fn(n, d)))
            tracer.counts["pauli.errors"] += len(errors)
            return iter(errors)

        return eager

    for module in (cwscode, operatoralg):
        patches.add(module, "enumerate_errors", enumerate_errors)

    def sum_mul(fn):
        def counted(x, y):
            tracer.counts["operatoralg.sum_mul.term_pairs"] += len(x.terms) * len(y.terms)
            return tracer.call("operatoralg.sum_mul", fn, x, y)

        return counted

    for module in (cli, operatoralg):
        patches.add(module, "sum_mul", sum_mul)

    def weight_enumerator(fn):
        def by_method(code, method="fast", **kwargs):
            return tracer.call(f"operatoralg.weight_enumerator.{method}", fn, code, method, **kwargs)

        return by_method

    patches.add(cli, "weight_enumerator", weight_enumerator)

    def scan_errors(fn):
        def counted(code, errors, collect):
            violations, pure = fn(code, errors, collect)
            # without collect the scan stops at its first violation
            scanned = len(errors)
            if violations and not collect:
                scanned = errors.index(violations[-1].error) + 1
            tracer.counts["cwscode.errors_scanned"] += scanned
            tracer.counts["cwscode.violations"] += len(violations)
            return violations, pure

        return counted

    patches.add(cwscode, "_scan_errors", scan_errors)

    def greedy(fn):
        def counted(candidates, forbidden):
            tracer.counts["search.candidates"] += len(candidates)
            return fn(candidates, forbidden)

        return counted

    def clique(fn):
        def counted(candidates, forbidden, seed, deadline):
            count = len(candidates)
            tracer.counts["search.adjacency_pairs"] += count * (count - 1) // 2
            return fn(candidates, forbidden, seed, deadline)

        return counted

    patches.add(search, "_greedy_masks", greedy)
    patches.add(search, "_max_clique_masks", clique)
    return patches

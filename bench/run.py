"""cwskit benchmark: paper, screen and search workloads.

    python3 bench/run.py --workload paper|screen|search --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The inputs are made from the seed in
bench/_work/<workload>/, one client runs jobs in a closed loop in
a separate measuring process (bench/measure.py), and every verdict is
checked here against the dense numpy reference in bench/oracle.py, which
shares no code with cwskit.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the per-layer ones from a
run where every other round of jobs is traced, with the tracing overhead
measured as traced against untraced rounds.  Lines before it print every
metric by name and unit, the tail latency and error rate, and the
environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracle import PAPER_DISTANCE, PAPER_ENUMERATOR, GraphOracle, paper_self_check
from workloads import WHY, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = HERE / "measure.py"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 5
# Violations the CLI lists before capping (kl_verify's default cap).
VIOLATION_CAP = 1000
# Size of an exhausted distance-3 search on the 9-vertex loop.
LOOP9_CODE_SIZE = 12
# Percentiles below this are not a tail; fewer jobs leave it unreported.
TAIL_MIN_PERCENTILE = 90

# name, unit, and the traced run's (table, key) it reads; each is divided by the traced jobs
PER_LAYER = [
    ("operatoralg.sum_mul.s", "s/job", ("total_s", "operatoralg.sum_mul")),
    ("operatoralg.sum_mul.term_pairs", "count/job", ("counts", "operatoralg.sum_mul.term_pairs")),
    ("operatoralg.weight_enumerator.brute_self_s", "s/job",
     ("self_s", "operatoralg.weight_enumerator.brute")),
    ("operatoralg.weight_enumerator.fast_s", "s/job",
     ("total_s", "operatoralg.weight_enumerator.fast")),
    ("operatoralg.build_projector.self_s", "s/job", ("self_s", "operatoralg.build_projector")),
    ("operatoralg.projector_from_codewords.s", "s/job",
     ("total_s", "operatoralg.projector_from_codewords")),
    ("pauli.enumerate_errors.s", "s/job", ("total_s", "pauli.enumerate_errors")),
    ("pauli.errors", "count/job", ("counts", "pauli.errors")),
    ("cwscode.kl_verify.self_s", "s/job", ("self_s", "cwscode.kl_verify")),
    ("cwscode.kl_verify.calls", "count/job", ("calls", "cwscode.kl_verify")),
    ("cwscode.errors_scanned", "count/job", ("counts", "cwscode.errors_scanned")),
    ("cwscode.violations", "count/job", ("counts", "cwscode.violations")),
    ("cwscode.distance.self_s", "s/job", ("self_s", "cwscode.distance")),
    ("cwscode.matrix_element.self_s", "s/job", ("self_s", "cwscode.matrix_element")),
    ("cwscode.matrix_element.calls", "count/job", ("calls", "cwscode.matrix_element")),
    ("cwscode.proof_check.s", "s/job", ("total_s", "cwscode.proof_check")),
    ("graphstate.overlap.s", "s/job", ("total_s", "graphstate.overlap")),
    ("graphstate.overlap.calls", "count/job", ("calls", "graphstate.overlap")),
    ("cli.main.self_s", "s/job", ("self_s", "cli.main")),
    ("files.load_code.s", "s/job", ("total_s", "files.load_code")),
    ("files.load_code.calls", "count/job", ("calls", "files.load_code")),
    ("files.resolve_graph_reference.calls", "count/job",
     ("calls", "files.resolve_graph_reference")),
    ("search.compatibility_search.self_s", "s/job", ("self_s", "search.compatibility_search")),
    ("search.certify.s", "s/job", ("total_s", "search.certify")),
    ("search.candidates", "count/job", ("counts", "search.candidates")),
    ("search.adjacency_pairs", "count/job", ("counts", "search.adjacency_pairs")),
]


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            commit = out.stdout.strip()
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        sources.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def measure(workdir: Path, seconds: float, trace: bool) -> dict:
    result_path = workdir / "measured.json"
    subprocess.run(
        [sys.executable, str(MEASURE), "run", str(workdir), repr(seconds),
         "1" if trace else "0", str(result_path)],
        cwd=ROOT, stdout=sys.stderr, check=True, timeout=seconds + 120,
    )
    return json.loads(result_path.read_text())


def setup_seconds(workdir: Path) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(MEASURE), "setup", str(workdir)],
                       cwd=ROOT, stdout=sys.stderr, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Checking verdicts against the reference


def check_paper(verdict: dict) -> str | None:
    payload = verdict.get("payload")
    if verdict["exit"] != 0 or not payload or not payload["passed"]:
        return f"paper-demo did not pass: {verdict}"
    checks = payload["checks"]
    if len(checks) != 5 or not all(c["passed"] for c in checks):
        return f"paper-demo checks: {checks}"
    if checks[1]["detail"] != f"first failing weight: {PAPER_DISTANCE}":
        return f"distance detail: {checks[1]['detail']}"
    if checks[4]["detail"] != f"A = {list(PAPER_ENUMERATOR)}":
        return f"enumerator detail: {checks[4]['detail']}"
    return None


def check_screen(job: dict, verdict: dict, oracle: GraphOracle) -> str | None:
    if job["command"] == "verify":
        want = oracle.verify(job["codewords"], job["weight"])
        count = want["violations"]
        expected = {
            "exit": 0 if want["passed"] else 1,
            "passed": want["passed"],
            "pure": want["pure"],
            "checked_weight": job["weight"],
            "violations": count,
            "violations_capped": count > VIOLATION_CAP,
            "listed": min(count, VIOLATION_CAP),
        }
    else:
        found = oracle.distance(job["codewords"], job["weight"])
        expected = {
            "exit": 0,
            "distance": found and found[0],
            "checked_weight": job["weight"],
            "violations": found and found[1],
            "listed": min(found[1], VIOLATION_CAP) if found else 0,
        }
    wrong = {k: (verdict.get(k), v) for k, v in expected.items() if verdict.get(k) != v}
    return f"{job['file']} {job['command']}: (got, want) {wrong}" if wrong else None


def check_search(job: dict, verdict: dict, oracle: GraphOracle) -> str | None:
    words = verdict["codewords"]
    n, d = job["n"], job["distance"]
    if verdict["size"] != len(words) or len(set(words)) != len(words):
        return f"{job['file']}: size {verdict['size']} for {len(words)} codewords"
    if 0 not in words or not all(0 <= w < 1 << n for w in words):
        return f"{job['file']}: codewords {words} must hold the empty word, within {n} bits"
    scans = [oracle.scan(words, w) for w in range(1, d)]
    if any(s["off"] for s in scans):
        return f"{job['file']}: two codewords differ by a pattern of weight < {d}"
    passed = not any(s["diag"] for s in scans)
    if verdict["certified"] != passed:
        return f"{job['file']}: certified={verdict['certified']}, reference says {passed}"
    if job["loop"] and verdict["exhausted"] and verdict["size"] != LOOP9_CODE_SIZE:
        return f"{job['file']}: exhausted loop 9 search found {verdict['size']} codewords"
    return None


class Checker:
    """Judges each record; builds one reference per distinct job, lazily."""

    def __init__(self, workload: str, jobs: list[dict]) -> None:
        self.workload = workload
        self.jobs = jobs
        self.oracles: dict[int, GraphOracle] = {}
        self.verdicts: dict[tuple, str | None] = {}
        self.exhausted: dict[int, list] = {}

    def oracle(self, index: int) -> GraphOracle:
        if index not in self.oracles:
            job = self.jobs[index]
            self.oracles[index] = GraphOracle(job["n"], job["edges"])
        return self.oracles[index]

    def judge(self, record: dict) -> str | None:
        if record["error"]:
            return record["error"]
        index, verdict = record["job"], record["verdict"]
        if self.workload == "paper":
            return check_paper(verdict)
        if self.workload == "search":
            if verdict["exhausted"]:
                # an exhausted search is deterministic, so repeats must agree
                first = self.exhausted.setdefault(index, verdict["codewords"])
                if first != verdict["codewords"]:
                    return f"{self.jobs[index]['file']}: exhausted searches disagree"
            verdict = {k: v for k, v in verdict.items() if k != "elapsed"}
        key = (index, json.dumps(verdict, sort_keys=True))
        if key not in self.verdicts:
            check = check_search if self.workload == "search" else check_screen
            self.verdicts[key] = check(self.jobs[index], verdict, self.oracle(index))
        return self.verdicts[key]


# ---------------------------------------------------------------------------
# Metrics


def tail(times: list[float]) -> tuple[int, float] | None:
    """(q, q-th percentile) for the highest q with at least ten jobs beyond it."""
    n = len(times)
    if n <= 10:
        return None
    q = math.floor(100 * (n - 10) / n)
    if q < TAIL_MIN_PERCENTILE:
        return None
    return q, sorted(times)[math.ceil(q * n / 100) - 1]


def end_to_end(workload: str, result: dict, failures: list, setup_s: float) -> dict:
    records = result["records"]
    times = [r["seconds"] for r in records]
    ok = sum(1 for f in failures if f is None)
    if workload == "search":
        decided = sum(1 for r, f in zip(records, failures) if f is None and r["verdict"]["exhausted"])
    else:
        decided = ok  # no budget: every job that returns a correct verdict has decided
    return {
        "verdicts_per_s": (ok / result["wall_seconds"], "1/s"),
        "verdict_s_p50": (statistics.median(times), "s"),
        "decided_frac": (decided / len(records), "frac"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def overhead(records: list[dict]) -> float:
    """Traced over untraced seconds, on each untraced round and the traced one after it."""
    blocks: dict[int, list[float]] = {}
    for r in records:
        blocks.setdefault(r["block"], []).append(r["seconds"])
    size = len(blocks[0])
    pairs = [(sum(blocks[b]), sum(blocks[b + 1]))
             for b in range(0, len(blocks) - 1, 2) if len(blocks[b + 1]) == size]
    if not pairs:
        fail("the run was too short for one untraced and one traced round")
    return sum(t for _, t in pairs) / sum(u for u, _ in pairs)


def per_layer(workload: str, result: dict, checker: Checker) -> dict:
    trace = result["trace"]
    records = [r for r in result["records"] if r["traced"]]
    jobs = len(records)
    metrics = {}
    for name, unit, (table, key) in PER_LAYER:
        metrics[name] = (trace[table].get(key, 0) / jobs, unit)
    certified = empty = 0
    overshoot = []
    if workload == "search":
        for r in records:
            job = checker.jobs[r["job"]]
            certified += r["verdict"]["certified"]
            empty += checker.oracle(r["job"]).empty_pattern(job["distance"] - 1)
            if not r["verdict"]["exhausted"]:
                overshoot.append(r["verdict"]["elapsed"] - job["budget"])
    metrics["search.certified_frac"] = (certified / jobs if workload == "search" else 0.0, "frac")
    metrics["search.empty_pattern_jobs"] = (empty, "count")
    metrics["search.overshoot_s"] = (statistics.median(overshoot) if overshoot else 0.0, "s")
    metrics["trace.overhead_ratio"] = (overhead(result["records"]), "ratio")
    metrics["trace.jobs"] = (jobs, "count")
    return metrics


def search_summary(result: dict, checker: Checker) -> str:
    """The uncertified exhausted distance-3 searches on random graphs, and why."""
    seen = {}
    for r in result["records"]:
        job = checker.jobs[r["job"]]
        if r["verdict"] and r["verdict"]["exhausted"] and job["distance"] == 3 and not job["loop"]:
            seen[r["job"]] = r["verdict"]["certified"]
    uncertified = [i for i, ok in seen.items() if not ok]
    empty = sum(checker.oracle(i).empty_pattern(2) for i in uncertified)
    return (f"exhausted distance-3 searches on random graphs: {len(seen)}, uncertified: "
            f"{len(uncertified)}, of which on graphs with an empty pattern: {empty}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WHY), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "cwskit" / "__init__.py").is_file():
        fail(f"no cwskit sources under {ROOT / 'src'}; run from a full checkout")

    # each run replaces the previous run's inputs and results for its workload
    workdir = HERE / "_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    print(f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env: {json.dumps(env)}")
    print(f"why: {WHY[args.workload]}")

    problems = paper_self_check()
    if problems:
        fail(f"the reference disagrees with the paper constants: {problems}")
    jobs = generate(args.workload, args.seed, workdir)
    checker = Checker(args.workload, jobs)

    result = measure(workdir, args.seconds, trace=bool(args.trace))
    failures = [checker.judge(r) for r in result["records"]]
    attempted = len(failures)
    failed = sum(1 for f in failures if f is not None)
    for f in [f for f in failures if f][:5]:
        print(f"FAILED: {f}")

    if args.trace:
        metrics = per_layer(args.workload, result, checker)
    else:
        metrics = end_to_end(args.workload, result, failures, setup_seconds(workdir))
        times = [r["seconds"] for r in result["records"]]
        t = tail(times)
        if t:
            print(f"verdict_s_tail {t[1]:.6g} s (p{t[0]} of {len(times)} jobs)")
        else:
            print(f"verdict_s_tail not reported: {len(times)} jobs leave no percentile "
                  f"from p{TAIL_MIN_PERCENTILE} up with ten jobs beyond it")
        print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} jobs)")
    if args.workload == "search":
        print(search_summary(result, checker))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (workdir / "result.json").write_text(
        json.dumps({"env": env, "seed": args.seed, **summary}, indent=1))
    print(json.dumps(summary))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        fail(str(exc))

"""The measuring process: one client running jobs in a closed loop.

    python3 bench/measure.py setup <workdir>
    python3 bench/measure.py run <workdir> <seconds> <trace 0|1> <result.json>

`setup` only imports cwskit and loads the workload's inputs through the
package's loaders; `run.py` times it as a fresh interpreter.  `run`
loads the same inputs, runs one untimed warm-up job, then sends jobs from
the pool one after another, each only once the previous verdict is back,
until the time is up.  It writes each job's time and the verdict fields
the references check, plus its own peak RSS.  With trace 1 every other
block of jobs (one round of the pool's job mix) runs traced, so traced
and untraced jobs share the machine's speed swings, and the per-layer
totals and the spans are written too.  It never judges a verdict itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_cwskit():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import cwskit
    import cwskit.cli

    expected = (src / "cwskit" / "__init__.py").resolve()
    if Path(cwskit.__file__).resolve() != expected:
        raise SystemExit(f"cwskit imported from {cwskit.__file__}, not {expected}")
    return cwskit


def load_inputs(cwskit, workload: str, jobs: list[dict]) -> list:
    """What each job runs on, read through the package's loaders."""
    if workload == "paper":
        return [cwskit.the_9_12_3()]
    if workload == "screen":
        return [cwskit.load_code(job["file"]) for job in jobs]
    return [cwskit.load_graph(job["file"]) for job in jobs]


def peak_rss_mb() -> float:
    """This process's own peak RSS.

    VmHWM belongs to the process image, while ru_maxrss also carries the
    peak of the parent that spawned this interpreter.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _cli_job(main, argv: list[str]) -> tuple[int, dict | None]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    return code, json.loads(text) if text else None


def _cli_verdict(workload: str, code: int, report: dict | None) -> dict:
    if report is None:
        return {"exit": code}
    payload = report["payload"]
    if workload == "paper":
        return {"exit": code, "payload": payload}
    verdict = {key: payload.get(key) for key in
               ("passed", "pure", "checked_weight", "violations_capped", "distance")}
    verdict.update(exit=code, listed=len(payload["violations"]),
                   violations=payload["counts"].get("violations"))
    return verdict


def _search_verdict(result) -> dict:
    return {
        "codewords": sorted(sum(1 << (v - 1) for v in c) for c in result.codewords),
        "size": result.size,
        "certified": result.certified,
        "exhausted": result.exhausted,
        "elapsed": result.elapsed,
    }


def run(workdir: Path, seconds: float, trace: bool, result_path: Path) -> None:
    cwskit = import_cwskit()
    spec = json.loads((workdir / "jobs.json").read_text())
    workload, jobs = spec["workload"], spec["jobs"]
    inputs = load_inputs(cwskit, workload, jobs)

    # one short untimed, untraced job on the builtin code fills the caches
    # that every job shares
    main, search = cwskit.cli.main, cwskit.search.compatibility_search
    if workload == "search":
        search(cwskit.SearchConfig(cwskit.loop_graph(9), 3))
    else:
        _cli_job(main, ["verify", "--weight", "2"])

    tracer = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        patches = install(tracer, cwskit)
        traced_main = tracer.wrap("cli.main", main)
        traced_search = tracer.wrap("search.compatibility_search", search)

    def run_job(index: int, traced: bool) -> dict:
        job = jobs[index]
        if workload == "search":
            cfg = cwskit.SearchConfig(graph=inputs[index], target_distance=job["distance"],
                                      time_budget=job["budget"])
            return _search_verdict((traced_search if traced else search)(cfg))
        return _cli_verdict(workload, *_cli_job(traced_main if traced else main, job["argv"]))

    records = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while time.perf_counter() < deadline:
        job = index % len(jobs)
        block = index // spec["round"]
        traced = bool(tracer) and block % 2 == 1
        if tracer:
            tracer.job = index
            patches.enable(traced)
        t0 = time.perf_counter()
        try:
            verdict = run_job(job, traced)
            error = None
        except Exception as exc:  # a job that raises is counted as failed, not fatal
            verdict, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        records.append({"job": job, "seconds": t1 - t0, "verdict": verdict, "error": error,
                        "block": block, "traced": traced})
        index += 1
    wall = time.perf_counter() - start
    if tracer:
        patches.enable(False)

    result = {
        "workload": workload,
        "wall_seconds": wall,
        "peak_rss_mb": peak_rss_mb(),
        "records": records,
    }
    if tracer:
        result["trace"] = {
            "total_s": tracer.total_s,
            "self_s": tracer.self_s,
            "calls": tracer.calls,
            "counts": tracer.counts,
        }
        tracer.write(workdir / "spans.jsonl")
    result_path.write_text(json.dumps(result))


def setup(workdir: Path) -> None:
    cwskit = import_cwskit()
    spec = json.loads((workdir / "jobs.json").read_text())
    load_inputs(cwskit, spec["workload"], spec["jobs"])


if __name__ == "__main__":
    mode, workdir = sys.argv[1], Path(sys.argv[2])
    if mode == "setup":
        setup(workdir)
    else:
        run(workdir, float(sys.argv[3]), sys.argv[4] == "1", Path(sys.argv[5]))

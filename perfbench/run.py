"""The pdiamonds benchmark: real CLI jobs, one fresh interpreter per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop: one client runs one job at a time and starts the next when
the previous one exits.  Jobs are drawn from the workload's grid by the seed
(workloads.py); every job's output is checked (jobs.py).  With --trace 0 the
run lasts about S seconds of whole passes over the grid, and at least
MIN_SAMPLES jobs, and reports the end-to-end metrics named in BENCHMARK.json.
With --trace 1 it runs one pass twice, once plain and once traced, in
alternating order per job, then the fixed probe jobs traced, and reports the
per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it records the seed, the
Python version, the commit or source digest, and the failures.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import io
import json
import platform
import statistics
import subprocess
import sys
import time

from jobs import CHILD_ENV, ROOT, failure, load_references, run_job
from layers import ADD_UP_TOLERANCE_S, LayerTotals
from workloads import GRIDS, PROBE, draw_pass

MIN_SAMPLES = 100  # so at least ten jobs lie beyond p90
HARD_CAP_S = 140.0  # stop starting jobs here, so a run ends within 180 s
OUT_DIR = ROOT / ".perfbench_out"


def warm_bytecode() -> None:
    """Compile the package and the child as an installed package has them."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src" / "partition_diamonds"),
                    str(ROOT / "perfbench")],
                   env=CHILD_ENV, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    run_job(PROBE[0])  # untimed: loads the interpreter and files into cache


def source_version() -> str:
    """The git commit, or a digest of src/ in a checkout without .git."""
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return "src-sha256:" + h.hexdigest()


def timed_run(workload: str, seed: int, seconds: float, references: dict):
    """Whole passes until about `seconds` have gone by; e2e metrics."""
    results, failures, pass_times = [], [], []
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        for job in draw_pass(workload, seed, len(pass_times)):
            result = run_job(job)
            results.append(result)
            reason = failure(result, references)
            if reason is not None:
                failures.append(f"{job.key}: {reason}")
            if time.perf_counter() - start > HARD_CAP_S:
                break
        pass_times.append(time.perf_counter() - t_pass)
        elapsed = time.perf_counter() - start
        if elapsed > HARD_CAP_S or (
                len(results) >= MIN_SAMPLES and
                elapsed + statistics.fmean(pass_times) / 2 >= seconds):
            break
    wall = time.perf_counter() - start
    walls = [r.wall_s for r in results]
    setups = [r.setup_s for r in results if r.setup_s is not None]
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "job_s.p50": statistics.median(walls),
        "job_s.p90": statistics.quantiles(walls, n=10)[8]
        if len(walls) > 1 else walls[0],
        "jobs_per_s": (len(results) - len(failures)) / wall,
        "peak_rss_mb": max(r.maxrss_mb for r in results),
    }
    extra = {"passes": len(pass_times), "run_wall_s": wall}
    return results, failures, metrics, extra


def traced_run(workload: str, seed: int, references: dict, names: list):
    """One pass plain and traced, then the probe traced; per-layer metrics."""
    results, failures = [], []
    plain, traced = [], []
    totals = LayerTotals()
    spans_buf = io.BytesIO()
    start = time.perf_counter()
    with gzip.GzipFile(fileobj=spans_buf, mode="wb") as spans_out:
        jobs = [(i, job, bool(i % 2)) for i, job in
                enumerate(draw_pass(workload, seed, 0))]
        jobs += [(len(jobs) + i, job, None) for i, job in enumerate(PROBE)]
        for i, job, traced_first in jobs:
            modes = [True] if traced_first is None else \
                [traced_first, not traced_first]
            for trace in modes:
                job_id = f"{workload}/{i}" if trace else None
                result = run_job(job, trace_id=job_id)
                results.append(result)
                reason = failure(result, references)
                if reason is None and trace:
                    gap = totals.add_job(result.record, len(result.stdout))
                    if not -1e-6 <= gap <= ADD_UP_TOLERANCE_S:
                        reason = f"self times leave {gap:.6f} s unaccounted"
                    job_tag = result.record["job"]
                    for sid, span in enumerate(result.record["spans"]):
                        spans_out.write(json.dumps([job_tag, sid, *span])
                                        .encode() + b"\n")
                if reason is not None:
                    failures.append(f"{job.key}: {reason}")
                if traced_first is not None:
                    (traced if trace else plain).append(result.wall_s)
            if time.perf_counter() - start > HARD_CAP_S:
                break
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz").write_bytes(
        spans_buf.getvalue())
    derived = totals.derived()
    derived["trace.overhead"] = statistics.median(traced) / \
        statistics.median(plain)
    return results, failures, {n: totals.metric(n, derived) for n in names}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GRIDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "partition_diamonds" / "cli.py").is_file():
        print(f"error: no partition_diamonds sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 1
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    references = load_references()
    warm_bytecode()

    if args.trace:
        wanted = spec["per_layer"]
        results, failures, values = traced_run(
            args.workload, args.seed, references, [m["name"] for m in wanted])
        extra = {}
    else:
        wanted = spec["end_to_end"]
        results, failures, values, extra = timed_run(
            args.workload, args.seed, args.seconds, references)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace and values["oracle.estimate_match"] != 1:
        print("warning: enumerated configurations differ from the budget "
              "estimates (oracle.estimate_match != 1)")
    attempted, failed = len(results), len(failures)
    print(f"{'fail_frac':40s} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} jobs)")
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "commit": source_version(),
            "failures": failures[:20], **extra}
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps({"meta": meta, "result": result},
                                    indent=1) + "\n")
    print(json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark's own checks (not of partition_diamonds).

    python3 perfbench/selftest.py

1. A correct job passes; the same job with one stdout digit changed, with a
   wrong status, or cut off by the timeout counts as failed, so it raises
   fail_frac.  A budget refusal passes only as a refusal.
2. A traced job's self times and wrapper overheads add up to its time in
   cli.main, and the layer counters it reports are consistent.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   with a non-zero code and prints no result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import dataclasses
import re
import shutil
import subprocess
import sys

from jobs import ROOT, failure, load_references, run_job
from layers import ADD_UP_TOLERANCE_S, LayerTotals
from workloads import Job, PROBE

VERIFY = Job(("verify", "--claim", "mod5_4k1_r2", "--k-max", "0",
              "--n-max", "3"))
REFUSED = next(job for job in PROBE if job.refused)
SLOW = Job(("oracle", "--kind", "rd", "--d", "1", "--N", "40"))


def _expect(cond: bool, what: str, failed: list) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failed.append(what)


def check_outputs(failed: list) -> None:
    refs = load_references()
    good = run_job(VERIFY)
    _expect(failure(good, refs) is None, "correct verify job passes", failed)
    # a changed digit keeps the JSON valid: only the digest can catch it
    changed = re.sub(rb"\d", lambda m: b"9" if m[0] != b"9" else b"8",
                     good.stdout, count=1)
    outcomes = [failure(good, refs, stdout=changed),
                failure(good, refs, stdout=good.stdout.replace(
                    b'"verified"', b'"counterexample"')),
                failure(run_job(SLOW, timeout=0.05), refs)]
    for what, reason in zip(("one changed digit", "a wrong status",
                             "a timeout"), outcomes):
        _expect(reason is not None, f"{what} fails the job ({reason})",
                failed)
    results = 1 + len(outcomes)
    fail_frac = sum(r is not None for r in outcomes) / results
    _expect(fail_frac == 0.75, f"fail_frac counts them: {fail_frac}", failed)
    refused = run_job(REFUSED)
    _expect(failure(refused, refs) is None, "budget refusal passes", failed)
    as_plain_job = dataclasses.replace(refused,
                                       job=REFUSED._replace(refused=False))
    _expect(failure(as_plain_job, refs) is not None,
            "a refusal where none is expected fails", failed)


def check_trace(failed: list) -> None:
    totals = LayerTotals()
    for job in PROBE:
        result = run_job(job, trace_id="selftest")
        gap = totals.add_job(result.record, len(result.stdout))
        _expect(-1e-6 <= gap <= ADD_UP_TOLERANCE_S,
                f"traced {job.key}: unaccounted {gap * 1e6:.1f} us", failed)
    derived = totals.derived()
    _expect(derived["oracle.estimate_match"] == 1.0,
            "enumerated configurations equal the estimates", failed)
    _expect(derived["oracle.refused"] == 1, "one refusal counted", failed)
    _expect(derived["series.mul.madds"] > 0 and
            derived["congruences.sd_builds"] == 1 and
            totals.metric("cli.main.self_s", derived) > 0,
            "kernel, congruence and cli counters are filled", failed)


def check_bare_directory(failed: list) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "verify-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _expect(proc.returncode != 0 and not proc.stdout.strip(),
            f"bare directory: exit {proc.returncode}, no result", failed)


def main() -> int:
    failed = []
    check_outputs(failed)
    check_trace(failed)
    check_bare_directory(failed)
    print("selftest " + ("failed: " + "; ".join(failed) if failed else "ok"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Launch one pdiamonds job in a fresh interpreter and judge its output.

Each job is a new `python child.py` process with an explicit environment:
no DIAMOND_BUDGET, a fixed PYTHONHASHSEED and a C.UTF-8 locale.  Its stdout,
stderr and timing record go to anonymous in-memory files, so nothing is
written to disk and no pipe can fill up.  The parent blocks on a pidfd, so a
job's wall time ends when the process exits, and reaps it with wait4 to get
that process's own peak RSS.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Job

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
REFERENCES = Path(__file__).resolve().parent / "references.json"
CHILD_ENV = {"PATH": os.defpath, "PYTHONHASHSEED": "0", "LC_ALL": "C.UTF-8"}
JOB_TIMEOUT_S = 20.0
OK_STATUSES = {"verified", "conjecture-held"}


@dataclass
class JobResult:
    job: Job
    exit_code: int | None  # None when the job was killed at the timeout
    stdout: bytes
    stderr: bytes
    wall_s: float  # spawn to exit: what the user waits
    maxrss_mb: float
    record: dict | None  # the child's timing record, with spans if traced
    spawned_at: float

    @property
    def setup_s(self) -> float | None:
        """Spawn until cli.main is entered: interpreter start plus import."""
        if self.record is None:
            return None
        return self.record["t_main"] - self.spawned_at


def _read_all(fd: int) -> bytes:
    return os.pread(fd, os.fstat(fd).st_size, 0)


def run_job(job: Job, trace_id: str | None = None,
            timeout: float = JOB_TIMEOUT_S) -> JobResult:
    out, err, rec = (os.memfd_create(name, os.MFD_CLOEXEC)
                     for name in ("stdout", "stderr", "record"))
    try:
        cmd = [sys.executable, str(CHILD), str(rec)]
        if trace_id is not None:
            cmd += ["--trace", trace_id]
        cmd += ["--", *job.argv]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, pass_fds=(rec,), env=CHILD_ENV,
                                cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout, stderr, raw = _read_all(out), _read_all(err), _read_all(rec)
    finally:
        for fd in (out, err, rec):
            os.close(fd)
    try:
        record = json.loads(raw) if exited and raw else None
    except ValueError:
        record = None
    return JobResult(job, proc.returncode if exited else None, stdout,
                     stderr, t1 - t0, usage.ru_maxrss / 1024, record, t0)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)["jobs"]


def _statuses(job: Job, stdout: bytes) -> list:
    text = stdout.decode()
    fmt = job.argv[job.argv.index("--format") + 1] \
        if "--format" in job.argv else "json"
    if fmt == "json":
        return [r["status"] for r in json.loads(text)["reports"]]
    if fmt == "csv":
        return [line.split(",")[1].strip('"')
                for line in text.splitlines()[1:]]
    return [line.split()[1] for line in text.splitlines()]


def semantic_failure(job: Job, exit_code: int | None, stdout: bytes,
                     stderr: bytes) -> str | None:
    """What the job's own output says is wrong, independent of references."""
    if exit_code is None:
        return "timeout"
    if job.refused:
        if exit_code != 2 or b"budget error" not in stderr or stdout:
            return f"expected a budget refusal, got exit {exit_code}"
        return None
    if exit_code != 0:
        return f"exit {exit_code}"
    try:
        command = job.argv[0]
        if command == "verify":
            statuses = _statuses(job, stdout)
            if not statuses or not OK_STATUSES.issuperset(statuses):
                return f"verify statuses {sorted(set(statuses))}"
        elif command == "oracle" and json.loads(stdout)["equal"] is not True:
            return "oracle reports equal: false"
        elif command == "identities" and \
                json.loads(stdout)["passed"] is not True:
            return "identities report passed: false"
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable output ({exc.__class__.__name__})"
    return None


def failure(result: JobResult, references: dict,
            stdout: bytes | None = None) -> str | None:
    """Why the job failed, or None.  `stdout` overrides the captured bytes."""
    stdout = result.stdout if stdout is None else stdout
    reason = semantic_failure(result.job, result.exit_code, stdout,
                              result.stderr)
    if reason is not None:
        return reason
    ref = references.get(result.job.key)
    if ref is None:
        return "no reference for this job"
    if result.exit_code != ref["exit"] or digest(stdout) != ref["sha256"]:
        return "output differs from the reference"
    if result.record is None:
        return "no timing record"
    return None

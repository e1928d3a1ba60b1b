"""Regenerate references.json: the stdout digest of every job in the grids.

    python3 perfbench/make_refs.py

Runs each job that any seed can draw (and the probe jobs) once, requires its
own semantic checks to pass, and stores its exit code and stdout digest.
Before writing, it cross-checks the outputs against the enumeration oracles
of partition_diamonds.oracle, on prefixes small enough to enumerate:
coefficient tables against count_rd_upto / count_sd / series_Ddn_bruteforce,
every progression a scan reports and every verified claim progression
against count_sd.  Run it only at a commit whose outputs are trusted; the
benchmark treats any later difference as a failed job.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from functools import lru_cache

from jobs import REFERENCES, ROOT, digest, run_job, semantic_failure
from workloads import job_space

sys.path.insert(0, str(ROOT / "src"))

from partition_diamonds import congruences, oracle  # noqa: E402

RD_PREFIX = {1: 30, 2: 24, 3: 20, 4: 18, 5: 16, 6: 14, 7: 14, 8: 12}
SD_PREFIX = 36
DDN_PREFIX = 16
PROGRESSION_LIMIT = 36  # check s_d(i) for progression indices i below this


def _opt(argv: tuple, flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _coefficients(argv: tuple, stdout: bytes) -> list:
    text = stdout.decode()
    fmt = _opt(argv, "--format", "json")
    if fmt == "json":
        return [int(c) for c in json.loads(text)["coeffs"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return [int(c) for _, c in rows]
    return [int(line.split()[1]) for line in text.splitlines()]


@lru_cache(maxsize=None)
def _count_sd(d: int, n: int) -> int:
    return oracle.count_sd(d, n)


@lru_cache(maxsize=None)
def _oracle_prefix(series: str, d: int, n: int | None) -> tuple:
    if series == "rd":
        return tuple(oracle.count_rd_upto(d, RD_PREFIX[d] - 1))
    if series == "sd":
        return tuple(_count_sd(d, i) for i in range(SD_PREFIX))
    return oracle.series_Ddn_bruteforce(d, n, DDN_PREFIX).coeffs


def _check_coeffs(argv: tuple, stdout: bytes) -> None:
    series, d = _opt(argv, "--series"), int(_opt(argv, "--d"))
    n = int(_opt(argv, "--n")) if series == "ddn" else None
    mod = _opt(argv, "--mod")
    want = _oracle_prefix(series, d, n)
    if mod is not None:
        want = tuple(c % int(mod) for c in want)
    got = _coefficients(argv, stdout)
    if tuple(got[:len(want)]) != want:
        raise AssertionError(f"{' '.join(argv)}: prefix differs from oracle")


def _check_scan(argv: tuple, stdout: bytes) -> None:
    d, m = int(_opt(argv, "--d")), int(_opt(argv, "--m"))
    text = stdout.decode()
    fmt = _opt(argv, "--format", "json")
    if fmt == "json":
        found = [(p["M"], p["r"]) for p in json.loads(text)["progressions"]]
    elif fmt == "csv":
        found = [tuple(map(int, row))
                 for row in list(csv.reader(io.StringIO(text)))[1:]]
    else:
        found = [tuple(map(int, line.split())) for line in text.splitlines()]
    for M, r in found:
        for i in range(r, PROGRESSION_LIMIT, M):
            if _count_sd(d, i) % m:
                raise AssertionError(f"{' '.join(argv)}: s_{d}({i}) != 0")


def _check_verify(argv: tuple) -> None:
    k_max = int(_opt(argv, "--k-max"))
    label = _opt(argv, "--claim")
    claims = (congruences.builtin_claims() if label is None
              else [congruences.claim_by_label(label)])
    for claim in claims:
        for k in range(k_max + 1):
            d, m = claim.d_at(k), claim.modulus_at(k)
            for i in range(claim.residue, PROGRESSION_LIMIT,
                           claim.prog_modulus):
                if _count_sd(d, i) % m:
                    raise AssertionError(f"{claim.label}: s_{d}({i}) != 0")


CROSS_CHECKS = {"coeffs": _check_coeffs, "scan": _check_scan,
                "verify": lambda argv, stdout: _check_verify(argv)}


def main() -> int:
    refs, checked = {}, {}
    for key, job in sorted(job_space().items()):
        result = run_job(job)
        reason = semantic_failure(job, result.exit_code, result.stdout,
                                  result.stderr)
        if reason is not None:
            print(f"FAIL {key}: {reason}", file=sys.stderr)
            return 1
        command = job.argv[0]
        if command in CROSS_CHECKS and not job.refused:
            CROSS_CHECKS[command](job.argv, result.stdout)
            checked[command] = checked.get(command, 0) + 1
        refs[key] = {"exit": result.exit_code,
                     "sha256": digest(result.stdout)}
        print(f"{result.wall_s:7.3f} {key}", flush=True)
    with open(REFERENCES, "w") as fh:
        json.dump({"cross_checked_against_oracles": checked, "jobs": refs},
                  fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

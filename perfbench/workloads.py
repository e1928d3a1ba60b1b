"""Job grids of the three workloads and the seeded draw over them.

A workload is a list of cells; each cell holds a few pdiamonds jobs of
similar cost and kind.  One pass runs every cell once, in a seeded order,
with a seeded pick inside each cell, so any seed gives the same mix of job
kinds and costs and different seeds give different jobs.  Every job that a
draw can yield has a reference digest in references.json.
"""

from __future__ import annotations

import random
from itertools import product
from typing import NamedTuple

FORMATS = ("json", "csv", "plain")


class Job(NamedTuple):
    argv: tuple
    refused: bool = False  # must exit 2 with a budget error

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _jobs(template: str, refused: bool = False, **axes) -> list:
    """One Job per point of the product of the named axes."""
    names = list(axes)
    return [Job(tuple(template.format(**dict(zip(names, point))).split()),
                refused)
            for point in product(*(axes[n] for n in names))]


MOD5_LINEAR = ("mod5_4k1_r2", "mod5_4k1_r3", "mod5_4k1_r4", "mod5_4k3_r2",
               "mod5_4k3_r4")
MOD5_25N = ("mod5_4k2_25n23", "mod5_4k3_25n23")
MOD7 = tuple(f"mod7_6k{b}_r{r}" for b in (1, 2) for r in (17, 31, 38, 45))

CLAIM = "verify --claim {c} --k-max {k} --n-max {n} --format {f}"
ALL = "verify --all --k-max {k} --n-max {n} --format {f}"
SCAN = "scan --d {d} --m {m} --M-max {M} --N {N} --format {f}"


def _verify_sweep() -> list:
    """verify --claim / --all and scan over Z/m: sd_series in residue rings."""
    def scan(N, *rings):
        return [job for d, m, M in rings
                for job in _jobs(SCAN, d=(d,), m=(m,), M=(M,), N=(N,),
                                 f=FORMATS)]

    small_rings = ((1, 2, 20), (2, 3, 30), (2, 5, 30), (4, 3, 30))
    large_rings = ((4, 5, 30), (5, 5, 30), (6, 7, 60), (7, 7, 60),
                   (11, 11, 130))
    # cost blocks as in _coeffs_exact: the 12 median cells are the k = 1
    # claims at n-max <= 30 for mod 5 and n-max 2 for mod 7, and the N = 300
    # scans; the 3 scans at N = 500 and the 3 `--all --k-max 1 --n-max 1`
    # cells are the p90 block
    return (
        [_jobs(CLAIM, c=("mod2pow",), k=(0, 1), n=(30, 40), f=FORMATS)] * 2
        + [_jobs(CLAIM, c=MOD5_LINEAR, k=(0,), n=(10, 20), f=FORMATS)] * 3
        + [_jobs(CLAIM, c=MOD5_LINEAR, k=(1,), n=(20,), f=FORMATS)] * 3
        + [_jobs(CLAIM, c=MOD5_LINEAR, k=(1,), n=(30,), f=FORMATS)] * 2
        + [_jobs(CLAIM, c=MOD5_25N, k=(1,), n=(3, 4), f=FORMATS)] * 2
        + [_jobs(CLAIM, c=MOD7, k=(0,), n=(2, 3), f=FORMATS)] * 3
        + [_jobs(CLAIM, c=MOD7, k=(1,), n=(2,), f=FORMATS)] * 3
        + [_jobs(CLAIM, c=MOD7, k=(1,), n=(3,), f=FORMATS)] * 2
        + [_jobs(CLAIM, c=("mod11",), k=(0,), n=(1, 2), f=FORMATS)
           + _jobs(CLAIM, c=("mod11",), k=(1,), n=(1,), f=FORMATS)] * 2
        + [scan(200, *small_rings)] * 3
        + [scan(300, *small_rings)] * 2
        + [scan(500, *large_rings)] * 3
        + [_jobs(ALL, k=(1,), n=(1,), f=FORMATS)] * 3
        + [_jobs(ALL, k=(0,), n=(3,), f=FORMATS)] * 1
    )


COEFFS = "coeffs --series {s} --d {d} --N {N} --format {f}"
COEFFS_MOD = COEFFS + " --mod {m}"
DDN = "coeffs --series ddn --d {d} --n {n} --N {N} --format {f}"


def _coeffs_exact() -> list:
    """coeffs over Z: exact big-integer products, large stdout, no reuse."""
    def coeffs(s, d, N):
        return _jobs(COEFFS, s=(s,), d=d, N=(N,), f=FORMATS)

    # Sorted by cost the cells form blocks of near-equal cost: p50 falls in
    # the middle of the 12 "median" cells and p90 in the middle of the 6
    # "p90" cells for any seed, so a pick inside a cell cannot move either
    # percentile much, and neither sits on the edge between two blocks.
    cheap = ([coeffs("rd", (1, 2), 200)] * 3
             + [_jobs(DDN, d=range(3, 9), n=(5, 8), N=(500,), f=FORMATS)] * 6)
    median = ([_jobs(COEFFS_MOD, s=("rd",), d=(4, 6, 8), N=(250,),
                     f=FORMATS, m=(3, 5, 7))] * 6
              + [_jobs(COEFFS_MOD, s=("sd",), d=(6, 8), N=(250,), f=FORMATS,
                       m=(3, 5, 7))] * 3
              + [coeffs("sd", range(4, 9), 200)] * 3)
    upper = ([coeffs("sd", range(6, 9), 300)] * 2
             + [_jobs(DDN, d=range(4, 9), n=(2,), N=(1000,), f=FORMATS)] * 2
             + [coeffs("rd", range(3, 9), 300)] * 2)
    p90 = [coeffs("sd", (2, 3), 400) + coeffs("rd", (3, 4), 400)] * 6
    return cheap + median + upper + p90 + [coeffs("rd", (1,), 1000)]


ORACLE = "oracle --kind {k} --d {d} --N {N}"
ORACLE_DDN = "oracle --kind ddn --d {d} --n {n} --N {N}"


def _oracle_check() -> list:
    """Enumeration oracles, Omega/identity suites and budget refusals."""
    def oracle(kind, *dN, refused=False):
        return [job for d, N in dN
                for job in _jobs(ORACLE, refused, k=(kind,), d=(d,), N=(N,))]

    def ddn(*dnN):
        return [job for d, n, N in dnN
                for job in _jobs(ORACLE_DDN, d=(d,), n=(n,), N=(N,))]

    omega = "identities --only omega --instances {i} --seed {s}"
    # cost blocks as in _coeffs_exact
    cheap = ([_jobs("identities --only crude")
              + _jobs("identities --only pentagonal --N {N}",
                      N=(200, 300, 400))
              + _jobs("identities --only jacobi --N {N}", N=(100, 200, 300))
              + _jobs("identities --only eulerian --d-max {d}",
                      d=(8, 10, 12, 14))
              + _jobs("identities --only euler-factor --N {N}",
                      N=(30, 45, 60))] * 3
             + [_jobs(omega, i=(50, 100), s=range(1, 9))] * 4
             + [_jobs(omega, i=(200, 300), s=range(1, 9))] * 2
             + [ddn((1, 4, 28), (2, 3, 28), (3, 1, 32), (3, 2, 28))] * 2)
    median = [oracle("rd", (1, 34), (3, 26))
              + oracle("sd", (1, 28), (2, 28), (3, 28))] * 12
    upper = ([oracle("rd", (1, 36), (2, 32), (2, 34), (3, 28))
              + oracle("sd", (1, 30), (2, 30)) + ddn((2, 4, 28))] * 3
             + [_jobs("identities --only mersmann --N 300")])
    p90 = [oracle("rd", *((d, N) for d in (1, 2) for N in range(160, 166)),
                  refused=True)
           + ddn((2, 3, 36), (3, 2, 32), (3, 3, 28))] * 6
    largest = (oracle("rd", *((3, N) for N in range(180, 186)), refused=True)
               + ddn((3, 4, 32), (3, 3, 36)))
    return cheap + median + upper + p90 + [largest]


GRIDS = {
    "verify-sweep": _verify_sweep,
    "coeffs-exact": _coeffs_exact,
    "oracle-check": _oracle_check,
}

# Small jobs that touch every layer; each traced run adds them once so every
# per-layer timer and counter reads a measured value on every workload.
PROBE = (
    _jobs("verify --claim mod5_4k1_r2 --k-max 0 --n-max 3")
    + _jobs("scan --d 2 --m 3 --M-max 6 --N 60")
    + _jobs("coeffs --series rd --d 2 --N 40 --mod 3")
    + _jobs("coeffs --series ddn --d 2 --n 2 --N 40")
    + _jobs("oracle --kind rd --d 1 --N 12")
    + _jobs("oracle --kind sd --d 1 --N 12")
    + _jobs("oracle --kind ddn --d 1 --n 2 --N 12")
    + _jobs("oracle --kind rd --d 1 --N 160", refused=True)
    + _jobs("identities --N 30 --instances 20")
)


def cells(workload: str) -> list:
    return GRIDS[workload]()


def job_space() -> dict:
    """Every job any draw (or the probe) can yield, by key."""
    space = {job.key: job for job in PROBE}
    for grid in GRIDS.values():
        for cell in grid():
            space.update((job.key, job) for job in cell)
    return space


def draw_pass(workload: str, seed: int, index: int) -> list:
    """Pass `index` of the seeded job stream: each cell once, shuffled."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    picks = [rng.choice(cell) for cell in cells(workload)]
    rng.shuffle(picks)
    return picks

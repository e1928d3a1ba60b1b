"""Brute-force enumeration of d-fold partition diamonds.

A d-fold partition diamond is a chain of link nodes a_0, a_1, ... with d fan
nodes b_{k,1..d} wedged between consecutive links; every value is a
non-negative integer and a_{k-1} >= b_{k,j} >= a_k for each fan node.  The
chain inequalities force the links to be weakly decreasing, so a diamond of
finite weight has finite support, and we identify unbounded-length diamonds
with their support: trailing all-zero cells are quotiented away.  Counting
therefore fixes a long-enough chain and stops as soon as a link hits zero.

Everything here enumerates node values explicitly: this module is the
ground-truth oracle the closed-form generating functions are tested against,
so it must not reuse the algebra it is checking.  The one exception is the
work estimator used by the budget guard, which may count fast; it only
decides whether an enumeration is affordable, never what it returns.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .series import TruncatedSeries, ZZ

__all__ = [
    "DiamondShape",
    "DiamondConfig",
    "BudgetError",
    "enumeration_budget",
    "count_rd",
    "count_rd_upto",
    "count_sd",
    "count_sd_raw",
    "series_Ddn_bruteforce",
    "series_Ddn_shifted",
    "estimate_rd_enumeration",
    "estimate_ddn_enumeration",
]

DEFAULT_BUDGET = 10 ** 9


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed the configured work budget."""


@dataclass(frozen=True)
class DiamondShape:
    """Fixed-shape diamond: fan width d >= 1 and n >= 0 chain cells."""

    d: int
    n: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("fan width d must be >= 1")
        if self.n < 0:
            raise ValueError("cell count n must be >= 0")

    @property
    def node_count(self) -> int:
        return (self.n + 1) + self.n * self.d


@dataclass(frozen=True)
class DiamondConfig:
    """One assignment of node values: links a_0..a_n and an n x d fan grid.

    Validates the edge inequalities a_{k-1} >= b_{k,j} >= a_k on
    construction.  The enumerators below never materialize these (they
    count in place); the type exists as a checked witness format.
    """

    links: tuple
    fans: tuple  # fans[k-1][j-1] is the j-th fan node of cell k

    def __post_init__(self):
        n = len(self.links) - 1
        if n < 0:
            raise ValueError("need at least one link")
        if len(self.fans) != n:
            raise ValueError("need one fan row per cell")
        if any(a < 0 for a in self.links) or \
                any(b < 0 for row in self.fans for b in row):
            raise ValueError("node values must be non-negative")
        for k, row in enumerate(self.fans, start=1):
            hi, lo = self.links[k - 1], self.links[k]
            if any(not (hi >= b >= lo) for b in row):
                raise ValueError(
                    f"cell {k} violates a_{k - 1} >= b >= a_{k}"
                )

    @property
    def shape(self) -> DiamondShape:
        d = len(self.fans[0]) if self.fans else 1
        return DiamondShape(d, len(self.links) - 1)

    def total_weight(self) -> int:
        return sum(self.links) + sum(b for row in self.fans for b in row)

    def link_weight(self) -> int:
        return sum(self.links)


def enumeration_budget(budget: int | None = None) -> int:
    """Active work budget: explicit argument, else DIAMOND_BUDGET, else 1e9."""
    if budget is not None:
        return budget
    env = os.environ.get("DIAMOND_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"DIAMOND_BUDGET must be a positive integer, got {env!r}"
        )
    return value


def _check_budget(estimate: int, budget: int | None, what: str):
    limit = enumeration_budget(budget)
    if estimate > limit:
        raise BudgetError(
            f"{what}: estimated {estimate} configurations exceeds "
            f"budget {limit}"
        )


# ---------------------------------------------------------------------
# Work estimators (guard only; results always come from raw enumeration)
# ---------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gap_sum_counts(d: int, g: int) -> tuple:
    """Coefficients of (1 + q + ... + q^g)^d: fan-sum multiplicities."""
    out = [1]
    for _ in range(d):
        new = [0] * (len(out) + g)
        for i, c in enumerate(out):
            if c:
                for j in range(g + 1):
                    new[i + j] += c
        out = new
    return tuple(out)


def estimate_rd_enumeration(d: int, n_max: int) -> int:
    """Exact number of diamonds of total weight <= n_max (fast DP)."""

    @lru_cache(maxsize=None)
    def completions(a_prev: int, rem: int) -> int:
        if a_prev == 0:
            return 1
        total = 0
        for a in range(min(a_prev, rem // (d + 1)) + 1):
            fan_counts = _gap_sum_counts(d, a_prev - a)
            cap = rem - a - d * a
            for s, ways in enumerate(fan_counts):
                if s > cap:
                    break
                total += ways * completions(a, rem - a - d * a - s)
        return total

    return sum(completions(a0, n_max - a0) for a0 in range(n_max + 1))


def estimate_ddn_enumeration(d: int, n: int, order: int) -> int:
    """Exact number of shape-(d, n) diamonds of weight < order (fast DP)."""

    @lru_cache(maxsize=None)
    def tails(cells_left: int, a_prev: int, rem: int) -> int:
        if cells_left == 0:
            return 1
        total = 0
        for a in range(min(a_prev, rem // (d + 1)) + 1):
            fan_counts = _gap_sum_counts(d, a_prev - a)
            cap = rem - a - d * a
            for s, ways in enumerate(fan_counts):
                if s > cap:
                    break
                total += ways * tails(cells_left - 1, a, rem - a - d * a - s)
        return total

    return sum(tails(n, a0, order - 1 - a0) for a0 in range(order))


# ---------------------------------------------------------------------
# Unbounded-length counts
# ---------------------------------------------------------------------

def count_rd_upto(d: int, n_max: int, budget: int | None = None) -> list:
    """[r_d(0), ..., r_d(n_max)] by one exhaustive enumeration pass.

    Enumerates links first, then fan values one by one within
    [a_k, a_{k-1}], pruning on the remaining weight.  Each finite-support
    diamond of weight <= n_max is visited exactly once.
    """
    if n_max < 0:
        raise ValueError("weight must be >= 0")
    _check_budget(estimate_rd_enumeration(d, n_max), budget,
                  f"count_rd(d={d}, n<={n_max})")
    counts = [0] * (n_max + 1)

    def next_cell(a_prev: int, used: int):
        if a_prev == 0:
            counts[used] += 1
            return
        # choosing link a costs at least a + d*a (fans are >= a)
        for a in range(min(a_prev, (n_max - used) // (d + 1)) + 1):
            fans(a_prev, a, used + a, d)

    def fans(hi: int, a: int, used: int, left: int):
        if left == 0:
            next_cell(a, used)
            return
        floor = a * (left - 1)  # fans after this one each cost at least a
        for b in range(a, hi + 1):
            u = used + b
            if u + floor > n_max:
                break
            fans(hi, a, u, left - 1)

    for a0 in range(n_max + 1):
        next_cell(a0, a0)
    return counts


def count_rd(d: int, n: int, budget: int | None = None) -> int:
    """Number of d-fold partition diamonds whose node values sum to n."""
    return count_rd_upto(d, n, budget)[n]


def _link_chains(n: int):
    """Weakly decreasing positive integer chains summing to n (partitions)."""

    def rec(prefix, largest, rem):
        if rem == 0:
            yield prefix
            return
        for part in range(min(largest, rem), 0, -1):
            yield from rec(prefix + [part], part, rem - part)

    if n == 0:
        yield []
    else:
        yield from rec([], n, n)


def count_sd(d: int, n: int) -> int:
    """Schmidt-type count: diamonds graded by link sum only.

    For each weakly decreasing link chain the fan nodes of cell k can take
    (gap_k + 1)^d values independently, so the count is the chain sum of
    those products.  (count_sd_raw iterates the fan values instead.)
    """
    if n < 0:
        raise ValueError("weight must be >= 0")
    total = 0
    for chain in _link_chains(n):
        weight = 1
        prev = None
        for part in chain:
            if prev is not None:
                weight *= (prev - part + 1) ** d
            prev = part
        if prev is not None:
            weight *= (prev + 1) ** d  # final drop to zero
        total += weight
    return total


def count_sd_raw(d: int, n: int, budget: int | None = None) -> int:
    """Schmidt-type count with every fan assignment enumerated explicitly.

    Independent of the (gap+1)^d shortcut that count_sd uses; kept as the
    raw oracle for cross-checking it.
    """
    if n < 0:
        raise ValueError("weight must be >= 0")
    _check_budget(count_sd(d, n), budget, f"count_sd_raw(d={d}, n={n})")
    total = 0
    for chain in _link_chains(n):
        links = chain + [0]
        ranges = []
        for k in range(1, len(links)):
            ranges.extend([range(links[k], links[k - 1] + 1)] * d)
        for _ in product(*ranges):
            total += 1
    return total


# ---------------------------------------------------------------------
# Fixed-shape series
# ---------------------------------------------------------------------

def series_Ddn_bruteforce(d: int, n: int, order: int,
                          budget: int | None = None) -> TruncatedSeries:
    """Weight generating series of shape-(d, n) diamonds, coefficients < order.

    All n cells are materialized (no support quotient here: the shape is
    fixed), every node value is iterated, and configurations are bucketed
    by total node sum.
    """
    if n < 1 or order < 1:
        raise ValueError("need n >= 1 and order >= 1")
    _check_budget(estimate_ddn_enumeration(d, n, order), budget,
                  f"series_Ddn_bruteforce(d={d}, n={n}, order={order})")
    counts = [0] * order
    top = order - 1

    def cell(k: int, a_prev: int, used: int):
        if k == n:
            counts[used] += 1
            return
        for a in range(min(a_prev, (top - used) // (d + 1)) + 1):
            fans(k, a_prev, a, used + a, d)

    def fans(k: int, hi: int, a: int, used: int, left: int):
        if left == 0:
            cell(k + 1, a, used)
            return
        floor = a * (left - 1)
        for b in range(a, hi + 1):
            u = used + b
            if u + floor > top:
                break
            fans(k, hi, a, u, left - 1)

    for a0 in range(order):
        cell(0, a0, a0)
    return TruncatedSeries.from_coeffs(counts, ring=ZZ)


def series_Ddn_shifted(d: int, n: int, rho: int, order: int,
                       budget: int | None = None) -> TruncatedSeries:
    """Same as series_Ddn_bruteforce but with every node value >= rho.

    Enumerated directly from the constraints (links start at rho), not by
    shifting the unconstrained series; equality with the shifted series is
    the content of the add-rho-to-every-part bijection.
    """
    if rho < 0:
        raise ValueError("shift must be >= 0")
    if rho == 0:
        return series_Ddn_bruteforce(d, n, order, budget)
    if n < 1 or order < 1:
        raise ValueError("need n >= 1 and order >= 1")
    # the all-rho diamond is the lightest; reuse the unshifted estimator
    base = rho * ((n + 1) + d * n)
    if base < order:
        _check_budget(estimate_ddn_enumeration(d, n, order - base), budget,
                      f"series_Ddn_shifted(d={d}, n={n}, rho={rho})")
    counts = [0] * order
    top = order - 1

    def cell(k: int, a_prev: int, used: int):
        if k == n:
            counts[used] += 1
            return
        for a in range(rho, a_prev + 1):
            if used + a + d * a > top:
                break
            fans(k, a_prev, a, used + a, d)

    def fans(k: int, hi: int, a: int, used: int, left: int):
        if left == 0:
            cell(k + 1, a, used)
            return
        floor = a * (left - 1)
        for b in range(a, hi + 1):
            u = used + b
            if u + floor > top:
                break
            fans(k, hi, a, u, left - 1)

    for a0 in range(rho, order):
        cell(0, a0, a0)
    return TruncatedSeries.from_coeffs(counts, ring=ZZ)

"""Brute-force enumeration of d-fold partition diamonds.

A d-fold partition diamond is a chain of link nodes a_0, a_1, ... with d fan
nodes b_{k,1..d} wedged between consecutive links; every value is a
non-negative integer and a_{k-1} >= b_{k,j} >= a_k for each fan node.  The
chain inequalities force the links to be weakly decreasing, so a diamond of
finite weight has finite support, and we identify unbounded-length diamonds
with their support: trailing all-zero cells are quotiented away.

Everything here enumerates explicitly.  One link-chain walk serves
count_rd_upto (free length) and series_Ddn_shifted (n cells, every node >=
rho), which at rho = 0 is series_Ddn_bruteforce.  It visits every weakly
decreasing chain of links once, from an explicit stack, and carries the
counts by weight of the diamond prefixes on that chain: closing a cell adds
its d fans one at a time, each a window sum over the values in [a_k,
a_{k-1}].  States of different chains are never merged.  A diamond is
complete once its cell count is reached or its last link is 0.  With floor
0 a zero link forces every later node to 0, so that one stop is the
support quotient for free length, and for a fixed shape it counts the
forced zero tail once instead of walking it cell by cell.  count_sd_upto
walks the link chains from its own explicit stack and multiplies out the
independent fan choices of its cells; count_sd_raw walks them from a
stack too, but iterates those fan values, one diamond at a time.  No
function here recurses.  This module is the ground-truth oracle the
closed-form generating functions are tested against, so the enumerations
must not reuse the algebra they check: they take nothing from genfun or
polynomials, and from series only the TruncatedSeries return type.  The
guard below is the one user of genfun here.

Every enumerator first runs the one guard, check_budget: it validates the
budget, then reads an exact count off a closed form: for rd and ddn the
diamonds counted (the sum of the returned counts, not the chains walked),
the coefficient sums of rd_series and ddn_series_closed; for sd the link
chains, the width-0 diamonds of rd_series(0, .) = 1/(q;q), then for
count_sd_raw s_d(n) from sd_series_factorwise.  The closed forms only
decide whether an enumeration is affordable, never what it returns, so a
wrong one can move the budget line but not make an enumeration agree.
"""

from itertools import accumulate, product
from operator import add, sub

from .genfun import ddn_series_closed, rd_series, sd_series_factorwise
from .series import TruncatedSeries

__all__ = [
    "BudgetError",
    "enumeration_budget",
    "count_rd",
    "count_rd_upto",
    "count_sd",
    "count_sd_upto",
    "count_sd_raw",
    "series_Ddn_bruteforce",
    "series_Ddn_shifted",
    "estimate_rd_enumeration",
    "estimate_ddn_enumeration",
]

DEFAULT_BUDGET = 10 ** 9


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed the configured work budget."""


def enumeration_budget(budget: int | None = None) -> int:
    """Active work budget, a positive integer: the explicit argument, else
    DEFAULT_BUDGET (1e9)."""
    if budget is None:
        return DEFAULT_BUDGET
    if budget < 1:
        raise ValueError(f"budget must be a positive integer, got {budget!r}")
    return budget


def check_budget(budget: int | None, estimate, what: str,
                 unit: str = "configurations") -> None:
    """Validate the budget, then raise BudgetError if estimate() exceeds it."""
    limit = enumeration_budget(budget)
    cost = estimate()
    if cost > limit:
        raise BudgetError(
            f"{what}: estimated {cost} {unit} exceeds budget {limit}"
        )


def _check_width(d: int):
    # d = 0 (links only, counted by partitions) is a valid degenerate width
    if d < 0:
        raise ValueError(f"fan width d must be >= 0, got {d}")


# ---------------------------------------------------------------------
# Exact work estimators (guard only; results come from the enumerations)
# ---------------------------------------------------------------------

def estimate_rd_enumeration(d: int, n_max: int) -> int:
    """Exact number of diamonds of total weight <= n_max.

    The coefficient sum of rd_series(d, n_max + 1): the closed form counts
    the same diamonds the enumeration visits.
    """
    _check_width(d)
    if n_max < 0:
        return 0
    return sum(rd_series(d, n_max + 1).coeffs)


def estimate_ddn_enumeration(d: int, n: int, order: int) -> int:
    """Exact number of shape-(d, n) diamonds of weight < order.

    The coefficient sum of ddn_series_closed(d, n, order), or 0 below
    order 1.
    """
    _check_width(d)
    if order < 1:
        return 0
    return sum(ddn_series_closed(d, n, order).coeffs)


# ---------------------------------------------------------------------
# The link-chain walk
# ---------------------------------------------------------------------

def _walk_chains(d: int, cells: int | None, rho: int, top: int) -> list:
    """Diamonds of weight <= top with every node >= rho, counted by weight.

    Walks every link chain a_0 >= a_1 >= ... >= rho once, with an explicit
    stack of (last link a, cells so far, lightest weight w, counts), where
    counts[i] is the number of prefixes with this chain of weight w + i.
    Closing a cell at the next link c <= a shifts by c, then adds the d
    fans one at a time: a fan takes each value in [c, a], so it shifts by c
    and sums a window of width a - c + 1.  The first fan reads the prefix
    sums of the popped counts, the same for every c, so they are taken once
    per state.  A prefix is complete after `cells` cells (None: free
    length), or once its last link is 0: with rho = 0 every later node is
    forced to 0, so the zero tail is one completion of the same weight.
    Complete prefixes go straight into the result; only the others are
    pushed.
    """
    _check_width(d)
    counts = [0] * (top + 1)
    stack = []
    for a0 in range(rho, top + 1):
        if a0 == 0 or cells == 0:
            counts[a0] += 1
        else:
            stack.append((a0, 0, a0, [1] + [0] * (top - a0)))
    while stack:
        a, k, w, vec = stack.pop()
        k += 1
        first = list(accumulate(vec, initial=0))
        # link c costs at least c + d*c (fans are >= c)
        for c in range(rho, min(a, (top - w) // (d + 1)) + 1):
            size = top - w - c + 1
            nxt, run = vec[:size], first
            for fan in range(d):
                if fan:
                    run = list(accumulate(nxt, initial=0))
                # nxt[i] = run[i + 1] - run[i - (a - c)], the window of
                # width a - c + 1 ending at i (run[0] = 0)
                size -= c
                nxt = run[1:size + 1]
                nxt[a - c:] = map(sub, nxt[a - c:], run)
            child = w + (d + 1) * c
            if c == 0 or k == cells:
                counts[child:] = map(add, counts[child:], nxt)
            else:
                stack.append((c, k, child, nxt))
    return counts


# ---------------------------------------------------------------------
# Unbounded-length counts
# ---------------------------------------------------------------------

def count_rd_upto(d: int, n_max: int, budget: int | None = None) -> list:
    """[r_d(0), ..., r_d(n_max)]: every diamond of weight <= n_max, once."""
    if n_max < 0:
        raise ValueError("weight must be >= 0")
    check_budget(budget, lambda: estimate_rd_enumeration(d, n_max),
                 f"count_rd(d={d}, n<={n_max})")
    return _walk_chains(d, None, 0, n_max)


def count_rd(d: int, n: int, budget: int | None = None) -> int:
    """Number of d-fold partition diamonds whose node values sum to n."""
    return count_rd_upto(d, n, budget)[n]


def count_sd_upto(d: int, n_max: int, budget: int | None = None) -> list:
    """[s_d(0), ..., s_d(n_max)]: diamonds graded by link sum only.

    One pass over the weakly decreasing positive link chains of weight
    <= n_max.  Each chain prefix is visited once and closes one diamond
    class: the fan nodes of cell k take (gap_k + 1)^d values independently,
    the last cell dropping to zero, so a prefix adds the product of those
    counts to its weight.  (count_sd_raw iterates the fan values instead.)
    """
    _check_width(d)
    if n_max < 0:
        raise ValueError("weight must be >= 0")
    check_budget(budget, lambda: estimate_rd_enumeration(0, n_max),
                 f"count_sd(d={d}, n<={n_max})")
    cell = [(gap + 1) ** d for gap in range(n_max + 1)]
    counts = [0] * (n_max + 1)
    counts[0] = 1  # the empty chain: every node is zero
    # (last link, link sum, product over the closed cells)
    stack = [(a0, a0, 1) for a0 in range(n_max, 0, -1)]
    while stack:
        last, used, inner = stack.pop()
        counts[used] += inner * cell[last]
        for a in range(min(last, n_max - used), 0, -1):
            stack.append((a, used + a, inner * cell[last - a]))
    return counts


def count_sd(d: int, n: int, budget: int | None = None) -> int:
    """Schmidt-type count s_d(n): diamonds whose link values sum to n."""
    return count_sd_upto(d, n, budget)[n]


def count_sd_raw(d: int, n: int, budget: int | None = None) -> int:
    """Schmidt-type count with every fan assignment enumerated explicitly.

    Walks the link chains of weight n from an explicit stack of (last
    link, link sum, fan ranges of the closed cells), as count_sd_upto does.
    A chain of link sum n closes with a drop to zero, and
    itertools.product then iterates every fan value of every cell, one
    diamond at a time.  Independent of the (gap+1)^d shortcut that
    count_sd_upto uses; kept as the raw oracle for cross-checking it.
    Guarded by its chains, then by s_d(n) from the termwise product, which
    builds no A_d at all at the small n the chain guard admits.
    """
    if n < 0:
        raise ValueError("weight must be >= 0")
    limit = enumeration_budget(budget)
    _check_width(d)
    check_budget(limit, lambda: estimate_rd_enumeration(0, n),
                 f"count_sd(d={d}, n<={n})")
    check_budget(limit, lambda: sd_series_factorwise(d, n + 1).coeffs[n],
                 f"count_sd_raw(d={d}, n={n})")
    total = 0
    # n = 0 has one diamond: a zero link, its fans forced to zero
    stack = [(a0, a0, ()) for a0 in range(n, 0, -1)] or [(0, 0, ())]
    while stack:
        last, used, ranges = stack.pop()
        if used == n:
            for _ in product(*ranges, *[range(last + 1)] * d):
                total += 1
            continue
        for a in range(min(last, n - used), 0, -1):
            stack.append((a, used + a, ranges + (range(a, last + 1),) * d))
    return total


# ---------------------------------------------------------------------
# Fixed-shape series
# ---------------------------------------------------------------------

def series_Ddn_bruteforce(d: int, n: int, order: int,
                          budget: int | None = None) -> TruncatedSeries:
    """Weight generating series of shape-(d, n) diamonds, coefficients < order.

    The shape is fixed, so there is no support quotient: a diamond whose
    link drops to 0 before cell n still has its n cells, all forced to 0.
    With n = 0 the shape is one link, one diamond of each weight.  Guard
    and walk are series_Ddn_shifted's, at rho = 0.
    """
    return series_Ddn_shifted(d, n, 0, order, budget)


def series_Ddn_shifted(d: int, n: int, rho: int, order: int,
                       budget: int | None = None) -> TruncatedSeries:
    """Same as series_Ddn_bruteforce but with every node value >= rho.

    Enumerated directly from the constraints (links start at rho), not by
    shifting the unconstrained series; equality with the shifted series is
    the content of the add-rho-to-every-part bijection.
    """
    if rho < 0:
        raise ValueError("shift must be >= 0")
    if n < 0 or order < 1:
        raise ValueError("need n >= 0 and order >= 1")
    # the all-rho diamond is the lightest; reuse the unshifted estimator
    base = rho * ((n + 1) + d * n)
    what = f"series_Ddn_shifted(d={d}, n={n}, rho={rho}, order={order})"
    check_budget(budget, lambda: estimate_ddn_enumeration(d, n, order - base),
                 what)
    return TruncatedSeries.from_coeffs(_walk_chains(d, n, rho, order - 1))

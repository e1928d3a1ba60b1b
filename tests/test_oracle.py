"""Diamond enumeration oracle: counts, fixed-shape series, shift, budget.

Expected values here come either from forced configurations (weight 0 and 1
are fully determined), from hand enumeration recorded in comments, from
independent partition counting written in the test file, or from a literal
enumerator that iterates every diamond and checks its inequalities.
"""

import ast
import sys
from functools import lru_cache
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partition_diamonds import oracle
from partition_diamonds.oracle import (
    BudgetError, count_rd, count_rd_upto, count_sd, count_sd_raw,
    count_sd_upto, enumeration_budget, estimate_ddn_enumeration,
    estimate_rd_enumeration, series_Ddn_bruteforce, series_Ddn_shifted,
)
from partition_diamonds.series import TruncatedSeries

SETTINGS = settings(max_examples=40, deadline=None)


def partitions_at_most_k_parts(n, k):
    """Independent count of partitions of n into at most k parts."""

    def rec(rem, largest, left):
        if rem == 0:
            return 1
        if left == 0:
            return 0
        return sum(rec(rem - p, p, left - 1)
                   for p in range(min(rem, largest), 0, -1))

    return rec(n, n, k)


def brute_partition_count(n):
    return partitions_at_most_k_parts(n, n) if n else 1


def test_count_rd_weight_zero():
    for d in (1, 2, 3, 5):
        assert count_rd(d, 0) == 1


def test_count_rd_d1_is_classical_partitions():
    assert count_rd(1, 4) == 5
    got = count_rd_upto(1, 12)
    assert got == [brute_partition_count(n) for n in range(13)]


def test_count_rd_small_plane_diamond():
    # weight 2, d=2: {a0=2}, {a0=1, b11=1}, {a0=1, b12=1}
    assert count_rd(2, 2) == 3


def test_count_sd_trivia():
    for d in (1, 2, 3, 6):
        assert count_sd(d, 0) == 1
        assert count_sd(d, 1) == 2 ** d  # a0 = 1 forced, d free fan bits
    assert count_sd(2, 2) == 13  # chains (2): 9 ways, (1,1): 4 ways


@pytest.mark.parametrize("d", (1, 2, 3, 4))
def test_count_sd_raw_agrees_with_chain_product(d):
    # full grid where the raw enumeration is affordable; the chain-product
    # value is the work estimate, so the cutoff is exact
    for n in range(21):
        if count_sd(d, n) > 2_000_000:
            break
        assert count_sd_raw(d, n) == count_sd(d, n)


def test_count_sd_raw_refuses_oversized_enumeration():
    # s_4(20) is above the default 1e9 guard
    assert count_sd(4, 20) > 10 ** 9
    with pytest.raises(BudgetError):
        count_sd_raw(4, 20)


@pytest.mark.parametrize("d, n, message", [
    (2, 65, "count_sd_raw(d=2, n=65): estimated 7981655159856 "
            "configurations exceeds budget 1000000000"),
    (0, 100, "count_sd(d=0, n<=100): estimated 1642992568 "
             "configurations exceeds budget 1000000000"),
])
def test_count_sd_raw_refuses_without_enumerating(monkeypatch, d, n,
                                                  message):
    # the guard reads the chain count and s_d(n) off the closed forms
    def no_enumeration(*args):
        raise AssertionError("an enumeration ran inside the guard")

    for name in ("count_sd", "count_sd_upto"):
        monkeypatch.setattr(oracle, name, no_enumeration)
    with pytest.raises(BudgetError) as refused:
        count_sd_raw(d, n)
    assert str(refused.value) == message


def test_monotone_in_d():
    for n in range(1, 9):
        rd = [count_rd(d, n) for d in (1, 2, 3, 4)]
        sd = [count_sd(d, n) for d in (1, 2, 3, 4)]
        assert rd == sorted(rd)
        assert sd == sorted(sd)


def test_series_ddn_d1_n1():
    # shape (1, 1) diamonds are partitions into at most 3 parts
    got = series_Ddn_bruteforce(1, 1, 7)
    assert got.coeffs == tuple(
        partitions_at_most_k_parts(n, 3) for n in range(7))
    assert got.coeffs == (1, 1, 2, 3, 4, 5, 7)


def test_series_ddn_constant_term():
    for d, n in ((1, 2), (2, 1), (3, 2)):
        assert series_Ddn_bruteforce(d, n, 6).coeffs[0] == 1


def test_shifted_rho_zero_is_plain():
    assert series_Ddn_shifted(2, 1, 0, 10) == series_Ddn_bruteforce(2, 1, 10)


@pytest.mark.parametrize("d,n,rho,order", [
    (1, 1, 1, 10),
    (2, 2, 2, 12),
    (2, 1, 2, 12),
    (1, 2, 1, 12),
])
def test_shift_identity(d, n, rho, order):
    shift = rho * ((n + 1) + d * n)
    lhs = series_Ddn_shifted(d, n, rho, order)
    rhs = TruncatedSeries.monomial(shift, order) * \
        series_Ddn_bruteforce(d, n, order)
    assert lhs == rhs


@pytest.mark.parametrize("d", range(4))
def test_no_cells_is_one_link(d):
    # shape (d, 0) is a single link a_0 >= rho: one diamond of each weight
    assert series_Ddn_bruteforce(d, 0, 20).coeffs == (1,) * 20
    for rho in (0, 1, 3):
        assert series_Ddn_shifted(d, 0, rho, 20).coeffs == \
            (0,) * rho + (1,) * (20 - rho)
    assert estimate_ddn_enumeration(d, 0, 20) == 20
    assert estimate_ddn_enumeration(d, 0, 0) == 0
    for call in (lambda: series_Ddn_bruteforce(d, -1, 20),
                 lambda: series_Ddn_shifted(d, -1, 1, 20)):
        with pytest.raises(ValueError, match="need n >= 0"):
            call()


def test_estimators_match_enumerated_totals():
    assert estimate_rd_enumeration(2, 10) == sum(count_rd_upto(2, 10))
    est = estimate_ddn_enumeration(2, 2, 9)
    assert est == sum(series_Ddn_bruteforce(2, 2, 9).coeffs)


def test_budget_guard():
    with pytest.raises(BudgetError):
        count_rd(2, 10, budget=5)
    assert count_rd(2, 10) == count_rd_upto(2, 10)[10] > 0


# ---------------------------------------------------------------------
# Differential checks of the exact estimators and the one-pass sd oracle
# ---------------------------------------------------------------------

def recursive_estimates(d):
    """Memoized cell-by-cell recursion over (cells left, last link, weight).

    The estimators' previous form, kept here as an independent third
    counter: it walks the cells one at a time and expands the fan box
    (1 + q + ... + q^g)^d by repeated convolution.
    """

    @lru_cache(maxsize=None)
    def fan_counts(g):
        out = [1]
        for _ in range(d):
            new = [0] * (len(out) + g)
            for i, c in enumerate(out):
                for j in range(g + 1):
                    new[i + j] += c
            out = new
        return out

    @lru_cache(maxsize=None)
    def tails(cells, a_prev, rem):
        # cells is None for free length: stop at the first zero link
        if cells == 0 or (cells is None and a_prev == 0):
            return 1
        left = None if cells is None else cells - 1
        total = 0
        for a in range(min(a_prev, rem // (d + 1)) + 1):
            for s, ways in enumerate(fan_counts(a_prev - a)):
                cost = (d + 1) * a + s
                if cost > rem:
                    break
                total += ways * tails(left, a, rem - cost)
        return total

    def rd(n_max):
        return sum(tails(None, a0, n_max - a0) for a0 in range(n_max + 1))

    def ddn(n, order):
        return sum(tails(n, a0, order - 1 - a0) for a0 in range(order))

    return rd, ddn


def chain_product_sd(d, n):
    """s_d(n) as the sum over partitions of n of prod (gap + 1)^d."""

    def rec(prev, rem):
        if rem == 0:
            return (prev + 1) ** d
        return sum((prev - part + 1) ** d * rec(part, rem - part)
                   for part in range(min(prev, rem), 0, -1))

    return 1 if n == 0 else sum(rec(a0, n - a0) for a0 in range(n, 0, -1))


@SETTINGS
@given(d=st.integers(1, 4), n_max=st.integers(0, 14))
@example(d=1, n_max=0)
@example(d=4, n_max=14)
def test_rd_estimate_equals_enumerated_total(d, n_max):
    assert estimate_rd_enumeration(d, n_max) == sum(count_rd_upto(d, n_max))


@SETTINGS
@given(d=st.integers(1, 3), n=st.integers(1, 3), order=st.integers(1, 14),
       rho=st.integers(0, 2))
@example(d=1, n=1, order=1, rho=0)
@example(d=3, n=3, order=14, rho=0)
@example(d=1, n=1, order=14, rho=2)
def test_ddn_estimate_equals_enumerated_total(d, n, order, rho):
    base = rho * ((n + 1) + d * n)
    shifted = series_Ddn_shifted(d, n, rho, order)
    assert estimate_ddn_enumeration(d, n, order - base) == \
        sum(shifted.coeffs)
    if rho == 0:
        assert estimate_ddn_enumeration(d, n, order) == \
            sum(series_Ddn_bruteforce(d, n, order).coeffs)


@SETTINGS
@given(d=st.integers(1, 6), n_max=st.integers(-1, 60),
       n=st.integers(0, 4), order=st.integers(-1, 40))
@example(d=1, n_max=60, n=4, order=40)
@example(d=6, n_max=60, n=1, order=40)
@example(d=2, n_max=1, n=0, order=1)
def test_estimates_match_cell_recursion(d, n_max, n, order):
    rd, ddn = recursive_estimates(d)
    assert estimate_rd_enumeration(d, n_max) == rd(n_max)
    assert estimate_ddn_enumeration(d, n, order) == ddn(n, order)


def test_ddn_refusal_names_d_n_and_order(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a refused job walked its chains")

    monkeypatch.setattr(oracle, "_walk_chains", no_walk)
    with pytest.raises(BudgetError, match=r"d=3, n=40, .*order=1600\)"):
        series_Ddn_bruteforce(3, 40, 1600)
    with pytest.raises(BudgetError, match=r"d=2, n=2, .*order=30\)"):
        series_Ddn_bruteforce(2, 2, 30, budget=5)


def test_large_refusal_needs_no_recursion():
    # a cell-by-cell recursion exceeds Python's recursion limit here
    with pytest.raises(BudgetError, match="count_rd"):
        count_rd_upto(1, 800)


@SETTINGS
@given(d=st.integers(0, 4), n_max=st.integers(0, 9))
@example(d=4, n_max=9)
@example(d=0, n_max=9)
def test_count_sd_upto_matches_raw_and_chain_product(d, n_max):
    got = count_sd_upto(d, n_max)
    assert got == [chain_product_sd(d, n) for n in range(n_max + 1)]
    assert got == [count_sd_raw(d, n) for n in range(n_max + 1)]
    assert count_sd(d, n_max) == got[n_max]


def free_frames():
    """Calls that still fit under the recursion limit from here."""
    depth = 0

    def down():
        nonlocal depth
        depth += 1
        down()

    try:
        down()
    except RecursionError:
        pass
    return depth


def test_count_sd_raw_needs_no_recursion():
    # the chains of weight 20 run 20 links deep; a generator recursing once
    # per link would exceed a limit 12 calls above the current depth
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit - free_frames() + 12)
    try:
        got = count_sd_raw(1, 20)
    finally:
        sys.setrecursionlimit(limit)
    assert got == count_sd(1, 20) == 24842


def test_sd_estimate_counts_visited_chains():
    for n_max in range(0, 26):
        # with d = 0 every visited chain prefix closes exactly one diamond
        # of count 1, so the returned total is the number of visits; the sd
        # guard counts them as the diamonds of width 0
        visited = sum(count_sd_upto(0, n_max))
        assert estimate_rd_enumeration(0, n_max) == visited
        assert visited == sum(brute_partition_count(n)
                              for n in range(n_max + 1))


def test_sd_budget_guard():
    with pytest.raises(BudgetError, match="count_sd"):
        count_sd_upto(1, 30, budget=10)
    with pytest.raises(BudgetError):
        count_sd(2, 30, budget=10)
    # the estimate is exact, so a budget of exactly that size passes and
    # one less is refused
    chains = estimate_rd_enumeration(0, 30)
    assert count_sd_upto(1, 30, budget=chains)[30] == count_sd(1, 30)
    with pytest.raises(BudgetError, match=f"estimated {chains} "):
        count_sd_upto(1, 30, budget=chains - 1)


@pytest.mark.parametrize("value", [0, -5])
def test_explicit_budget_must_be_positive(value):
    message = f"budget must be a positive integer, got {value}"
    with pytest.raises(ValueError, match=message):
        enumeration_budget(value)
    with pytest.raises(ValueError, match=message):
        count_sd_upto(1, 5, budget=value)


@pytest.mark.parametrize("call", [
    lambda: count_rd_upto(1, 2499, budget=0),
    lambda: count_sd_upto(1, 30, budget=0),
    lambda: count_sd_raw(1, 30, budget=0),
    lambda: series_Ddn_bruteforce(2, 2, 30, budget=0),
    lambda: series_Ddn_shifted(2, 2, 1, 30, budget=0),
], ids=["count_rd_upto", "count_sd_upto", "count_sd_raw",
        "series_Ddn_bruteforce", "series_Ddn_shifted"])
def test_budget_is_validated_before_any_estimate(monkeypatch, call):
    def no_estimate(*args):
        raise AssertionError("an estimate ran before the budget check")

    for name in ("estimate_rd_enumeration", "estimate_ddn_enumeration",
                 "sd_series_factorwise", "count_sd"):
        monkeypatch.setattr(oracle, name, no_estimate)
    with pytest.raises(ValueError,
                       match="budget must be a positive integer, got 0"):
        call()


def test_negative_width_is_rejected():
    for call in (lambda: estimate_rd_enumeration(-1, 5),
                 lambda: estimate_ddn_enumeration(-1, 2, 5),
                 lambda: count_rd_upto(-1, 5),
                 lambda: series_Ddn_bruteforce(-1, 2, 5),
                 lambda: count_sd_upto(-1, 5),
                 lambda: count_sd_raw(-1, 5)):
        with pytest.raises(ValueError, match="fan width"):
            call()


# ---------------------------------------------------------------------
# The link-chain walk against a literal per-diamond enumerator
# ---------------------------------------------------------------------

def literal_counts(d, cells, rho, top, by_links=False):
    """Diamonds of weight <= top with every node >= rho, one at a time.

    Link chains are weakly decreasing tuples: n + 1 links in [rho, top] for
    a fixed shape of n cells, or for free length (rho = 0) k positive links
    closed by one zero link, the support of the diamond.  Each chain takes
    itertools.product over its fan grid, fan j of cell k in [a_k, a_{k-1}]
    cut to the weight left.  Every diamond has its inequalities checked and
    is counted by its total weight, or by its link weight if by_links (for
    s_d).
    """
    if cells is None:
        chains = (links + (0,) for k in range(top + 1)
                  for links in combinations_with_replacement(
                      range(top - k + 1, 0, -1), k))
    else:
        chains = combinations_with_replacement(range(top, rho - 1, -1),
                                               cells + 1)
    counts = [0] * (top + 1)
    for links in chains:
        n = len(links) - 1
        slack = top - sum(links) - d * sum(links[1:])
        if slack < 0:
            continue
        grid = [range(links[k], min(links[k - 1], links[k] + slack) + 1)
                for k in range(1, n + 1) for _ in range(d)]
        for values in product(*grid):
            assert all(links[i // d] >= b >= links[i // d + 1]
                       for i, b in enumerate(values))
            weight = sum(links) + sum(values)
            if weight <= top:
                counts[sum(links) if by_links else weight] += 1
    return counts


@pytest.mark.parametrize("d", range(5))
def test_walk_matches_literal_diamonds(d):
    top = 12
    assert count_rd_upto(d, top) == literal_counts(d, None, 0, top)
    for n in (1, 2, 3):
        plain = series_Ddn_bruteforce(d, n, top + 1).coeffs
        assert list(plain) == literal_counts(d, n, 0, top)
        for rho in (1, 2):
            shifted = series_Ddn_shifted(d, n, rho, top + 1).coeffs
            assert list(shifted) == literal_counts(d, n, rho, top)


@pytest.mark.parametrize("d", range(5))
def test_sd_matches_literal_diamonds(d):
    # a diamond of link weight w weighs at most (d+1) w, so every diamond of
    # link weight <= top // (d+1) is among those enumerated to weight top
    top = 12
    w_max = top // (d + 1)
    literal = literal_counts(d, None, 0, top, by_links=True)
    assert count_sd_upto(d, w_max) == literal[:w_max + 1]
    assert [count_sd_raw(d, w) for w in range(w_max + 1)] \
        == literal[:w_max + 1]


@SETTINGS
@given(d=st.integers(0, 4), cells=st.one_of(st.none(), st.integers(1, 4)),
       rho=st.integers(0, 2), top=st.integers(0, 12))
@example(d=0, cells=None, rho=0, top=12)
@example(d=4, cells=None, rho=0, top=12)
@example(d=2, cells=4, rho=1, top=12)
@example(d=3, cells=1, rho=2, top=12)
def test_walk_matches_literal_diamonds_property(d, cells, rho, top):
    if cells is None:
        got = count_rd_upto(d, top)
        rho = 0  # free length has no shift: a zero link ends the support
    else:
        got = list(series_Ddn_shifted(d, cells, rho, top + 1).coeffs)
    assert got == literal_counts(d, cells, rho, top)


# ---------------------------------------------------------------------
# The oracle does not import the algebra it checks
# ---------------------------------------------------------------------

# genfun supplies only the closed forms the budget guard reads, and series
# only the return type; every other package module is off limits
ORACLE_MAY_IMPORT = {
    "genfun": {"rd_series", "ddn_series_closed", "sd_series_factorwise"},
    "series": {"TruncatedSeries"},
}


def package_imports(source):
    """{package module: names imported from it} over every import in
    source, with "*" for a module imported whole."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "partition_diamonds":
                    continue
                module = module.partition(".")[2]
            if module:
                found.setdefault(module, set()).update(
                    alias.name for alias in node.names)
            else:  # from . import genfun
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "partition_diamonds":
                    found.setdefault(module, set()).add("*")
    return found


def test_oracle_imports_only_the_guard_builders_and_the_return_type():
    with open(oracle.__file__, encoding="utf-8") as f:
        found = package_imports(f.read())
    assert set(found) <= set(ORACLE_MAY_IMPORT), found
    for module, names in found.items():
        assert names <= ORACLE_MAY_IMPORT[module], (module, names)


def test_package_imports_sees_every_import_form():
    source = ("import os\n"
              "import partition_diamonds.omega\n"
              "from . import congruences\n"
              "from .series import Record, TruncatedSeries\n"
              "from partition_diamonds.polynomials import fd_poly\n")
    assert package_imports(source) == {
        "omega": {"*"}, "congruences": {"*"},
        "series": {"Record", "TruncatedSeries"}, "polynomials": {"fd_poly"},
    }

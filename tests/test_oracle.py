"""Diamond enumeration oracle: counts, fixed-shape series, shift, budget.

Expected values here come either from forced configurations (weight 0 and 1
are fully determined), from hand enumeration recorded in comments, or from
independent partition counting written in the test file.
"""

import pytest

from partition_diamonds.oracle import (
    BudgetError, DiamondConfig, DiamondShape, count_rd, count_rd_upto,
    count_sd, count_sd_raw, enumeration_budget, estimate_ddn_enumeration,
    estimate_rd_enumeration, series_Ddn_bruteforce, series_Ddn_shifted,
)
from partition_diamonds.series import TruncatedSeries


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


def test_shape_invariants():
    assert DiamondShape(3, 4).node_count == 5 + 12
    with pytest.raises(ValueError):
        DiamondShape(0, 1)
    with pytest.raises(ValueError):
        DiamondShape(1, -1)


def test_config_validation():
    good = DiamondConfig(links=(2, 1), fans=((2, 1),))
    assert good.total_weight() == 6
    assert good.link_weight() == 3
    assert good.shape == DiamondShape(2, 1)
    with pytest.raises(ValueError, match="violates"):
        DiamondConfig(links=(2, 1), fans=((3, 1),))   # fan above a_0
    with pytest.raises(ValueError, match="violates"):
        DiamondConfig(links=(2, 1), fans=((2, 0),))   # fan below a_1
    with pytest.raises(ValueError, match="non-negative"):
        DiamondConfig(links=(2, -1), fans=((2, 0),))
    with pytest.raises(ValueError, match="fan row"):
        DiamondConfig(links=(2, 1, 0), fans=((2, 1),))


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


def test_estimators_match_enumerated_totals():
    assert estimate_rd_enumeration(2, 10) == sum(count_rd_upto(2, 10))
    est = estimate_ddn_enumeration(2, 2, 9)
    assert est == sum(series_Ddn_bruteforce(2, 2, 9).coeffs)


def test_budget_guard_and_env_override(monkeypatch):
    with pytest.raises(BudgetError):
        count_rd(2, 10, budget=5)
    monkeypatch.setenv("DIAMOND_BUDGET", "5")
    with pytest.raises(BudgetError):
        count_rd(2, 10)
    monkeypatch.delenv("DIAMOND_BUDGET")
    assert count_rd(2, 10) == count_rd_upto(2, 10)[10] > 0


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_budget_env_rejects_bad_values(monkeypatch, value):
    monkeypatch.setenv("DIAMOND_BUDGET", value)
    with pytest.raises(ValueError, match="DIAMOND_BUDGET"):
        enumeration_budget()
    with pytest.raises(ValueError, match="DIAMOND_BUDGET"):
        count_rd(1, 3)
    assert enumeration_budget(7) == 7  # an explicit budget wins

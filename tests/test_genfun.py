"""Closed-form generating functions against the enumeration oracle."""

import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partition_diamonds import genfun, polynomials, series
from partition_diamonds.genfun import (
    ddn_series_closed, mersmann_F_series, rd_series, sd_series,
    sd_series_factorwise,
)
from partition_diamonds.oracle import (
    count_rd_upto, count_sd, count_sd_upto, series_Ddn_bruteforce,
)
from partition_diamonds.series import (
    RingSpec, TruncatedSeries, ZZ, pentagonal_series,
)


def reduced(s, m):
    ring = RingSpec(m)
    return TruncatedSeries(ring, ring.reduced(s.coeffs))


def test_rd_d1_is_partition_series():
    assert rd_series(1, 8).coeffs == (1, 1, 2, 3, 5, 7, 11, 15)
    # same thing through the pentagonal expansion
    assert rd_series(1, 500) == pentagonal_series(500).inverse()


def test_rd_small_values():
    assert rd_series(2, 4).coeffs == (1, 1, 3, 4)
    assert rd_series(3, 6).coeffs[0] == 1


@pytest.mark.parametrize("d", (0, 1, 2, 3))
def test_rd_matches_enumeration(d):
    order = 16
    assert rd_series(d, order).coeffs == \
        tuple(count_rd_upto(d, order - 1))


def test_sd_values():
    assert sd_series(1, 6).coeffs == (1, 2, 5, 10, 20, 36)
    assert sd_series(3, 2).coeffs == (1, 8)
    assert sd_series(2, 3).coeffs == (1, 4, 13)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_sd_matches_enumeration(d):
    order = 16
    assert sd_series(d, order).coeffs == \
        tuple(count_sd(d, n) for n in range(order))


def test_power_sum_factor_values():
    # the n=1 factor of the d=1 product is 1 + 2q + 3q^2 + ... = 1/(1-q)^2
    factor = TruncatedSeries.from_terms({j: j + 1 for j in range(5)}, 5)
    assert factor.coeffs == (1, 2, 3, 4, 5)
    one_minus_q = TruncatedSeries.from_terms({0: 1, 1: -1}, 5)
    assert factor == one_minus_q ** (-2)


@pytest.mark.parametrize("d", (1, 2, 3, 4, 5, 6))
def test_sd_factorwise_agrees(d):
    assert sd_series_factorwise(d, 100) == sd_series(d, 100)


def test_sd_mod_ring_matches_reduction():
    for d, m in ((2, 5), (3, 8), (5, 11)):
        assert sd_series(d, 60, RingSpec(m)) == \
            reduced(sd_series(d, 60), m)


def test_rd_mod_ring_matches_reduction():
    assert rd_series(2, 40, RingSpec(5)) == reduced(rd_series(2, 40), 5)


def test_rd_d1_multiplies_by_no_numerator(monkeypatch):
    # F_1 = 1, so every numerator of r_1 = 1/(q;q) is 1 and is skipped
    want = reduced(pentagonal_series(50).inverse(), 5)
    mul_sparse, calls = series.mul_sparse, []

    def counted(a, poly):
        calls.append(poly)
        mul_sparse(a, poly)

    monkeypatch.setattr(series, "mul_sparse", counted)
    assert rd_series(1, 50, RingSpec(5)) == want
    assert calls == []


def test_ddn_closed_d1_n1():
    assert ddn_series_closed(1, 1, 7).coeffs == (1, 1, 2, 3, 4, 5, 7)


def test_ddn_closed_constant_terms():
    for d, n in ((1, 3), (2, 2), (4, 1)):
        assert ddn_series_closed(d, n, 5).coeffs[0] == 1


@pytest.mark.parametrize("d,n", [(0, 1), (0, 3), (1, 1), (1, 2), (2, 1),
                                 (2, 2), (3, 1), (0, 0), (1, 0), (4, 0)])
def test_ddn_closed_matches_bruteforce(d, n):
    order = 12
    assert ddn_series_closed(d, n, order) == \
        series_Ddn_bruteforce(d, n, order)


# -- closed forms against the oracles on random small (d, N), also mod m ---

DIFFERENTIAL = settings(max_examples=25, deadline=None)


@DIFFERENTIAL
@given(d=st.integers(1, 4), order=st.integers(1, 24), m=st.integers(2, 12))
@example(d=1, order=1, m=2)
@example(d=4, order=24, m=12)
def test_rd_series_differential(d, order, m):
    counts = TruncatedSeries.from_coeffs(count_rd_upto(d, order - 1))
    assert rd_series(d, order) == counts
    assert rd_series(d, order, RingSpec(m)) == reduced(counts, m)


@DIFFERENTIAL
@given(d=st.integers(0, 6), order=st.integers(1, 30), m=st.integers(2, 12))
@example(d=1, order=1, m=2)
@example(d=0, order=30, m=5)
@example(d=6, order=30, m=7)
def test_sd_series_differential(d, order, m):
    counts = TruncatedSeries.from_coeffs(count_sd_upto(d, order - 1))
    assert sd_series(d, order) == counts
    assert sd_series(d, order, RingSpec(m)) == reduced(counts, m)


@DIFFERENTIAL
@given(d=st.integers(1, 3), n=st.integers(1, 4), order=st.integers(1, 20),
       m=st.integers(2, 12))
@example(d=1, n=1, order=1, m=2)
@example(d=3, n=1, order=20, m=5)
@example(d=1, n=8, order=20, m=3)  # most diamonds end in zero links
def test_ddn_series_differential(d, n, order, m):
    counts = series_Ddn_bruteforce(d, n, order)
    closed = ddn_series_closed(d, n, order)
    assert closed == counts
    assert reduced(closed, m) == reduced(counts, m)


def test_mersmann_identity():
    result = mersmann_F_series(300)
    assert result.agree
    assert result.series.coeffs[0] == 1
    assert result.theta.coeffs[0] == 1
    assert result.series.coeffs[1] == -2
    small = mersmann_F_series(4)
    assert small.agree


# -- ddn over Z/mZ -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(d=st.integers(0, 6), n=st.integers(0, 6), order=st.integers(1, 120),
       m=st.one_of(st.integers(2, 12),
                   st.sampled_from([1 << 62, (1 << 64) - 59])))
@example(d=0, n=0, order=1, m=2)
@example(d=6, n=6, order=120, m=(1 << 64) - 59)
def test_ddn_ring_equals_reduced_exact_build(d, n, order, m):
    assert ddn_series_closed(d, n, order, RingSpec(m)) == \
        reduced(ddn_series_closed(d, n, order), m)


# -- enough cells: ddn is rd ---------------------------------------------

@settings(max_examples=60, deadline=None)
@given(d=st.integers(0, 6), order=st.integers(1, 80), extra=st.integers(0, 3),
       m=st.integers(2, 12))
@example(d=0, order=1, extra=0, m=2)
@example(d=6, order=80, extra=0, m=7)
@example(d=1, order=80, extra=0, m=12)
def test_ddn_with_enough_cells_is_rd(d, order, extra, m):
    # below the order a diamond has at most (order - 1) // (d + 1) nonzero
    # cells, so the per-node finite division meets rd's pentagonal one
    n = (order - 1) // (d + 1) + 1 + extra
    assert ddn_series_closed(d, n, order) == rd_series(d, order)
    assert ddn_series_closed(d, n, order, RingSpec(m)) == \
        rd_series(d, order, RingSpec(m))


def test_ddn_work_stops_growing_with_n(monkeypatch):
    # a numerator or node factor at or past the order is 1 below it, so a
    # million cells cost no more passes than the order
    calls = {"mul_sparse": 0, "div_one_minus": 0}
    for name in calls:
        def counted(*args, name=name, primitive=getattr(genfun, name)):
            calls[name] += 1
            primitive(*args)

        monkeypatch.setattr(genfun, name, counted)
    assert ddn_series_closed(3, 10 ** 6, 20) == rd_series(3, 20)
    assert 0 < min(calls.values()) and max(calls.values()) <= 20, calls


# -- s_d over Z reads only the Eulerian columns below the order ----------

@pytest.mark.parametrize("d", range(65))
def test_sd_series_matches_factorwise_up_to_order_40(d):
    # A_d has d columns, so the cap cuts it below order d and not above
    orders = {1, 2, 40} | {o for o in (d - 1, d, d + 1) if 1 <= o <= 40}
    for order in sorted(orders):
        assert sd_series(d, order) == sd_series_factorwise(d, order), order


def test_sd_series_holds_only_the_eulerian_columns_below_the_order():
    widths, code, outer = [], polynomials._eulerian_row.__code__, \
        sys.gettrace()

    def watch_row(frame, event, arg):
        if frame.f_code is not code:
            return None

        def line(frame, event, arg):
            widths.append(len(frame.f_locals.get("row", ())))
            return line
        return line

    sys.settrace(watch_row)
    try:
        series = sd_series(2000, 3)
    finally:
        sys.settrace(outer)
    assert series == sd_series_factorwise(2000, 3)
    assert len(widths) > 2000 and max(widths) == 3

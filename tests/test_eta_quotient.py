"""The sparse eta-quotient route of sd_series, and its primitive div_sparse.

sd_series builds s_1 as 1/(q;q)^2 and s_2 as (q^2;q^2)/(q;q)^4 by dividing
by the pentagonal and Jacobi series, and over Z/mZ it takes that route for
every d whose table (j+1)^d mod m equals the table of exponent 1 or 2.
sd_series_factorwise multiplies bare power sums through product_family and
never touches div_sparse, so it is the reference here.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partition_diamonds import genfun
from partition_diamonds.genfun import sd_series, sd_series_factorwise
from partition_diamonds.series import (
    RingSpec, TruncatedSeries, ZZ, div_sparse, mul_sparse,
)

NEAR_2_64 = (1 << 64) - 59  # the largest prime below 2^64

rings = st.one_of(
    st.just(ZZ),
    st.integers(2, 12).map(RingSpec),
    st.sampled_from((1 << 62, NEAR_2_64)).map(RingSpec),
)

# (d, m) whose table (j+1)^d mod m equals that of exponent 1 or 2
REDUCING = [(5, 5), (11, 11), (13, 7), (4, 3), (6, 5), (2, 4), (3, 2)]


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 30), order=st.integers(1, 300), ring=rings)
@example(d=1, order=300, ring=ZZ)
@example(d=2, order=300, ring=ZZ)
@example(d=1, order=1, ring=ZZ)
@example(d=2, order=1, ring=RingSpec(7))
@example(d=2, order=2, ring=ZZ)
@example(d=1, order=2, ring=RingSpec(NEAR_2_64))
@example(d=2, order=300, ring=RingSpec(1 << 62))
@example(d=30, order=300, ring=RingSpec(NEAR_2_64))
@example(d=5, order=300, ring=RingSpec(5))
@example(d=11, order=300, ring=RingSpec(11))
@example(d=13, order=300, ring=RingSpec(7))
@example(d=4, order=300, ring=RingSpec(3))
@example(d=6, order=300, ring=RingSpec(5))
@example(d=2, order=300, ring=RingSpec(4))
@example(d=3, order=300, ring=RingSpec(2))
@example(d=6, order=2, ring=RingSpec(5))
@example(d=13, order=1, ring=RingSpec(7))
def test_sd_series_matches_factorwise(d, order, ring):
    assert sd_series(d, order, ring) == sd_series_factorwise(d, order, ring)


@pytest.mark.parametrize("d, m", REDUCING + [(1, None), (2, None)])
def test_reducible_tables_skip_euler_product(monkeypatch, d, m):
    def refuse(*args):
        raise AssertionError("euler_product was called")

    monkeypatch.setattr(genfun, "euler_product", refuse)
    ring = ZZ if m is None else RingSpec(m)
    for order in (1, 2, 120):
        assert sd_series(d, order, ring) == \
            sd_series_factorwise(d, order, ring)


@pytest.mark.parametrize("d, m", [(3, 5), (3, None), (4, 7)])
def test_other_tables_stay_on_euler_product(monkeypatch, d, m):
    calls = []
    euler_product = genfun.euler_product

    def counted(*args):
        calls.append(args[1:])
        return euler_product(*args)

    monkeypatch.setattr(genfun, "euler_product", counted)
    ring = ZZ if m is None else RingSpec(m)
    assert sd_series(d, 60, ring) == sd_series_factorwise(d, 60, ring)
    assert calls == [(60, ring)]


# -- div_sparse -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1,
                       max_size=70),
       poly=st.dictionaries(st.integers(1, 80), st.integers(-50, 50),
                            max_size=6),
       times=st.integers(0, 3),
       ring=st.one_of(st.just(ZZ), st.integers(2, 40).map(RingSpec),
                      st.just(RingSpec(NEAR_2_64))))
def test_div_sparse_undoes_mul_sparse(coeffs, poly, times, ring):
    poly = {0: 1, **poly}
    a = list(coeffs)
    for _ in range(times):
        mul_sparse(a, poly)
    div_sparse(a, poly, times, ring)
    if times == 0:
        assert a == coeffs
    else:
        assert a == [ring.normalize(c) for c in coeffs]
    # and against TruncatedSeries arithmetic, which shares no code with it
    b = list(coeffs)
    div_sparse(b, poly, times, ring)
    order = len(coeffs)
    back = TruncatedSeries.from_coeffs(b, ring=ring)
    for _ in range(times):
        back = back * TruncatedSeries.from_terms(poly, order, ring)
    assert back == TruncatedSeries.from_coeffs(coeffs, ring=ring)


def test_div_sparse_ends_in_residue_range():
    for m in (2, 7, 12, NEAR_2_64):
        a = [-5, 3, -(1 << 70), 0, 9, -1]
        div_sparse(a, {0: 1, 1: -1, 3: 7}, 2, RingSpec(m))
        assert all(0 <= c < m for c in a)
    a = [-5]
    div_sparse(a, {0: 1, 4: 1}, 1, RingSpec(3))  # every term dropped
    assert a == [1]


def test_div_sparse_drops_exponents_beyond_the_list():
    a = [1, 2, 3]
    div_sparse(a, {0: 1, 3: 5, 10: -2})
    assert a == [1, 2, 3]
    div_sparse(a, {0: 1, 2: 1, 3: 5})
    assert a == [1, 2, 2]


def test_div_sparse_times_zero_is_identity():
    a = [4, -9, 1 << 80]
    div_sparse(a, {0: 1, 1: 3}, 0, RingSpec(5))
    assert a == [4, -9, 1 << 80]


def test_div_sparse_rejects_bad_input():
    with pytest.raises(ValueError, match="constant term must be 1, got 2"):
        div_sparse([1, 0, 0], {0: 2, 1: 1})
    with pytest.raises(ValueError, match="constant term must be 1, got 0"):
        div_sparse([1, 0, 0], {1: 1})
    with pytest.raises(ValueError, match="negative exponent"):
        div_sparse([1, 0, 0], {0: 1, -1: 1})


def test_inverse_keeps_its_values_and_messages():
    ring = RingSpec(9)
    s = TruncatedSeries.from_terms({0: 2, 1: 5, 4: 3}, 12, ring)
    assert s * s.inverse() == TruncatedSeries.one(12, ring)
    assert all(0 <= c < 9 for c in s.inverse().coeffs)
    t = TruncatedSeries.from_terms({0: -1, 2: 4}, 9)
    assert t.inverse().coeffs == (-1, 0, -4, 0, -16, 0, -64, 0, -256)
    with pytest.raises(ValueError, match="3 is not invertible mod 9"):
        TruncatedSeries.from_terms({0: 3, 1: 1}, 4, ring).inverse()
    with pytest.raises(ValueError, match="2 is not a unit in Z"):
        TruncatedSeries.from_terms({0: 2}, 4).inverse()

"""The in-place Euler-product kernel against TruncatedSeries references.

Every closed form built on series.euler_product / mul_sparse / div_one_minus
is compared, on random (d, N, ring), with a product of TruncatedSeries
factors assembled here or with sd_series_factorwise, which multiplies bare
power sums through product_family and never touches the kernel.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partition_diamonds.genfun import (
    ddn_series_closed, rd_series, sd_series, sd_series_factorwise,
)
from partition_diamonds.polynomials import fd_specialize
from partition_diamonds.series import (
    RingSpec, TruncatedSeries, ZZ, div_one_minus, euler_product, mul_sparse,
    product_family,
)

NEAR_2_64 = (1 << 64) - 59  # the largest prime below 2^64
MODULI = (2, 3, 4, 5, 7, 8, 9, 11, 12, 25, 97, 1 << 62, NEAR_2_64)

rings = st.one_of(
    st.just(ZZ),
    st.sampled_from(MODULI).map(RingSpec),
    st.integers(2, 200).map(RingSpec),  # often m > N
)
SETTINGS = settings(max_examples=60, deadline=None)


def one_minus(s, order, ring):
    return TruncatedSeries.from_terms({0: 1, s: -1}, order, ring)


def in_ring(series, ring):
    return TruncatedSeries.from_coeffs(series.coeffs, ring=ring)


# -- closed forms ---------------------------------------------------------

@SETTINGS
@given(d=st.integers(1, 13), order=st.integers(1, 80), ring=rings)
@example(d=3, order=1, ring=ZZ)
@example(d=5, order=1, ring=RingSpec(7))
@example(d=13, order=80, ring=RingSpec(4))      # d > m, prime power
@example(d=13, order=80, ring=RingSpec(12))     # d > m, composite
@example(d=9, order=80, ring=RingSpec(8))
@example(d=6, order=80, ring=RingSpec(9))
@example(d=7, order=80, ring=RingSpec(25))
@example(d=2, order=40, ring=RingSpec(97))      # m > N
@example(d=13, order=80, ring=RingSpec(NEAR_2_64))
@example(d=11, order=80, ring=RingSpec(1 << 62))
def test_sd_series_matches_factorwise(d, order, ring):
    assert sd_series(d, order, ring) == sd_series_factorwise(d, order, ring)


@SETTINGS
@given(d=st.integers(1, 13), order=st.integers(1, 80), ring=rings)
@example(d=1, order=1, ring=ZZ)
@example(d=13, order=80, ring=RingSpec(4))
@example(d=4, order=80, ring=RingSpec(25))
@example(d=3, order=80, ring=RingSpec(NEAR_2_64))
def test_rd_series_matches_series_product(d, order, ring):
    def factor(n):
        num = in_ring(fd_specialize(d, (n - 1) * (d + 1) + 1, 1, order), ring)
        return num * one_minus(n, order, ring).inverse()

    assert rd_series(d, order, ring) == product_family(factor, order, ring)


@SETTINGS
@given(d=st.integers(1, 13), n=st.integers(1, 6), order=st.integers(1, 80))
@example(d=2, n=3, order=1)
def test_ddn_series_closed_matches_series_product(d, n, order):
    acc = TruncatedSeries.one(order)
    for k in range(n):
        base = k * (d + 1) + 1
        acc = acc * fd_specialize(d, base, 1, order)
        for t in range(d + 1):
            acc = acc * one_minus(base + t, order, ZZ).inverse()
    acc = acc * one_minus((n + 1) + d * n, order, ZZ).inverse()
    assert ddn_series_closed(d, n, order) == acc


# -- the driver and its primitives on random sparse factors ----------------

factor_families = st.lists(
    st.tuples(
        st.dictionaries(st.integers(0, 6), st.integers(-9, 9), max_size=4),
        st.dictionaries(st.integers(0, 4), st.integers(0, 3), max_size=3),
    ),
    min_size=1, max_size=8,
)


@SETTINGS
@given(family=factor_families, order=st.integers(1, 60), ring=rings)
def test_euler_product_matches_product_family(family, order, ring):
    """Factor n: 1 + sum c q^{n(1+i)} over prod (1 - q^{n(1+i)})^k."""
    def kernel_factor(n):
        numer, denom = family[n % len(family)]
        poly = {n * (1 + i): c for i, c in numer.items()}
        poly[0] = 1
        return poly, {n * (1 + i): k for i, k in denom.items()}

    def series_factor(n):
        poly, denom = kernel_factor(n)
        f = TruncatedSeries.from_terms(poly, order, ring)
        for s, k in denom.items():
            f = f * one_minus(s, order, ring) ** (-k)
        return f

    assert euler_product(kernel_factor, order, ring) == \
        product_family(series_factor, order, ring)


@SETTINGS
@given(coeffs=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1,
                       max_size=70),
       poly=st.dictionaries(st.integers(1, 80), st.integers(-50, 50),
                            max_size=5),
       stride=st.integers(1, 80), times=st.integers(0, 4))
def test_primitives_match_series_arithmetic(coeffs, poly, stride, times):
    order = len(coeffs)
    a = list(coeffs)
    mul_sparse(a, {0: 1, **poly})
    div_one_minus(a, stride, times)
    want = (TruncatedSeries.from_coeffs(coeffs)
            * TruncatedSeries.from_terms({0: 1, **poly}, order)
            * one_minus(stride, order, ZZ) ** (-times))
    assert tuple(a) == want.coeffs


def test_div_one_minus_both_loop_orders():
    # stride 3 runs per residue class, stride 30 per block; same answer
    for s in (3, 30):
        a = [1] + [0] * 99
        div_one_minus(a, s, 2)
        assert tuple(a) == (one_minus(s, 100, ZZ) ** (-2)).coeffs


# -- contract violations ----------------------------------------------------

def test_euler_product_rejects_bad_constant_term():
    with pytest.raises(ValueError, match="constant term 2, need 1"):
        euler_product(lambda n: ({0: 2}, {}), 6)
    with pytest.raises(ValueError, match="constant term 0, need 1"):
        euler_product(lambda n: ({}, {n: 1}), 6)
    with pytest.raises(ValueError, match="constant term 0, need 1"):
        euler_product(lambda n: ({0: 5}, {}), 6, RingSpec(5))


def test_euler_product_rejects_low_numerator_term():
    def bad(n):
        return ({0: 1, 1: 1}, {}) if n == 2 else ({0: 1}, {})

    with pytest.raises(ValueError, match="factor 2 has a q\\^1 term; "
                                         "lowest non-constant"):
        euler_product(bad, 6)
    with pytest.raises(ValueError, match="lowest non-constant"):
        euler_product(lambda n: ({0: 1, -1: 1}, {}), 6)


def test_euler_product_rejects_low_stride():
    def bad(n):
        return ({0: 1}, {1: 1}) if n == 3 else ({0: 1}, {n: 1})

    with pytest.raises(ValueError, match="factor 3 has a q\\^1 term"):
        euler_product(bad, 6)
    with pytest.raises(ValueError, match="q\\^0 term"):
        euler_product(lambda n: ({0: 1}, {0: 1}), 6)


def test_euler_product_rejects_negative_power_and_order():
    with pytest.raises(ValueError, match="negative denominator power"):
        euler_product(lambda n: ({0: 1}, {n: -1}), 6)
    with pytest.raises(ValueError, match="order"):
        euler_product(lambda n: ({0: 1}, {}), 0)


def test_euler_product_contract_is_checked_after_reduction():
    # 6 + 5q is 1 in Z/5, so factor n is 1/(1 - q^n) there, as it would be
    # for product_family; over Z the q^1 term breaks the contract at n = 2
    ring = RingSpec(5)
    got = euler_product(lambda n: ({0: 6, 1: 5}, {n: 1}), 8, ring)
    want = product_family(lambda n: one_minus(n, 8, ring).inverse(), 8, ring)
    assert got == want
    with pytest.raises(ValueError, match="factor 2 has a q\\^1 term"):
        euler_product(lambda n: ({0: 1, 1: 5}, {n: 1}), 8)


def test_primitives_reject_bad_input():
    with pytest.raises(ValueError, match="constant term"):
        mul_sparse([1, 0, 0], {0: 2, 1: 1})
    with pytest.raises(ValueError, match="negative exponent"):
        mul_sparse([1, 0, 0], {0: 1, -1: 1})
    with pytest.raises(ValueError, match="stride"):
        div_one_minus([1, 0, 0], 0)

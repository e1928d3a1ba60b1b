"""The in-place Euler-product kernel against TruncatedSeries references.

Every closed form built on series.euler_product / mul_sparse / div_one_minus
is compared, on random (d, N, ring), with a product of TruncatedSeries
factors assembled here or with sd_series_factorwise, which multiplies bare
power sums through product_family and never touches the kernel.
euler_product itself, numerators over a sparse eta quotient, is compared
with product_family on random numerators and eta maps.
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
@given(d=st.integers(0, 13), order=st.integers(1, 80), ring=rings)
@example(d=3, order=1, ring=ZZ)
@example(d=0, order=80, ring=ZZ)                # s_0 = 1/(q;q)
@example(d=0, order=80, ring=RingSpec(2))
@example(d=0, order=80, ring=RingSpec(5))
@example(d=0, order=80, ring=RingSpec(12))
@example(d=0, order=80, ring=RingSpec(NEAR_2_64))
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

numerator_families = st.none() | st.lists(
    st.dictionaries(st.integers(0, 6), st.integers(-9, 9), max_size=4),
    min_size=1, max_size=8,
)
# powers -2..7 cross the Jacobi split at 3 and 6
etas = st.dictionaries(st.integers(1, 5), st.integers(-2, 7), max_size=3)


@SETTINGS
@given(family=numerator_families, eta=etas, order=st.integers(1, 60),
       ring=rings)
@example(family=None, eta={2: -1}, order=40, ring=RingSpec(7))
@example(family=None, eta={1: -2, 3: -1}, order=60, ring=RingSpec(5))
@example(family=None, eta={1: 7, 2: 6, 3: 3}, order=60, ring=ZZ)
@example(family=[{0: 3, 2: -4}], eta={1: -2, 4: 5}, order=60,
         ring=RingSpec(1 << 62))
def test_euler_product_matches_product_family(family, eta, order, ring):
    """Numerator n: 1 + sum c q^{n(1+i)}; then prod_s (q^s; q^s)^{-k}."""
    def numerator(n):
        poly = {n * (1 + i): c for i, c in family[n % len(family)].items()}
        poly[0] = 1
        return poly

    def series_factor(n):
        f = TruncatedSeries.one(order, ring) if family is None else \
            TruncatedSeries.from_terms(numerator(n), order, ring)
        for s, k in eta.items():
            f = f * one_minus(s * n, order, ring) ** (-k)
        return f

    numerator_at = None if family is None else numerator
    assert euler_product(numerator_at, order, ring, eta=eta) == \
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
    for _ in range(times):
        div_one_minus(a, stride)
    want = (TruncatedSeries.from_coeffs(coeffs)
            * TruncatedSeries.from_terms({0: 1, **poly}, order)
            * one_minus(stride, order, ZZ) ** (-times))
    assert tuple(a) == want.coeffs


def test_div_one_minus_both_loop_orders():
    # stride 3 runs per residue class, stride 30 per block; same answer
    for s in (3, 30):
        a = [1] + [0] * 99
        div_one_minus(a, s)
        div_one_minus(a, s)
        assert tuple(a) == (one_minus(s, 100, ZZ) ** (-2)).coeffs


# -- contract violations ----------------------------------------------------

def test_euler_product_rejects_bad_constant_term():
    with pytest.raises(ValueError, match="constant term 2, need 1"):
        euler_product(lambda n: {0: 2}, 6, eta={})
    with pytest.raises(ValueError, match="constant term 0, need 1"):
        euler_product(lambda n: {}, 6, eta={1: 1})
    with pytest.raises(ValueError, match="constant term 0, need 1"):
        euler_product(lambda n: {0: 5}, 6, RingSpec(5), eta={})


def test_euler_product_rejects_low_numerator_term():
    def bad(n):
        return {0: 1, 1: 1} if n == 2 else {0: 1}

    with pytest.raises(ValueError, match="factor 2 has a q\\^1 term; "
                                         "lowest non-constant"):
        euler_product(bad, 6, eta={})
    with pytest.raises(ValueError, match="lowest non-constant"):
        euler_product(lambda n: {0: 1, -1: 1}, 6, eta={})


def test_euler_product_rejects_low_stride():
    for s in (0, -1, -3):
        with pytest.raises(ValueError, match=f"stride must be >= 1, got {s}"):
            euler_product(None, 6, eta={1: 1, s: 1})
        with pytest.raises(ValueError, match="stride"):
            euler_product(lambda n: {0: 1}, 6, RingSpec(5), eta={s: -1})


def test_euler_product_rejects_order_below_one():
    for order in (0, -4):
        with pytest.raises(ValueError, match="order must be >= 1"):
            euler_product(None, order, eta={1: 1})


def test_euler_product_contract_is_checked_after_reduction():
    # 6 + 5q is 1 in Z/5, so factor n is 1/(1 - q^n) there, as it would be
    # for product_family; over Z the q^1 term breaks the contract at n = 2
    ring = RingSpec(5)
    got = euler_product(lambda n: {0: 6, 1: 5}, 8, ring, eta={1: 1})
    want = product_family(lambda n: one_minus(n, 8, ring).inverse(), 8, ring)
    assert got == want
    with pytest.raises(ValueError, match="factor 2 has a q\\^1 term"):
        euler_product(lambda n: {0: 1, 1: 5}, 8, eta={1: 1})


def test_primitives_reject_bad_input():
    with pytest.raises(ValueError, match="constant term"):
        mul_sparse([1, 0, 0], {0: 2, 1: 1})
    with pytest.raises(ValueError, match="negative exponent"):
        mul_sparse([1, 0, 0], {0: 1, -1: 1})
    with pytest.raises(ValueError, match="stride"):
        div_one_minus([1, 0, 0], 0)

"""Series kernel: spec'd examples, then randomized ring-axiom trials.

Derived expectations are computed by independent oracles written here
(linear recurrences, binomial coefficients, raw partition enumeration), not
by the series arithmetic under test.
"""

import math
import random
from operator import add

import pytest

from partition_diamonds.cli import series_to_json_dict
from partition_diamonds.series import (
    RingSpec, TruncatedSeries, ZZ, jacobi_cube_series, pentagonal_series,
    product_family,
)


def S(terms, order, ring=ZZ):
    return TruncatedSeries.from_terms(terms, order, ring)


def geometric(order):
    return TruncatedSeries.from_coeffs([1] * order)


# -- independent oracles ------------------------------------------------

def brute_partition_count(n):
    """Count partitions of n by enumerating weakly decreasing part lists."""

    def rec(rem, largest):
        if rem == 0:
            return 1
        return sum(rec(rem - p, p) for p in range(min(rem, largest), 0, -1))

    return rec(n, n)


def fibonacci(k):
    a, b = 1, 1
    for _ in range(k):
        a, b = b, a + b
    return a


# -- multiplication -----------------------------------------------------

def test_mul_difference_of_squares():
    a = S({0: 1, 1: 1}, 5)
    b = S({0: 1, 1: -1}, 5)
    assert (a * b).coeffs == (1, 0, -1, 0, 0)


def test_mul_identity():
    s = S({0: 3, 2: -7, 4: 11}, 6)
    assert s * TruncatedSeries.one(6) == s


def test_mul_geometric_telescopes():
    assert (geometric(10) * S({0: 1, 1: -1}, 10)).coeffs == \
        (1,) + (0,) * 9


def test_mul_truncates_to_min_order():
    a = geometric(10)
    b = geometric(4)
    assert (a * b).order == 4


def test_mul_ring_mismatch_rejected():
    a = TruncatedSeries.one(4)
    b = TruncatedSeries.one(4, RingSpec(5))
    with pytest.raises(ValueError, match="ring mismatch"):
        a * b


# -- inversion ----------------------------------------------------------

def test_invert_one_minus_q():
    assert S({0: 1, 1: -1}, 6).inverse().coeffs == (1, 1, 1, 1, 1, 1)


def test_invert_one():
    assert TruncatedSeries.one(4).inverse() == TruncatedSeries.one(4)


def test_invert_fibonacci():
    got = S({0: 1, 1: -1, 2: -1}, 7).inverse()
    assert got.coeffs == tuple(fibonacci(k) for k in range(7))
    assert got.coeffs == (1, 1, 2, 3, 5, 8, 13)


def test_invert_nonunit_rejected():
    with pytest.raises(ValueError, match="unit"):
        S({0: 2, 1: 1}, 4).inverse()
    with pytest.raises(ValueError, match="invertible"):
        S({0: 5, 1: 1}, 4, RingSpec(10)).inverse()


def test_invert_mod_ring():
    s = S({0: 3, 1: 1}, 5, RingSpec(7))
    assert s * s.inverse() == TruncatedSeries.one(5, RingSpec(7))


# -- powers -------------------------------------------------------------

def test_pow_negative_binomial():
    got = S({0: 1, 1: -1}, 5) ** -2
    assert got.coeffs == tuple(math.comb(n + 1, 1) for n in range(5))


def test_pow_zero_gives_one():
    s = S({0: 9, 3: 4}, 6)
    assert s ** 0 == TruncatedSeries.one(6)


def test_pow_cube():
    assert (S({0: 1, 1: -1}, 5) ** 3).coeffs == (1, -3, 3, -1, 0)


# -- product_family -----------------------------------------------------

def test_product_family_partition_numbers():
    got = product_family(
        lambda n: S({0: 1, n: -1}, 8).inverse(), 8)
    assert got.coeffs == tuple(brute_partition_count(n) for n in range(8))
    assert got.coeffs == (1, 1, 2, 3, 5, 7, 11, 15)


def test_product_family_all_ones():
    got = product_family(lambda n: TruncatedSeries.one(12), 12)
    assert got == TruncatedSeries.one(12)


def test_product_family_contract_violations():
    with pytest.raises(ValueError, match="constant term"):
        product_family(lambda n: S({0: 2}, 6), 6)
    # a q^1 term in the n=2 factor violates the stabilization contract
    def bad(n):
        return S({0: 1, 1: 1}, 6) if n == 2 else TruncatedSeries.one(6)
    with pytest.raises(ValueError, match="lowest non-constant"):
        product_family(bad, 6)
    with pytest.raises(ValueError, match="order"):
        product_family(lambda n: TruncatedSeries.one(3), 6)


# -- classical sparse expansions -----------------------------------------

def test_pentagonal_series_values():
    assert pentagonal_series(13).coeffs == \
        (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)
    assert pentagonal_series(1).coeffs == (1,)


def test_pentagonal_matches_product():
    n = 200
    direct = product_family(lambda k: S({0: 1, k: -1}, n), n)
    assert pentagonal_series(n) == direct


def test_jacobi_cube_values():
    assert jacobi_cube_series(7).coeffs == (1, -3, 0, 5, 0, 0, -7)
    assert jacobi_cube_series(1).coeffs == (1,)


def test_jacobi_matches_pentagonal_cubed():
    n = 200
    assert jacobi_cube_series(n) == pentagonal_series(n) ** 3


# -- reduction ----------------------------------------------------------

def reduced(s, m):
    ring = RingSpec(m)
    return TruncatedSeries(ring, ring.reduced(s.coeffs))


def test_reduce_mod_values():
    assert RingSpec(5).reduced([1, -3, 0, 5]) == (1, 2, 0, 0)
    assert ZZ.reduced([1, -3, 0, 5]) == (1, -3, 0, 5)


def test_reduce_mod_idempotent():
    ring = RingSpec(2)
    once = ring.reduced([7, -4, 9, 1])
    assert once == (1, 0, 1, 1)
    assert ring.reduced(once) == once


# -- randomized invariants ----------------------------------------------

def random_series(rng, max_order=64, max_coeff=10 ** 6, order=None):
    n = order or rng.randint(1, max_order)
    return TruncatedSeries.from_coeffs(
        [rng.randint(-max_coeff, max_coeff) for _ in range(n)])


def test_ring_axioms_random_trials():
    rng = random.Random(20260810)
    for _ in range(1000):
        n = rng.randint(1, 64)
        a = random_series(rng, order=n)
        b = random_series(rng, order=n)
        c = random_series(rng, order=n)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        b_plus_c = TruncatedSeries(ZZ, tuple(map(add, b.coeffs, c.coeffs)))
        assert (a * b_plus_c).coeffs == \
            tuple(map(add, (a * b).coeffs, (a * c).coeffs))


def test_mul_invert_roundtrip_random():
    rng = random.Random(97)
    one = TruncatedSeries.one(40)
    for _ in range(200):
        coeffs = [rng.choice([1, -1])] + \
            [rng.randint(-50, 50) for _ in range(39)]
        a = TruncatedSeries.from_coeffs(coeffs)
        assert a * a.inverse() == one


def test_reduce_commutes_with_mul_and_pow():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.choice([2, 3, 5, 8, 11, 64])
        a = random_series(rng, max_order=24)
        b = random_series(rng, max_order=24, order=a.order)
        assert reduced(a * b, m) == \
            reduced(a, m) * reduced(b, m)
        e = rng.randint(0, 4)
        assert reduced(a ** e, m) == reduced(a, m) ** e


# -- map-based kernels against literal per-coefficient loops -------------

BIG = 10 ** 19 + 9  # 20 digits
KERNEL_RINGS = [ZZ, RingSpec(7), RingSpec(2 ** 64 - 59)]


def literal_product(a, b, ring):
    """Schoolbook double loop over all index pairs, reduced at the end."""
    n = min(len(a), len(b))
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a[i] * b[j]
    return tuple(ring.normalize(c) for c in out)


def kernel_coeffs(rng, order):
    """Zero-heavy coefficients: 0, +-1, 20-digit values and small ints."""
    pool = (0, 0, 0, 0, 1, -1, BIG, -BIG, 10 ** 20 - 1)
    return [rng.choice(pool) if rng.random() < 0.8
            else rng.randint(-BIG, BIG) for _ in range(order)]


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=repr)
def test_mul_equals_literal_convolution(ring):
    rng = random.Random(4100 + (ring.modulus or 0) % 1000)
    for _ in range(300):
        a = TruncatedSeries.from_coeffs(
            kernel_coeffs(rng, rng.randint(1, 40)), ring=ring)
        # same or different order, and sometimes all zeros or a monomial
        b_order = rng.choice([a.order, rng.randint(1, 40)])
        b_coeffs = rng.choice([kernel_coeffs(rng, b_order), [0] * b_order,
                               [0] * (b_order - 1) + [rng.choice((1, -1))]])
        b = TruncatedSeries.from_coeffs(b_coeffs, ring=ring)
        want = literal_product(a.coeffs, b.coeffs, ring)
        assert (a * b).coeffs == want
        assert (b * a).coeffs == want
        assert (a * b).ring == ring


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=repr)
def test_from_coeffs_equals_literal_loop(ring):
    # the series type has no sums, so only from_coeffs is left to check
    rng = random.Random(4200 + (ring.modulus or 0) % 1000)
    for _ in range(200):
        raw = kernel_coeffs(rng, rng.randint(1, 30))
        order = rng.choice([None, rng.randint(1, 40)])
        want = [ring.normalize(c) for c in raw]
        if order is not None:
            want = (want + [0] * order)[:order]
        a = TruncatedSeries.from_coeffs(raw, order, ring)
        assert a.coeffs == tuple(want)


def test_from_coeffs_pads_a_short_list_and_cuts_a_long_one():
    assert TruncatedSeries.from_coeffs([1, 2], 4).coeffs == (1, 2, 0, 0)
    # a long list is cut with no error, even where the cut terms are nonzero
    assert TruncatedSeries.from_coeffs([1, 2, 3], 2).coeffs == (1, 2)


def test_product_family_error_messages():
    with pytest.raises(ValueError) as exc:
        product_family(lambda n: S({0: 2}, 6), 6)
    assert str(exc.value) == "factor 1 has constant term 2, need 1"

    def low(n):
        # factor 5 has its lowest non-constant term at q^3, not q^1
        return S({0: 1, 3: 4, 4: 1}, 9) if n == 5 else S({0: 1, n: -1}, 9)

    with pytest.raises(ValueError) as exc:
        product_family(low, 9)
    assert str(exc.value) == ("factor 5 has a q^3 term; lowest non-constant "
                              "exponent must be >= 5")
    # a term at q^n itself is within the contract
    got = product_family(lambda n: S({0: 1, n: -1, n + 1: 1}, 9), 9)
    assert got.order == 9


# -- serialization -------------------------------------------------------

def test_json_dict_and_str():
    s = TruncatedSeries.from_coeffs([10 ** 30, -2, 0, 7])
    assert series_to_json_dict(s) == {
        "ring": "Z", "order": 4, "coeffs": [str(10 ** 30), "-2", "0", "7"]}
    t = TruncatedSeries.from_coeffs([1, 6], ring=RingSpec(7))
    assert series_to_json_dict(t) == {"ring": {"mod": 7}, "order": 2,
                                      "coeffs": ["1", "6"]}
    # str shows at most eight nonzero terms, then the truncation order
    assert str(s) == f"{10 ** 30}*q^0 + -2*q^1 + 7*q^3 + O(q^4)"
    assert str(TruncatedSeries(ZZ, (0,) * 3)) == "0 + O(q^3)"
    assert str(geometric(12)).count("*q^") == 8

"""Eulerian polynomials and the F_d family.

The Eulerian cross-check multiplies the bare power sum sum_j (j+1)^d q^j by
(1-q)^(d+1) using plain list arithmetic, and the permutation check counts
(des, maj) over itertools.permutations, so neither leans on any package code
being tested.
"""

import itertools
import math

import pytest

from partition_diamonds.polynomials import (
    BivariatePolynomial, UnivariatePolynomial, eulerian_poly, fd_at_w1,
    fd_poly, fd_specialize,
)


def eulerian_via_power_sum(d, window=40):
    """Coefficients of (sum_j (j+1)^d q^j) * (1-q)^(d+1), plain lists."""
    power = [(j + 1) ** d for j in range(window)]
    out = [0] * window
    for k in range(d + 2):
        sign = -1 if k % 2 else 1
        c = sign * math.comb(d + 1, k)
        for j in range(window - k):
            out[j + k] += c * power[j]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def test_eulerian_small():
    assert eulerian_poly(0).coeffs == (1,)
    assert eulerian_poly(1).coeffs == (1,)
    assert eulerian_poly(2).coeffs == (1, 1)
    assert eulerian_poly(3).coeffs == (1, 4, 1)
    assert eulerian_poly(4).coeffs == (1, 11, 11, 1)


@pytest.mark.parametrize("d", range(1, 7))
def test_eulerian_matches_power_sum(d):
    assert eulerian_poly(d).coeffs == eulerian_via_power_sum(d)


@pytest.mark.parametrize("d", range(1, 11))
def test_eulerian_positive_palindromic_factorial_sum(d):
    coeffs = eulerian_poly(d).coeffs
    assert all(c > 0 for c in coeffs)
    assert coeffs == coeffs[::-1]
    assert sum(coeffs) == math.factorial(d)


def test_eulerian_large_d_is_iterative():
    # a cold build this large must not depend on the recursion limit
    eulerian_poly.cache_clear()
    coeffs = eulerian_poly(600).coeffs
    assert coeffs == coeffs[::-1]
    assert sum(coeffs) == math.factorial(600)


def des_maj(perm):
    """Number and index sum (1-based) of the descents of a permutation."""
    tops = [i + 1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1]]
    return len(tops), sum(tops)


@pytest.mark.parametrize("d", range(1, 8))
def test_fd_is_des_maj_distribution(d):
    # Carlitz's q-Eulerian polynomial: F_d = sum over S_d of q0^des w^maj
    counts = {}
    for perm in itertools.permutations(range(d)):
        key = des_maj(perm)
        counts[key] = counts.get(key, 0) + 1
    assert fd_poly(d).terms == counts
    by_des = [0] * d
    for (i, _), c in counts.items():
        by_des[i] += c
    assert eulerian_poly(d).coeffs == tuple(by_des)


def test_fd_small():
    assert fd_poly(1).terms == {(0, 0): 1}
    assert fd_poly(2).terms == {(0, 0): 1, (1, 1): 1}
    assert fd_poly(3).terms == {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1}
    # equality and hash go by terms; zero coefficients are dropped
    same = BivariatePolynomial({(1, 1): 1, (0, 0): 1, (5, 5): 0})
    assert same == fd_poly(2) and hash(same) == hash(fd_poly(2))
    assert len({fd_poly(2), same, fd_poly(3)}) == 2
    assert fd_poly(2) != fd_poly(3) and fd_poly(1) != {(0, 0): 1}


@pytest.mark.parametrize("d", range(1, 9))
def test_fd_degree_in_q0(d):
    assert fd_poly(d).degree_q0() == d - 1


@pytest.mark.parametrize("d", range(1, 13))
def test_fd_at_w1_is_eulerian(d):
    assert fd_at_w1(d) == eulerian_poly(d)


def test_fd_specialize_values():
    # one-cell numerators of the diamond products
    assert fd_specialize(2, 1, 1, 5).coeffs == (1, 0, 1, 0, 0)
    assert fd_specialize(1, 3, 2, 6) == \
        fd_specialize(1, 7, 1, 6)  # F_1 = 1 regardless of exponents
    got = fd_specialize(3, 5, 1, 14)
    assert got.nonzero_terms() == [(0, 1), (6, 2), (7, 2), (13, 1)]


def test_fd_specialize_rejects_bad_exponents():
    with pytest.raises(ValueError):
        fd_specialize(2, 0, 1, 5)
    with pytest.raises(ValueError):
        fd_specialize(2, 1, -1, 5)


def test_division_guard_fires_on_nonexact_input():
    p = BivariatePolynomial({(0, 0): 1, (0, 1): 1})  # 1 + w, not divisible
    with pytest.raises(ArithmeticError):
        p.divide_by_one_minus_w()


def test_univariate_basics():
    p = UnivariatePolynomial.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (1, 2) and p.degree == 1
    zero = UnivariatePolynomial.from_coeffs([0, 0])
    assert zero.coeffs == () and zero.degree == -1


def test_fd_poly_degree_invariant_raises(monkeypatch):
    # a wrong quotient must raise even under python -O, where asserts vanish
    monkeypatch.setattr(BivariatePolynomial, "divide_by_one_minus_w",
                        lambda self: BivariatePolynomial({(0, 0): 1}))
    fd_poly.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="degree"):
            fd_poly(3)
    finally:
        fd_poly.cache_clear()

"""Eulerian polynomials and the F_d family.

The Eulerian cross-check multiplies the bare power sum sum_j (j+1)^d q^j by
(1-q)^(d+1) using plain list arithmetic.  F_d, built by Carlitz's row
recurrence, is checked three other ways: the permutation check counts
(des, maj) over itertools.permutations, the paper's recurrence and the
one-cell series identity are multiplied out in plain dicts, so none leans
on any package code being tested.
"""

import itertools
import math

import pytest

from partition_diamonds.polynomials import (
    _eulerian_row, _fd_rows, eulerian_poly, fd_at_w1, fd_poly, fd_specialize,
    fd_terms,
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
    assert eulerian_poly(0) == (1,)
    assert eulerian_poly(1) == (1,)
    assert eulerian_poly(2) == (1, 1)
    assert eulerian_poly(3) == (1, 4, 1)
    assert eulerian_poly(4) == (1, 11, 11, 1)


@pytest.mark.parametrize("d", range(1, 7))
def test_eulerian_matches_power_sum(d):
    assert eulerian_poly(d) == eulerian_via_power_sum(d)


@pytest.mark.parametrize("d", range(1, 11))
def test_eulerian_positive_palindromic_factorial_sum(d):
    coeffs = eulerian_poly(d)
    assert all(c > 0 for c in coeffs)
    assert coeffs == coeffs[::-1]
    assert sum(coeffs) == math.factorial(d)


def test_eulerian_large_d_is_iterative():
    # a cold build this large must not depend on the recursion limit
    coeffs = eulerian_poly(600)
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
    assert fd_poly(d) == counts
    by_des = [0] * d
    for (i, _), c in counts.items():
        by_des[i] += c
    assert eulerian_poly(d) == tuple(by_des)


def dict_add(out, key, c):
    out[key] = out.get(key, 0) + c


def nonzero(terms):
    return {key: c for key, c in terms.items() if c}


@pytest.mark.parametrize("d", range(1, 13))
def test_fd_obeys_paper_recurrence(d):
    # (1 - w) F_d = (1 - q0 w^d) F_{d-1}(q0, w) - w (1 - q0) F_{d-1}(q0 w, w)
    lhs, rhs = {}, {}
    for (i, j), c in fd_poly(d).items():
        dict_add(lhs, (i, j), c)
        dict_add(lhs, (i, j + 1), -c)
    for (i, j), c in fd_poly(d - 1).items():
        dict_add(rhs, (i, j), c)
        dict_add(rhs, (i + 1, j + d), -c)
        dict_add(rhs, (i, i + j + 1), -c)
        dict_add(rhs, (i + 1, i + j + 1), c)
    assert nonzero(lhs) == nonzero(rhs)


def one_cell_numerator(d):
    """(sum_{g<=d} [g+1]_w^d z^g) * prod_{t=0..d} (1 - z w^t), as
    {(z exponent, w exponent): coefficient} up to z-degree d."""
    terms = {}
    for g in range(d + 1):
        power = {0: 1}                                # [g+1]_w^d
        for _ in range(d):
            step = {}
            for j, c in power.items():
                for t in range(g + 1):
                    dict_add(step, j + t, c)
            power = step
        for j, c in power.items():
            terms[g, j] = c
    for t in range(d + 1):
        step = dict(terms)
        for (g, j), c in terms.items():
            if g < d:
                dict_add(step, (g + 1, j + t), -c)
        terms = step
    return nonzero(terms)


@pytest.mark.parametrize("d", range(11))
def test_fd_is_one_cell_numerator(d):
    # sum_g [g+1]_w^d z^g = F_d(z, w) / prod_{t=0..d} (1 - z w^t)
    assert fd_poly(d) == one_cell_numerator(d)


def test_fd_small():
    assert fd_poly(1) == {(0, 0): 1}
    assert fd_poly(2) == {(0, 0): 1, (1, 1): 1}
    assert fd_poly(3) == {(0, 0): 1, (1, 1): 2, (1, 2): 2, (2, 3): 1}
    # the last row's leading zeros are dropped, and each call returns a new
    # dict, so clearing one leaves the cached rows intact
    got = fd_poly(4)
    assert 0 not in got.values()
    want = dict(got)
    got.clear()
    assert fd_poly(4) == want


@pytest.mark.parametrize("d", range(1, 9))
def test_fd_degree_in_q0(d):
    assert max(i for i, _ in fd_poly(d)) == d - 1


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


def specialize_reference(terms, a, b, order):
    """F_d(q^a, q^b) below q^order from a {(i, j): coeff} dict, term by term."""
    out = {}
    for (i, j), c in terms.items():
        e = a * i + b * j
        if e < order:
            out[e] = out.get(e, 0) + c
    return out


@pytest.mark.parametrize("b", [0, 1, 2, 3])
@pytest.mark.parametrize("d", [*range(13), 32, 64])
def test_fd_terms_at_row_boundaries(d, b):
    terms = fd_poly(d)
    for a in (1, 2, 3, d + 1):
        # orders just below, at and just above k a for each q0 power k; at
        # large d, whole rows (b = 0) and the widest a stop at k = 4, as
        # their later orders read F_d nearly whole (43k terms at d = 64)
        top = max(d, 1) if d <= 12 or (b and a <= 3) else 4
        orders = {o for k in range(top + 1)
                  for o in (k * a - 1, k * a, k * a + 1) if o >= 0}
        # the reference grows by the terms landing below each next order
        landed = sorted((a * i + b * j, c) for (i, j), c in terms.items())
        want, pos = {}, 0
        for order in sorted(orders):
            while pos < len(landed) and landed[pos][0] < order:
                e, c = landed[pos]
                want[e] = want.get(e, 0) + c
                pos += 1
            assert fd_terms(d, a, b, order) == want, (a, order)


@pytest.mark.parametrize("d, order", [(0, 20), (1, 20), (2, 60), (3, 60),
                                      (8, 120), (12, 120), (32, 200),
                                      (64, 200)])
def test_fd_terms_every_rd_factor(d, order):
    # with a, b >= 1 the term q0^i w^j lands at or past q^(i + j)
    near = {(i, j): c for (i, j), c in fd_poly(d).items()
            if i + j < order}
    for n in range(1, order):
        a = (n - 1) * (d + 1) + 1
        assert fd_terms(d, a, 1, order) == \
            specialize_reference(near, a, 1, order), n


def test_fd_specialize_rejects_bad_exponents():
    with pytest.raises(ValueError):
        fd_specialize(2, 0, 1, 5)
    with pytest.raises(ValueError):
        fd_specialize(2, 1, -1, 5)


def test_fd_rejects_negative_d():
    # the row builder's base case d <= 1 must not answer for d < 0
    for build in (fd_poly, fd_at_w1, eulerian_poly):
        with pytest.raises(ValueError, match="d must be >= 0"):
            build(-1)


@pytest.mark.parametrize("d", range(0, 25))
def test_capped_eulerian_row_is_a_prefix(d):
    full = eulerian_poly(d)
    for cap in range(1, d + 3):
        assert tuple(_eulerian_row(d, cap)) == full[:cap]


def test_fd_row_cache_keeps_two_levels():
    fd_poly(64)
    assert _fd_rows.cache_info().currsize <= 2


def test_ascending_fd_sweep_builds_each_level_once():
    _fd_rows.cache_clear()
    for d in range(1, 21):
        fd_at_w1(d)
    assert _fd_rows.cache_info().misses == 20

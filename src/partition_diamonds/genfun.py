"""Closed-form generating functions for d-fold partition diamonds.

rd_series counts diamonds by total node sum, sd_series counts Schmidt-type
diamonds by link sum only, and ddn_series_closed gives the fixed-length
series under the one-variable specialization (every node variable set to q).
Each closed form is a product of sparse polynomials over powers of
1/(1 - q^s); rd_series and sd_series go through the in-place kernel
series.euler_product, whose stabilization contract guarantees that factors
beyond the truncation order contribute nothing, and the other products
call its primitives directly.  sd_series_factorwise stays on
product_family as the independent reference.

sd_series has a second route for the two exponents whose product is a
sparse eta quotient: s_1 = 1/(q;q)^2 and s_2 = (q^2;q^2)/(q;q)^4.  It
divides by Euler's pentagonal series and Jacobi's series, O(sqrt(N)) terms
each, for O(N^1.5) work in place of about (d+1) N^2.  Over Z it serves
d = 1 and d = 2.  Over Z/mZ the series depends on d only through the table
(j+1)^d mod m, so it serves every d whose table equals the table of
exponent 1 or 2, such as d = 5 mod 5, d = 13 mod 7 or d = 6 mod 5; each
table is computed and compared, no theorem is assumed.  Every other
(d, ring) stays on euler_product.

mersmann_F_series computes the weight-1/2 eta quotient

    prod (1-q^{6n}) (1-q^n)^2 / ((1-q^{3n}) (1-q^{2n}))

both as that product and as its two-theta-sum expansion, and reports
whether they agree; downstream congruence arguments lean on the theta form
only after this check passes.
"""

from __future__ import annotations

from collections import namedtuple

from .polynomials import eulerian_poly, fd_poly
from .series import (RingSpec, TruncatedSeries, ZZ, div_one_minus,
                     div_sparse, euler_product, jacobi_cube_terms,
                     mul_sparse, pentagonal_terms, product_family)

__all__ = [
    "rd_series",
    "sd_series",
    "sd_series_factorwise",
    "ddn_series_closed",
    "mersmann_F_series",
    "MersmannResult",
]


def rd_series(d: int, order: int, ring: RingSpec = ZZ) -> TruncatedSeries:
    """Series counting d-fold partition diamonds by total node sum.

    The n-th factor is F_d(q^{(n-1)(d+1)+1}, q) / (1 - q^n).
    """
    if d < 1 or order < 1:
        raise ValueError("need d >= 1 and order >= 1")
    fd = fd_poly(d)

    def factor(n: int) -> tuple:
        return fd.specialized_terms((n - 1) * (d + 1) + 1, 1, order), {n: 1}

    return euler_product(factor, order, ring)


def sd_series(d: int, order: int, ring: RingSpec = ZZ) -> TruncatedSeries:
    """Series counting Schmidt-type d-fold diamonds by link sum.

    The n-th factor is sum_j (j+1)^d q^{jn} = A_d(q^n) / (1 - q^n)^(d+1)
    with A_d the Eulerian polynomial.  Over Z/mZ the coefficient (j+1)^d
    mod m has period m in j, so the factor is also the degree < m numerator
    sum_{j<m} ((j+1)^d mod m) q^{jn} over (1 - q^{mn}); that form is used
    there, with j also cut off at the truncation order.

    Over Z, d = 1 and d = 2 are built by _sd_eta_quotient instead.  Over
    Z/mZ the series depends on d only through the table (j+1)^d mod m for
    j < min(m, order), so a d whose table equals the table of exponent 1
    or 2 is built as that exponent's quotient.
    """
    if d < 1 or order < 1:
        raise ValueError("need d >= 1 and order >= 1")
    m = ring.modulus
    if m is None:
        if d <= 2:
            return _sd_eta_quotient(d, order, ring)
        a_d = eulerian_poly(d).coeffs

        def factor(n: int) -> tuple:
            return {i * n: c for i, c in enumerate(a_d)}, {n: d + 1}
    else:
        powers = [pow(j + 1, d, m) for j in range(min(m, order))]
        for e in (1, 2):
            if powers == [pow(j + 1, e, m) for j in range(len(powers))]:
                return _sd_eta_quotient(e, order, ring)

        def factor(n: int) -> tuple:
            terms = min(m, -(-order // n))
            numerator = {j * n: powers[j] for j in range(terms)}
            return numerator, {m * n: 1} if m * n < order else {}

    return euler_product(factor, order, ring)


def _sd_eta_quotient(d: int, order: int, ring: RingSpec) -> TruncatedSeries:
    """sd_series for d = 1 as 1/(q;q)^2, and for d = 2 as (q^2;q^2)/(q;q)^4.

    A_1 = 1, and A_2 = 1 + x makes the numerator prod (1 + q^n) =
    (q^2;q^2)/(q;q).  Dividing by the pentagonal series (q;q) and by
    Jacobi's series (q;q)^3, each with O(sqrt(order)) terms, costs
    O(order^1.5) in all, against about (d+1) order^2 for euler_product.
    """
    pentagonal = dict(pentagonal_terms(order))
    a = [1] + [0] * (order - 1)
    if d == 1:
        div_sparse(a, pentagonal, 2, ring)
    else:
        mul_sparse(a, {2 * e: c for e, c in pentagonal.items()})
        div_sparse(a, dict(jacobi_cube_terms(order)), 1, ring)
        div_sparse(a, pentagonal, 1, ring)
    return TruncatedSeries(ring, tuple(a))


def sd_series_factorwise(d: int, order: int, ring: RingSpec = ZZ) -> TruncatedSeries:
    """Same series as sd_series, with each factor built as a bare power sum.

    The n-th factor is sum_j (j+1)^d q^{jn}, written out termwise without
    Eulerian polynomials and multiplied in through product_family; agreement
    with sd_series is the Euler identity behind the sd closed form.
    """
    if d < 1 or order < 1:
        raise ValueError("need d >= 1 and order >= 1")

    def factor(n: int) -> TruncatedSeries:
        terms = {}
        j = 0
        while j * n < order:
            terms[j * n] = (j + 1) ** d
            j += 1
        return TruncatedSeries.from_terms(terms, order, ring)

    return product_family(factor, order, ring)


def ddn_series_closed(d: int, n: int, order: int) -> TruncatedSeries:
    """Fixed-length diamond series from the transfer product, all nodes -> q.

    For cell k the factor is F_d(q^{k(d+1)+1}, q) over the d+1 factors
    (1 - q^{k(d+1)+1+t}), t = 0..d, and the chain closes with
    1 / (1 - q^{(n+1)+dn}).
    """
    if d < 1 or n < 1 or order < 1:
        raise ValueError("need d >= 1, n >= 1, order >= 1")
    fd = fd_poly(d)
    acc = [1] + [0] * (order - 1)
    for k in range(n):
        base = k * (d + 1) + 1
        mul_sparse(acc, fd.specialized_terms(base, 1, order))
        for t in range(d + 1):
            div_one_minus(acc, base + t)
    div_one_minus(acc, (n + 1) + d * n)
    return TruncatedSeries(ZZ, tuple(acc))


MersmannResult = namedtuple("MersmannResult", "series theta agree")


def mersmann_F_series(order: int) -> MersmannResult:
    """The eta quotient F(q), its theta-sum expansion, and their agreement.

    Theta side: sum_t q^{t(t+1)/2} - 3 sum_t q^{(3t+1)(3t+2)/2}.
    """
    if order < 1:
        raise ValueError("order must be >= 1")

    # (1 - q^n)^2 (1 - q^{6n}) expanded, over (1 - q^{2n}) (1 - q^{3n})
    acc = [1] + [0] * (order - 1)
    for n in range(1, order):
        mul_sparse(acc, {0: 1, n: -2, 2 * n: 1, 6 * n: -1, 7 * n: 2,
                         8 * n: -1})
        div_one_minus(acc, 2 * n)
        div_one_minus(acc, 3 * n)
    eta_side = TruncatedSeries(ZZ, tuple(acc))

    terms = {}
    t = 0
    while t * (t + 1) // 2 < order:
        e = t * (t + 1) // 2
        terms[e] = terms.get(e, 0) + 1
        t += 1
    t = 0
    while (3 * t + 1) * (3 * t + 2) // 2 < order:
        e = (3 * t + 1) * (3 * t + 2) // 2
        terms[e] = terms.get(e, 0) - 3
        t += 1
    theta_side = TruncatedSeries.from_terms(terms, order, ZZ)

    return MersmannResult(eta_side, theta_side, eta_side == theta_side)

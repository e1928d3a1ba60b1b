"""Closed-form generating functions for d-fold partition diamonds.

rd_series counts diamonds by total node sum, sd_series counts Schmidt-type
diamonds by link sum only, and ddn_series_closed gives the fixed-length
series under the one-variable specialization (every node variable set to q).

rd_series and sd_series have one shape, a product of numerators over a
sparse eta quotient prod_s (q^s; q^s)^k, and both are built by
series.euler_product: the numerators first, whose stabilization contract
guarantees that factors beyond the truncation order contribute nothing,
then one division by Euler's pentagonal series and Jacobi's series, with
O(sqrt(N)) terms each.  rd_series divides its F_d numerators by (q;q).
sd_series has one eta branch, with no numerator, for every d <= 2 (over
Z/mZ also every d whose residue table equals that of exponent 1 or 2), and
one numerator for every other d: A_d(q^n) over (q;q)^{d+1} over Z, the
periodic residue table over (q^m;q^m) in Z/mZ.  ddn_series_closed,
Stanley's P-partition form on n(d+1)+1 nodes, puts the n link numerators of
rd_series over (q;q)_{n(d+1)+1} with one division per node over Z, and
reduces over Z/mZ once, at the end.
sd_series_factorwise stays on product_family as the independent reference.

mersmann_F_series computes the weight-1/2 eta quotient

    F(q) = (q;q)^2 (q^6;q^6) / ((q^2;q^2) (q^3;q^3))

through the same kernel, eta map {1: -2, 2: 1, 3: 1, 6: -1}, and
independently as its two-theta-sum expansion, and reports whether they
agree; downstream congruence arguments lean on the theta form only after
this check passes.
"""

from collections import namedtuple

from .polynomials import _eulerian_row, fd_terms
from .series import (RingSpec, TruncatedSeries, ZZ, div_one_minus,
                     euler_product, mul_sparse, product_family)

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

    prod_n F_d(q^{(n-1)(d+1)+1}, q) / (q; q)_inf: the n-th factor is
    F_d(q^{(n-1)(d+1)+1}, q) / (1 - q^n).  d = 0 (links only, F_0 = 1) is
    1/(q; q)_inf, the partitions.
    """
    if d < 0 or order < 1:
        raise ValueError("need d >= 0 and order >= 1")

    def numerator(n: int) -> dict:
        return fd_terms(d, (n - 1) * (d + 1) + 1, 1, order)

    return euler_product(numerator, order, ring, eta={1: 1})


def _residue_table(d: int, m: int, order: int) -> tuple:
    """(j+1)^d mod m for j < min(m, order): all of d that s_d over Z/mZ
    below the order depends on."""
    return tuple(pow(j + 1, d, m) for j in range(min(m, order)))


def sd_series(d: int, order: int, ring: RingSpec = ZZ) -> TruncatedSeries:
    """Series counting Schmidt-type d-fold diamonds by link sum.

    The n-th factor is sum_j (j+1)^d q^{jn} = A_d(q^n) / (1 - q^n)^(d+1)
    with A_d the Eulerian polynomial, so the series is prod_n A_d(q^n) /
    (q;q)^{d+1}.  Over Z/mZ it depends on d only through the table (j+1)^d
    mod m for j < min(m, order), so a d whose table equals that of exponent
    1 or 2 (1 tried first) is built as that exponent.

    Then one eta branch takes every d <= 2, with no numerator: A_0 = A_1 = 1
    gives 1/(q;q)^{d+1}, and A_2 = 1 + x = (1 - x^2)/(1 - x) gives
    (q^2;q^2)/(q;q)^4.  One numerator takes every other d: the A_d row over
    (q;q)^{d+1} over Z, or over Z/mZ the table, which has period m in j, so
    factor n is also sum_{j<m} ((j+1)^d mod m) q^{jn} over (1 - q^{mn}),
    (q^m;q^m) in all.  Factor n keeps the first ceil(order/n) entries.
    """
    if d < 0 or order < 1:
        raise ValueError("need d >= 0 and order >= 1")
    m = ring.modulus
    if m is not None:
        powers = _residue_table(d, m, order)
        d = next((e for e in (1, 2)
                  if powers == _residue_table(e, m, order)), d)
    if d <= 2:
        return euler_product(None, order, ring,
                             eta={1: 4, 2: -1} if d == 2 else {1: d + 1})
    # A(d, k) for k >= order lands past the order
    poly, eta = ((_eulerian_row(d, order), {1: d + 1}) if m is None
                 else (powers, {m: 1}))

    def numerator(n: int) -> dict:
        return {j * n: c for j, c in enumerate(poly[:-(-order // n)])}

    return euler_product(numerator, order, ring, eta=eta)


def sd_series_factorwise(d: int, order: int, ring: RingSpec = ZZ) -> TruncatedSeries:
    """Same series as sd_series, with each factor built as a bare power sum.

    The n-th factor is sum_j (j+1)^d q^{jn}, written out termwise without
    Eulerian polynomials and multiplied in through product_family; agreement
    with sd_series is the Euler identity behind the sd closed form.
    """
    if d < 0 or order < 1:
        raise ValueError("need d >= 0 and order >= 1")

    def factor(n: int) -> TruncatedSeries:
        terms = {}
        j = 0
        while j * n < order:
            terms[j * n] = (j + 1) ** d
            j += 1
        return TruncatedSeries.from_terms(terms, order, ring)

    return product_family(factor, order, ring)


def ddn_series_closed(d: int, n: int, order: int,
                      ring: RingSpec = ZZ) -> TruncatedSeries:
    """Fixed-length diamond series, all nodes -> q.

    prod_{k<n} F_d(q^{k(d+1)+1}, q) / (q; q)_{n(d+1)+1}, one factor (1 - q^s)
    for each of the n(d+1)+1 nodes s.  d = 0 gives 1/(q; q)_{n+1}, the
    partitions into at most n + 1 parts.  A numerator with k(d+1)+1 >= order
    and a factor with s >= order are 1 below the order, so the work stops
    growing with n once n(d+1) reaches the order."""
    if d < 0 or n < 0 or order < 1:
        raise ValueError("need d >= 0, n >= 0, order >= 1")
    acc = [1] + [0] * (order - 1)
    for k in range(min(n, -(-(order - 1) // (d + 1)))):
        mul_sparse(acc, fd_terms(d, k * (d + 1) + 1, 1, order))
    for s in range(1, min(n * (d + 1) + 2, order)):
        div_one_minus(acc, s)
    return TruncatedSeries(ring, ring.reduced(acc))


MersmannResult = namedtuple("MersmannResult", "series theta agree")


def mersmann_F_series(order: int) -> MersmannResult:
    """The eta quotient F(q), its theta-sum expansion, and their agreement.

    Theta side: sum_t q^{T(t)} - 3 sum_t q^{(3t+1)(3t+2)/2}, with T(u) =
    u(u+1)/2 and (3t+1)(3t+2)/2 = T(3t+1): one sum over T(u), coefficient
    -2 when u = 1 (mod 3) and 1 otherwise.
    """
    # (q;q)^2 (q^6;q^6) / ((q^2;q^2) (q^3;q^3)): negative powers multiply
    eta_side = euler_product(None, order, ZZ,
                             eta={1: -2, 2: 1, 3: 1, 6: -1})

    terms = {}
    u = 0
    while u * (u + 1) // 2 < order:
        terms[u * (u + 1) // 2] = -2 if u % 3 == 1 else 1
        u += 1
    theta_side = TruncatedSeries.from_terms(terms, order, ZZ)

    return MersmannResult(eta_side, theta_side, eta_side == theta_side)

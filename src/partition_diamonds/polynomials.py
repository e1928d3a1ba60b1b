"""Eulerian polynomials and the bivariate numerator family F_d(q0, w).

A_d is the classical Eulerian polynomial (descent counts over permutations
of d letters), and eulerian_poly returns it as the tuple of its
coefficients A(d, k), the number of permutations of d letters with k
descents.  They obey

    A(0, 0) = 1,   A(d, k) = (k + 1) A(d-1, k) + (d - k) A(d-1, k-1),

the coefficient form of A_d = (1 + (d-1) q) A_{d-1} + q (1 - q) A'_{d-1}.
Column k reads only columns k and k - 1, so the loop run on its first c
columns gives them exactly; sd_series takes A_d that way, below its order.

F_d is the numerator of the one-cell transfer generating function for
d-fold partition diamonds.  The paper defines it by

    F_0 = 1,
    F_d = [ (1 - q0 w^d) F_{d-1}(q0, w) - w (1 - q0) F_{d-1}(q0 w, w) ] / (1 - w),

and it is Carlitz's q-Eulerian polynomial, the sum over permutations s of
d letters of q0^des(s) w^maj(s).  Its q0^k coefficient F(d, k), a
polynomial in w, obeys the q-analogue of the A(d, k) loop,

    F(d, k) = [k + 1]_w F(d-1, k) + w^k [d - k]_w F(d-1, k-1),
    [m]_w = 1 + w + ... + w^(m-1),

which _fd_rows runs, caching the last two levels, so no division by
(1 - w) is needed.  The rows are the one copy of F_d: fd_terms reads
F_d(q^a, q^b) off them, row k only while k a is below the order and cut
to the w powers that land below it, and fd_poly copies them out whole as
a {(des, maj): count} dict.  Specializing w = 1 (fd_at_w1, the tuple of
row sums) collapses F_d to A_d, which is the bridge between diamond
counting and Eulerian numbers.
"""

from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, sub

from .series import TruncatedSeries

__all__ = [
    "eulerian_poly",
    "fd_poly",
    "fd_specialize",
    "fd_at_w1",
]


def _eulerian_row(d: int, cap: int) -> list:
    """A(d, k) for k < cap: the A(d, k) loop run on its first cap columns."""
    row = [1]                                                  # A_0 = A_1 = 1
    for n in range(2, d + 1):
        row = [(k + 1) * a + (n - k) * b
               for k, a, b in zip(range(cap), row + [0], [0] + row)]
    return row


def eulerian_poly(d: int) -> tuple:
    """A(d, 0..max(d-1, 0)), the coefficients of A_d; they sum to d!."""
    if d < 0:
        raise ValueError("d must be >= 0")
    return tuple(_eulerian_row(d, d + 1))


def _times_q_int(row, m: int) -> list:
    """The w-coefficients of row(w) * [m]_w: prefix sums less their m-shift."""
    sums = list(accumulate(chain(row, repeat(0, m - 1))))
    return list(map(sub, sums, chain(repeat(0, m), sums)))


@lru_cache(maxsize=2)
def _fd_rows(d: int) -> tuple:
    """The rows F(d, k), k = 0..max(d-1, 0), as tuples of w-coefficients.

    The cache keeps the level asked for and the one below it, which the
    next level up reads, so an ascending sweep still builds each level once
    and F_64 does not leave all 64 levels behind.
    """
    if d < 0:
        raise ValueError("d must be >= 0")
    if d <= 1:
        return ((1,),)
    prev = _fd_rows(d - 1)
    # both terms of a middle row have degree k d - k (k+1) / 2, the largest
    # maj with k descents, so map(add) pairs every coefficient; the first
    # row is the identity's, the last w^(d-1) F(d-1, d-2), the reversal's
    return ((1,),
            *(tuple(map(add, _times_q_int(prev[k], k + 1),
                        [0] * k + _times_q_int(prev[k - 1], d - k)))
              for k in range(1, d - 1)),
            (0,) * (d - 1) + prev[-1])


def fd_poly(d: int) -> dict:
    """F_d(q0, w) whole as a new {(des, maj): count} dict with no zero count."""
    return {(k, j): c for k, row in enumerate(_fd_rows(d))
            for j, c in enumerate(row) if c}


def fd_terms(d: int, a: int, b: int, order: int) -> dict:
    """F_d(q^a, q^b) below q^order as {exponent: coeff}, for a >= 1, b >= 0."""
    terms = {}
    for k, row in enumerate(_fd_rows(d)):
        base = k * a
        if base >= order:
            break                       # so does every later row
        if b:
            row = row[:-(-(order - base) // b)]     # base + j b < order
        for j, c in enumerate(row):
            if c:
                e = base + j * b
                terms[e] = terms.get(e, 0) + c
    return terms


def fd_specialize(d: int, a: int, b: int, order: int) -> TruncatedSeries:
    """F_d(q^a, q^b) as an exact series truncated at `order`."""
    if a < 1:
        raise ValueError("q0 exponent must be >= 1")
    if b < 0:
        raise ValueError("w exponent must be >= 0")
    return TruncatedSeries.from_terms(fd_terms(d, a, b, order), order)


def fd_at_w1(d: int) -> tuple:
    """F_d(q0, 1), collected in q0: its row sums.  Equals eulerian_poly(d)."""
    return tuple(map(sum, _fd_rows(d)))

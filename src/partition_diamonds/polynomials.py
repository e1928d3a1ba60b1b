"""Eulerian polynomials and the bivariate numerator family F_d(q0, w).

A_d is the classical Eulerian polynomial (descent counts over permutations
of d letters).  Its coefficients A(d, k), the number of permutations of d
letters with k descents, obey

    A(0, 0) = 1,   A(d, k) = (k + 1) A(d-1, k) + (d - k) A(d-1, k-1),

the coefficient form of A_d = (1 + (d-1) q) A_{d-1} + q (1 - q) A'_{d-1}.

F_d is the numerator of the one-cell transfer generating function for
d-fold partition diamonds:

    F_0 = 1,
    F_d = [ (1 - q0 w^d) F_{d-1}(q0, w) - w (1 - q0) F_{d-1}(q0 w, w) ] / (1 - w).

The division by (1 - w) is exact; it is carried out by synthetic division
with an explicit zero-remainder check, so a bad recurrence step fails loudly
instead of producing a wrong polynomial.  F_d, built from this recurrence,
equals sum over permutations s of d letters of q0^des(s) w^maj(s), Carlitz's
q-Eulerian polynomial.  Specializing w = 1 collapses F_d to A_d, which is the
bridge between diamond counting and Eulerian numbers.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from .series import Record, RingSpec, TruncatedSeries, ZZ

__all__ = [
    "UnivariatePolynomial",
    "BivariatePolynomial",
    "eulerian_poly",
    "fd_poly",
    "fd_specialize",
    "fd_at_w1",
]


class UnivariatePolynomial(Record):
    """Dense exact-integer polynomial; coeffs[i] is the q^i coefficient.

    Trailing zeros are stripped; the zero polynomial has empty coeffs.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        super().__init__(coeffs)

    @staticmethod
    def from_coeffs(coeffs) -> "UnivariatePolynomial":
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return UnivariatePolynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def to_series(self, order: int, ring: RingSpec = ZZ) -> TruncatedSeries:
        """The polynomial as a series of the given order."""
        return TruncatedSeries.from_terms(dict(enumerate(self.coeffs)),
                                          order, ring)


class BivariatePolynomial:
    """Sparse exact polynomial in (q0, w): {(i, j): coefficient}, no zeros."""

    __slots__ = ("_terms",)

    def __init__(self, terms):
        self._terms = {e: c for e, c in terms.items() if c}

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def degree_q0(self) -> int:
        return max((i for i, _ in self._terms), default=-1)

    def __eq__(self, other):
        return isinstance(other, BivariatePolynomial) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def divide_by_one_minus_w(self) -> "BivariatePolynomial":
        """Exact quotient by (1 - w); raises if the remainder is non-zero.

        Synthetic division in w with coefficients in Z[q0]: the quotient
        w^j slice is the prefix sum of the dividend slices, and the final
        prefix sum (the dividend evaluated at w = 1) is the remainder.
        """
        max_j = max((j for _, j in self._terms), default=0)
        slices = [dict() for _ in range(max_j + 1)]
        for (i, j), c in self._terms.items():
            slices[j][i] = c
        out = {}
        prefix = {}
        for j in range(max_j):
            for i, c in slices[j].items():
                prefix[i] = prefix.get(i, 0) + c
            for i, c in prefix.items():
                if c:
                    out[(i, j)] = c
        remainder = dict(prefix)
        for i, c in slices[max_j].items():
            remainder[i] = remainder.get(i, 0) + c
        if any(remainder.values()):
            raise ArithmeticError(
                "division by (1 - w) left a non-zero remainder; "
                "the recurrence invariant is broken"
            )
        return BivariatePolynomial(out)

    def at_w1(self) -> UnivariatePolynomial:
        """Collapse w = 1, leaving a polynomial in q0."""
        out = {}
        for (i, _), c in self._terms.items():
            out[i] = out.get(i, 0) + c
        n = max(out, default=-1) + 1
        return UnivariatePolynomial.from_coeffs(out.get(i, 0) for i in range(n))

    def specialized_terms(self, q0_exp: int, w_exp: int, order: int) -> dict:
        """Substitute q0 -> q^q0_exp, w -> q^w_exp: {exponent: coeff} below order."""
        terms = {}
        for (i, j), c in self._terms.items():
            e = q0_exp * i + w_exp * j
            if e < order:
                terms[e] = terms.get(e, 0) + c
        return terms


@lru_cache(maxsize=None)
def eulerian_poly(d: int) -> UnivariatePolynomial:
    """The d-th Eulerian polynomial; degree d-1 for d >= 1, coefficients sum to d!."""
    if d < 0:
        raise ValueError("d must be >= 0")
    row = [1]                                                  # A_0 = A_1 = 1
    for n in range(2, d + 1):
        row = [(k + 1) * a + (n - k) * b
               for k, (a, b) in enumerate(zip(row + [0], [0] + row))]
    return UnivariatePolynomial(tuple(row))


@lru_cache(maxsize=None)
def fd_poly(d: int) -> BivariatePolynomial:
    """The cell-transfer numerator F_d(q0, w); degree max(d-1, 0) in q0."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return BivariatePolynomial({(0, 0): 1})
    dividend = defaultdict(int)
    for (i, j), c in fd_poly(d - 1).terms.items():
        dividend[i, j] += c                        # (1 - q0 w^d) F_{d-1}(q0, w)
        dividend[i + 1, j + d] -= c
        dividend[i, i + j + 1] -= c                # - w (1 - q0) F_{d-1}(q0 w, w)
        dividend[i + 1, i + j + 1] += c
    quotient = BivariatePolynomial(dividend).divide_by_one_minus_w()
    if quotient.degree_q0() != max(d - 1, 0):
        raise ArithmeticError(
            f"F_{d} has degree {quotient.degree_q0()} in q0, "
            f"expected {max(d - 1, 0)}; "
            "the recurrence invariant is broken"
        )
    return quotient


def fd_specialize(d: int, a: int, b: int, order: int) -> TruncatedSeries:
    """F_d(q^a, q^b) as an exact series truncated at `order`."""
    if a < 1:
        raise ValueError("q0 exponent must be >= 1")
    if b < 0:
        raise ValueError("w exponent must be >= 0")
    return TruncatedSeries.from_terms(
        fd_poly(d).specialized_terms(a, b, order), order)


def fd_at_w1(d: int) -> UnivariatePolynomial:
    """F_d(q0, 1), collected in q0.  Equals eulerian_poly(d)."""
    return fd_poly(d).at_w1()

"""Eulerian polynomials and the bivariate numerator family F_d(q0, w).

A_d is the classical Eulerian polynomial (descent counts over permutations
of d letters), built from the derivative recurrence

    A_0 = 1,   A_d = (1 + (d-1) q) A_{d-1} + q (1 - q) A'_{d-1}.

F_d is the numerator of the one-cell transfer generating function for
d-fold partition diamonds:

    F_1 = 1,
    F_d = [ (1 - q0 w^d) F_{d-1}(q0, w) - w (1 - q0) F_{d-1}(q0 w, w) ] / (1 - w).

The division by (1 - w) is exact; it is carried out by synthetic division
with an explicit zero-remainder check, so a bad recurrence step fails loudly
instead of producing a wrong polynomial.  Specializing w = 1 collapses F_d
to A_d, which is the bridge between diamond counting and Eulerian numbers.
"""

from __future__ import annotations

from functools import lru_cache

from .series import Record, RingSpec, TruncatedSeries, ZZ

__all__ = [
    "UnivariatePolynomial",
    "BivariatePolynomial",
    "eulerian_poly",
    "fd_poly",
    "fd_specialize",
    "fd_at_w1",
    "poly_to_json_dict",
    "bipoly_to_json_dict",
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

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePolynomial.from_coeffs(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePolynomial.from_coeffs(
            self.coefficient(i) - other.coefficient(i) for i in range(n)
        )

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return UnivariatePolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return UnivariatePolynomial.from_coeffs(out)

    def derivative(self) -> "UnivariatePolynomial":
        return UnivariatePolynomial.from_coeffs(
            i * c for i, c in enumerate(self.coeffs) if i > 0
        )

    def __call__(self, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

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

    def __mul__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return BivariatePolynomial(out)

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        out = dict(self._terms)
        for e, c in other._terms.items():
            out[e] = out.get(e, 0) - c
        return BivariatePolynomial(out)

    def substitute_q0w(self) -> "BivariatePolynomial":
        """Replace q0 by q0*w: the (i, j) term moves to (i, i + j)."""
        return BivariatePolynomial(
            {(i, i + j): c for (i, j), c in self._terms.items()}
        )

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

    def specialize(self, q0_exp: int, w_exp: int, order: int,
                   ring: RingSpec = ZZ) -> TruncatedSeries:
        """Substitute q0 -> q^q0_exp, w -> q^w_exp as a truncated series."""
        return TruncatedSeries.from_terms(
            self.specialized_terms(q0_exp, w_exp, order), order, ring)


def _bp(terms) -> BivariatePolynomial:
    return BivariatePolynomial(terms)


@lru_cache(maxsize=None)
def eulerian_poly(d: int) -> UnivariatePolynomial:
    """The d-th Eulerian polynomial; degree d-1 for d >= 1, coefficients sum to d!."""
    if d < 0:
        raise ValueError("d must be >= 0")
    if d == 0:
        return UnivariatePolynomial((1,))
    prev = eulerian_poly(d - 1)
    lin = UnivariatePolynomial.from_coeffs([1, d - 1])        # 1 + (d-1) q
    qs = UnivariatePolynomial.from_coeffs([0, 1, -1])         # q (1 - q)
    return lin * prev + qs * prev.derivative()


@lru_cache(maxsize=None)
def fd_poly(d: int) -> BivariatePolynomial:
    """The cell-transfer numerator F_d(q0, w); degree d-1 in q0."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return _bp({(0, 0): 1})
    prev = fd_poly(d - 1)
    lhs = _bp({(0, 0): 1, (1, d): -1}) * prev                 # (1 - q0 w^d) F_{d-1}
    rhs = _bp({(0, 1): 1, (1, 1): -1}) * prev.substitute_q0w()  # w (1 - q0) F_{d-1}(q0 w, w)
    quotient = (lhs - rhs).divide_by_one_minus_w()
    if quotient.degree_q0() != d - 1:
        raise ArithmeticError(
            f"F_{d} has degree {quotient.degree_q0()} in q0, expected {d - 1}; "
            "the recurrence invariant is broken"
        )
    return quotient


def fd_specialize(d: int, a: int, b: int, order: int) -> TruncatedSeries:
    """F_d(q^a, q^b) as an exact series truncated at `order`."""
    if a < 1:
        raise ValueError("q0 exponent must be >= 1")
    if b < 0:
        raise ValueError("w exponent must be >= 0")
    return fd_poly(d).specialize(a, b, order)


def fd_at_w1(d: int) -> UnivariatePolynomial:
    """F_d(q0, 1), collected in q0.  Equals eulerian_poly(d)."""
    return fd_poly(d).at_w1()


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------

def poly_to_json_dict(p: UnivariatePolynomial) -> dict:
    return {"var": "q", "coeffs": [str(c) for c in p.coeffs]}


def bipoly_to_json_dict(p: BivariatePolynomial) -> dict:
    terms = [
        {"i": i, "j": j, "c": str(c)}
        for (i, j), c in sorted(p.terms.items())
    ]
    return {"vars": ["q0", "w"], "terms": terms}

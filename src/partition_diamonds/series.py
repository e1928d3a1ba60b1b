"""Exact truncated power series in one variable q.

Coefficients live either in Z (arbitrary-precision Python ints) or in the
residue ring Z/mZ for a modulus m that fits in 64 bits.  A series of order N
stores the coefficients of q^0 .. q^(N-1) and never claims anything at or
beyond q^N: every binary operation truncates to the minimum order of its
inputs.

TruncatedSeries is the public value type.  Its multiplication is schoolbook
convolution that skips zero coefficients, so products against sparse
factors run in O(N * nnz) instead of O(N^2); product_family multiplies such
factors one by one and is the reference path the closed forms are tested
against.

The closed forms in genfun and omega run on a plain coefficient list
instead, with two in-place primitives: mul_sparse multiplies by a sparse
polynomial, and div_one_minus divides by (1 - q^s) as stride-s prefix sums.
euler_product drives them over a whole product family.

Every pdiamonds command runs in a fresh interpreter, so import time is part
of every job.  The value types of the package (RingSpec, TruncatedSeries and
the records in the other modules) are therefore plain __slots__ classes on
the Record base below rather than frozen dataclasses.  Importing dataclasses
also loads inspect, ast, dis and tokenize, and @dataclass compiles the
methods of each class with exec at import; together they made up most of
the package's import time.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add, mod, mul
from typing import Callable, Iterable, Mapping

__all__ = [
    "RingSpec",
    "ZZ",
    "TruncatedSeries",
    "product_family",
    "pentagonal_series",
    "jacobi_cube_series",
    "reduce_mod",
    "series_to_json_dict",
    "series_from_json_dict",
]


MODULUS_LIMIT = 1 << 64  # residue rings Z/mZ take 2 <= m < 2^64


class Record:
    """Base of the package's immutable value types.

    A subclass lists its fields in __slots__, in constructor order, and sets
    each one once in its own __init__ through object.__setattr__.  Instances
    compare equal only to instances of the same class with equal fields,
    hash and print by their fields as a frozen dataclass does, and raise
    AttributeError on any later assignment.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which revalidates
        return type(self), self._values()


class RingSpec(Record):
    """Coefficient ring: exact integers (modulus None) or integers mod m."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: int | None = None):
        if modulus is not None:
            if modulus < 2:
                raise ValueError(f"modulus must be >= 2, got {modulus}")
            if modulus >= MODULUS_LIMIT:
                raise ValueError(
                    f"modulus must fit in 64 bits, got {modulus}")
        object.__setattr__(self, "modulus", modulus)

    # every series operation compares rings, so these skip Record's tuples
    def __eq__(self, other):
        if other.__class__ is not RingSpec:
            return NotImplemented
        return self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    @property
    def is_exact(self) -> bool:
        return self.modulus is None

    def normalize(self, c: int) -> int:
        """Canonical representative: c itself over Z, c mod m in [0, m)."""
        return c if self.modulus is None else c % self.modulus

    def unit_inverse(self, c: int) -> int:
        """Inverse of a unit, or raise ValueError if c is not invertible."""
        if self.modulus is None:
            if c in (1, -1):
                return c
            raise ValueError(f"{c} is not a unit in Z (need +1 or -1)")
        try:
            return pow(c, -1, self.modulus)
        except ValueError:
            raise ValueError(
                f"{c} is not invertible mod {self.modulus}"
            ) from None

    def __repr__(self):
        return "ZZ" if self.modulus is None else f"Zmod({self.modulus})"


ZZ = RingSpec()


class TruncatedSeries(Record):
    """A power series known exactly modulo q^order.

    coeffs[i] is the coefficient of q^i; len(coeffs) == order.  Instances
    are immutable; all arithmetic returns new series and is safe to run
    concurrently.
    """

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring: RingSpec, coeffs: tuple):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", coeffs)
        self.__post_init__()

    def __post_init__(self):
        # a separate method, run on every construction, so that a profiler
        # can count allocations by wrapping it
        if len(self.coeffs) == 0:
            raise ValueError("series order must be >= 1")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_coeffs(coeffs: Iterable[int], order: int | None = None,
                    ring: RingSpec = ZZ) -> "TruncatedSeries":
        """Series from a coefficient list, zero-padded up to `order`.

        Padding asserts those coefficients really are zero; callers building
        a polynomial into a longer series rely on this.
        """
        cs = [ring.normalize(c) for c in coeffs]
        if order is not None:
            if len(cs) > order:
                cs = cs[:order]
            else:
                cs.extend([0] * (order - len(cs)))
        return TruncatedSeries(ring, tuple(cs))

    @staticmethod
    def from_terms(terms: Mapping[int, int], order: int,
                   ring: RingSpec = ZZ) -> "TruncatedSeries":
        """Series from an {exponent: coefficient} map, truncated at `order`."""
        cs = [0] * order
        for e, c in terms.items():
            if e < 0:
                raise ValueError(f"negative exponent {e}")
            if e < order:
                cs[e] = ring.normalize(cs[e] + c)
        return TruncatedSeries(ring, tuple(cs))

    @staticmethod
    def one(order: int, ring: RingSpec = ZZ) -> "TruncatedSeries":
        return TruncatedSeries.from_terms({0: 1}, order, ring)

    @staticmethod
    def zero(order: int, ring: RingSpec = ZZ) -> "TruncatedSeries":
        return TruncatedSeries(ring, (0,) * order)

    @staticmethod
    def monomial(exponent: int, order: int, coeff: int = 1,
                 ring: RingSpec = ZZ) -> "TruncatedSeries":
        return TruncatedSeries.from_terms({exponent: coeff}, order, ring)

    # -- helpers -------------------------------------------------------

    def _common_ring(self, other: "TruncatedSeries") -> RingSpec:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        return self.ring

    def truncate(self, order: int) -> "TruncatedSeries":
        """Forget coefficients at q^order and beyond (order must shrink)."""
        if order > self.order:
            raise ValueError(
                f"cannot extend series of order {self.order} to {order}"
            )
        return TruncatedSeries(self.ring, self.coeffs[:order])

    def nonzero_terms(self) -> list:
        return [(i, c) for i, c in enumerate(self.coeffs) if c]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self):
        parts = [f"{c}*q^{i}" for i, c in self.nonzero_terms()[:8]]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.order})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        ring = self._common_ring(other)
        n = min(self.order, other.order)
        return TruncatedSeries(ring, tuple(
            ring.normalize(self.coeffs[i] + other.coeffs[i]) for i in range(n)
        ))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        ring = self._common_ring(other)
        n = min(self.order, other.order)
        return TruncatedSeries(ring, tuple(
            ring.normalize(self.coeffs[i] - other.coeffs[i]) for i in range(n)
        ))

    def __neg__(self) -> "TruncatedSeries":
        ring = self.ring
        return TruncatedSeries(ring, tuple(ring.normalize(-c) for c in self.coeffs))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        ring = self._common_ring(other)
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        # convolve with the sparser operand outermost
        nnz_a = sum(1 for c in a[:n] if c)
        nnz_b = sum(1 for c in b[:n] if c)
        if nnz_b > nnz_a:
            a, b = b, a
        out = [0] * n
        for i in range(n):
            ci = b[i]
            if ci:
                for j in range(n - i):
                    aj = a[j]
                    if aj:
                        out[i + j] += ci * aj
        return TruncatedSeries(ring, tuple(ring.normalize(c) for c in out))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; constant term must be a unit."""
        ring = self.ring
        n = self.order
        u = ring.unit_inverse(self.coeffs[0])
        a = self.coeffs
        # skip zero a-terms: cost O(order * nnz), exact either way
        support = [i for i in range(1, n) if a[i]]
        out = [0] * n
        out[0] = ring.normalize(u)
        for k in range(1, n):
            s = 0
            for i in support:
                if i > k:
                    break
                s += a[i] * out[k - i]
            if s:
                out[k] = ring.normalize(-u * s)
        return TruncatedSeries(ring, tuple(out))

    def __pow__(self, e: int) -> "TruncatedSeries":
        if e == 0:
            return TruncatedSeries.one(self.order, self.ring)
        base = self.inverse() if e < 0 else self
        e = abs(e)
        result = None
        sq = base
        while e:
            if e & 1:
                result = sq if result is None else result * sq
            e >>= 1
            if e:
                sq = sq * sq
        return result

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))


def product_family(factor_at: Callable[[int], TruncatedSeries], order: int,
                   ring: RingSpec = ZZ) -> TruncatedSeries:
    """Product of factor_at(1) * factor_at(2) * ... truncated at `order`.

    Each factor must have constant term 1 and lowest non-constant exponent
    >= n, so factors with n >= order are identically 1 below the truncation
    and the product over n = 1 .. order-1 is the whole infinite product.
    Both contract halves are checked and violations raise ValueError.
    """
    acc = TruncatedSeries.one(order, ring)
    for n in range(1, order):
        f = factor_at(n)
        if f.ring != ring:
            raise ValueError(f"factor {n} ring {f.ring} != {ring}")
        if f.order < order:
            raise ValueError(
                f"factor {n} has order {f.order}, need >= {order}"
            )
        if f.order > order:
            f = f.truncate(order)
        if f.coeffs[0] != ring.normalize(1):
            raise ValueError(
                f"factor {n} has constant term {f.coeffs[0]}, need 1"
            )
        for i in range(1, min(n, order)):
            if f.coeffs[i]:
                raise ValueError(
                    f"factor {n} has a q^{i} term; lowest non-constant "
                    f"exponent must be >= {n}"
                )
        acc = acc * f
    return acc


# ---------------------------------------------------------------------
# In-place Euler-product kernel (package-internal)
# ---------------------------------------------------------------------

def mul_sparse(a: list, poly: Mapping[int, int]) -> None:
    """a *= poly in place, for a polynomial {exponent: coeff} with constant 1.

    Every shifted term reads one snapshot of a, so the terms may come in any
    order, and a[i] only changes for i at or above the lowest non-constant
    exponent.  Exponents at or beyond len(a) are dropped.
    """
    if poly.get(0) != 1:
        raise ValueError(f"constant term must be 1, got {poly.get(0, 0)}")
    n = len(a)
    shifts = [(e, c) for e, c in poly.items() if e and e < n and c]
    if not shifts:
        return
    low = min(e for e, _ in shifts)
    if low < 0:
        raise ValueError(f"negative exponent {low}")
    snap = a[:n - low]
    for e, c in shifts:
        a[e:] = map(add, a[e:],
                    snap if c == 1 else map(mul, snap, repeat(c, n - e)))


def div_one_minus(a: list, s: int, times: int = 1) -> None:
    """a /= (1 - q^s)^times in place: stride-s prefix sums, for s >= 1.

    A few long residue classes chain all `times` prefix sums per class; many
    short ones instead add each block of s entries onto the next, so either
    way the Python-level loop runs at most sqrt(times * len(a)) times.
    """
    if s < 1:
        raise ValueError(f"stride must be >= 1, got {s}")
    n = len(a)
    if s >= n:
        return
    if s * s <= times * n:
        for r in range(s):
            col = a[r::s]
            for _ in range(times):
                col = accumulate(col)
            a[r::s] = col
    else:
        for _ in range(times):
            for b in range(s, n, s):
                a[b:b + s] = map(add, a[b:b + s], a[b - s:b])


def euler_product(factor_at: Callable[[int], tuple], order: int,
                  ring: RingSpec = ZZ) -> TruncatedSeries:
    """The product family of product_family, built in place on one list.

    factor_at(n) returns (numerator, denominator): the numerator as an
    {exponent: coeff} polynomial and the denominator as {stride: power},
    meaning numerator / prod (1 - q^stride)^power.  The contract is
    product_family's: constant term 1 and no q^i term with 0 < i < n, which
    here means every numerator exponent and every stride is >= n.  So factor
    n never changes an index below n, and over Z/mZ the indices >= n are
    reduced once per factor.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    m = ring.modulus
    a = [1] + [0] * (order - 1)
    for n in range(1, order):
        numerator, denominator = factor_at(n)
        poly = {}
        for e, c in numerator.items():
            c = ring.normalize(c)
            if c and e < order:
                poly[e] = c
        if poly.get(0) != 1:
            raise ValueError(
                f"factor {n} has constant term {poly.get(0, 0)}, need 1"
            )
        low = [e for e in poly if e < 0 or 0 < e < n]
        low += [s for s, k in denominator.items() if k and s < n]
        if low:
            raise ValueError(
                f"factor {n} has a q^{low[0]} term; lowest non-constant "
                f"exponent must be >= {n}"
            )
        if any(k < 0 for k in denominator.values()):
            raise ValueError(f"factor {n} has a negative denominator power")
        mul_sparse(a, poly)
        for s, k in denominator.items():
            div_one_minus(a, s, k)
        if m is not None:
            a[n:] = map(mod, a[n:], repeat(m))
    return TruncatedSeries(ring, tuple(a))


def pentagonal_series(order: int, ring: RingSpec = ZZ) -> TruncatedSeries:
    """prod (1-q^m) as the sparse sum over generalized pentagonal numbers.

    Coefficient of q^{k(3k+1)/2} is (-1)^k for k = 0, +-1, +-2, ...
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    terms = {0: 1}
    k = 1
    while True:
        e_pos = k * (3 * k + 1) // 2
        e_neg = k * (3 * k - 1) // 2
        if e_neg >= order and e_pos >= order:
            break
        sign = -1 if k % 2 else 1
        if e_pos < order:
            terms[e_pos] = sign
        if e_neg < order:
            terms[e_neg] = sign
        k += 1
    return TruncatedSeries.from_terms(terms, order, ring)


def jacobi_cube_series(order: int, ring: RingSpec = ZZ) -> TruncatedSeries:
    """prod (1-q^m)^3 as the sparse sum over triangular numbers.

    Coefficient of q^{t(t+1)/2} is (-1)^t (2t+1) for t >= 0.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    terms = {}
    t = 0
    while True:
        e = t * (t + 1) // 2
        if e >= order:
            break
        terms[e] = (2 * t + 1) * (-1 if t % 2 else 1)
        t += 1
    return TruncatedSeries.from_terms(terms, order, ring)


def reduce_mod(a: TruncatedSeries, m: int) -> TruncatedSeries:
    """Coefficientwise reduction into Z/mZ with representatives in [0, m).

    From Z this is always defined; from Z/m0 only the natural projections
    (m dividing m0, in particular m == m0) are allowed.
    """
    target = RingSpec(m)
    if a.ring.modulus is not None and a.ring.modulus % m != 0:
        raise ValueError(
            f"cannot reduce mod {m} from mod {a.ring.modulus}: "
            "not a ring projection"
        )
    return TruncatedSeries(target, tuple(c % m for c in a.coeffs))


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------

def series_to_json_dict(s: TruncatedSeries) -> dict:
    ring = "Z" if s.ring.is_exact else {"mod": s.ring.modulus}
    return {"ring": ring, "order": s.order, "coeffs": [str(c) for c in s.coeffs]}


def series_from_json_dict(obj: dict) -> TruncatedSeries:
    ring = ZZ if obj["ring"] == "Z" else RingSpec(obj["ring"]["mod"])
    coeffs = [int(c) for c in obj["coeffs"]]
    if len(coeffs) != obj["order"]:
        raise ValueError("coeffs length disagrees with order")
    return TruncatedSeries.from_coeffs(coeffs, ring=ring)

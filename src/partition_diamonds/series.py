"""Exact truncated power series in one variable q.

Coefficients live either in Z (arbitrary-precision Python ints) or in the
residue ring Z/mZ for a modulus m that fits in 64 bits.  A series of order N
stores the coefficients of q^0 .. q^(N-1) and never claims anything at or
beyond q^N: every binary operation truncates to the minimum order of its
inputs.

TruncatedSeries is the public value type.  Its multiplication is schoolbook
convolution: each nonzero coefficient of the sparser operand adds one
shifted, scaled copy of the other with map(), so products against sparse
factors run in O(N * nnz) instead of O(N^2); product_family multiplies such
factors one by one and is the reference path the closed forms are tested
against.  Over Z/mZ every result is reduced once, in one map(mod, ...)
pass (RingSpec.reduced).

The closed forms in genfun and omega run on a plain coefficient list
instead, with three in-place primitives: mul_sparse multiplies by a sparse
polynomial, div_one_minus divides by (1 - q^s) as stride-s prefix sums, and
div_sparse divides by a sparse polynomial with constant term 1 through the
recurrence that TruncatedSeries.inverse wraps.  euler_product builds every
product of genfun: the numerators, one O(N) pass per factor other than 1,
over a sparse eta quotient prod_s (q^s;q^s)^k.  pentagonal_terms and
jacobi_cube_terms yield (q;q) and (q;q)^3 below q^N, with O(sqrt(N)) terms
each, so dividing by them costs O(N^1.5).

Every pdiamonds command runs in a fresh interpreter, so import time is part
of every job.  The value types of the package (RingSpec, TruncatedSeries and
the records in the other modules) are therefore plain __slots__ classes on
the Record base below rather than frozen dataclasses, and the plain tuples
are collections.namedtuple types.  Importing dataclasses also loads inspect,
ast, dis and tokenize, and @dataclass compiles the methods of each class
with exec at import; together they made up most of the package's import
time.  typing is left out for the same reason: annotations take their names
from collections.abc.  No module imports __future__ either: on Python >= 3.10
every annotation in the package evaluates where it is defined.  Within the
package only omega.random_instances imports random, when it first draws.
"""

from collections.abc import Callable, Iterable, Mapping
from itertools import accumulate, compress, repeat
from operator import add, mod, mul, neg, sub

__all__ = [
    "RingSpec",
    "ZZ",
    "TruncatedSeries",
    "product_family",
    "pentagonal_series",
    "jacobi_cube_series",
    "series_to_json_dict",
]


MODULUS_LIMIT = 1 << 64  # residue rings Z/mZ take 2 <= m < 2^64


class Record:
    """Base of the package's immutable value types.

    A subclass lists its fields in __slots__, in constructor order; its own
    __init__ validates the arguments and passes them, in that order, to
    Record.__init__, the one place a field is set.  Instances compare equal
    only to instances of the same class with equal fields, hash and print by
    their fields as a frozen dataclass does, and raise AttributeError on any
    later assignment.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

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
        super().__init__(modulus)

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

    def reduced(self, coeffs: Iterable[int]) -> tuple:
        """The coefficients as a tuple, each reduced into [0, m) over Z/mZ."""
        m = self.modulus
        return tuple(coeffs if m is None else map(mod, coeffs, repeat(m)))

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
        super().__init__(ring, coeffs)
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
        """Series from a coefficient list, cut or zero-padded to `order`.

        A list shorter than `order` is padded with zeros; a longer one is
        cut to its first `order` coefficients, with no error, so
        from_coeffs([1, 2, 3], 2) has coefficients (1, 2).  order=None
        keeps the list's length.
        """
        cs = list(coeffs)
        if order is not None:
            if len(cs) > order:
                cs = cs[:order]
            else:
                cs.extend([0] * (order - len(cs)))
        return TruncatedSeries(ring, ring.reduced(cs))

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

    def __str__(self):
        parts = [f"{c}*q^{i}" for i, c in self.nonzero_terms()[:8]]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.order})"

    # -- arithmetic ----------------------------------------------------

    # map() stops at its shortest argument, which truncates to the lower
    # order of the two operands

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        ring = self._common_ring(other)
        return TruncatedSeries(
            ring, ring.reduced(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        ring = self._common_ring(other)
        return TruncatedSeries(
            ring, ring.reduced(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(self.ring,
                               self.ring.reduced(map(neg, self.coeffs)))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        ring = self._common_ring(other)
        n = min(self.order, other.order)
        a, b = self.coeffs[:n], other.coeffs[:n]
        # convolve with the sparser operand outermost: each nonzero b[i]
        # adds the row b[i] * a, shifted by i, onto out[i:]
        if b.count(0) < a.count(0):
            a, b = b, a
        out = [0] * n
        for i in compress(range(n), b):
            c = b[i]
            out[i:] = map(add, out[i:],
                          a if c == 1 else map(mul, a, repeat(c)))
        return TruncatedSeries(ring, ring.reduced(out))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; constant term must be a unit."""
        ring = self.ring
        u = ring.unit_inverse(self.coeffs[0])
        # 1/a = u / (u a), and u a has constant term 1 in the ring
        poly = {i: ring.normalize(u * c) for i, c in enumerate(self.coeffs)
                if c}
        out = [u] + [0] * (self.order - 1)
        div_sparse(out, poly, 1, ring)
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
        # normalize(1) == 1 in every ring, so the constant compares with 1
        _check_factor(n, f.coeffs[0], compress(range(1, n), f.coeffs[1:n]))
        acc = acc * f
    return acc


def _check_factor(n: int, constant: int, exponents: Iterable[int]) -> None:
    """Raise ValueError unless factor n keeps the product contract: constant
    term 1, and no q^i term with i < 0 or 0 < i < n among its exponents."""
    if constant != 1:
        raise ValueError(f"factor {n} has constant term {constant}, need 1")
    for i in exponents:
        if i < 0 or 0 < i < n:
            raise ValueError(
                f"factor {n} has a q^{i} term; lowest non-constant "
                f"exponent must be >= {n}"
            )


# ---------------------------------------------------------------------
# In-place Euler-product kernel (package-internal)
# ---------------------------------------------------------------------

def _shifts(poly: Mapping[int, int], n: int) -> list:
    """The nonzero terms (e, c) of poly with 0 < e < n, sorted by e, once
    poly is checked to have constant term 1 and no negative exponent."""
    if poly.get(0) != 1:
        raise ValueError(f"constant term must be 1, got {poly.get(0, 0)}")
    shifts = sorted((e, c) for e, c in poly.items() if e and e < n and c)
    if shifts and shifts[0][0] < 0:
        raise ValueError(f"negative exponent {shifts[0][0]}")
    return shifts


def mul_sparse(a: list, poly: Mapping[int, int]) -> None:
    """a *= poly in place, for a polynomial {exponent: coeff} with constant 1.

    Every shifted term reads one snapshot of a, so the terms may come in any
    order, and a[i] only changes for i at or above the lowest non-constant
    exponent.  Exponents at or beyond len(a) are dropped.
    """
    n = len(a)
    shifts = _shifts(poly, n)
    if not shifts:
        return
    snap = a[:n - shifts[0][0]]
    for e, c in shifts:
        a[e:] = map(add, a[e:],
                    snap if c == 1 else map(mul, snap, repeat(c, n - e)))


def div_one_minus(a: list, s: int) -> None:
    """a /= (1 - q^s) in place: stride-s prefix sums, for s >= 1.

    A few long residue classes take one prefix sum per class; many short
    ones instead add each block of s entries onto the next, so either way
    the Python-level loop runs at most sqrt(len(a)) times.
    """
    if s < 1:
        raise ValueError(f"stride must be >= 1, got {s}")
    n = len(a)
    if s >= n:
        return
    if s * s <= n:
        for r in range(s):
            a[r::s] = accumulate(a[r::s])
    else:
        for b in range(s, n, s):
            a[b:b + s] = map(add, a[b:b + s], a[b - s:b])


def div_sparse(a: list, poly: Mapping[int, int], times: int = 1,
               ring: RingSpec = ZZ) -> None:
    """a /= poly**times in place, for a polynomial {exponent: coeff} with
    constant 1.

    Each pass runs a[k] -= sum_e poly[e] * a[k - e] for k = 1, 2, ... in
    turn, so every a[k - e] it reads is already divided; step k uses only
    the terms with e <= k, for O(len(a) * nnz) work per pass.  Exponents at
    or beyond len(a) are dropped.  Over Z/mZ each a[k] is reduced as it is
    written, so for times >= 1 every coefficient ends in [0, m).
    """
    n = len(a)
    shifts = _shifts(poly, n)
    m = ring.modulus
    if times and m is not None:
        a[:] = map(mod, a, repeat(m))
    for _ in range(times):
        # unit coefficients (all of the pentagonal series) skip the multiply;
        # the term lists grow as k passes each exponent.  Plain loops over
        # a[k - e] beat map() and comprehensions on CPython here.
        plus, minus, other = [], [], []
        pending = iter(shifts)
        e_next, c_next = next(pending, (n, 0))
        for k in range(e_next, n):
            while e_next <= k:
                if c_next == 1:
                    plus.append(e_next)
                elif c_next == -1:
                    minus.append(e_next)
                else:
                    other.append((e_next, c_next))
                e_next, c_next = next(pending, (n, 0))
            s = a[k]
            for e in minus:
                s += a[k - e]
            for e in plus:
                s -= a[k - e]
            for e, c in other:
                s -= c * a[k - e]
            a[k] = s if m is None else s % m


def euler_product(numerator_at: Callable[[int], Mapping[int, int]] | None,
                  order: int, ring: RingSpec = ZZ, *,
                  eta: Mapping[int, int]) -> TruncatedSeries:
    """prod_n numerator_at(n) / prod_s (q^s; q^s)_inf^k, built in place.

    numerator_at(n) returns numerator n as an {exponent: coeff} polynomial;
    None means every numerator is 1.  The contract is product_family's:
    constant term 1 and no q^i term with 0 < i < n, so numerator n never
    changes an index below n, and over Z/mZ the indices >= n are reduced
    once per factor that changes them: a numerator equal to 1 is skipped
    once checked.  eta maps each stride s >= 1 to its power k: (q^s;q^s) is
    the pentagonal series scaled by s, each full 3 of k one Jacobi series
    instead.  A negative k multiplies, before any division; over Z/mZ every
    coefficient ends in [0, m).

    The numerators go before the divisions because that order is faster:
    dividing first made rd_series(4, 2000) take 198 ms instead of 179 ms
    (Intel Xeon, CPython 3.11).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    m = ring.modulus
    a = [1] + [0] * (order - 1)
    divisions = []
    for s, k in eta.items():
        if s < 1:
            raise ValueError(f"eta stride must be >= 1, got {s}")
        for terms, times in zip((jacobi_cube_terms, pentagonal_terms),
                                divmod(abs(k), 3)):
            poly = {s * e: c for e, c in terms(-(-order // s))}
            if k > 0:
                divisions.append((poly, times))
            else:
                for _ in range(times):
                    mul_sparse(a, poly)
    for n in range(1, order if numerator_at is not None else 1):
        poly = {}
        for e, c in numerator_at(n).items():
            c = ring.normalize(c)
            if c and e < order:
                poly[e] = c
        _check_factor(n, poly.get(0, 0), poly)
        if poly == {0: 1}:
            continue
        mul_sparse(a, poly)
        if m is not None:
            a[n:] = map(mod, a[n:], repeat(m))
    for poly, times in divisions:
        div_sparse(a, poly, times, ring)
    return TruncatedSeries(ring, ring.reduced(a))


def pentagonal_terms(order: int):
    """(exponent, coefficient) pairs of prod (1-q^m) below q^order.

    Euler's pentagonal number theorem: the coefficient of q^{k(3k-1)/2} and
    of q^{k(3k+1)/2} is (-1)^k, for k = 0, 1, 2, ...; about 1.63 sqrt(order)
    terms in all.
    """
    yield 0, 1
    k = 1
    while k * (3 * k - 1) // 2 < order:
        sign = -1 if k % 2 else 1
        yield k * (3 * k - 1) // 2, sign
        if k * (3 * k + 1) // 2 < order:
            yield k * (3 * k + 1) // 2, sign
        k += 1


def jacobi_cube_terms(order: int):
    """(exponent, coefficient) pairs of prod (1-q^m)^3 below q^order.

    Jacobi's identity: the coefficient of q^{t(t+1)/2} is (-1)^t (2t+1), for
    t = 0, 1, 2, ...; about sqrt(2 order) terms in all.
    """
    t = 0
    while t * (t + 1) // 2 < order:
        yield t * (t + 1) // 2, (2 * t + 1) * (-1 if t % 2 else 1)
        t += 1


def pentagonal_series(order: int, ring: RingSpec = ZZ) -> TruncatedSeries:
    """prod (1-q^m) as the sparse sum over generalized pentagonal numbers."""
    return TruncatedSeries.from_terms(dict(pentagonal_terms(order)), order,
                                      ring)


def jacobi_cube_series(order: int, ring: RingSpec = ZZ) -> TruncatedSeries:
    """prod (1-q^m)^3 as the sparse sum over triangular numbers."""
    return TruncatedSeries.from_terms(dict(jacobi_cube_terms(order)), order,
                                      ring)


# ---------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------

def series_to_json_dict(s: TruncatedSeries) -> dict:
    ring = "Z" if s.ring.is_exact else {"mod": s.ring.modulus}
    return {"ring": ring, "order": s.order, "coeffs": [str(c) for c in s.coeffs]}

"""MacMahon Omega-operator checks on the elementary rational shapes.

The Omega-ge operator acts on multivariate series by discarding every
monomial carrying a negative exponent of an elimination variable (lambda)
and then setting that variable to 1.  For the shape

    lambda^j / ((1 - lambda x_1) ... (1 - lambda x_d) (1 - y / lambda))

there is a closed elimination formula; this module evaluates both sides
under substitutions x_i -> q^{alpha_i}, y -> q^{beta} and compares them as
exact truncated series.  Checking an identity of rational functions on many
independent power specializations is a sound desk-scale verification and
sidesteps multivariate series algebra entirely; everything is treated as a
formal series, never analytically.

crude_Dd1_check does the same for the one-cell diamond generating function:
direct enumeration of the node values against the closed form with the
F_d numerator.
"""

from __future__ import annotations

import random
from collections import namedtuple
from collections.abc import Iterable
from itertools import product
from operator import sub

from .polynomials import fd_poly
from .series import Record, TruncatedSeries, ZZ, div_one_minus, mul_sparse

__all__ = [
    "OmegaInstance",
    "UnsupportedInstanceError",
    "omega_bruteforce",
    "omega_closed_form",
    "crude_Dd1_check",
    "random_instances",
    "run_omega_suite",
    "OmegaSuiteReport",
]


class UnsupportedInstanceError(ValueError):
    """Closed form requested outside its stated domain (j < -1)."""


class OmegaInstance(Record):
    """One elimination instance: lambda exponent j, d numerator factors,
    and the q-power specialization exponents for x_1..x_d and y."""

    __slots__ = ("j", "d", "x_exponents", "y_exponent")

    def __init__(self, j: int, d: int, x_exponents: tuple, y_exponent: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        if len(x_exponents) != d:
            raise ValueError("need exactly d x-exponents")
        if any(a < 1 for a in x_exponents):
            raise ValueError("x exponents must be >= 1")
        if y_exponent < 1:
            raise ValueError("y exponent must be >= 1")
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x_exponents", x_exponents)
        object.__setattr__(self, "y_exponent", y_exponent)


def omega_bruteforce(inst: OmegaInstance, order: int) -> TruncatedSeries:
    """Expand the pre-elimination sum and filter on the lambda exponent.

    Term (a_1..a_d, a_{d+1}) carries lambda^(j + sum a_i - a_{d+1}) and
    q^(sum alpha_i a_i + beta a_{d+1}); terms with negative lambda exponent
    are dropped, lambda is set to 1, and the q-exponent is truncated.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    alphas = inst.x_exponents
    beta = inst.y_exponent
    coeffs = [0] * order
    top = order - 1

    def rec(i: int, q_exp: int, a_sum: int):
        if i == inst.d:
            lam_cap = inst.j + a_sum
            if lam_cap < 0:
                return
            a_last_max = min(lam_cap, (top - q_exp) // beta)
            for a_last in range(a_last_max + 1):
                coeffs[q_exp + beta * a_last] += 1
            return
        step = alphas[i]
        e = q_exp
        a = 0
        while e <= top:
            rec(i + 1, e, a_sum + a)
            e += step
            a += 1

    rec(0, 0, 0)
    return TruncatedSeries.from_coeffs(coeffs, ring=ZZ)


def omega_closed_form(inst: OmegaInstance, order: int) -> TruncatedSeries:
    """Evaluate the eliminated form under the q-power specialization.

    1/(1-y) * [ 1/prod(1-x_i)  -  y^{j+1}/prod(1-x_i y) ]
    with x_i = q^{alpha_i}, y = q^{beta}.  Needs j >= -1 so y^{j+1} is an
    actual series term; nothing is analytically continued below that.
    """
    if inst.j < -1:
        raise UnsupportedInstanceError(
            f"closed form needs j >= -1, got j={inst.j}"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    beta = inst.y_exponent
    first = [1] + [0] * (order - 1)
    second = [0] * order
    if beta * (inst.j + 1) < order:
        second[beta * (inst.j + 1)] = 1
    for a in inst.x_exponents:
        div_one_minus(first, a)
        div_one_minus(second, a + beta)
    diff = list(map(sub, first, second))
    div_one_minus(diff, beta)
    return TruncatedSeries(ZZ, tuple(diff))


def crude_Dd1_check(d: int, a0_exp: int, a1_exp: int, w_exp: int,
                    order: int) -> bool:
    """One-cell diamond series two ways under (q^a0, q^a1; q^w).

    Side one enumerates node values a0 >= b_1..b_d >= a1 directly from the
    inequality definition; side two is F_d(q^a0, q^w) over the d+2
    geometric denominators.  Returns coefficientwise equality below order.
    """
    if d > 3 or order > 30:
        raise ValueError("cost guard: need d <= 3 and order <= 30")
    if min(a0_exp, a1_exp, w_exp) < 1:
        raise ValueError("exponents must be >= 1")

    top = order - 1
    coeffs = [0] * order
    for a0 in range(top // a0_exp + 1):
        e0 = a0_exp * a0
        for a1 in range(a0 + 1):
            e1 = e0 + a1_exp * a1
            if e1 + w_exp * d * a1 > top:
                break
            for fans in product(range(a1, a0 + 1), repeat=d):
                e = e1 + w_exp * sum(fans)
                if e <= top:
                    coeffs[e] += 1

    closed = [1] + [0] * (order - 1)
    mul_sparse(closed, fd_poly(d).specialized_terms(a0_exp, w_exp, order))
    for t in range(d + 1):
        div_one_minus(closed, a0_exp + t * w_exp)
    div_one_minus(closed, a0_exp + a1_exp + d * w_exp)

    return coeffs == closed


# ---------------------------------------------------------------------
# Randomized cross-evaluation suite
# ---------------------------------------------------------------------

def random_instances(count: int, seed: int, j_range=(-1, 4), d_max: int = 4,
                     exp_max: int = 5) -> Iterable[OmegaInstance]:
    """Deterministic stream of random instances for the given seed."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, d_max)
        yield OmegaInstance(
            j=rng.randint(*j_range),
            d=d,
            x_exponents=tuple(rng.randint(1, exp_max) for _ in range(d)),
            y_exponent=rng.randint(1, exp_max),
        )


OmegaSuiteReport = namedtuple("OmegaSuiteReport", "instances failures")


def run_omega_suite(count: int, seed: int, order: int = 20) -> OmegaSuiteReport:
    """Compare brute force against the closed form on random instances."""
    failures = []
    for inst in random_instances(count, seed):
        if omega_bruteforce(inst, order) != omega_closed_form(inst, order):
            failures.append(inst)
    return OmegaSuiteReport(count, failures)

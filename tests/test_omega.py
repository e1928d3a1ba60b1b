"""Omega elimination: brute force and closed form must agree everywhere.

omega_bruteforce counts the tuples (a_1..a_d) from a table by sum and
weight; literal_omega_bruteforce below visits every term one at a time, and
the two must agree on every instance.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partition_diamonds.omega import (
    OmegaInstance, UnsupportedInstanceError, crude_Dd1_check,
    omega_bruteforce, omega_closed_form, random_instances, run_omega_suite,
)
from partition_diamonds.series import TruncatedSeries, ZZ


def literal_omega_bruteforce(inst: OmegaInstance,
                             order: int) -> TruncatedSeries:
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


def two_factor_geometric(e1, e2, order):
    """1/((1-q^e1)(1-q^e2)) by direct double counting."""
    coeffs = [0] * order
    for a in range(0, order, e1):
        for b in range(a, order, e2):
            coeffs[b] += 1
    return TruncatedSeries.from_coeffs(coeffs)


def test_instance_validation():
    with pytest.raises(ValueError):
        OmegaInstance(0, 0, (), 1)
    with pytest.raises(ValueError):
        OmegaInstance(0, 2, (1,), 1)
    with pytest.raises(ValueError):
        OmegaInstance(0, 1, (0,), 1)
    with pytest.raises(ValueError):
        OmegaInstance(0, 1, (1,), 0)


def test_bruteforce_base_elimination():
    # j=0, d=1: lambda elimination gives 1/((1-x)(1-xy)), here x=q, y=q^2
    inst = OmegaInstance(0, 1, (1,), 2)
    assert omega_bruteforce(inst, 8) == two_factor_geometric(1, 3, 8)


def test_bruteforce_constant_term():
    inst = OmegaInstance(0, 1, (1,), 1)
    assert omega_bruteforce(inst, 1).coeffs == (1,)


def test_closed_form_base_elimination():
    inst = OmegaInstance(0, 1, (1,), 2)
    assert omega_closed_form(inst, 8) == two_factor_geometric(1, 3, 8)


def test_closed_form_trivial():
    inst = OmegaInstance(0, 2, (1, 1), 1)
    assert omega_closed_form(inst, 1).coeffs == (1,)


@pytest.mark.parametrize("inst", [
    OmegaInstance(2, 2, (1, 2), 3),
    OmegaInstance(1, 1, (2,), 1),
    OmegaInstance(-1, 3, (1, 1, 2), 2),
    OmegaInstance(4, 2, (5, 3), 4),
])
def test_cross_evaluation(inst):
    order = 12
    assert omega_bruteforce(inst, order) == omega_closed_form(inst, order)


def test_base_elimination_across_specializations():
    # j=0, d=1 must give 1/((1-q^a)(1-q^(a+b))) for every exponent pair
    for a in (1, 2, 3, 5):
        for b in (1, 2, 4):
            inst = OmegaInstance(0, 1, (a,), b)
            want = two_factor_geometric(a, a + b, 16)
            assert omega_bruteforce(inst, 16) == want
            assert omega_closed_form(inst, 16) == want


def test_very_negative_j():
    # no lambda exponent can reach zero below the truncation, so the
    # brute force vanishes; the closed form refuses such instances
    inst = OmegaInstance(-50, 2, (1, 1), 1)
    assert omega_bruteforce(inst, 10) == TruncatedSeries.zero(10)
    with pytest.raises(UnsupportedInstanceError):
        omega_closed_form(inst, 10)


def test_random_suite_deterministic_and_green():
    report = run_omega_suite(60, seed=7)
    assert report.instances == 60 and report.failures == []
    a = list(random_instances(10, seed=123))
    b = list(random_instances(10, seed=123))
    assert a == b


def test_crude_check_examples():
    assert crude_Dd1_check(1, 1, 1, 1, 20)
    assert crude_Dd1_check(2, 1, 1, 1, 20)
    assert crude_Dd1_check(3, 2, 1, 1, 15)


def test_crude_check_d1_closed_form_shape():
    # both sides are 1/((1-q)(1-q^2)(1-q^3)) at unit exponents
    assert crude_Dd1_check(1, 1, 1, 1, 20)


def test_crude_check_guard():
    with pytest.raises(ValueError, match="guard"):
        crude_Dd1_check(4, 1, 1, 1, 10)
    with pytest.raises(ValueError, match="guard"):
        crude_Dd1_check(2, 1, 1, 1, 31)


# -- the tabulated brute force against the literal one --------------------

@pytest.mark.parametrize("seed", range(1, 9))
def test_bruteforce_equals_literal_on_suite_instances(seed):
    for inst in random_instances(300, seed):
        assert omega_bruteforce(inst, 20) == \
            literal_omega_bruteforce(inst, 20), inst


@pytest.mark.parametrize("inst, order", [
    (OmegaInstance(0, 1, (1,), 1), 1),
    (OmegaInstance(-1, 3, (2, 1, 3), 2), 1),
    (OmegaInstance(-50, 2, (1, 1), 1), 30),
    (OmegaInstance(-50, 3, (1, 2, 1), 1), 60),
    (OmegaInstance(3, 2, (12, 1), 2), 12),      # alpha == order
    (OmegaInstance(0, 2, (40, 50), 3), 12),     # every alpha beyond order
    (OmegaInstance(2, 2, (1, 2), 12), 12),      # beta == order
    (OmegaInstance(-1, 1, (3,), 99), 12),       # beta beyond order
    (OmegaInstance(1, 1, (1,), 1), 2),
    (OmegaInstance(30, 4, (1, 1, 1, 1), 1), 25),  # j above every sum
], ids=str)
def test_bruteforce_equals_literal_on_edge_cases(inst, order):
    assert omega_bruteforce(inst, order) == \
        literal_omega_bruteforce(inst, order)


def test_bruteforce_ignores_exponent_order():
    # instances with the same exponents share one table; each must still
    # get its own filter
    for j in (-2, 0, 3):
        for x in ((1, 2, 5), (5, 1, 2), (2, 5, 1)):
            inst = OmegaInstance(j, 3, x, 2)
            assert omega_bruteforce(inst, 18) == \
                literal_omega_bruteforce(inst, 18)
        assert omega_bruteforce(OmegaInstance(j, 3, (1, 2, 5), 2), 18) == \
            omega_bruteforce(OmegaInstance(j, 3, (5, 2, 1), 2), 18)


@settings(max_examples=60, deadline=None)
@given(j=st.integers(-30, 30),
       x=st.lists(st.integers(1, 25), min_size=1, max_size=5),
       beta=st.integers(1, 25), order=st.integers(1, 24))
@example(j=-1, x=[1, 1, 1, 1, 1], beta=1, order=24)
@example(j=0, x=[24], beta=24, order=24)
def test_bruteforce_equals_literal_property(j, x, beta, order):
    inst = OmegaInstance(j, len(x), tuple(x), beta)
    assert omega_bruteforce(inst, order) == \
        literal_omega_bruteforce(inst, order)

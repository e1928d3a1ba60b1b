"""Congruence claims, the totient reduction, and the progression scanner."""

import pytest

from partition_diamonds import congruences
from partition_diamonds.congruences import (
    ClaimReport, CongruenceClaim, Witness,
    builtin_claims, claim_by_label, euler_phi, internal_congruence_check,
    report_to_json_dict, scan_progressions, verify_claim, verify_claims,
)
from partition_diamonds.genfun import sd_series
from partition_diamonds.oracle import BudgetError, count_sd
from partition_diamonds.series import MODULUS_LIMIT, RingSpec, TruncatedSeries


def test_catalog_shape():
    claims = builtin_claims()
    assert len(claims) == 17
    assert sum(1 for c in claims if c.conjectural) == 8
    for c in claims:
        assert 0 <= c.residue < c.prog_modulus
        assert c.d_offset >= 1
    two_pow = claim_by_label("mod2pow")
    assert two_pow.prog_modulus == 2 and two_pow.residue == 1
    assert two_pow.power_of_two_in_d
    assert two_pow.modulus_at(2) == 8  # d = k+1


def test_claim_validation():
    with pytest.raises(ValueError):
        CongruenceClaim(4, 1, 5, 5, modulus=5)  # residue out of range
    with pytest.raises(ValueError):
        CongruenceClaim(4, 0, 5, 2, modulus=5)  # offset must be >= 1
    with pytest.raises(ValueError):
        CongruenceClaim(4, 1, 5, 2)  # no modulus at all
    with pytest.raises(ValueError):
        CongruenceClaim(1, 1, 2, 1, modulus=4, power_of_two_in_d=True)
    with pytest.raises(ValueError):
        CongruenceClaim(4, 1, 5, 2, modulus=1 << 64)  # ring width cap
    with pytest.raises(ValueError):
        claim = CongruenceClaim(1, 1, 2, 1, power_of_two_in_d=True)
        claim.modulus_at(63)  # 2^64 would leave the residue ring


def _accepts(make, modulus):
    try:
        make(modulus)
    except ValueError:
        return False
    return True


def _claim(modulus):
    return CongruenceClaim(4, 1, 5, 2, modulus=modulus)


@pytest.mark.parametrize("modulus", [
    -1, 0, 1, 2, 5, (1 << 62), (1 << 63) - 1, 1 << 63,
    MODULUS_LIMIT - 59, MODULUS_LIMIT - 1, MODULUS_LIMIT, MODULUS_LIMIT + 1,
])
def test_modulus_bounds_share_one_limit(modulus):
    # claims accept exactly RingSpec's moduli, 2 <= m < 2^64
    assert MODULUS_LIMIT == 1 << 64
    ring_ok = _accepts(RingSpec, modulus)
    assert ring_ok == (2 <= modulus < MODULUS_LIMIT)
    assert _accepts(_claim, modulus) == ring_ok


def test_power_of_two_family_stays_inside_claim_limit():
    claim = claim_by_label("mod2pow")
    top = claim.modulus_at(62)  # d = k + 1
    assert top == 1 << 63 < MODULUS_LIMIT
    RingSpec(top)
    with pytest.raises(ValueError, match=r"^2\^64 exceeds"):
        claim.modulus_at(63)


def test_verify_power_of_two_family_small():
    report = verify_claim(claim_by_label("mod2pow"), k_max=3, n_max=30)
    assert report.status == "verified_up_to_bounds"
    # n = 0 of that family is the forced count s_d(1) = 2^d
    assert count_sd(3, 1) == 8


def test_verify_mod5_at_k0():
    # first member: s_1(3) = 10 vanishes mod 5
    assert count_sd(1, 3) == 10
    report = verify_claim(claim_by_label("mod5_4k1_r3"), k_max=0, n_max=10)
    assert report.status == "verified_up_to_bounds"
    assert report.witness is None


def test_falsified_claim_yields_witness():
    bogus = CongruenceClaim(0, 1, 5, 1, modulus=5, label="bogus")
    report = verify_claim(bogus, k_max=2, n_max=10)
    assert report.status == "counterexample"
    assert report.witness.d == 1
    assert report.witness.index == 1
    assert report.witness.value == 2  # s_1(1) = 2, non-zero mod 5
    assert 0 < report.witness.value < 5


def test_verify_inspects_the_index_at_n_max():
    # s_1(11n + 5) is even for n <= 6 and odd at n = 7, whose index 82 is
    # the last one the n_max = 7 series holds
    claim = CongruenceClaim(0, 1, 11, 5, modulus=2)
    report = verify_claim(claim, k_max=0, n_max=7)
    assert report.status == "counterexample"
    assert report.witness == Witness(d=1, index=82, value=1)
    report = verify_claim(claim, k_max=0, n_max=6)
    assert report.status == "verified_up_to_bounds"


def test_falsified_claim_witness_in_json():
    bogus = CongruenceClaim(0, 1, 5, 1, modulus=5, label="bogus")
    payload = report_to_json_dict(verify_claim(bogus, k_max=2, n_max=10))
    assert payload["status"] == "counterexample"
    assert list(payload["witness"].items()) == [("d", 1), ("index", 1),
                                                ("value", 2)]


def test_verify_budget_guard():
    claim = claim_by_label("mod11")
    with pytest.raises(BudgetError):
        verify_claim(claim, k_max=0, n_max=10, budget=100)


@pytest.mark.parametrize("value", [0, -5])
def test_verify_rejects_nonpositive_budget(value):
    claim = claim_by_label("mod5_4k1_r2")
    with pytest.raises(ValueError, match="budget must be a positive integer"):
        verify_claim(claim, k_max=0, n_max=5, budget=value)


def test_verify_checks_budget_before_its_estimate(monkeypatch):
    def no_estimate(*args):
        raise AssertionError("the work estimate ran before the budget check")

    monkeypatch.setattr(congruences, "_claim_work_estimate", no_estimate)
    with pytest.raises(ValueError,
                       match="budget must be a positive integer, got 0"):
        verify_claim(claim_by_label("mod11"), k_max=0, n_max=10, budget=0)


def test_euler_phi():
    assert euler_phi(1) == 1
    assert euler_phi(5) == 4
    assert euler_phi(12) == 4
    assert [euler_phi(m) for m in (2, 3, 7, 11)] == [1, 2, 6, 10]


def test_internal_congruence_examples():
    assert internal_congruence_check(1, 1, 5, 100)   # d=5 vs d=1 mod 5
    assert internal_congruence_check(2, 1, 3, 100)   # d=4 vs d=2 mod 3
    assert internal_congruence_check(1, 0, 7, 50)    # k=0: same function


def test_internal_congruence_builds_the_d_side_without_the_table(
        monkeypatch):
    # a table-driven sd_series that ignored d would make both sides equal;
    # the d side must come from the exact powers instead
    def s1_for_every_d(d, order, ring):
        return sd_series(1, order, ring)

    monkeypatch.setattr(congruences, "sd_series", s1_for_every_d)
    assert not internal_congruence_check(2, 1, 5, 100)   # s_6 vs s_1 mod 5
    monkeypatch.undo()
    monkeypatch.setattr(congruences, "sd_series_factorwise", s1_for_every_d)
    assert not internal_congruence_check(2, 1, 5, 100)   # s_1 vs s_2 mod 5


@pytest.mark.parametrize("m", (4, 9, 12))
def test_internal_congruence_outside_domain_raises(m):
    # r = 1 is below the exponent 2 in 4, 9 and 12 = 2^2 * 3
    with pytest.raises(ValueError, match="outside domain"):
        internal_congruence_check(1, 1, m, 100)


@pytest.mark.parametrize("m", (4, 9, 12))
def test_internal_congruence_prime_powers_at_domain_edge(m):
    assert internal_congruence_check(2, 1, m, 100)


def test_scanner_finds_mod5_progressions():
    series = sd_series(1, 500, RingSpec(5))
    assert scan_progressions(series, 6) == [(5, 2), (5, 3), (5, 4)]


def test_scanner_zero_series_prunes_to_trivial():
    zero = TruncatedSeries.zero(120, RingSpec(5))
    assert scan_progressions(zero, 9) == [(1, 0)]


def test_scanner_finds_parity_progression():
    series = sd_series(2, 500, RingSpec(2))
    assert (2, 1) in scan_progressions(series, 4)


def test_scanner_stable_under_longer_series():
    small = scan_progressions(sd_series(1, 260, RingSpec(5)), 6)
    large = scan_progressions(sd_series(1, 500, RingSpec(5)), 6)
    assert set(small) <= set(large) or small == large
    assert small == large == [(5, 2), (5, 3), (5, 4)]


def test_scanner_stops_once_no_class_reaches_support():
    # past M = 11 no class of an order-100 series holds 10 coefficients, so
    # a bound of 10**6 must return at once, with what a bound of 100 returns
    series = sd_series(1, 100, RingSpec(5))
    found = scan_progressions(series, 100)
    assert found == [(5, 2), (5, 3), (5, 4)]
    assert scan_progressions(series, 10**6) == found


def test_scanner_at_support_one_stops_at_the_series_order():
    # past M = order each class inspects one coefficient, as (order, r) does
    series = sd_series(1, 100, RingSpec(5))
    found = scan_progressions(series, 100, min_support=1)
    assert scan_progressions(series, 10**4, min_support=1) == found


def test_scanner_requires_residue_ring_and_support():
    with pytest.raises(ValueError):
        scan_progressions(sd_series(1, 50), 5)
    # order 30, M=5 gives 6 witnesses per class: below min_support of 10
    series = sd_series(1, 30, RingSpec(5))
    assert scan_progressions(series, 5, min_support=10) == []
    assert (5, 2) in scan_progressions(series, 5, min_support=5)


def test_scanner_counts_support_through_the_last_index():
    # class 5n + 4 of an order-50 series ends at index 49 and holds exactly
    # 10 coefficients, so it reaches a min_support of 10
    series = sd_series(1, 50, RingSpec(5))
    assert scan_progressions(series, 5, min_support=10) == \
        [(5, 2), (5, 3), (5, 4)]


@pytest.mark.parametrize("min_support", [0, -3])
def test_scanner_refuses_support_below_one(min_support):
    series = sd_series(1, 50, RingSpec(5))
    with pytest.raises(ValueError, match="min_support must be >= 1"):
        scan_progressions(series, 60, min_support=min_support)
    # support 1 inspects at least one coefficient per reported progression
    found = scan_progressions(series, 60, min_support=1)
    assert found and all(r < series.order for _, r in found)


def test_conjectural_claims_verify_small():
    report = verify_claim(claim_by_label("mod7_6k1_r17"), k_max=0, n_max=5)
    assert report.status == "verified_up_to_bounds"
    assert report.claim.conjectural


def test_verify_claims_matches_verify_claim_in_order():
    claims = [claim_by_label(label) for label in
              ("mod5_4k1_r3", "mod2pow", "mod7_6k2_r31")]
    bogus = CongruenceClaim(1, 1, 1, 0, modulus=5, label="bogus")
    claims.append(bogus)
    got = verify_claims(claims, k_max=1, n_max=4)
    assert got == [verify_claim(c, k_max=1, n_max=4) for c in claims]
    assert got[-1].status == "counterexample"
    assert verify_claims([], k_max=0, n_max=0) == []


def test_verify_claims_guards_every_claim_before_any_build(monkeypatch):
    def no_series(*args):
        raise AssertionError("a series was built before the refusal")

    monkeypatch.setattr(congruences, "sd_series", no_series)
    claims = [claim_by_label("mod5_4k1_r2"), claim_by_label("mod11")]
    with pytest.raises(BudgetError, match="claim mod11"):
        verify_claims(claims, k_max=0, n_max=10, budget=100_000)
    with pytest.raises(ValueError, match="bounds must be >= 0"):
        verify_claims(claims, k_max=-1, n_max=10)


def counted_builds(monkeypatch):
    """Record the (d, modulus) of every sd_series build verify_claim makes."""
    calls = []

    def counted(d, order, ring):
        calls.append((d, ring.modulus))
        return sd_series(d, order, ring)

    monkeypatch.setattr(congruences, "sd_series", counted)
    return calls


@pytest.mark.parametrize("label, builds", [
    ("mod5_4k1_r2", [(1, 5)]),                    # d = 1, 5, 9: one table
    ("mod2pow", [(1, 2), (2, 4), (3, 8)]),         # m changes with k
])
def test_verify_builds_each_residue_table_once(monkeypatch, label, builds):
    calls = counted_builds(monkeypatch)
    report = verify_claim(claim_by_label(label), k_max=2, n_max=20)
    assert report.status == "verified_up_to_bounds"
    assert calls == builds


def every_k_report(claim, k_max, n_max):
    """verify_claim's result with a series built for every k, no sharing."""
    order = claim.prog_modulus * n_max + claim.residue + 1
    for k in range(k_max + 1):
        d = claim.d_at(k)
        coeffs = sd_series(d, order, RingSpec(claim.modulus_at(k))).coeffs
        for idx in range(claim.residue, order, claim.prog_modulus):
            if coeffs[idx]:
                return ClaimReport(claim, k_max, n_max, "counterexample",
                                   congruences.Witness(d, idx, coeffs[idx]))
    return ClaimReport(claim, k_max, n_max, "verified_up_to_bounds")


@pytest.mark.parametrize("claim", builtin_claims() + (
    CongruenceClaim(1, 1, 5, 4, modulus=5, label="false_1k1"),
    CongruenceClaim(2, 1, 5, 3, modulus=5, label="false_2k1"),
), ids=lambda claim: claim.label)
def test_skipped_tables_change_no_report(claim):
    assert verify_claim(claim, k_max=4, n_max=6) == \
        every_k_report(claim, 4, 6)


def test_false_claim_keeps_its_witness(monkeypatch):
    # d = 5 repeats d = 1's table and is skipped; the witness is d = 2's
    calls = counted_builds(monkeypatch)
    claim = CongruenceClaim(1, 1, 5, 4, modulus=5)
    report = verify_claim(claim, k_max=4, n_max=20)
    assert report.witness == (2, 9, 3)
    assert calls == [(1, 5), (2, 5)]

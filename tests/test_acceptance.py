"""Acceptance gate: every criterion at its stated bound, exact arithmetic.

Each test prints one `[criterion NN] PASS|FAIL` line (run with `pytest -s`
to see them all) and then asserts, so a red criterion is visible both ways.
All comparisons are exact equality; there are no tolerances anywhere.
"""

from itertools import product

from partition_diamonds.cli import DEFAULT_SEED, report_to_json_dict
from partition_diamonds.congruences import (
    builtin_claims, claim_by_label, internal_congruence_check,
    scan_progressions, verify_claim,
)
from partition_diamonds.genfun import (
    ddn_series_closed, mersmann_F_series, rd_series, sd_series,
)
from partition_diamonds.omega import crude_Dd1_check, run_omega_suite
from partition_diamonds.oracle import (
    count_rd_upto, count_sd, series_Ddn_bruteforce, series_Ddn_shifted,
)
from partition_diamonds.polynomials import (
    eulerian_poly, fd_at_w1, fd_specialize,
)
from partition_diamonds.series import (
    RingSpec, TruncatedSeries, ZZ, jacobi_cube_series, pentagonal_series,
    product_family,
)


def criterion(num, ok, text):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_rd_oracle_equivalence():
    ok = all(
        rd_series(d, 26).coeffs == tuple(count_rd_upto(d, 25))
        for d in (1, 2, 3, 4)
    )
    criterion(1, ok, "rd_series == count_rd for d<=4, n<=25 (exact)")


def test_criterion_02_sd_oracle_equivalence():
    ok = all(
        sd_series(d, 26).coeffs == tuple(count_sd(d, n) for n in range(26))
        for d in (1, 2, 3, 4)
    )
    criterion(2, ok, "sd_series == count_sd for d<=4, n<=25 (exact)")


def test_criterion_03_fd_collapses_to_eulerian():
    ok = all(fd_at_w1(d) == eulerian_poly(d) for d in range(1, 13))
    criterion(3, ok, "F_d(q,1) == A_d(q) for d in 1..12 (exact)")


def test_criterion_04_printed_numerators():
    ok = True
    for n in range(1, 6):
        order = 8 * n
        want2 = TruncatedSeries.from_terms({0: 1, 3 * n - 1: 1}, order)
        ok &= fd_specialize(2, 3 * n - 2, 1, order) == want2
        want3 = TruncatedSeries.from_terms(
            {0: 1, 4 * n - 2: 2, 4 * n - 1: 2, 8 * n - 3: 1}, order)
        ok &= fd_specialize(3, 4 * n - 3, 1, order) == want3
    criterion(4, ok, "d=2 and d=3 product numerators for n in 1..5 (exact)")


def test_criterion_05_transfer_product_vs_enumeration():
    ok = all(
        ddn_series_closed(d, n, 15) == series_Ddn_bruteforce(d, n, 15)
        for d in (1, 2, 3) for n in (1, 2, 3)
    )
    criterion(5, ok, "fixed-length closed form == enumeration, "
                     "d<=3, n<=3, N=15 (exact)")


def test_criterion_06_shift_lemma():
    ok = True
    for d, n, rho in product((1, 2), (1, 2), (0, 1, 2)):
        shift = rho * ((n + 1) + d * n)
        lhs = series_Ddn_shifted(d, n, rho, 12)
        rhs = TruncatedSeries.monomial(shift, 12) * \
            series_Ddn_bruteforce(d, n, 12)
        ok &= lhs == rhs
    criterion(6, ok, "shifted enumeration == q^(rho(n+1+dn)) * plain, "
                     "d<=2, n<=2, rho<=2, N=12 (exact)")


def test_criterion_07_omega_kernel():
    report = run_omega_suite(200, seed=DEFAULT_SEED)
    ok = report.instances == 200 and not report.failures
    for d in (1, 2, 3):
        for exps in product((1, 2), repeat=3):
            ok &= crude_Dd1_check(d, *exps, 15)
    criterion(7, ok, "200 seeded elimination instances + one-cell grid "
                     "(exact)")


def test_criterion_08_classical_expansions():
    def one_minus(n, order):
        return TruncatedSeries.from_terms({0: 1, n: -1}, order)

    order = 500
    ok = pentagonal_series(order) == product_family(
        lambda n: one_minus(n, order), order)
    ok &= jacobi_cube_series(order) == product_family(
        lambda n: one_minus(n, order) ** 3, order)
    criterion(8, ok, "pentagonal and cube expansions == products, "
                     "N=500 (exact)")


def test_criterion_09_eta_theta_identity():
    ok = mersmann_F_series(500).agree
    criterion(9, ok, "eta quotient == theta sums, N=500 (exact)")


def test_criterion_10_power_of_two_family():
    report = verify_claim(claim_by_label("mod2pow"), k_max=7, n_max=100)
    ok = report.status == "verified_up_to_bounds"
    criterion(10, ok, "s_d(2n+1) == 0 mod 2^d for d<=8, n<=100 (exact)")


def test_criterion_11_mod5_families():
    labels = ("mod5_4k1_r2", "mod5_4k1_r3", "mod5_4k1_r4",
              "mod5_4k2_25n23", "mod5_4k3_r2", "mod5_4k3_r4",
              "mod5_4k3_25n23")
    ok = all(
        verify_claim(claim_by_label(lbl), k_max=2, n_max=40).status
        == "verified_up_to_bounds"
        for lbl in labels
    )
    criterion(11, ok, "all mod-5 progressions, k<=2, n<=40 (exact)")


def test_criterion_12_mod11_family():
    report = verify_claim(claim_by_label("mod11"), k_max=1, n_max=4)
    ok = report.status == "verified_up_to_bounds"
    criterion(12, ok, "s_(10k+1)(121n+111) == 0 mod 11, k<=1, n<=4 (exact)")


def test_criterion_13_totient_periodicity():
    ok = all(
        internal_congruence_check(r, k, m, 100)
        for m in (2, 3, 5, 7, 11) for r in (1, 2, 3) for k in (0, 1, 2)
    )
    criterion(13, ok, "s_(phi(m)k+r) == s_r mod m to N=100 (exact)")


def test_criterion_14_mod7_conjecture_evidence():
    conjectures = [c for c in builtin_claims() if c.conjectural]
    ok = len(conjectures) == 8
    for claim in conjectures:
        report = verify_claim(claim, k_max=1, n_max=20)
        ok &= report_to_json_dict(report)["status"] == "conjecture-held"
    criterion(14, ok, "all eight mod-7 claims held, k<=1, n<=20 "
                      "(conjecture-held)")


def test_criterion_15_scanner_regression():
    series = sd_series(1, 500, RingSpec(5))
    ok = scan_progressions(series, 6) == [(5, 2), (5, 3), (5, 4)]
    criterion(15, ok, "scan of s_1 mod 5 finds exactly (5,2),(5,3),(5,4)")

"""MacMahon's Omega operator, checked the honest way.

Omega-ge kills every monomial with a negative exponent in an elimination
variable and then sets that variable to 1.  The workhorse elimination
formula turns a (d+1)-factor rational shape into a closed product; instead
of trusting it, we expand both sides as exact q-series under power
substitutions and compare.
"""

from partition_diamonds import (
    OmegaInstance, TruncatedSeries, crude_Dd1_check, omega_bruteforce,
    omega_closed_form, run_omega_suite, series_Ddn_bruteforce,
    series_Ddn_shifted,
)

inst = OmegaInstance(j=0, d=1, x_exponents=(1,), y_exponent=2)
bf = omega_bruteforce(inst, 12)
cf = omega_closed_form(inst, 12)
print("base elimination (x=q, y=q^2):")
print("  brute force:", list(bf.coeffs))
print("  closed form:", list(cf.coeffs))
assert bf == cf

print()
print("random cross-evaluation: 200 instances, fixed seed")
report = run_omega_suite(200, seed=42)
print(f"  {report.instances} instances, {len(report.failures)} failures")
assert not report.failures

print()
print("one-cell diamond, enumeration vs closed form with the F_d numerator:")
for d in (1, 2, 3):
    ok = crude_Dd1_check(d, 1, 1, 1, 20)
    print(f"  d={d}, exponents (1,1,1), order 20: {'agree' if ok else 'DISAGREE'}")
    assert ok

print()
print("shift bijection: adding rho to every node multiplies the fixed-shape")
print("series by q^(rho * node_count):")
for d, n, rho in ((1, 1, 1), (2, 2, 2), (2, 1, 3)):
    nodes = (n + 1) + d * n
    lhs = series_Ddn_shifted(d, n, rho, 14)
    rhs = TruncatedSeries.monomial(rho * nodes, 14) * \
        series_Ddn_bruteforce(d, n, 14)
    assert lhs == rhs
    print(f"  d={d}, n={n}, rho={rho}: shift exponent {rho * nodes}, equal")

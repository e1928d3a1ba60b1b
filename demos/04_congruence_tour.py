"""Ramanujan-like congruences of the Schmidt-type counts s_d(n).

The star family: s_d(2n+1) is divisible by 2^d, for every d.  There are
also mod-5 and mod-11 families, all reducible to small residue computations
on the exact series, plus a scanner that rediscovers the progressions from
the coefficients alone.
"""

from partition_diamonds import (
    RingSpec, builtin_claims, count_sd, euler_phi, internal_congruence_check,
    report_to_json_dict, scan_progressions, sd_series, verify_claim,
)

print("odd-index values of s_3 are divisible by 2^3 = 8:")
vals = [count_sd(3, n) for n in range(1, 14, 2)]
print("  s_3(odd):", vals)
print("  mod 8:   ", [v % 8 for v in vals])
assert all(v % 8 == 0 for v in vals)

print()
print("verifying the catalog (small bounds; see tests for the full gate):")
for claim in builtin_claims():
    if claim.prog_modulus > 50:
        continue  # mod11 (121n+111) is left to the tests and verify --all
    report = verify_claim(claim, k_max=1, n_max=10)
    status = report_to_json_dict(report)["status"]
    print(f"  {claim.label:18s} {status}")

print()
print("scanner rediscovery: which progressions of s_1 vanish mod 5?")
series = sd_series(1, 500, RingSpec(5))
found = scan_progressions(series, m_max=8)
print("  found:", found)
assert found == [(5, 2), (5, 3), (5, 4)]

print()
print("the totient reduction collapses the whole tower onto small d:")
for m in (3, 5, 7):
    phi = euler_phi(m)
    ok = internal_congruence_check(1, 1, m, 80)
    print(f"  s_(phi({m})+1) == s_1 mod {m} to order 80: {ok}  (phi={phi})")
    assert ok

"""Ramanujan-like congruence verification for the Schmidt-type counts s_d(n).

A claim is a parametrized family: for every k >= 0 and n >= 0,

    s_{a k + b}(M n + r) == 0  (mod m),

where m is either fixed or 2^d for the power-of-two family.  verify_claim
checks a claim exhaustively up to (k_max, n_max) by building the s_d series
in the residue ring and inspecting the arithmetic progression; the first
non-zero residue short-circuits into a counterexample witness.

builtin_claims catalogs the known families (mod 2^d, three mod-5 groups, a
mod-11 family) plus eight conjectural mod-7 families that are verified with
the same machinery but flagged so a failure reads as a discovery rather
than a bug.  scan_progressions is the discovery companion: it searches a
reduced series for arithmetic progressions of zero coefficients.
"""

from __future__ import annotations

from collections import namedtuple

from .genfun import sd_series
from .oracle import BudgetError, enumeration_budget
from .series import MODULUS_LIMIT, Record, RingSpec, TruncatedSeries

__all__ = [
    "CongruenceClaim",
    "ClaimReport",
    "Witness",
    "builtin_claims",
    "claim_by_label",
    "verify_claim",
    "internal_congruence_check",
    "euler_phi",
    "scan_progressions",
    "report_to_json_dict",
]

# Claims keep one bit of headroom below the residue-ring limit: a fixed
# modulus stays below 2^63, and the 2^d family stops at d = 62.
CLAIM_MODULUS_LIMIT = MODULUS_LIMIT >> 1
MAX_POW2_D = CLAIM_MODULUS_LIMIT.bit_length() - 2


class CongruenceClaim(Record):
    """s_{d_stride*k + d_offset}(prog_modulus*n + residue) == 0 (mod modulus)."""

    __slots__ = ("d_stride", "d_offset", "prog_modulus", "residue", "modulus",
                 "power_of_two_in_d", "conjectural", "label")

    def __init__(self, d_stride: int, d_offset: int, prog_modulus: int,
                 residue: int, modulus: int | None = None,
                 power_of_two_in_d: bool = False, conjectural: bool = False,
                 label: str = ""):
        if d_stride < 0:
            raise ValueError("d stride must be >= 0")
        if d_offset < 1:
            raise ValueError("d offset must be >= 1")
        if prog_modulus < 1:
            raise ValueError("progression modulus must be >= 1")
        if not 0 <= residue < prog_modulus:
            raise ValueError("residue must lie in [0, prog_modulus)")
        if power_of_two_in_d:
            if modulus is not None:
                raise ValueError("power-of-two claims derive m from d")
        elif modulus is None or modulus < 2:
            raise ValueError("fixed modulus must be >= 2")
        elif modulus >= CLAIM_MODULUS_LIMIT:
            raise ValueError("modulus must stay below 2^63")
        object.__setattr__(self, "d_stride", d_stride)
        object.__setattr__(self, "d_offset", d_offset)
        object.__setattr__(self, "prog_modulus", prog_modulus)
        object.__setattr__(self, "residue", residue)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "power_of_two_in_d", power_of_two_in_d)
        object.__setattr__(self, "conjectural", conjectural)
        object.__setattr__(self, "label", label)

    def d_at(self, k: int) -> int:
        return self.d_stride * k + self.d_offset

    def modulus_at(self, k: int) -> int:
        if self.power_of_two_in_d:
            d = self.d_at(k)
            if d > MAX_POW2_D:
                raise ValueError(f"2^{d} exceeds the residue ring width")
            return 2 ** d
        return self.modulus


Witness = namedtuple("Witness", "d index value")


class ClaimReport(Record):
    """Outcome of verify_claim; status is "verified_up_to_bounds" or
    "counterexample", and a counterexample carries its witness."""

    __slots__ = ("claim", "k_max", "n_max", "status", "witness")

    def __init__(self, claim: CongruenceClaim, k_max: int, n_max: int,
                 status: str, witness: Witness | None = None):
        object.__setattr__(self, "claim", claim)
        object.__setattr__(self, "k_max", k_max)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "witness", witness)


def builtin_claims() -> tuple:
    """The claim catalog, in canonical order."""
    mod5 = dict(modulus=5)
    mod7 = dict(modulus=7, conjectural=True)
    claims = [
        CongruenceClaim(1, 1, 2, 1, power_of_two_in_d=True, label="mod2pow"),
        CongruenceClaim(4, 1, 5, 2, label="mod5_4k1_r2", **mod5),
        CongruenceClaim(4, 1, 5, 3, label="mod5_4k1_r3", **mod5),
        CongruenceClaim(4, 1, 5, 4, label="mod5_4k1_r4", **mod5),
        CongruenceClaim(4, 2, 25, 23, label="mod5_4k2_25n23", **mod5),
        CongruenceClaim(4, 3, 5, 2, label="mod5_4k3_r2", **mod5),
        CongruenceClaim(4, 3, 5, 4, label="mod5_4k3_r4", **mod5),
        CongruenceClaim(4, 3, 25, 23, label="mod5_4k3_25n23", **mod5),
        CongruenceClaim(10, 1, 121, 111, modulus=11, label="mod11"),
    ]
    for b in (1, 2):
        for r in (17, 31, 38, 45):
            claims.append(CongruenceClaim(
                6, b, 49, r, label=f"mod7_6k{b}_r{r}", **mod7))
    return tuple(claims)


def claim_by_label(label: str) -> CongruenceClaim:
    for claim in builtin_claims():
        if claim.label == label:
            return claim
    raise KeyError(f"no builtin claim named {label!r}")


def _claim_work_estimate(claim: CongruenceClaim, k_max: int, n_max: int) -> int:
    order = claim.prog_modulus * n_max + claim.residue + 1
    return (k_max + 1) * order * order


def verify_claim(claim: CongruenceClaim, k_max: int, n_max: int,
                 budget: int | None = None) -> ClaimReport:
    """Check the claim for k <= k_max, n <= n_max; exact residue arithmetic."""
    if k_max < 0 or n_max < 0:
        raise ValueError("bounds must be >= 0")
    limit = enumeration_budget(budget)
    estimate = _claim_work_estimate(claim, k_max, n_max)
    if estimate > limit:
        raise BudgetError(
            f"claim {claim.label or claim}: estimated {estimate} work units "
            f"exceeds budget {limit}"
        )
    order = claim.prog_modulus * n_max + claim.residue + 1
    for k in range(k_max + 1):
        d = claim.d_at(k)
        m = claim.modulus_at(k)
        series = sd_series(d, order, RingSpec(m))
        for n in range(n_max + 1):
            idx = claim.prog_modulus * n + claim.residue
            value = series.coeffs[idx]
            if value != 0:
                return ClaimReport(claim, k_max, n_max, "counterexample",
                                   Witness(d, idx, value))
    return ClaimReport(claim, k_max, n_max, "verified_up_to_bounds")


def _factorize(m: int) -> dict:
    """{prime: exponent} for m >= 1, by trial division."""
    factors = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            m //= p
            factors[p] = factors.get(p, 0) + 1
        p += 1 if p == 2 else 2
    if m > 1:
        factors[m] = 1
    return factors


def euler_phi(m: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if m < 1:
        raise ValueError("m must be >= 1")
    result = m
    for p in _factorize(m):
        result -= result // p
    return result


def internal_congruence_check(r: int, k: int, m: int, order: int) -> bool:
    """Does s_{phi(m) k + r} agree with s_r mod m below the given order?

    The identity behind it, x^{phi(m) k + r} == x^r (mod m) for every x,
    needs r to be at least the largest prime exponent of m (x = 2, m = 4,
    r = 1 breaks it).  Below that a False would not be a counterexample to
    anything, so the check raises ValueError as outside its domain.
    """
    if r < 1 or k < 0 or m < 2 or order < 1:
        raise ValueError("need r >= 1, k >= 0, m >= 2, order >= 1")
    top = max(_factorize(m).values())
    if r < top:
        raise ValueError(
            f"outside domain: r={r} is below the largest prime exponent "
            f"{top} of m={m}"
        )
    ring = RingSpec(m)
    d = euler_phi(m) * k + r
    return sd_series(d, order, ring) == sd_series(r, order, ring)


def scan_progressions(series: TruncatedSeries, m_max: int,
                      min_support: int = 10) -> list:
    """Arithmetic progressions (M <= m_max, r) of all-zero coefficients.

    A progression is reported only if every inspected coefficient vanishes
    and at least min_support of them were inspected; progressions implied by
    an already-reported one (M' | M with matching residue) are pruned, so
    the output is minimal.  Returned sorted by (M, r).
    """
    if series.ring.is_exact:
        raise ValueError("scan expects a series over a residue ring")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    coeffs = series.coeffs
    order = series.order
    kept = []
    for M in range(1, m_max + 1):
        for r in range(M):
            support = len(range(r, order, M))
            if support < min_support:
                continue
            if any(coeffs[i] for i in range(r, order, M)):
                continue
            if any(M % M0 == 0 and r % M0 == r0 for M0, r0 in kept):
                continue
            kept.append((M, r))
    return sorted(kept)


def report_to_json_dict(report: ClaimReport) -> dict:
    """ClaimReport as a JSON-ready dict; conjectural claims get their own
    status strings so a failed conjecture is not confused with a bug."""
    claim = report.claim
    verified = report.status == "verified_up_to_bounds"
    if claim.conjectural:
        status = "conjecture-held" if verified else "conjecture-failed"
    else:
        status = "verified" if verified else "counterexample"
    witness = None
    if report.witness is not None:
        witness = {
            "d": report.witness.d,
            "index": report.witness.index,
            "value": report.witness.value,
        }
    return {
        "claim": {
            "label": claim.label,
            "d_stride": claim.d_stride,
            "d_offset": claim.d_offset,
            "prog_modulus": claim.prog_modulus,
            "residue": claim.residue,
            "modulus": "2^d" if claim.power_of_two_in_d else claim.modulus,
            "conjectural": claim.conjectural,
        },
        "status": status,
        "k_max": report.k_max,
        "n_max": report.n_max,
        "witness": witness,
    }

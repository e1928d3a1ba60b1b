"""Ramanujan-like congruence verification for the Schmidt-type counts s_d(n).

A claim is a parametrized family: for every k >= 0 and n >= 0,

    s_{a k + b}(M n + r) == 0  (mod m),

where m is either fixed or 2^d for the power-of-two family.  verify_claim
checks a claim exhaustively up to (k_max, n_max) by building the s_d series
in the residue ring and inspecting the arithmetic progression; the first
non-zero residue short-circuits into a counterexample witness.  Over Z/mZ
s_d depends on d only through the table (j+1)^d mod m, so a k whose (m,
table) repeats an earlier k's is the same series, already passed, and is
not built again.
verify_claims runs a list of claims, guarding every one before it builds
anything.

builtin_claims catalogs the known families (mod 2^d, three mod-5 groups, a
mod-11 family) plus eight conjectural mod-7 families that are verified with
the same machinery but flagged so a failure reads as a discovery rather
than a bug.  scan_progressions is the discovery companion: it searches a
reduced series for arithmetic progressions of zero coefficients.
"""

from collections import namedtuple

from .genfun import _residue_table, sd_series, sd_series_factorwise
from .oracle import check_budget
from .series import MODULUS_LIMIT, Record, RingSpec, TruncatedSeries

__all__ = [
    "CongruenceClaim",
    "ClaimReport",
    "Witness",
    "builtin_claims",
    "claim_by_label",
    "verify_claim",
    "verify_claims",
    "internal_congruence_check",
    "euler_phi",
    "scan_progressions",
    "report_to_json_dict",
]


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
        elif modulus is None:
            raise ValueError("fixed modulus must be >= 2")
        else:
            RingSpec(modulus)  # a claim takes exactly the ring's moduli
        super().__init__(d_stride, d_offset, prog_modulus, residue, modulus,
                         power_of_two_in_d, conjectural, label)

    def d_at(self, k: int) -> int:
        return self.d_stride * k + self.d_offset

    def modulus_at(self, k: int) -> int:
        if self.power_of_two_in_d:
            d = self.d_at(k)
            # compared before 2 ** d is formed: k comes from the command line
            if d >= MODULUS_LIMIT.bit_length() - 1:
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
        super().__init__(claim, k_max, n_max, status, witness)


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


def _claim_order(claim: CongruenceClaim, n_max: int) -> int:
    """Series order that reaches the progression index at n = n_max."""
    return claim.prog_modulus * n_max + claim.residue + 1


def _claim_work_estimate(claim: CongruenceClaim, k_max: int, n_max: int) -> int:
    order = _claim_order(claim, n_max)
    return (k_max + 1) * order * order


def _guard_claim(claim: CongruenceClaim, k_max: int, n_max: int,
                 budget: int | None) -> None:
    """Check the bounds and the ring of the widest member (d grows with k,
    so k = k_max), then refuse the claim if it exceeds the budget."""
    if k_max < 0 or n_max < 0:
        raise ValueError("bounds must be >= 0")
    claim.modulus_at(k_max)
    check_budget(budget, lambda: _claim_work_estimate(claim, k_max, n_max),
                 f"claim {claim.label or claim}", "work units")


def verify_claim(claim: CongruenceClaim, k_max: int, n_max: int,
                 budget: int | None = None) -> ClaimReport:
    """Check the claim for k <= k_max, n <= n_max; exact residue arithmetic."""
    _guard_claim(claim, k_max, n_max, budget)
    order = _claim_order(claim, n_max)
    passed = set()
    for k in range(k_max + 1):
        d = claim.d_at(k)
        m = claim.modulus_at(k)
        table = (m, _residue_table(d, m, order))
        if table in passed:
            continue  # the same series as an earlier k, which passed
        passed.add(table)
        series = sd_series(d, order, RingSpec(m))
        for idx in range(claim.residue, order, claim.prog_modulus):
            value = series.coeffs[idx]
            if value != 0:
                return ClaimReport(claim, k_max, n_max, "counterexample",
                                   Witness(d, idx, value))
    return ClaimReport(claim, k_max, n_max, "verified_up_to_bounds")


def verify_claims(claims, k_max: int, n_max: int,
                  budget: int | None = None) -> list:
    """verify_claim for each claim, in order, once every claim has passed
    its guard: a refused claim stops the run before any series is built."""
    for claim in claims:
        _guard_claim(claim, k_max, n_max, budget)
    return [verify_claim(claim, k_max, n_max, budget) for claim in claims]


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

    The d side is built by sd_series_factorwise from exact powers, the r
    side by sd_series: over Z/mZ sd_series reads d only through its residue
    table, which the congruence makes equal, so it would match itself.

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
    return sd_series_factorwise(d, order, ring) == sd_series(r, order, ring)


def scan_progressions(series: TruncatedSeries, m_max: int,
                      min_support: int = 10) -> list:
    """Arithmetic progressions (M <= m_max, r) of all-zero coefficients.

    A progression is reported only if every inspected coefficient vanishes
    and at least min_support of them were inspected; progressions implied by
    an already-reported one (M' | M with matching residue) are pruned, so
    the output is minimal.  Returned sorted by (M, r).  The scan stops at the
    first M whose residue 0 class, the largest, has fewer than min_support
    coefficients: no larger M can reach the support either.  It stops at M =
    order at the latest: past it, class r inspects only coefficient r, as
    (order, r) does.
    """
    if series.ring.is_exact:
        raise ValueError("scan expects a series over a residue ring")
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    if min_support < 1:  # a progression inspected nowhere is no evidence
        raise ValueError(f"min_support must be >= 1, got {min_support}")
    coeffs = series.coeffs
    order = series.order
    kept = []
    for M in range(1, min(m_max, order) + 1):
        if -(-order // M) < min_support:
            break
        for r in range(M):
            progression = coeffs[r::M]
            if len(progression) < min_support or any(progression):
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
        "witness": (None if report.witness is None
                    else report.witness._asdict()),
    }

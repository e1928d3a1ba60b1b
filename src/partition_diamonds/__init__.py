"""Exact-arithmetic toolkit for d-fold partition diamonds.

Generating functions, the Eulerian/F_d polynomial families, Omega-operator
elimination checks, brute-force enumeration oracles, and verification of
Ramanujan-like congruences for the Schmidt-type counting function s_d(n).
"""

from .series import (
    RingSpec,
    TruncatedSeries,
    ZZ,
    jacobi_cube_series,
    pentagonal_series,
    product_family,
    reduce_mod,
)
from .polynomials import (
    BivariatePolynomial,
    UnivariatePolynomial,
    eulerian_poly,
    fd_at_w1,
    fd_poly,
    fd_specialize,
)
from .oracle import (
    BudgetError,
    DiamondConfig,
    DiamondShape,
    count_rd,
    count_rd_upto,
    count_sd,
    count_sd_raw,
    count_sd_upto,
    series_Ddn_bruteforce,
    series_Ddn_shifted,
)
from .genfun import (
    MersmannResult,
    ddn_series_closed,
    mersmann_F_series,
    rd_series,
    sd_series,
    sd_series_factorwise,
)
from .omega import (
    OmegaInstance,
    UnsupportedInstanceError,
    crude_Dd1_check,
    omega_bruteforce,
    omega_closed_form,
    run_omega_suite,
)
from .congruences import (
    ClaimReport,
    CongruenceClaim,
    Witness,
    builtin_claims,
    claim_by_label,
    euler_phi,
    internal_congruence_check,
    scan_progressions,
    verify_claim,
    verify_claims,
)

__version__ = "0.1.0"

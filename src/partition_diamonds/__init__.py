"""Exact-arithmetic toolkit for d-fold partition diamonds.

Generating functions, the Eulerian/F_d polynomial families, Omega-operator
elimination checks, brute-force enumeration oracles, and verification of
Ramanujan-like congruences for the Schmidt-type counting function s_d(n).
"""

from .series import *
from .polynomials import *
from .oracle import *
from .genfun import *
from .omega import *
from .congruences import *

__version__ = "0.1.0"

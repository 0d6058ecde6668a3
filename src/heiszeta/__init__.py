"""Exact subalgebra zeta functions of higher Heisenberg Lie algebras.

The local zeta function of the rank-(2n+1) Lie lattice with brackets
[x_{2i-1}, x_{2i}] = y over a compact discrete valuation ring with residue
cardinality q is computed in three independent closed forms (a 2^n-term
augmented-Igusa sum, an (n+1)-term compact sum, and a hyperoctahedral form),
validated against brute-force enumeration over Z/p^k, and analyzed for
poles, functional equations, q -> 1 degenerations, and global Euler-factor
data.  All arithmetic is exact: big-integer coefficients, Laurent exponents
in q, factored denominators.
"""

__version__ = "0.1.0"

from .combinat import Partition, gen_W
from .exactalg import (
    BivariatePolynomial,
    FactoredRational,
    SignedMonomial,
    divide_out_factor,
    gauss_binom,
    gauss_multinom,
    mono,
    qpochhammer,
)
from .counts import birkhoff_alpha, n_aggregate, nprime_closed
from .igusa import igusa_A, igusa_B, igusa_B_subset
from .oracle import (
    check_factorization,
    enum_lagrangians,
    enum_subalgebras,
    enum_sublattices,
)
from .zeta import (
    dirichlet_coeffs,
    funeq_check,
    global_factor,
    pole_analysis,
    reduced_c,
    reduced_zeta,
    zeta_graded,
    zeta_ideal,
    zeta_igusa_sum,
    zeta_compact,
    zeta_hyperoctahedral,
)

__all__ = [
    "BivariatePolynomial",
    "FactoredRational",
    "Partition",
    "SignedMonomial",
    "birkhoff_alpha",
    "check_factorization",
    "dirichlet_coeffs",
    "divide_out_factor",
    "enum_lagrangians",
    "enum_subalgebras",
    "enum_sublattices",
    "funeq_check",
    "gauss_binom",
    "gauss_multinom",
    "gen_W",
    "global_factor",
    "igusa_A",
    "igusa_B",
    "igusa_B_subset",
    "mono",
    "n_aggregate",
    "nprime_closed",
    "pole_analysis",
    "qpochhammer",
    "reduced_c",
    "reduced_zeta",
    "zeta_graded",
    "zeta_ideal",
    "zeta_igusa_sum",
    "zeta_compact",
    "zeta_hyperoctahedral",
]

"""Exact subalgebra zeta functions of higher Heisenberg Lie algebras.

The local zeta function of the rank-(2n+1) Lie lattice with brackets
[x_{2i-1}, x_{2i}] = y over a compact discrete valuation ring with residue
cardinality q is computed in three independent closed forms (a 2^n-term
augmented-Igusa sum, an (n+1)-term compact sum, and a hyperoctahedral form),
validated against brute-force enumeration over Z/p^k, and analyzed for
poles, functional equations, q -> 1 degenerations, and global Euler-factor
data.  All arithmetic is exact: big-integer coefficients, Laurent exponents
in q, factored denominators.

Public names load on first use (PEP 562): ``import heiszeta`` imports no
submodule, and reading ``heiszeta.zeta_compact`` (or ``from heiszeta import
zeta_compact``) imports ``heiszeta.zeta`` then.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOME = {
    name: module
    for module, names in {
        "combinat": ("Partition", "gen_W"),
        "counts": ("birkhoff_alpha", "n_aggregate", "nprime_closed"),
        "exactalg": (
            "BivariatePolynomial",
            "FactoredRational",
            "divide_out_factor",
            "gauss_binom",
            "qpochhammer",
        ),
        "igusa": ("igusa_A", "igusa_B"),
        "oracle": (
            "check_factorization",
            "enum_lagrangians",
            "enum_subalgebras",
            "enum_sublattices",
        ),
        "verify.funeq": ("funeq_check",),
        "verify.poles": ("pole_analysis",),
        "verify.reduced": ("reduced_c",),
        "zeta": (
            "dirichlet_coeffs",
            "global_factor",
            "reduced_zeta",
            "zeta_graded",
            "zeta_ideal",
            "zeta_igusa_sum",
            "zeta_compact",
            "zeta_hyperoctahedral",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from importlib import import_module

    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

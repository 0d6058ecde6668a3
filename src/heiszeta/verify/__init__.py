"""The checks of `heiszeta verify`, one module each, and their table.

Each check in ``CHECKS`` proves a closed form or a building block of one
equal to an independent derivation.  A check and its second derivation live
in a module of their own, imported when the check first runs, so a verify
command compiles only the checks it names:

* ``crossform``: forms a, b and c against each other, and form c's
  numerator against the B_n group sum;
* ``funeq``: the local functional equation of form b;
* ``poles``: the pole orders of form b, exact in q, and the double-pole law;
* ``fibre``: the permutation and coset statistics of S_n and the
  fibre-sum/coset-model identity;
* ``residue``: the type-B Igusa function against the B_n descent sum, and
  its residues at X_m -> 1;
* ``reduced``: the reduced zeta functions against the Eulerian form and the
  lattice-point oracle, and their leading coefficient c_n.

``descent`` holds what several checks share: the statistic sum over B_n (a
dynamic program; no group element is built) and the generic marker slots.
Only the verify command imports this package; the checks import the closed
forms and the enumerators of ``heiszeta.combinat`` from their own modules,
and only the poles and reduced checks import ``fractions``.
"""

from __future__ import annotations

from importlib import import_module

from ..exactalg import FactoredRational


def _module(name: str):
    """The module heiszeta.verify.<name> of one check, imported when it runs."""
    return import_module("." + name, __name__)


def is_self_reciprocal(f: FactoredRational, a: int, b: int) -> bool:
    """Whether f(1/q, 1/T) = -q^a T^b f(q, T); the funeq and reduced checks
    both test it."""
    return f.subs_inverse() == FactoredRational(f.num.scaled(-1).shift(dq=a, dt=b), f.den)


# Each check returns the status of its report, and its detail where it has
# one; the verify command adds the rest.  Each is looked up in its module
# when it runs, as cli.FORMS looks up the closed forms.
CHECKS = {
    "crossform": lambda n: _module("crossform")._check_crossform(n),
    "funeq": lambda n: _module("funeq")._check_funeq(n),
    "poles": lambda n: _module("poles")._check_poles(n),
    "fibre": lambda n: _module("fibre")._check_fibre(n),
    "residue": lambda n: _module("residue")._check_residue(n),
    "reduced": lambda n: _module("reduced")._check_reduced(n),
}

# The rows of errors.LIMITS with a largest value that each check reads, in
# the order in which it first reads them, each at its n (fibre reads gen_W
# at every k <= n, and residue reads generic_slots at n + 1 too, past
# signed_descent_sum's smaller row).  The verify command
# applies the rows of every check it names at n before it runs any of them,
# so a later check's refusal comes before an earlier check's work.
GUARDS = {
    "crossform": (
        ("zeta_igusa_sum", "n"),
        ("gen_W", "n"),
        ("zeta_compact", "n"),
        ("zeta_hyperoctahedral", "n"),
        ("signed_descent_sum", "n"),
    ),
    "funeq": (("zeta_compact", "n"),),
    "poles": (("zeta_compact", "n"),),
    "fibre": (("generic_slots", "count"), ("fibre_K", "n"), ("gen_W", "n")),
    "residue": (("generic_slots", "count"), ("signed_descent_sum", "n")),
    "reduced": (("reduced_zeta", "n"), ("reduced_c", "n")),
}

"""Every row of errors.LIMITS, checked at its entry point.

One value below a row's least value raises UsageError, which is also a
ValueError; one value above its largest raises SizeGuard (BudgetExceeded for
a budget) before any work: the refusal enters at most 10 functions of the
package, the entry point, its checks and the parsing of its arguments.
With the checks switched off, each of these calls enters 24 or more before
it returns.  CASES holds one call per row, so a row added to the table
without a case fails test_every_row_has_a_case.
"""

import sys
from pathlib import Path

import pytest

from heiszeta import oracle
from heiszeta.cli import build_parser, cmd_verify
from heiszeta.combinat import gen_W
from heiszeta.errors import LIMITS, BudgetExceeded, SizeGuard, UsageError, check_prime
from heiszeta.counts import birkhoff_number
from heiszeta.exactalg import BivariatePolynomial as Poly, FactoredRational as FR
from heiszeta.exactalg import gauss_binom, qpochhammer
from heiszeta.igusa import igusa_A
from heiszeta.numeric import rn_numeric
from heiszeta.oracle import enum_lagrangians, enum_subalgebras, enum_sublattices, hnf_enumerate
from heiszeta.verify.descent import generic_slots, signed_descent_sum
from heiszeta.verify.fibre import fibre_K
from heiszeta.verify.reduced import eulerian_A, reduced_c, reduced_cone_series
from heiszeta.zeta import (
    dirichlet_coeffs,
    global_factor,
    reduced_zeta,
    zeta_compact,
    zeta_graded,
    zeta_hyperoctahedral,
    zeta_ideal,
    zeta_igusa_sum,
)

PACKAGE = str(Path(oracle.__file__).parent)
SLOTS = [(101, 1)] * 10
Z = Poly.monomial(1, 977, 2)  # built here, so that the refusals do not count it
GEOMETRIC = FR(1, {(1, 1): 1})  # 1 / (1 - q T)


def _hnf_bases(v):
    # the running HNF count is v at valuation 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "hnf_count", lambda rank, p, j: v)
        enum_sublattices(1, 2, 0)


def _module_size(v):
    # the least module M_(m) at p = 2 with at least v elements, 4^m >= v
    enum_lagrangians((((v - 1).bit_length() + 1) // 2,), 2)


# row of LIMITS -> a call of its entry point with the checked value v
CASES = {
    ("signed_descent_sum", "n"): lambda v: signed_descent_sum(v, -1, Z, SLOTS[:max(v, 0)]),
    ("eulerian_A", "d"): eulerian_A,
    ("fibre_K", "n"): lambda v: fibre_K(v, 0, 0, SLOTS[:max(v, 0)]),
    ("generic_slots", "count"): generic_slots,
    ("zeta_igusa_sum", "n"): zeta_igusa_sum,
    ("zeta_compact", "n"): zeta_compact,
    ("zeta_hyperoctahedral", "n"): zeta_hyperoctahedral,
    ("zeta_ideal", "n"): zeta_ideal,
    ("zeta_graded", "n"): zeta_graded,
    ("reduced_zeta", "n"): reduced_zeta,
    ("reduced_cone_series", "n"): lambda v: reduced_cone_series(v, 3),
    ("reduced_c", "n"): reduced_c,
    ("global_factor", "n"): global_factor,
    ("rn_numeric", "n"): rn_numeric,
    ("enum_sublattices", "n"): lambda v: enum_sublattices(v, 2, 1),
    ("enum_subalgebras", "n"): lambda v: enum_subalgebras(v, 2, 1),
    ("gen_W", "n"): gen_W,
    ("gauss_binom", "n"): lambda v: gauss_binom(v, 0, 1),
    ("qpochhammer", "m"): lambda v: qpochhammer(Z, 1, v),
    ("Igusa functions", "degree n"): lambda v: igusa_A(v, 1, []),
    ("HNF enumeration", "rank"): lambda v: list(hnf_enumerate(v, 2, 1)),
    ("birkhoff_number", "Q"): lambda v: birkhoff_number((1,), 1, v),
    ("dirichlet_coeffs", "q"): lambda v: dirichlet_coeffs(1, v, 3),
    ("verify", "n"): lambda v: cmd_verify(build_parser().parse_args(["verify", "--n", str(v)]),
                                          sys.stdout),
    ("rn_numeric", "prime_bound"): lambda v: rn_numeric(2, v),
    ("dirichlet_coeffs", "order"): lambda v: dirichlet_coeffs(1, 2, v),
    ("series_in_T", "order"): lambda v: GEOMETRIC.series_in_T(v),
    ("check_prime", "p"): check_prime,
    ("lattice oracles", "max valuation"): lambda v: enum_sublattices(1, 2, v),
    ("budget", "HNF bases"): _hnf_bases,
    ("budget", "|M_mu|"): _module_size,
}
ROWS = sorted(LIMITS)


def test_every_row_has_a_case():
    assert sorted(CASES) == ROWS


@pytest.mark.parametrize("value", [True, False, 2.0, 1.5, "2", None], ids=repr)
def test_a_value_that_is_no_int_is_a_usage_error(value):
    # a bool is an int to isinstance, and True read as n = 1; a float died in
    # a comparison or a range() with a bare TypeError
    calls = {
        "zeta_compact": lambda: zeta_compact(value),
        "enum_sublattices": lambda: enum_sublattices(value, 2, 1),
        "check_prime": lambda: check_prime(value),
    }
    for owner, call in calls.items():
        with pytest.raises(UsageError, match="%s: .* must be an integer, got %r" % (owner, value)):
            call()


@pytest.mark.parametrize("row", [r for r in ROWS if LIMITS[r][0] is not None], ids=" ".join)
def test_below_the_least_value_is_a_usage_error(row):
    with pytest.raises(UsageError) as info:
        CASES[row](LIMITS[row][0] - 1)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("row", [r for r in ROWS if LIMITS[r][1] is not None], ids=" ".join)
def test_above_the_largest_value_is_refused_before_any_work(row):
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            entered.append(frame.f_code.co_name)

    refusal = BudgetExceeded if row[0] == "budget" else SizeGuard
    sys.setprofile(profile)
    try:
        with pytest.raises(refusal):
            CASES[row](LIMITS[row][1] + 1)
    finally:
        sys.setprofile(None)
    assert "check_limit" in entered and len(entered) <= 10, entered

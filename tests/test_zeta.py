import json
import re
from fractions import Fraction

import pytest

from heiszeta import cli, verify, zeta
from heiszeta.combinat import gen_W, weight_C
from heiszeta.counts import nprime_closed
from heiszeta.numeric import rn_numeric
from heiszeta.errors import IdentityMismatch, UsageError
from heiszeta.exactalg import (
    BivariatePolynomial as Poly,
    FactoredRational as FR,
    _t_low,
)
from heiszeta.igusa import igusa_B
from heiszeta.oracle import (
    check_factorization,
    enum_subalgebras,
    enum_sublattices,
    hnf_count,
    hnf_enumerate,
)
from heiszeta.verify import (
    _reduced_c_telescoped,
    funeq_check,
    hyperoctahedral_numerator,
    is_self_reciprocal,
    pole_analysis,
    pole_candidates,
    reduced_c,
    reduced_cone_series,
)
from heiszeta.zeta import (
    c_exponents,
    c_exponents_graded,
    dirichlet_coeffs,
    global_factor,
    global_factor_eval,
    reduced_zeta,
    zeta_graded,
    zeta_ideal,
    zeta_igusa_sum,
    zeta_compact,
    zeta_hyperoctahedral,
)
from reference import Z_of_w, Z_of_w_partition_sum, lemma_global_bound, subs_q_one
from reference import compact_summand_by_pochhammers, dirichlet_coeffs_by_series
from reference import pole_orders_at, zeta_series_oracle

N1_FORM = FR(
    Poly.one_minus(3, 3),
    {(0, 1): 1, (1, 1): 1, (2, 2): 1, (3, 2): 1},
)

N2_NUMERATOR = Poly(
    {
        (0, 0): 1,
        (5, 3): 1,
        (5, 4): -1,
        (6, 4): -1,
        (7, 4): -1,
        (8, 4): -1,
        (8, 5): 1,
        (13, 8): 1,
    }
)
N2_DEN = {
    (0, 1): 1,
    (1, 1): 1,
    (2, 1): 1,
    (3, 1): 1,
    (4, 3): 1,
    (6, 3): 1,
    (7, 3): 1,
}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_n1_closed_forms():
    assert zeta_igusa_sum(1) == N1_FORM
    assert zeta_compact(1) == N1_FORM
    assert zeta_hyperoctahedral(1) == N1_FORM
    # the compact form lands on the displayed shape on the nose
    b = zeta_compact(1)
    assert b.num == Poly.one_minus(3, 3)
    assert b.den == N1_FORM.den


def test_n2_closed_form_display():
    b = zeta_compact(2)
    assert b.num == N2_NUMERATOR
    assert b.den == N2_DEN
    assert _t_low(b.num.terms) == 0


def test_n3_denominator_exponents():
    b = zeta_compact(3)
    assert b.den == {
        **{(i, 1): 1 for i in range(6)},
        (6, 4): 1,
        (9, 4): 1,
        (11, 4): 1,
        (12, 4): 1,
    }


def test_n3_numerator_fixture():
    # the 40-term numerator: spot-check the displayed monomials and the count
    num = zeta_compact(3).num
    assert len(num.terms) == 40
    assert num.coefficient(0, 0) == 1
    for e in (7, 8, 9, 10):
        assert num.coefficient(e, 4) == 1
    for e, c in [(7, -1), (8, -1), (9, -2), (10, -2), (11, -2), (12, -2), (13, -1), (14, -1)]:
        assert num.coefficient(e, 5) == c
    for e in (10, 11, 12, 13, 14, 15):
        assert num.coefficient(e, 6) == 1
    assert num.coefficient(15, 7) == -1
    assert num.coefficient(17, 8) == 1
    assert num.coefficient(17, 9) == -1
    assert num.coefficient(22, 9) == -1
    assert num.coefficient(20, 10) == 2
    assert num.coefficient(25, 10) == 1
    assert num.coefficient(22, 11) == -1
    assert num.coefficient(25, 11) == -1
    assert num.coefficient(32, 15) == -1


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_cross_form_identity(n):
    a, b, c = zeta_igusa_sum(n), zeta_compact(n), zeta_hyperoctahedral(n)
    assert a == b
    assert b == c


def test_cross_form_identity_n5():
    # the 2^5-term sum is still within budget
    assert zeta_igusa_sum(5) == zeta_compact(5)
    assert zeta_compact(5) == zeta_hyperoctahedral(5)


def test_compact_equals_hyperoctahedral_n6():
    assert zeta_compact(6) == zeta_hyperoctahedral(6)


def test_igusa_sum_n2_first_block():
    # the w = (0,0) summand of the 2^n-term form:
    # 1/((1-q)(1-q^3)(1-T)(1-q^2 T)(1-q^4 T^3))
    from heiszeta.igusa import igusa_A
    from heiszeta.zeta import igusa_args

    w = (0, 0)
    summand = weight_C(w) * igusa_A(2, -2, igusa_args(2, w))
    expect = FR(
        1, {(1, 0): 1, (3, 0): 1, (0, 1): 1, (2, 1): 1, (4, 3): 1}
    )
    assert summand == expect


def test_igusa_sum_n3_second_summand():
    # the w = (0,0,5) summand: prefactor 1/((1-q)(1-q^3)(1-q^-5)) times
    # (1 + T + q^2 T + T^2 + q^2 T^2 + q^2 T^3) over
    # (1-q^4 T)(1-q^4 T^2)(1-q^5 T^3)(1-q^11 T^4)
    from heiszeta.igusa import igusa_A
    from heiszeta.zeta import igusa_args

    w = (0, 0, 5)
    summand = weight_C(w) * igusa_A(3, -2, igusa_args(3, w))
    num = Poly(
        {
            (0, 0): 1,
            (0, 1): 1,
            (2, 1): 1,
            (0, 2): 1,
            (2, 2): 1,
            (2, 3): 1,
        }
    )
    expect = FR(num, {(1, 0): 1, (3, 0): 1, (-5, 0): 1})
    expect = expect * FR.one_over([(4, 1), (4, 2), (5, 3), (11, 4)])
    assert summand == expect


def test_compact_n2_first_summand():
    # the r=0 summand equals 1/((1-q)(1-q^3)(1-T)(1-q^2 T)(1-q^4 T^3))
    expect = FR(
        1, {(1, 0): 1, (3, 0): 1, (0, 1): 1, (2, 1): 1, (4, 3): 1}
    )
    assert compact_summand_by_pochhammers(2, 0) == expect


def _odd_factors(n):
    """1 / (q;q^2)_{n+1}, the constant denominator the compact summands share."""
    return FR.one_over((2 * i + 1, 0) for i in range(n + 1))


@pytest.mark.parametrize("n", range(9))
def test_compact_summand_is_the_pochhammer_summand(n):
    # (q^2;q^2)_n / ((q;q)_{2n-r+1} (q;q)_r) = [2n+1 choose r]_q / (q;q^2)_{n+1}
    for r in range(n + 1):
        assert zeta._compact_summand(n, r) * _odd_factors(n) == compact_summand_by_pochhammers(n, r)


@pytest.mark.parametrize("n", range(11))
def test_compact_form_is_the_pochhammer_sum(n):
    total = FR.sum([compact_summand_by_pochhammers(n, r) for r in range(n + 1)])
    assert total == zeta_compact(n)
    # (q;q^2)_{n+1} divides the sum's numerator: no constant factor is left
    assert all(b for _, b in zeta_compact(n).den)


@pytest.mark.parametrize(
    "call",
    [
        lambda: zeta_igusa_sum(0),
        lambda: zeta_compact(-1),
        lambda: enum_sublattices(-1, 2, 2),
        lambda: enum_subalgebras(-1, 2, 2),
        lambda: check_factorization(-1, 2, 3),
        lambda: check_factorization(0, 3, 10),
        lambda: hnf_count(-1, 2, 2),
        lambda: list(hnf_enumerate(-1, 2, 2)),
        lambda: zeta_ideal(-1),
        lambda: reduced_cone_series(-1, 3),
        lambda: nprime_closed((1, -1)),
        lambda: lemma_global_bound(0),
    ],
    ids=[
        "zeta_igusa_sum(0)",
        "zeta_compact(-1)",
        "enum_sublattices(-1)",
        "enum_subalgebras(-1)",
        "check_factorization(-1)",
        "check_factorization(0)",
        "hnf_count(-1)",
        "hnf_enumerate(-1)",
        "zeta_ideal(-1)",
        "reduced_cone_series(-1)",
        "nprime_closed((1, -1))",
        "lemma_global_bound(0)",
    ],
)
def test_below_range_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_hyperoctahedral_cross_check_bites(monkeypatch, capsys):
    # verify --checks crossform compares form c's numerator, from the subset
    # expansion, with the group sum; a perturbed group sum must be caught
    # (the check reads the group sum from heiszeta.verify when it runs)
    assert zeta_hyperoctahedral(4).num == hyperoctahedral_numerator(4, c_exponents(4))
    monkeypatch.setattr(
        verify,
        "hyperoctahedral_numerator",
        lambda n, c: hyperoctahedral_numerator(n, c) + Poly.monomial(1, c[0], n + 1),
    )
    assert cli.main(["verify", "--n", "4", "--checks", "crossform"]) == 1
    assert json.loads(capsys.readouterr().out)[0]["status"] == "fail"


# ---------------------------------------------------------------------------
# ideal, graded
# ---------------------------------------------------------------------------


def test_zeta_ideal_fixtures():
    # n = 1: the classical zeta(s) zeta(s-1) zeta(3s-2) local factor
    assert zeta_ideal(1) == FR(1, {(0, 1): 1, (1, 1): 1, (2, 3): 1})
    assert zeta_ideal(2) == FR(
        1, {(0, 1): 1, (1, 1): 1, (2, 1): 1, (3, 1): 1, (4, 5): 1}
    )


def _enum_ideals(n, p, max_valuation):
    # an HNF row lattice is an ideal iff [h_n, L] <= L, i.e. every
    # x-coordinate of every basis row is divisible by the y-index
    from heiszeta.oracle import hnf_enumerate

    rank = 2 * n + 1
    counts = []
    for j in range(max_valuation + 1):
        c = 0
        for H in hnf_enumerate(rank, p, j):
            ylat = H[rank - 1][rank - 1]
            c += all(
                H[a][i] % ylat == 0
                for a in range(rank)
                for i in range(rank - 1)
            )
        counts.append(c)
    return counts


@pytest.mark.parametrize("n,p,maxval", [(1, 2, 4), (1, 3, 2), (2, 2, 2)])
def test_ideal_zeta_matches_brute_force(n, p, maxval):
    series = zeta_ideal(n).series_in_T(maxval)
    formula = []
    for c in series:
        vals = c.eval_q(p)
        assert set(vals) <= {0}
        formula.append(vals.get(0, 0))
    assert formula == _enum_ideals(n, p, maxval)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_truncated_factor_identity(n):
    # zeta times (T;q)_{2n} (1 - q^{c_n} T^{n+1}) is the truncated type-B
    # specialization, since c_n = 2n and truncation divides out that slot
    c = c_exponents(n)
    assert c[n] == 2 * n
    X = [(ci, n + 1) for ci in c[:n]]
    igm = igusa_B(n, -1, Poly.monomial(-1, n, 1), X)
    den = {(i, 1): 1 for i in range(2 * n)}
    den[(2 * n, n + 1)] = 1
    assert zeta_hyperoctahedral(n) == FR(1, den) * igm


def test_graded_fixture_and_shift():
    g = zeta_graded(1)
    assert g.num == Poly.one_minus(1, 3)
    for n in (1, 2, 3):
        c, cg = c_exponents(n), c_exponents_graded(n)
        assert all(ci - cgi == 2 * n for ci, cgi in zip(c, cg))


@pytest.mark.parametrize("n", range(8))
def test_graded_numerator_is_the_B_n_group_sum(n):
    # zeta_graded builds its numerator by the subset recurrence; the B_n
    # dynamic program is the second derivation.  n = 7 is past the guard.
    c = c_exponents_graded(n)
    den = {(i, 1): 1 for i in range(2 * n)}
    for cm in c:
        den[(cm, n + 1)] = den.get((cm, n + 1), 0) + 1
    got = zeta_graded(n) if n < 7 else zeta._type_B_form(n, c)
    assert got.num == hyperoctahedral_numerator(n, c)
    assert dict(got.den) == den and _t_low(got.num.terms) == 0


def test_graded_n1_inverse_symmetry_shape():
    # recorded sanity property: the n=1 graded form transforms with -q T^3
    g = zeta_graded(1)
    lhs = g.subs_inverse()
    rhs = FR(g.num.scaled(-1).shift(dq=1, dt=3), g.den)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# w-blocks and series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", (1, 2, 3))
def test_zeta_is_weighted_sum_of_Z_w(n):
    total = FR.sum([weight_C(w) * Z_of_w(w, n) for w in gen_W(n)])
    assert total == zeta_compact(n)


def test_Z_of_w_shape_n1():
    # w = (0): 1/((1-T)(1-q^2 T^2))
    assert Z_of_w((0,), 1) == FR(1, {(0, 1): 1, (2, 2): 1})


@pytest.mark.parametrize(
    "n,w", [(1, (0,)), (1, (1,)), (2, (0, 3)), (2, (1, 2)), (3, (1, 2, 3))]
)
def test_Z_of_w_closed_vs_partition_sum(n, w):
    closed = Z_of_w(w, n).series_in_T(4)
    trunc = Z_of_w_partition_sum(w, n, 4).series_in_T(4)
    assert closed == trunc


def test_series_fixture_n1():
    series = zeta_compact(1).series_in_T(2)
    assert series[0] == Poly.one()
    assert series[1] == Poly({(0, 0): 1, (1, 0): 1})
    assert series[2] == Poly({(0, 0): 1, (1, 0): 1, (2, 0): 2, (3, 0): 1})


@pytest.mark.parametrize("n", (1, 2, 3))
def test_series_oracle_matches(n):
    assert zeta_series_oracle(n, 4) == zeta_compact(n).series_in_T(4)


def test_series_oracle_order_zero():
    assert zeta_series_oracle(2, 0) == [Poly.one()]


@pytest.mark.parametrize("n", range(6))
def test_dirichlet_coeffs_match_the_series_at_q_equal_p(n):
    for p in (2, 3, 5, 7):
        for order in (0, 1, 5, 12):
            assert dirichlet_coeffs(n, p, order) == dirichlet_coeffs_by_series(n, p, order)
    if n <= 2:
        assert dirichlet_coeffs(n, 2, 60) == dirichlet_coeffs_by_series(n, 2, 60)


def test_dirichlet_coeffs_fixtures():
    assert dirichlet_coeffs(1, 2, 2) == [1, 3, 19]
    assert dirichlet_coeffs(1, 3, 1) == [1, 4]


def test_n2_linear_coefficient_symbolic():
    # coefficient of T for n = 2 equals 1 + q + q^2 + q^3
    coeff = zeta_compact(2).series_in_T(1)[1]
    assert coeff == Poly({(i, 0): 1 for i in range(4)})


def test_aggregate_count_matches_oracle():
    # sum over lambda of the two-invariant oracle counts equals N(mu)
    from heiszeta.counts import n_aggregate
    from heiszeta.oracle import enum_sublattices

    for n, p, maxval in ((1, 2, 3), (2, 2, 2), (2, 3, 2)):
        table = enum_sublattices(n, p, maxval)
        mus = {mu for _, mu in table}
        for mu in mus:
            total = sum(c for (_, m2), c in table.items() if m2 == mu)
            vals = n_aggregate(mu, n).eval_q(p)
            assert set(vals) <= {0}
            assert total == vals.get(0, 0), (n, p, mu)


@pytest.mark.parametrize("n,p,order", [(1, 2, 4), (1, 3, 2), (2, 2, 2), (2, 3, 1)])
def test_dirichlet_coeffs_match_oracle(n, p, order):
    assert dirichlet_coeffs(n, p, order) == enum_subalgebras(n, p, order)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_series_nonnegativity(n):
    for p in (2, 3, 5):
        assert all(a >= 0 for a in dirichlet_coeffs(n, p, 8))
        assert dirichlet_coeffs(n, p, 0) == [1]


# ---------------------------------------------------------------------------
# functional equation and poles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_functional_equation(n):
    assert funeq_check(n) == "-q^%d T^%d" % ((2 * n + 1) * n, 2 * n + 1)


def test_functional_equation_factors():
    assert funeq_check(1) == "-q^3 T^3"
    assert funeq_check(2) == "-q^10 T^5"


def _summand_funeq_factor(n):
    # -q^{n(2n+1)} T^{2n+1} times the unit (-1)^{n+1} q^{-(n+1)^2} that
    # (q;q^2)_{n+1}, the factor every summand carries, takes under q -> 1/q
    return FR(Poly.monomial((-1) ** n, n * (2 * n + 1) - (n + 1) ** 2, 2 * n + 1))


@pytest.mark.parametrize("n", range(9))
def test_functional_equation_summand_by_summand(n):
    factor = _summand_funeq_factor(n)
    for r in range(n + 1):
        summand = zeta._compact_summand(n, r)
        assert summand.subs_inverse() == factor * summand, r


def test_functional_equation_pairs_no_two_summands():
    n = 4
    factor = _summand_funeq_factor(n)
    summands = [zeta._compact_summand(n, r) for r in range(n + 1)]
    for r, s in enumerate(summands):
        for r2, s2 in enumerate(summands):
            assert (s.subs_inverse() == factor * s2) == (r == r2), (r, r2)


def test_self_reciprocity_needs_the_right_factor():
    f = zeta_compact(1)
    assert is_self_reciprocal(f, 3, 3)
    assert not is_self_reciprocal(f, 3, 2)
    assert not is_self_reciprocal(f, 2, 3)


def test_functional_equation_failure_raises(monkeypatch):
    monkeypatch.setattr(verify, "is_self_reciprocal", lambda f, a, b: False)
    with pytest.raises(IdentityMismatch, match="n = 2"):
        funeq_check(2)


def test_pole_candidates_n1():
    integral, fractional = pole_candidates(1)
    assert integral == [0, 1]
    assert fractional == [Fraction(1), Fraction(3, 2)]


def test_pole_analysis_n1():
    orders = pole_analysis(1)
    assert orders == {0: 1, 1: 1, Fraction(3, 2): 1}
    assert list(orders) == sorted(orders)


def test_pole_analysis_n2_simple():
    orders = pole_analysis(2)
    assert orders == {0: 1, 1: 1, Fraction(4, 3): 1, 2: 1, Fraction(7, 3): 1, 3: 1}
    assert list(orders) == sorted(orders)


def test_pole_analysis_n3_double():
    orders = pole_analysis(3)
    assert orders[3] == 2
    assert {o for s, o in orders.items() if s != 3} == {1}


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 6))
def test_pole_locations_within_candidates_and_criterion(n):
    # the double-pole law m(m+1) = 4n: n = 3 gives s = 3, n = 5 gives s = 4
    orders = pole_analysis(n)
    expected = [Fraction(m) for m in range(1, n + 1) if m * (m + 1) == 4 * n]
    assert [s for s, o in orders.items() if o >= 2] == expected
    integral, fractional = pole_candidates(n)
    assert set(orders) <= set(integral) | set(fractional)


@pytest.mark.parametrize("p", (2, 3, 5))
@pytest.mark.parametrize("n", range(1, 13))
def test_pole_orders_agree_with_the_orders_at_a_prime(n, p):
    # the orders exact in q against q specialized to p, the numerator divided
    # by 1 - p^c T^d as an integer polynomial in T
    assert pole_analysis(n) == pole_orders_at(n, p)


def test_a_factor_off_the_candidate_list_fails_the_poles_check(monkeypatch, capsys):
    # without s = 0 among the candidates the factor 1 - T of every form b
    # falls off the list; verify reports it as a failed poles check with the
    # message
    real = verify.pole_candidates
    monkeypatch.setattr(verify, "pole_candidates", lambda n: (real(n)[0][1:], real(n)[1]))
    message = r"denominator factor (1 - q^0 T^1) off the candidate list"
    with pytest.raises(IdentityMismatch, match=re.escape(message)):
        pole_analysis(1)
    assert cli.main(["verify", "--n", "1", "--checks", "poles"]) == 1
    rep = json.loads(capsys.readouterr().out)[0]
    assert rep["status"] == "fail" and message in rep["detail"]


# ---------------------------------------------------------------------------
# reduced zeta functions
# ---------------------------------------------------------------------------


def test_reduced_fixtures():
    r1 = reduced_zeta(1)
    assert r1 == FR(
        Poly({(0, 0): 1, (0, 1): 1, (0, 2): 1}), {(0, 1): 1, (0, 2): 2}
    )
    r2 = reduced_zeta(2)
    expect2 = Poly({(0, k): c for k, c in enumerate([1, 2, 3, 5, 3, 2, 1])})
    assert r2.num == expect2 and r2.den == {(0, 1): 2, (0, 3): 3}
    r3 = reduced_zeta(3)
    coeffs = [1, 3, 6, 10, 19, 21, 22, 21, 19, 10, 6, 3, 1]
    assert r3.num == Poly({(0, k): c for k, c in enumerate(coeffs)})
    assert r3.den == {(0, 1): 3, (0, 4): 4}


def test_reduced_matches_q_to_one_substitution():
    for n in (1, 2, 3):
        assert subs_q_one(zeta_compact(n).reduced()) == reduced_zeta(n)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_reduced_cone_oracle(n):
    series = [c.coefficient(0, 0) for c in reduced_zeta(n).series_in_T(10)]
    assert series == reduced_cone_series(n, 10)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_reduced_self_reciprocity(n):
    f = reduced_zeta(n)
    lhs = f.subs_inverse()
    rhs = FR(f.num.scaled(-1).shift(dt=2 * n + 1), f.den)
    assert lhs == rhs


def test_reduced_c_values():
    assert reduced_c(0) == 1
    assert reduced_c(1) == Fraction(3, 4)
    assert reduced_c(2) == Fraction(17, 27)
    assert reduced_c(3) == Fraction(71, 128)
    for n in range(1, 21):
        assert reduced_c(n) == _reduced_c_telescoped(n)
        assert 0 < reduced_c(n) < 1
    # the limit P_n(1) / (n+1)^(n+1), with the other checks of verify
    for n in range(1, 9):
        assert verify._check_reduced(n)["status"] == "pass", n


# ---------------------------------------------------------------------------
# global factors
# ---------------------------------------------------------------------------


def test_global_factor_matches_hyperoctahedral_numerator():
    for n in range(7):
        assert global_factor(n) == hyperoctahedral_numerator(n, c_exponents(n))


def test_global_factor_eval_table_rows():
    assert global_factor_eval(1) == Poly({(0, 0): 1, (-3, 0): -1})
    row2 = {0: 1, -7: 1, -8: -1, -9: -1, -10: -1, -11: -1, -12: 1, -19: 1}
    assert global_factor_eval(2) == Poly({(e, 0): c for e, c in row2.items()})
    row3 = {
        0: 1,
        -14: 1,
        -15: 1,
        -18: -2,
        -19: -2,
        -20: -2,
        -21: -1,
        -24: 1,
        -25: 1,
        -26: 1,
        -27: -1,
        -31: 1,
        -32: -1,
        -33: -1,
        -34: -1,
        -37: 1,
        -38: 2,
        -39: 2,
        -40: 2,
        -43: -1,
        -44: -1,
        -58: -1,
    }
    assert global_factor_eval(3) == Poly({(e, 0): c for e, c in row3.items()})


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_global_bound_exhaustive(n):
    val, argmax = lemma_global_bound(n)
    assert val == -(3 * n * n - n + 4) // 2
    if n == 1:
        assert argmax == (-1,)
    else:
        assert argmax == (2, 1) + tuple(range(3, n + 1))


def test_rn_numeric_monotone_refinement():
    vals = [rn_numeric(2, bound)["value"] for bound in (20, 50, 200, 800)]
    deltas = [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]
    assert deltas[0] > deltas[-1]
    assert all(v > 0 for v in vals)
    rep = rn_numeric(2, 100)
    assert rep["label"] == "APPROXIMATE" and rep["prime_bound"] == 100


def test_rn_numeric_rejects_n1():
    with pytest.raises(UsageError):
        rn_numeric(1, 10)


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
@pytest.mark.parametrize("bound", (2, 3, 1000, 10**4))
def test_rn_numeric_half_bound_delta_is_the_second_run(n, bound):
    # the half-bound value is read on the way through the same products,
    # so it is the value of a separate run bit for bit
    rep, half = rn_numeric(n, bound), rn_numeric(n, max(2, bound // 2))["value"]
    assert rep["delta_vs_half_bound"] == abs(rep["value"] - half)

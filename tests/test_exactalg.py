import random
import re

import pytest

from heiszeta.errors import UsageError
from heiszeta.exactalg import (
    BivariatePolynomial as Poly,
    FactoredRational as FR,
    divide_out_factor,
    gauss_binom,
    qpochhammer,
    rational_dumps,
    rational_loads,
    rational_to_json,
)
from reference import SubstitutionSingular, expand_factor_by_factor, gauss_multinom, subs_q_one
from reference import qpochhammer_rational


def rand_poly(rng, terms=4, qspan=4, tspan=3):
    d = {}
    for _ in range(rng.randint(0, terms)):
        d[(rng.randint(-qspan, qspan), rng.randint(0, tspan))] = rng.randint(-5, 5)
    return Poly({k: c for k, c in d.items() if c})


def rand_fr(rng):
    den = {}
    for _ in range(rng.randint(0, 3)):
        a, b = rng.randint(-3, 3), rng.randint(0, 2)
        if (a, b) != (0, 0):
            den[(a, b)] = den.get((a, b), 0) + 1
    num = rand_poly(rng)
    if num.is_zero():
        num = Poly.one()
    return FR(num.shift(dt=rng.randint(-2, 2)), den)


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------


def test_additive_inverse_gives_empty_term_map():
    p = Poly.monomial(1)
    assert (p + Poly.monomial(-1)).terms == {}


def test_difference_of_squares():
    lhs = Poly.one_minus(1, 1) * Poly({(0, 0): 1, (1, 1): 1})
    assert lhs == Poly.one_minus(2, 2)


def test_geometric_factorization():
    lhs = Poly.one_minus(1, 1) * Poly({(0, 0): 1, (1, 1): 1, (2, 2): 1})
    assert lhs == Poly.one_minus(3, 3)


def test_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(60):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_eval_q_is_exact():
    p = Poly({(-2, 0): 4, (1, 1): 3})
    assert p.eval_q(2) == {0: 1, 1: 6}
    with pytest.raises(UsageError, match="q != 0"):
        p.eval_q(0)


# ---------------------------------------------------------------------------
# q-Pochhammer
# ---------------------------------------------------------------------------


def test_qpochhammer_definition_unrolled():
    f = qpochhammer(Poly.monomial(1, 0, 1), 1, 2)  # (T; q)_2
    assert f == Poly.one_minus(0, 1) * Poly.one_minus(1, 1)


def test_qpochhammer_empty_product():
    assert qpochhammer(Poly.monomial(1, 5, 1), 2, 0) == Poly.one()


def test_qpochhammer_F2_fixture():
    # (-q^-1 T; q^2)_1 = 1 + q^-1 T
    f = qpochhammer(Poly.monomial(-1, -1, 1), 2, 1)
    assert f == Poly({(0, 0): 1, (-1, 1): 1})


@pytest.mark.parametrize("m", range(0, 5))
def test_qpochhammer_is_the_reference_numerator(m):
    # the finite product is the numerator of the reference's (a; q^step)_m,
    # over an empty denominator
    for a, step in ((Poly.monomial(1, 2, 1), 1), (Poly.monomial(-1, -1, 1), 2),
                    (Poly.monomial(-1), -1)):
        ref = qpochhammer_rational(a, step, m)
        assert qpochhammer(a, step, m) == ref.num and not ref.den


@pytest.mark.parametrize("m", range(0, 5))
def test_qpochhammer_recurrence(m):
    a, step = Poly.monomial(1, 2, 1), 1
    bigger = qpochhammer(a, step, m + 1)
    smaller = qpochhammer(a, step, m)
    factor = Poly.one_minus(2 + step * m, 1)
    assert bigger == smaller * factor


@pytest.mark.parametrize("m", range(1, 4))
def test_qpochhammer_negative_m_reciprocal(m):
    a, step = Poly.monomial(1, 2, 1), 1
    inv = qpochhammer_rational(a, step, -m)
    shifted = qpochhammer(Poly.monomial(1, 2 - step * m, 1), step, m)
    assert inv * shifted == FR(1)


@pytest.mark.parametrize("m", range(0, -4, -1))
def test_qpochhammer_recurrence_negative_side(m):
    # (a; q)_{m-1} (1 - a q^{m-1}) = (a; q)_m
    a, step = Poly.monomial(1, 2, 1), 1
    lhs = qpochhammer_rational(a, step, m - 1) * Poly.one_minus(2 + step * (m - 1), 1)
    assert lhs == qpochhammer_rational(a, step, m)


def test_qpochhammer_negative_m_negative_monomial():
    # (a; q)_{-1} with a = -qT is 1/(1 - a q^-1) = 1/(1 + T)
    f = qpochhammer_rational(Poly.monomial(-1, 1, 1), 1, -1)
    assert f * Poly({(0, 0): 1, (0, 1): 1}) == FR(1)


def test_qpochhammer_constant_factor():
    # a factor 1 - a q^0 T^0 is 1 - 1 = 0 or 1 + 1 = 2, not the monomial alone
    assert qpochhammer(Poly.one(), 1, 1) == Poly.zero()
    assert qpochhammer(Poly.monomial(-1), 1, 2) == Poly({(0, 0): 2, (1, 0): 2})
    assert qpochhammer(Poly.monomial(1, -1), 1, 2) == Poly.zero()
    # for m < 0 the reciprocal of a constant factor is no product of 1 - q^a T^b
    for sign, text in ((1, "1 - 1 = 0"), (-1, "1 + 1 = 2")):
        with pytest.raises(UsageError, match=re.escape("constant factor " + text)):
            qpochhammer_rational(Poly.monomial(sign, 2), 1, -3)


def _as_sympy(f, q, T):
    """A FactoredRational as a sympy expression in q and T."""
    num = sum(c * q**eq * T**et for (eq, et), c in f.num.terms.items())
    den = 1
    for (a, b), m in f.den.items():
        den *= (1 - q**a * T**b) ** m
    return num / den


@pytest.mark.parametrize("sign", (1, -1))
def test_qpochhammer_against_sympy(sign):
    sympy = pytest.importorskip("sympy")
    q, T = sympy.symbols("q T")
    for e_q in (-1, 0, 1):
        for e_T in (0, 1):
            for step in (0, 1, 2):
                for m in range(-2, 4):
                    # (a; q^step)_m = 1 / (a q^(step m); q^step)_(-m) for m < 0
                    lo = min(m, 0)
                    factors = [1 - sign * q ** (e_q + step * (lo + i)) * T**e_T
                               for i in range(abs(m))]
                    a = Poly.monomial(sign, e_q, e_T)
                    if m < 0 and any(f.is_number for f in factors):
                        with pytest.raises(UsageError):
                            qpochhammer_rational(a, step, m)
                        continue
                    expected = sympy.Mul(*factors) ** (1 if m >= 0 else -1)
                    if m >= 0:
                        got = _as_sympy(FR(qpochhammer(a, step, m)), q, T)
                    else:
                        got = _as_sympy(qpochhammer_rational(a, step, m), q, T)
                    assert sympy.cancel(got - expected) == 0, (e_q, e_T, step, m)


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------


def test_gauss_binom_small():
    assert gauss_binom(2, 1, 1) == Poly({(0, 0): 1, (1, 0): 1})
    assert gauss_binom(5, 0, 1) == Poly.one()
    assert gauss_binom(5, 0, -2) == Poly.one()
    assert gauss_binom(3, -1, 1).is_zero()
    assert gauss_binom(3, 4, 1).is_zero()


def test_gauss_binom_inverse_base_fixture():
    expect = Poly({(0, 0): 1, (-2, 0): 1, (-4, 0): 2, (-6, 0): 1, (-8, 0): 1})
    assert gauss_binom(4, 2, -2) == expect


@pytest.mark.parametrize("n,r", [(n, r) for n in range(1, 7) for r in range(1, n)])
def test_gauss_binom_symmetry_and_pascal(n, r):
    y = 1
    assert gauss_binom(n, r, y) == gauss_binom(n, n - r, y)
    pascal = gauss_binom(n - 1, r, y) + gauss_binom(n - 1, r - 1, y).shift(
        dq=y * (n - r)
    )
    assert gauss_binom(n, r, y) == pascal


def test_gauss_multinom():
    assert gauss_multinom(3, [], 1) == Poly.one()
    expect = gauss_binom(3, 2, 1) * gauss_binom(2, 1, 1)
    assert gauss_multinom(3, [1, 2], 1) == expect
    for k in range(4):
        assert gauss_multinom(3, [k], 1) == gauss_binom(3, k, 1)


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------


def test_divide_out_factor_examples():
    assert divide_out_factor(Poly.one_minus(3, 3), 1, 1) == Poly(
        {(0, 0): 1, (1, 1): 1, (2, 2): 1}
    )
    assert divide_out_factor(Poly.one_minus(3, 3), 2, 1) is None
    prod = Poly.one_minus(4, 3) * Poly.one_minus(0, 1)
    assert divide_out_factor(prod, 4, 3) == Poly.one_minus(0, 1)


def test_divide_out_q_only_factor():
    prod = Poly.one_minus(3, 0) * Poly({(0, 0): 2, (1, 2): -5})
    assert divide_out_factor(prod, 3, 0) == Poly({(0, 0): 2, (1, 2): -5})
    assert divide_out_factor(Poly.one_minus(3, 0), 2, 0) is None


def test_divide_out_factor_refuses_b_below_zero_even_for_zero():
    with pytest.raises(UsageError, match="b >= 0"):
        divide_out_factor(Poly.zero(), 1, -1)
    with pytest.raises(UsageError, match="b >= 0"):
        divide_out_factor(Poly.one_minus(1, 1), 1, -1)


def test_a_factor_that_divides_only_at_q_2_is_refused():
    # 1 - 2T is 1 - qT at q = 2, and 2 - T is 2 (1 - q^-1 T) there: each passes
    # the test at q = 2, and the exact division still refuses it
    assert divide_out_factor(Poly({(0, 0): 1, (0, 1): -2}), 1, 1) is None
    assert divide_out_factor(Poly({(0, 0): 2, (0, 1): -1}), -1, 1) is None
    decoy = Poly({(0, 0): 1, (0, 1): -2}) * Poly.one_minus(-1, 1)
    f = FR(decoy, {(1, 1): 1, (-1, 1): 1}).reduced()
    assert f.num == Poly({(0, 0): 1, (0, 1): -2}) and dict(f.den) == {(1, 1): 1}


def test_form_a_unrolls_only_the_copies_that_divide(monkeypatch):
    # zeta_igusa_sum(4)'s reduce: of its 19 copies of T-factors, the 12 that
    # do not divide fail at q = 2, so only the 7 that divide are unrolled
    from heiszeta import exactalg, zeta

    unrolls, cancels = [], []

    def unroll(*args):
        unrolls.append(args[1:3])
        return real_unroll(*args)

    def cancel(terms, factors):
        out = real_cancel(terms, factors)
        cancels.append([(b, m, left) for (_, b, m), left in zip(factors, out[1])])
        return out

    real_unroll, real_cancel = exactalg._unroll, exactalg._cancel
    monkeypatch.setattr(exactalg, "_unroll", unroll)
    monkeypatch.setattr(exactalg, "_cancel", cancel)
    zeta.zeta_igusa_sum.__wrapped__(4)
    (copies,) = cancels
    assert sum(m for b, m, _ in copies if b) == 19
    assert sum(left for b, _, left in copies if b) == 12
    assert len(unrolls) == sum(m - left for b, m, left in copies if b) == 7


def test_divide_out_factor_roundtrip_random():
    rng = random.Random(11)
    for _ in range(60):
        quot = rand_poly(rng)
        a, b = rng.randint(-3, 3), rng.randint(0, 2)
        if (a, b) == (0, 0):
            continue
        prod = quot * Poly.one_minus(a, b)
        got = divide_out_factor(prod, a, b)
        assert got == quot


# ---------------------------------------------------------------------------
# FactoredRational
# ---------------------------------------------------------------------------


def test_equality_is_cross_multiplied():
    # 1/(1-qT) times (1-qT) in the numerator equals 1
    f = FR(Poly.one_minus(1, 1), {(1, 1): 1})
    assert f == FR(1)


def test_negative_exponent_factor_normalization():
    # 1/(1 - q^-3) = -q^3/(1 - q^3)
    f = FR(1, {(-3, 0): 1})
    assert f.den == {(3, 0): 1}
    assert f.num == Poly.monomial(-1, 3, 0)


def test_field_axioms_random():
    rng = random.Random(13)
    for _ in range(25):
        a, b = rand_fr(rng), rand_fr(rng)
        assert a * b == b * a
        assert (a + b) - b == a
        assert (a * b) + (a * b) == a * (b + b)


MIXED_F = FR(Poly({(1, -1): 2, (0, 0): -1}), {(1, 1): 1, (2, 0): 1})
MIXED_P = Poly({(0, 0): 3, (-1, 2): 1})


@pytest.mark.parametrize(
    "got, want",
    [
        (lambda f, p: p + f, lambda f, p: f + p),
        (lambda f, p: p * f, lambda f, p: f * p),
        (lambda f, p: p - f, lambda f, p: -(f - p)),
        (lambda f, p: 1 - f, lambda f, p: -(f - 1)),
    ],
    ids=["p + f", "p * f", "p - f", "1 - f"],
)
def test_mixed_arithmetic_in_either_order(got, want):
    value = got(MIXED_F, MIXED_P)
    assert isinstance(value, FR)
    assert value == want(MIXED_F, MIXED_P)


def test_operands_of_another_type_are_refused():
    for x in (Poly.one(), FR(1)):
        with pytest.raises(TypeError):
            x + "1"
        with pytest.raises(TypeError):
            "1" - x
        with pytest.raises(TypeError):
            x * 1.5


def test_divide_then_multiply_back_random():
    rng = random.Random(37)
    for _ in range(25):
        f = rand_fr(rng)
        a, b = rng.randint(-3, 3), rng.randint(0, 2)
        if (a, b) == (0, 0):
            continue
        g = f * FR.one_over([(a, b)]) * Poly.one_minus(a, b)
        assert g == f


def test_equality_is_equivalence_relation():
    # three representations of the same value
    f = FR(Poly.one_minus(2, 2), {(1, 1): 1, (2, 2): 1})
    g = FR(1, {(1, 1): 1})
    h = FR(Poly.one_minus(3, 0), {(1, 1): 1, (3, 0): 1})
    assert f == f
    assert f == g and g == f
    assert g == h and f == h
    assert f != FR(1, {(2, 1): 1})


def test_reduction_preserves_value_random():
    rng = random.Random(17)
    for _ in range(30):
        f = rand_fr(rng)
        assert f.reduced() == f


def test_sum_matches_pairwise():
    rng = random.Random(19)
    items = [rand_fr(rng) for _ in range(4)]
    total = FR.sum(items)
    acc = FR(0)
    for it in items:
        acc = acc + it
    assert total == acc


def test_subs_inverse_fixture():
    f = FR(1, {(1, 1): 1})
    g = f.subs_inverse()
    assert g == FR(Poly.monomial(-1, 1, 1), {(1, 1): 1})


def test_subs_inverse_is_involution_random():
    rng = random.Random(23)
    for _ in range(20):
        f = rand_fr(rng)
        assert f.subs_inverse().subs_inverse() == f


def test_subs_q_one_paper_example():
    # (1-q^3T^3)/((1-T)(1-qT)(1-q^3T^2)(1-q^2T^2)) at q=1
    f = FR(
        Poly.one_minus(3, 3),
        {(0, 1): 1, (1, 1): 1, (3, 2): 1, (2, 2): 1},
    )
    lhs = subs_q_one(f)
    rhs = FR(
        Poly({(0, 0): 1, (0, 1): 1, (0, 2): 1}),
        {(0, 1): 1, (0, 2): 2},
    )
    assert lhs == rhs


def test_subs_q_one_rejects_constant_factor():
    with pytest.raises(SubstitutionSingular):
        subs_q_one(FR(1, {(2, 0): 1}))


def test_constants_fixed_under_substitutions():
    one = FR(1)
    assert one.subs_inverse() == one
    assert subs_q_one(one) == one


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def test_series_geometric():
    f = FR(1, {(1, 1): 1})
    assert f.series_in_T(2) == [
        Poly.one(),
        Poly.monomial(1, 1, 0),
        Poly.monomial(1, 2, 0),
    ]


def test_series_identity_function():
    f = FR(Poly.one_minus(0, 1), {(0, 1): 1})
    assert f.series_in_T(3) == [Poly.one(), Poly.zero(), Poly.zero(), Poly.zero()]


def test_series_is_cut_at_the_order():
    # T^5 / (1 - qT) and T^5 alone, cut below, at and after their first term
    for den, tail in (({(1, 1): 1}, [Poly.one(), Poly.monomial(1, 1, 0)]), ({}, [Poly.one()])):
        f = FR(Poly.monomial(1, 0, 5), den)
        assert f.series_in_T(-2) == []
        assert f.series_in_T(3) == [Poly.zero()] * 4
        assert f.series_in_T(6) == [Poly.zero()] * 5 + tail + [Poly.zero()] * (2 - len(tail))


def test_series_pole_at_zero_rejected():
    f = FR(Poly.monomial(1, 0, -1))
    with pytest.raises(UsageError, match="pole of order 1 at T = 0"):
        f.series_in_T(2)


def test_series_multiply_back_random():
    rng = random.Random(29)
    for _ in range(20):
        den = {}
        for _ in range(rng.randint(1, 3)):
            den[(rng.randint(-2, 3), rng.randint(1, 2))] = 1
        num = rand_poly(rng)
        f = FR(num, den)
        order = 6
        coeffs = f.series_in_T(order)
        # multiply back by the denominator and truncate
        prod = Poly(expand_factor_by_factor(f.den))
        series_poly = Poly.zero()
        for k, c in enumerate(coeffs):
            series_poly = series_poly + c.shift(dt=k)
        back = series_poly * prod
        for (eq, et), c in (back - num).terms.items():
            assert et > order


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _eval_poly_fraction(p: Poly, q, T):
    from fractions import Fraction

    return sum(
        Fraction(c) * q**eq * T**et for (eq, et), c in p.terms.items()
    )


def _eval_fr_fraction(f: FR, q, T):
    from fractions import Fraction

    den = Fraction(1)
    for (a, b), m in f.den.items():
        den *= (1 - q**a * T**b) ** m
    return _eval_poly_fraction(f.num, q, T) / den


def _eval_points(rng):
    from fractions import Fraction

    # avoid denominator zeros: q, T chosen so no 1 - q^a T^b with small a, b
    # vanishes (q transcendental-ish rationals)
    qs = [Fraction(3, 7), Fraction(5, 2), Fraction(-7, 3)]
    ts = [Fraction(2, 11), Fraction(-3, 5)]
    return [(rng.choice(qs), rng.choice(ts))]


def test_arithmetic_matches_fraction_evaluation():
    # the whole rational layer against an independent Fraction oracle
    rng = random.Random(41)
    for _ in range(40):
        f, g = rand_fr(rng), rand_fr(rng)
        for q, t in _eval_points(rng):
            fv, gv = _eval_fr_fraction(f, q, t), _eval_fr_fraction(g, q, t)
            assert _eval_fr_fraction(f * g, q, t) == fv * gv
            assert _eval_fr_fraction(f + g, q, t) == fv + gv
            assert _eval_fr_fraction(f - g, q, t) == fv - gv
            assert _eval_fr_fraction(f.reduced(), q, t) == fv
            assert _eval_fr_fraction(f.subs_inverse(), q, t) == _eval_fr_fraction(
                f, 1 / q, 1 / t
            )


def test_equality_agrees_with_fraction_oracle():
    rng = random.Random(43)
    pairs = []
    for _ in range(30):
        f = rand_fr(rng)
        g = rand_fr(rng) if rng.random() < 0.5 else f * FR(1)
        pairs.append((f, g))
    for f, g in pairs:
        structural = f == g
        from fractions import Fraction

        # evaluation at two independent points distinguishes the unequal ones
        # at the degrees generated here
        same = all(
            _eval_fr_fraction(f, q, t) == _eval_fr_fraction(g, q, t)
            for q, t in [
                (Fraction(3, 7), Fraction(2, 11)),
                (Fraction(5, 2), Fraction(-3, 5)),
                (Fraction(-7, 3), Fraction(7, 13)),
            ]
        )
        if structural:
            assert same
        else:
            assert not same


def test_zeta_value_matches_fraction_oracle():
    # spot-check a real zeta function numerically
    from fractions import Fraction

    from heiszeta.zeta import zeta_compact, zeta_igusa_sum

    q, t = Fraction(13, 5), Fraction(3, 17)
    v1 = _eval_fr_fraction(zeta_igusa_sum(2), q, t)
    v2 = _eval_fr_fraction(zeta_compact(2), q, t)
    assert v1 == v2


def test_json_round_trip_random():
    rng = random.Random(31)
    for _ in range(25):
        f = rand_fr(rng)
        g = rational_loads(rational_dumps(f))
        assert g.num == f.num and g.den == f.den


def test_json_shape():
    # the numerator's least power of T is the unit
    f = FR(Poly({(2, 2): -3, (0, 3): 1}), {(1, 1): 2})
    data = rational_to_json(f)
    assert data == {"num": [["-3", 2, 0], ["1", 0, 1]], "unit": [1, 0, 2], "den": [[1, 1, 2]]}


def test_a_legacy_unit_is_folded_into_the_numerator():
    # a unit -q^2 T^3 as files may carry it: (1 - qT) times it, over 1 - qT
    text = '{"den":[[1,1,1]],"num":[["1",0,0],["-1",1,1]],"unit":[-1,2,3]}'
    f = rational_loads(text)
    assert f.num.terms == {(2, 3): -1, (3, 4): 1} and dict(f.den) == {(1, 1): 1}
    assert f == FR(Poly.monomial(-1, 2, 3))
    # a power of T alone is written back as it was read
    text = '{"den":[[1,1,1]],"num":[["1",0,0],["-1",1,1]],"unit":[1,0,3]}'
    assert rational_dumps(rational_loads(text)) == text


def test_cached_values_cannot_be_corrupted():
    from heiszeta.zeta import dirichlet_coeffs, zeta_compact

    f = zeta_compact(1)
    with pytest.raises(TypeError):
        f.num.terms[(0, 0)] = 5
    with pytest.raises(TypeError):
        f.den[(1, 1)] = 7
    for obj, attr, value in [
        (f.num, "terms", {(0, 0): 5}),
        (f, "num", Poly.monomial(5)),
        (f, "den", {}),
    ]:
        with pytest.raises(AttributeError):
            setattr(obj, attr, value)
        with pytest.raises(AttributeError):
            delattr(obj, attr)
    assert dirichlet_coeffs(1, 2, 3) == [1, 3, 19, 43]


def test_values_survive_pickle_and_copy():
    import copy
    import pickle

    f = FR(Poly({(2, 0): -3, (-1, -1): 5}), {(1, 1): 2, (3, 0): 1})
    for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert (g.num.terms, g.den) == (f.num.terms, f.den)
        with pytest.raises(TypeError):
            g.num.terms[(0, 0)] = 1

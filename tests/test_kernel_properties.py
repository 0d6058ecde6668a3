"""Property tests of the exact kernel: products, cofactor sums and equality.

The schoolbook and Kronecker product paths are checked against each other,
and `FactoredRational.sum` and `__eq__` against pairwise addition and
against `sympy.cancel` as an independent oracle.  The packed sum and the
one-pass `reduced` are checked term for term against the per-item sum and
the factor-at-a-time reduction of tests/reference.py.  The term accumulator
and the two division recurrences (`divide_out_factor` and
`_vanishing_order`), the constructor's folding of flipped factors and
`subs_inverse` are checked against sympy.  The ring laws, `reduced` and
the JSON round trip are checked on the same random rationals.  hypothesis
and sympy are test-only dependencies.
"""

import functools
import time
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings, strategies as st  # noqa: E402

from heiszeta import exactalg  # noqa: E402
from heiszeta.exactalg import (  # noqa: E402
    BivariatePolynomial as Poly,
    FactoredRational as FR,
    _p_iadd,
    _p_mul,
    _p_mul_kronecker,
    _p_mul_schoolbook,
    divide_out_factor,
    rational_dumps,
    rational_loads,
)
from heiszeta.verify import _vanishing_order  # noqa: E402
from reference import (  # noqa: E402
    divide_one_factor,
    expand_factor_by_factor,
    reduced_factor_at_a_time,
    sum_per_item,
)

settings.register_profile("kernel", database=None, deadline=None, max_examples=40)
settings.load_profile("kernel")

q, T = sympy.symbols("q T")

# -- strategies ---------------------------------------------------------------

small = st.integers(-6, 6).filter(bool)
huge = st.integers(2**64, 2**90) | st.integers(-(2**90), -(2**64))
coeffs = small | huge


def raw_polys(qspan, tspan, max_size, values=coeffs):
    """Raw term dicts with q-exponents in [-qspan, qspan] and T in [0, tspan]."""
    keys = st.tuples(st.integers(-qspan, qspan), st.integers(0, tspan))
    return st.dictionaries(keys, values, min_size=1, max_size=max_size)


single = raw_polys(20, 5, 1)
dense = raw_polys(3, 2, 30)  # boxes small enough for the Kronecker path
sparse_wide = raw_polys(300, 20, 8)  # wide boxes with few terms
operands = single | dense | sparse_wide | raw_polys(8, 4, 15)

factor_keys = st.tuples(st.integers(-4, 4), st.integers(0, 3)).filter(
    lambda k: k != (0, 0)
)
dens = st.dictionaries(factor_keys, st.integers(1, 2), max_size=3)
# keys the constructor must flip: b < 0, or b = 0 with a < 0
flipped_keys = st.tuples(st.integers(-4, 4), st.integers(-3, 0)).filter(
    lambda k: k[1] < 0 or k[0] < 0
)


@st.composite
def unnormalized_dens(draw):
    """Factors in either orientation, with one of them both as (a, b) and as (-a, -b)."""
    den = draw(st.dictionaries(factor_keys | flipped_keys, st.integers(1, 3), max_size=3))
    a, b = draw(factor_keys)
    den[(a, b)] = den.get((a, b), 0) + draw(st.integers(1, 2))
    den[(-a, -b)] = den.get((-a, -b), 0) + draw(st.integers(1, 2))
    return den


@st.composite
def rationals(draw, den_pool=None):
    """FactoredRational with small exponents; den_pool restricts the factors."""
    num = Poly(draw(raw_polys(4, 3, 4, small | huge)))
    if den_pool is None:
        den = draw(dens)
    else:
        keys = draw(st.lists(st.sampled_from(den_pool), max_size=3))
        den = {k: keys.count(k) for k in keys}
    return FR(num, den, draw(st.integers(-2, 2)))


# -- sympy oracle ---------------------------------------------------------------


def poly_expr(terms):
    return sympy.Add(*[c * q**eq * T**et for (eq, et), c in terms.items()])


def fr_expr(f):
    den = sympy.Mul(*[(1 - q**a * T**b) ** m for (a, b), m in f.den.items()])
    return T**f.tshift * poly_expr(f.num.terms) / den


sympy_examples = settings(max_examples=20)


def sympy_zero(expr):
    return sympy.cancel(sympy.together(expr)) == 0


def snapshot(items):
    return [(dict(f.num.terms), dict(f.den), f.tshift) for f in items]


# -- products -------------------------------------------------------------------


@given(operands, operands)
def test_schoolbook_and_kronecker_agree(a, b):
    school = _p_mul_schoolbook(a, b)
    assert _p_mul_kronecker(a, b) == school
    assert _p_mul_kronecker(b, a) == school
    assert _p_mul(a, b) == school
    assert all(school.values())


@sympy_examples
@given(dense, dense)
def test_products_match_sympy(a, b):
    prod = _p_mul_kronecker(a, b)
    assert sympy.expand(poly_expr(prod) - poly_expr(a) * poly_expr(b)) == 0


@given(st.tuples(st.integers(-5, 5), st.integers(1, 3)), huge, dense)
def test_cancelling_products(k, c, b):
    # (c - c x)(c + c x) = c^2 - c^2 x^2: the middle terms cancel
    diff, summ = {(0, 0): c, k: -c}, {(0, 0): c, k: c}
    square = _p_mul_kronecker(diff, summ)
    assert square == {(0, 0): c * c, (2 * k[0], 2 * k[1]): -c * c}
    assert _p_mul_kronecker(square, b) == _p_mul_schoolbook(square, b)


# high multiplicities need packed slots of several bytes
deep_dens = st.dictionaries(factor_keys, st.integers(1, 14), max_size=3)
wide_dens = st.dictionaries(
    st.tuples(st.integers(-300, 300), st.integers(0, 40)).filter(lambda k: k != (0, 0)),
    st.integers(1, 3),
    max_size=4,
)


def expand_factors(den):
    return Poly(expand_factor_by_factor(den))


@given(dens | deep_dens | wide_dens)
def test_sum_multiplies_by_each_missing_factor(den):
    # the product over den, over den, compares with 1 through the sum, which
    # multiplies the 1 by every factor of den: packed for the deep
    # denominators, in a dict for the wide ones
    assert FR(expand_factors(den), den) == 1


# -- the accumulator and the division recurrences ---------------------------------


@sympy_examples
@given(operands, operands, small, st.integers(-5, 5), st.integers(0, 3))
def test_accumulator_matches_sympy(out, terms, c, dq, dt):
    before = dict(terms)
    expected = poly_expr(out) + c * q**dq * T**dt * poly_expr(terms)
    acc = dict(out)
    assert _p_iadd(acc, terms, c, dq, dt) is acc
    assert terms == before
    assert all(acc.values())
    assert sympy.expand(poly_expr(acc) - expected) == 0
    assert _p_iadd(dict(terms), terms, -1) == {}


@given(operands, factor_keys)
def test_divide_out_factor_inverts_the_product(f, k):
    f = Poly(f)
    assert divide_out_factor(f * Poly.one_minus(*k), *k) == f


# f * (1 - q^a T^b) plus a remainder of at most two terms, often none
near_multiples = st.tuples(
    raw_polys(3, 3, 4, small),
    factor_keys,
    st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(0, 3)), small, max_size=2),
)


@sympy_examples
@given(near_multiples)
def test_divide_out_factor_is_none_exactly_on_a_remainder(case):
    f, (a, b), extra = case
    p = Poly(f) * Poly.one_minus(a, b) + Poly(extra)
    quot = divide_out_factor(p, a, b)
    # clear the negative powers of q, a unit, and divide as polynomials
    low = min((eq for eq, _ in p.terms), default=0)
    num = sympy.expand(poly_expr(p.terms) * q ** max(-low, 0))
    divisor = sympy.numer(sympy.together(1 - q**a * T**b))
    _, rem = sympy.div(num, divisor, q, T, domain="QQ")
    assert (quot is None) == (rem != 0)
    if quot is not None:
        assert sympy.expand(poly_expr(quot.terms) * (1 - q**a * T**b) - poly_expr(p.terms)) == 0


@sympy_examples
@given(
    st.dictionaries(st.integers(0, 4), small, min_size=1, max_size=5),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(0, 3),
)
def test_vanishing_order_matches_sympy(f, p, c, d, m):
    poly = sympy.Poly(sum(v * T**k for k, v in f.items()) * (1 - p**c * T**d) ** m, T)
    coeffs = {k: int(v) for (k,), v in poly.terms() if v}
    divisor = sympy.Poly(1 - p**c * T**d, T)
    mult = 0
    while True:
        quot, rem = sympy.div(poly, divisor, domain="QQ")
        if not rem.is_zero:
            break
        poly, mult = quot, mult + 1
    assert mult >= m
    assert _vanishing_order(coeffs, p, c, d) == mult


# -- sums ----------------------------------------------------------------------


@sympy_examples
@given(st.lists(rationals(), min_size=1, max_size=3))
def test_sum_matches_pairwise_and_sympy(items):
    before = snapshot(items)
    total = FR.sum(items)
    assert snapshot(items) == before
    assert total == functools.reduce(lambda x, y: x + y, items)
    assert sympy_zero(fr_expr(total) - sympy.Add(*[fr_expr(f) for f in items]))


@sympy_examples
@given(
    st.lists(
        rationals(den_pool=[(1, 0), (2, 0), (1, 1), (-1, 1), (2, 3)]),
        min_size=2,
        max_size=4,
    )
)
def test_sum_over_shared_denominators(items):
    before = snapshot(items)
    total = FR.sum(items)
    assert snapshot(items) == before
    assert sympy_zero(fr_expr(total) - sympy.Add(*[fr_expr(f) for f in items]))


@sympy_examples
@given(
    rationals(den_pool=[(1, 0), (3, 1)]),
    rationals(den_pool=[(2, 0), (-2, 2)]),
)
def test_sum_over_disjoint_denominators(f, g):
    total = FR.sum([f, g])
    lcm = {k: max(f.den.get(k, 0), g.den.get(k, 0)) for k in set(f.den) | set(g.den)}
    assert total.den == lcm or total.is_zero()
    assert sympy_zero(fr_expr(total) - fr_expr(f) - fr_expr(g))


@given(st.lists(rationals(), min_size=1, max_size=3), st.randoms(use_true_random=False))
def test_sums_that_cancel_to_zero(items, rng):
    # each item appears once as itself and once negated over a larger denominator
    extra = expand_factors({(1, 1): 1})
    negated = [
        FR(-(f.num * extra), {**f.den, (1, 1): f.den.get((1, 1), 0) + 1}, f.tshift)
        for f in items
    ]
    both = items + negated
    rng.shuffle(both)
    before = snapshot(both)
    total = FR.sum(both)
    assert snapshot(both) == before
    assert total.is_zero()
    assert total == 0


# -- the packed sum and the one-pass reduction against their references -----------

# the largest coefficient a packed slot of 1, 2, 4, 8 and 16 bytes holds, either sign
slot_bounds = st.sampled_from([s * (2 ** (8 * w - 1) - 1) for w in (1, 2, 4, 8, 16) for s in (1, -1)])
# constant factors, T-factors with negative q-exponents, and factors of T alone
factor_pool = [(1, 0), (2, 0), (3, 0), (1, 1), (-2, 1), (-1, 2), (0, 1), (2, 3)]


@st.composite
def summands(draw):
    """A rational over up to six factors from factor_pool, repeats giving multiplicities."""
    values = draw(st.sampled_from([small, small | slot_bounds, small | huge]))
    num = Poly(draw(raw_polys(2, 2, 9, values)))
    den = Counter(draw(st.lists(st.sampled_from(factor_pool), max_size=6)))
    return FR(num, den, draw(st.integers(-3, 3)))


def exact(f):
    """The representation of f: numerator terms, factors and tshift."""
    return snapshot([f])[0]


def refuse(what):
    """A stand-in for a kernel function that must not run."""
    def call(*args):
        raise AssertionError(what)
    return call


@settings(max_examples=80)
@given(st.lists(summands(), min_size=1, max_size=5), st.sampled_from(["plain", "zero", "wide"]))
def test_sum_matches_the_per_item_reference(items, kind):
    if kind == "zero":
        # each item once as itself and once negated over a larger denominator
        items = items + [FR(-(f.num * Poly.one_minus(-1, 2)), Counter(f.den) + Counter({(-1, 2): 1}),
                            f.tshift) for f in items]
    elif kind == "wide":
        # a factor whose q-span outgrows the packed box: the per-item path
        items = items + [FR(Poly.monomial(5, 2, 1), {(300, 2): 1}, -1)]
    before = snapshot(items)
    total = FR.sum(items)
    assert snapshot(items) == before
    assert exact(total) == exact(sum_per_item(items))
    assert total.is_zero() or kind != "zero"


def test_a_dense_sum_is_one_packed_accumulation(monkeypatch):
    reads = []
    unpack = exactalg._kron_unpack
    monkeypatch.setattr(exactalg, "_kron_unpack", lambda *args: reads.append(args) or unpack(*args))
    # a box of 76 cells against 196 terms before collecting
    num = Poly.one_minus(1, 0) ** 3
    items = [
        FR(num * Poly.monomial((-1) ** r, r), Counter([(1 + i, 0) for i in range(r + 2)] + [(1, 1)] * r))
        for r in range(4)
    ]
    with monkeypatch.context() as mp:
        mp.setattr(exactalg, "_p_iadd", refuse("the per-item path ran"))
        total = FR.sum(items)
    assert len(reads) == 1
    assert exact(total) == exact(sum_per_item(items))


def test_a_comparison_over_other_denominators_is_one_packed_sum(monkeypatch):
    # a 5 x 3 block over 1 - q against the same value over (1 - q)^3 (1 - q T):
    # a box of 32 cells against 66 terms before collecting
    block = Poly({(i, j): 1 for i in range(5) for j in range(3)})
    f = FR(block * Poly.one_minus(1, 1), {(1, 0): 1, (1, 1): 1})
    g = FR(block * Poly.one_minus(1, 0) ** 2, {(1, 0): 3})
    h = FR(block * Poly.one_minus(1, 0) ** 2 + Poly.monomial(1, 1, 1), {(1, 0): 3})
    reads = []
    unpack = exactalg._kron_unpack
    monkeypatch.setattr(exactalg, "_kron_unpack", lambda *args: reads.append(args) or unpack(*args))
    monkeypatch.setattr(exactalg, "_p_iadd", refuse("the per-item path ran"))
    assert f == g
    assert len(reads) == 1
    assert f != h
    assert len(reads) == 2


def test_a_comparison_over_one_denominator_skips_the_sum(monkeypatch):
    den = {(1, 0): 1, (2, 1): 2}
    f = FR(Poly({(0, 0): 2, (1, 2): -1}), den, 1)
    g = FR(Poly({(0, 0): 2, (1, 2): 1}), den, 1)
    monkeypatch.setattr(FR, "sum", refuse("summed a comparison over one denominator"))
    assert f == FR(Poly({(1, 2): -1, (0, 0): 2}), den, 1)
    assert f != g


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_packed_sums_carry_past_the_slot_bound(w, monkeypatch):
    # every coefficient is the largest that a w-byte slot holds, and they add
    # up in every cell, so the packed sum needs slots wider than w bytes
    c = 2 ** (8 * w - 1) - 1
    block = Poly({(i, j): c for i in range(3) for j in range(3)})
    items = [FR(block), FR(block), FR(block.scaled(-1), {(1, 0): 1}, 1)]
    with monkeypatch.context() as mp:
        mp.setattr(exactalg, "_p_iadd", refuse("the per-item path ran"))
        total = FR.sum(items)
    assert max(map(abs, total.num.terms.values())) > c
    assert exact(total) == exact(sum_per_item(items))


def test_a_packed_sum_never_applies_a_factor_that_every_item_has(monkeypatch):
    # 1 - q^-5 T is in every denominator and the box is 4 columns wide, so its
    # shift in the packed layout, -5 + 4 cells, is negative: the fold over the
    # growing lcm starts from the first item's factors and never applies it,
    # while it multiplies the total so far by the factors the later items add
    block = Poly({(i, j): 1 + i + j for i in range(3) for j in range(3)})
    items = [FR(block, {(-5, 1): 1}), FR(block.scaled(-2), {(-5, 1): 1, (1, 0): 1}),
             FR(block, {(-5, 1): 1, (0, 1): 1}, 1), FR(block, {(-5, 1): 1, (1, 0): 1})]
    reads = []
    unpack = exactalg._kron_unpack
    monkeypatch.setattr(exactalg, "_kron_unpack", lambda *args: reads.append(args) or unpack(*args))
    with monkeypatch.context() as mp:
        mp.setattr(exactalg, "_p_iadd", refuse("the per-item path ran"))
        total = FR.sum(items)
    assert len(reads) == 1 and reads[0][2] == 4  # the width of the box
    assert exact(total) == exact(sum_per_item(items))


def test_a_sum_with_a_huge_exponent_stays_per_item(monkeypatch):
    monkeypatch.setattr(exactalg, "_kron_pack", refuse("packed a sum whose box is 10^9 columns wide"))
    items = [FR.one_over([(10**9, 1)]), FR(Poly({(0, 0): 3, (1, 1): -2}), {(1, 0): 2}, 1)]
    start = time.perf_counter()
    total = FR.sum(items)
    assert time.perf_counter() - start < 2
    assert exact(total) == exact(sum_per_item(items))


t_factor_keys = st.tuples(st.integers(-4, 4), st.integers(1, 3))


@st.composite
def reducible(draw):
    """A rational whose numerator is a multiple of some of its factors, with
    extra factors that may not divide, constant or with a < 0 or a >= 0,
    some of them 1 - q^a T^b whose 1 - 2^a T^b divides the numerator (so
    they divide at q = 2 only), a possible remainder and T-content."""
    divides = Counter(draw(st.lists(st.sampled_from(factor_pool), max_size=5)))
    extra = Counter(draw(st.lists(st.sampled_from(factor_pool) | factor_keys, max_size=3)))
    decoys = Counter(draw(st.lists(t_factor_keys, max_size=2)))
    num = Poly(draw(raw_polys(4, 3, 5, small | huge | slot_bounds))) * expand_factors(divides)
    for a, b in decoys.elements():
        # 2^max(-a, 0) (1 - 2^a T^b), with integer coefficients
        num = num * Poly({(0, 0): 2 ** max(-a, 0), (0, b): -(2 ** max(a, 0))})
    if draw(st.booleans()):
        num = num + Poly(draw(raw_polys(3, 2, 2, small)))
    den = divides + extra + decoys
    return FR(num.shift(dt=draw(st.integers(0, 2))), den, draw(st.integers(-2, 2)))


@settings(max_examples=80)
@given(reducible())
def test_reduced_matches_the_factor_at_a_time_reference(f):
    assert exact(f.reduced()) == exact(reduced_factor_at_a_time(f))


@given(operands, st.tuples(st.integers(-4, 4), st.integers(0, 3)).filter(lambda k: k != (0, 0)),
       st.booleans())
def test_divide_out_factor_matches_the_reference(f, k, multiple):
    p = Poly(f) * Poly.one_minus(*k) if multiple else Poly(f)
    got, want = divide_out_factor(p, *k), divide_one_factor(p, *k)
    assert (got is None) == (want is None)
    assert got.terms == want.terms if got is not None else not multiple


# -- equality -------------------------------------------------------------------


@st.composite
def pairs(draw):
    """(f, g) with g equal to f in another representation, or unrelated."""
    f = draw(rationals())
    if draw(st.booleans()):
        return f, draw(rationals())
    extra = draw(dens)
    shift = draw(st.integers(0, 2))
    num = Poly(f.num.terms) * expand_factors(extra)
    den = dict(f.den)
    for k, m in extra.items():
        den[k] = den.get(k, 0) + m
    return f, FR(num.shift(dt=shift), den, f.tshift - shift)


@sympy_examples
@given(pairs())
def test_equality_agrees_with_sympy(pair):
    f, g = pair
    before = snapshot([f, g])
    assert (f == g) == sympy_zero(fr_expr(f) - fr_expr(g))
    assert (g == f) == (f == g)
    assert snapshot([f, g]) == before


@sympy_examples
@given(raw_polys(4, 3, 4, small | huge), unnormalized_dens(), st.integers(-2, 2))
def test_the_constructor_folds_flipped_factors(num, den, tshift):
    f = FR(Poly(num), den, tshift)
    assert all(b >= 0 and (a > 0 or b > 0) for a, b in f.den)
    assert sum(f.den.values()) == sum(den.values())
    value = T**tshift * poly_expr(num) / sympy.Mul(*[(1 - q**a * T**b) ** m for (a, b), m in den.items()])
    assert sympy_zero(fr_expr(f) - value)


@sympy_examples
@given(rationals())
def test_subs_inverse_matches_sympy(f):
    inverted = fr_expr(f).subs({q: 1 / q, T: 1 / T}, simultaneous=True)
    assert sympy_zero(fr_expr(f.subs_inverse()) - inverted)


# -- ring laws, reduction and serialization ---------------------------------------


@given(rationals(), rationals(), rationals())
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(rationals())
def test_difference_with_itself_is_zero(f):
    assert f - f == 0


@given(rationals())
def test_reduced_keeps_the_value(f):
    assert f.reduced() == f


@given(rationals())
def test_json_round_trip(f):
    text = rational_dumps(f)
    back = rational_loads(text)
    assert back == f
    assert rational_dumps(back) == text

import pytest

from heiszeta.combinat import gen_W
from heiszeta.errors import IdentityMismatch, SizeGuard, UsageError
from heiszeta.exactalg import (
    BivariatePolynomial as Poly,
    FactoredRational as FR,
    gauss_binom,
    qpochhammer,
)
from heiszeta.igusa import _subset_sum, igusa_A, igusa_B
from heiszeta.verify import (
    GENERIC_Z,
    Y_slot,
    check_I_equals_K,
    coset_stats,
    fibre_E,
    fibre_I,
    fibre_K,
    fibre_prefactor,
    generic_slots,
    igusa_B_residue,
    residue_limits,
    signed_descent_sum,
)
from heiszeta.zeta import c_exponents, igusa_args
from reference import (
    epsilon_kr,
    fibre_K_by_cosets,
    igusa_A_descent,
    igusa_B_descent,
    igusa_B_residue_limit,
    inversions,
    qpochhammer_factors,
    signed_perms,
    subset_sum_by_masks,
    t_degree,
)


def one_over_slots(slots):
    return FR.one_over(slots)


# ---------------------------------------------------------------------------
# type A
# ---------------------------------------------------------------------------


def test_augmented_degree_one_fixture():
    X = generic_slots(2)
    assert igusa_A(1, -2, X) == one_over_slots(X)


def test_augmented_degree_two_fixture():
    X0, X1, X2 = generic_slots(3)
    got = igusa_A(2, -2, [X0, X1, X2])
    num = Poly({(0, 0): 1, (X1[0] - 2, X1[1]): 1})  # 1 + q^-2 X_1
    assert got == FR(num) * one_over_slots([X0, X1, X2])


def test_plain_degree_zero():
    assert igusa_A(0, -2, []) == FR(1)
    X0 = generic_slots(1)
    assert igusa_A(0, -2, X0) == one_over_slots(X0)
    assert igusa_A(0, -2, X0).den == {X0[0]: 1}
    # degree 0 has no truncated variant: 0 or 1 slots only
    with pytest.raises(UsageError):
        igusa_A(0, -2, generic_slots(2))


@pytest.mark.parametrize("case", ["A plain", "A augmented", "B full", "B truncated"])
def test_repeated_slots_give_multiplicity_two(case):
    # two equal slots make one denominator factor of multiplicity 2; the value
    # is the numerator divided by each slot's factor in turn
    x0, x, x3 = generic_slots(3)
    if case.startswith("A"):
        X = [x, x, x3] if case == "A plain" else [x0, x, x, x3]
        got = igusa_A(3, -2, X)
        want = igusa_A_descent(3, -2, [x0, x, x, x3])
        if case == "A plain":  # augmented = plain / (1 - X_0)
            want = want * Poly.one_minus(*x0)
    else:
        X = [x, x, x3] if case == "B full" else [x, x]
        got = igusa_B(2, -1, GENERIC_Z, X)
        want = FR(signed_descent_sum(2, -1, GENERIC_Z, X[:2])) * one_over_slots(X)
    assert got.den[x] == 2
    assert got == want


def test_igusa_arity_checks():
    # type A of degree n takes n - 1, n or n + 1 slots; type B takes n or n + 1
    for n in (1, 2, 3):
        for count in range(n + 4):
            X = generic_slots(count)
            if count not in (n - 1, n, n + 1):
                with pytest.raises(UsageError):
                    igusa_A(n, -2, X)
            if count not in (n, n + 1):
                with pytest.raises(UsageError):
                    igusa_B_descent(n, -1, GENERIC_Z, X)
                with pytest.raises(UsageError):
                    igusa_B(n, -1, GENERIC_Z, X)
    with pytest.raises(UsageError):
        igusa_A_descent(2, -2, generic_slots(2))
    with pytest.raises(UsageError):
        igusa_A(-1, -2, [])
    with pytest.raises(UsageError):
        igusa_B(-1, -1, GENERIC_Z, [])


def _subset_sum_args(case, n):
    """(n, y, interior, X, weight) of _subset_sum as igusa_A, igusa_B,
    form a (every w in W_n) and form c build them."""
    if case.startswith("A"):
        count = {"A truncated": n - 1, "A plain": n, "A augmented": n + 1}[case]
        X = generic_slots(max(count, 0))
        return [(n, -2, list(zip(range(1, n), X[int(count == n + 1):])), X, None)]
    if case == "form a":
        return [(n, -2, list(zip(range(1, n), X[1:])), X, None)
                for X in (igusa_args(n, w) for w in gen_W(n))]
    y, Z, X = -1, GENERIC_Z, generic_slots(n + 1)
    if case == "form c":
        Z, X = Poly.monomial(-1, n, 1), [(c, n + 1) for c in c_exponents(n)]
    a0 = Poly.monomial(-1, y * n) * Z
    weight = [qpochhammer(a0, -y, d) for d in range(n + 1)]
    return [(n, y, list(enumerate(X[:n])), X, weight)]


@pytest.mark.parametrize(
    "case, n",
    [(case, n)
     for case in ("A truncated", "A plain", "A augmented", "B", "form a", "form c")
     for n in range(case.startswith("form"), 7)],
)
def test_subset_sum_equals_the_mask_loop(case, n):
    # the recurrence over the least chosen index gives the 2^m-subset sum
    # term for term, numerator and denominator alike
    for args in _subset_sum_args(case, n):
        got, want = _subset_sum(*args), subset_sum_by_masks(*args)
        assert dict(got.num.terms) == dict(want.num.terms)
        assert dict(got.den) == dict(want.den)


@pytest.mark.parametrize("n", range(1, 6))
def test_subset_sums_skip_the_free_slots(n, monkeypatch):
    # X_0 and X_n never change a type-A subset's weight, nor X_n a type-B
    # one's, so only the other m slots enter the recurrence: m = n - 1 and
    # m = n, with one Gaussian binomial per (state, slot) pair, m(m+1)/2 in
    # all.  A free slot in the sum, or a return to 2^m subsets, changes it.
    from heiszeta import igusa

    calls = []

    def counting(*args):
        calls.append(args)
        return gauss_binom(*args)

    monkeypatch.setattr(igusa, "gauss_binom", counting)
    X, other = generic_slots(n + 1), generic_slots(n + 3)[n + 1:]
    f = igusa_A(n, -2, X)
    assert len(calls) == (n - 1) * n // 2
    assert {i for _, i, _ in calls} == set(range(1, n))
    assert igusa_A(n, -2, [other[0]] + X[1:n] + [other[1]]).num == f.num
    calls.clear()
    f = igusa_B(n, -1, GENERIC_Z, X)
    assert len(calls) == n * (n + 1) // 2
    assert {i for _, i, _ in calls} == set(range(n))
    assert igusa_B(n, -1, GENERIC_Z, X[:n] + [other[1]]).num == f.num


def test_descent_numerators():
    # S_1 trivial; S_2 gives 1 + q^-2 X_1; S_3 matches the degree-3 display
    X = generic_slots(4)
    f3 = igusa_A_descent(3, -2, X)
    num = Poly.zero()
    x1, x2 = Poly.monomial(1, *X[1]), Poly.monomial(1, *X[2])
    num = num + Poly.one()
    num = num + Poly({(-2, 0): 1, (-4, 0): 1}) * x1
    num = num + Poly({(-2, 0): 1, (-4, 0): 1}) * x2
    num = num + Poly.monomial(1, -6, 0) * x1 * x2
    assert f3 == FR(num) * one_over_slots(X)


@pytest.mark.parametrize("n", range(1, 6))
def test_descent_form_equals_subset_expansion(n):
    X = generic_slots(n + 1)
    assert igusa_A_descent(n, -2, X) == igusa_A(n, -2, X)


@pytest.mark.parametrize("n", range(2, 6))
def test_truncated_reversal_symmetry(n):
    X = generic_slots(n - 1)
    a = igusa_A(n, -2, X)
    b = igusa_A(n, -2, list(reversed(X)))
    assert a == b


@pytest.mark.parametrize("n", range(1, 5))
def test_bridge_identity(n):
    X = generic_slots(n + 1)
    tr = igusa_A(n, -2, X[1:n]) * one_over_slots([X[0], X[n]])
    pl = igusa_A(n, -2, X[1:]) * one_over_slots(X[:1])
    aug = igusa_A(n, -2, X)
    assert tr == pl == aug


@pytest.mark.parametrize("n", range(1, 6))
def test_pascal_type_induction(n):
    # Ig_n = sum_j binom(n,j)_Y X_j Ig_j with X_0 = 1
    y = -2
    X = generic_slots(n)
    lhs = igusa_A(n, y, X)
    terms = [FR(gauss_binom(n, 0, y))]
    for j in range(1, n + 1):
        terms.append(
            igusa_A(j, y, X[:j]) * gauss_binom(n, j, y) * Poly.monomial(1, *X[j - 1])
        )
    assert lhs == FR.sum(terms)


@pytest.mark.parametrize("n", range(6))
def test_triangular_specialization(n):
    # Ig_n(q^-1; q^{-binom(r+1,2)} U^r) = (-q^-1 U; q^-1)_n / (q^-2 U^2; q^-1)_n
    uq, ut = 97, 2
    X = [(-(r * (r + 1) // 2) + uq * r, ut * r) for r in range(1, n + 1)]
    lhs = igusa_A(n, -1, X)
    num = qpochhammer(Poly.monomial(-1, uq - 1, ut), -1, n)
    den = qpochhammer_factors((2 * uq - 2, 2 * ut), -1, n)
    rhs = FR(num, {k: den.count(k) for k in set(den)})
    assert lhs == rhs


# ---------------------------------------------------------------------------
# type B
# ---------------------------------------------------------------------------


def test_igusa_B_degree_one_zeta_numerator():
    f = igusa_B(1, -1, Poly.monomial(-1, 1, 1), [(3, 2), (2, 2)])
    assert f.num == Poly.one_minus(3, 3)


def test_igusa_B_monomial_count():
    X = generic_slots(3)
    f = igusa_B(2, -1, GENERIC_Z, X)
    # 8 group elements; generic slots keep all monomials distinct
    assert sum(abs(c) for c in f.num.terms.values()) == 8


def test_igusa_B_guard():
    # igusa_B has no guard of its own: past the descent sum's guard of 8 only
    # the residue limit, which builds that sum, refuses
    X = generic_slots(8)
    assert igusa_B(7, -1, GENERIC_Z, X) == igusa_B_descent(7, -1, GENERIC_Z, X)
    with pytest.raises(SizeGuard):
        igusa_B_residue_limit(9, 0, -1, GENERIC_Z, generic_slots(9))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_sign_free_part_is_type_A_numerator(n):
    # dropping every element with a negative entry (the Z = 0 filter) leaves
    # the type-A descent numerator over S_n inside B_n
    X = generic_slots(n + 1)
    y = -1
    positive = Poly.zero()
    for g in signed_perms(n):
        if g.neg():
            continue
        term = Poly.monomial(1, y * g.length(), 0)
        for i in g.descent_set_B():
            term = term * Poly.monomial(1, *X[i])
        positive = positive + term
    assert positive == igusa_A_descent(n, y, X).num


@pytest.mark.parametrize("n", range(1, 5))
def test_subset_expansion_matches_descent_form(n):
    X = generic_slots(n + 1)
    assert igusa_B_descent(n, -1, GENERIC_Z, X) == igusa_B(n, -1, GENERIC_Z, X)


@pytest.mark.parametrize("n", range(1, 4))
def test_truncated_subset_matches(n):
    X = generic_slots(n)
    lhs = igusa_B_descent(n, -1, GENERIC_Z, X)
    rhs = igusa_B(n, -1, GENERIC_Z, X)
    assert lhs == rhs


@pytest.mark.parametrize("n", range(1, 4))
def test_residue_factorization_vs_direct_limit(n):
    for m in range(n + 1):
        X = generic_slots(n)
        lhs = igusa_B_residue(n, m, -1, GENERIC_Z, X)
        rhs = igusa_B_residue_limit(n, m, -1, GENERIC_Z, X)
        assert lhs == rhs


def test_residue_edge_cases():
    # m = n: empty type-A factor; m = 0: trivial truncated type-B factor
    n = 2
    X = generic_slots(n)
    for m in (0, n):
        assert igusa_B_residue(n, m, -1, GENERIC_Z, X) == igusa_B_residue_limit(
            n, m, -1, GENERIC_Z, X
        )


@pytest.mark.parametrize("n", range(0, 6))
@pytest.mark.parametrize(
    "y, Z",
    [(-1, GENERIC_Z), (2, Poly.monomial(-1, -5, 1)), (0, Poly.monomial(1, 0, 3))],
    ids=["generic", "negative", "flat"],
)
def test_residue_limits_from_one_run_match_each_per_m_sum(n, y, Z):
    # one descent sum on marker slots, read back at n + 1 slot substitutions,
    # against one descent sum per substitution
    X = generic_slots(n)
    descent, limits = residue_limits(n, y, Z, X)
    assert descent == signed_descent_sum(n, y, Z, X)
    assert len(limits) == n
    for m, limit in enumerate(limits):
        want = igusa_B_residue_limit(n, m, y, Z, X)
        assert dict(limit.num.terms) == dict(want.num.terms), m
        assert dict(limit.den) == dict(want.den), m


@pytest.mark.parametrize("n", range(0, 9))
def test_descent_markers_decode_inside_the_base_bounds(n):
    # every term's base y l + e_q(Z) neg, read off the marker exponent, lies
    # in [lo, hi], so that no base spills into the mask bits
    from heiszeta.verify import _base_bounds, _descent_by_mask

    for y, Z in [(-1, GENERIC_Z), (1, Poly.monomial(1, -7, 1))]:
        lo, hi = _base_bounds(n, y, Z)
        by_mask = _descent_by_mask(n, y, Z)
        assert 0 in by_mask and max(by_mask) < 1 << n
        bases = [base for terms in by_mask.values() for base, _ in terms]
        assert lo <= min(bases) and max(bases) <= hi, (lo, hi)


def test_residue_limits_guard_and_arity():
    with pytest.raises(SizeGuard):
        residue_limits(9, -1, GENERIC_Z, generic_slots(9))
    with pytest.raises(UsageError):
        residue_limits(3, -1, GENERIC_Z, generic_slots(4))


@pytest.mark.parametrize("k", range(5))
def test_type_B_triangular_specialization(k):
    # truncated-B_k(q^-1, Z; q^{(k(k+1)-r(r+1))/2}) = (-q^{1-k} Z; q^2)_k / (q; q^2)_k
    X = [((k * (k + 1) - r * (r + 1)) // 2, 0) for r in range(k)]
    lhs = igusa_B(k, -1, GENERIC_Z, X)
    num = qpochhammer(Poly.monomial(-1, 1 - k) * GENERIC_Z, 2, k)
    den = qpochhammer_factors((1, 0), 2, k)
    rhs = FR(num, {kk: den.count(kk) for kk in set(den)})
    assert lhs == rhs


# ---------------------------------------------------------------------------
# E coefficients
# ---------------------------------------------------------------------------


def _row(E, t):
    """e^(t): the coefficient of T^t in E, a Laurent polynomial in q."""
    return Poly({(eq, 0): c for (eq, et), c in E.terms.items() if et == t})


def test_fibre_E_example_fixture():
    E = fibre_E(2, 2)
    assert _row(E, 0) == Poly.one()
    assert _row(E, 1) == Poly({(-2, 0): 1, (-1, 0): 1})
    assert _row(E, 2) == Poly.monomial(1, -3, 0)
    assert t_degree(E) == 2


def test_fibre_E_outside_support():
    assert fibre_E(2, 7).is_zero()
    assert fibre_E(2, -1).is_zero()
    assert fibre_E(0, 0) == Poly.one()


def test_fibre_E_constant_term_one():
    for k in range(5):
        for r in range(2 * k + 2):
            E = fibre_E(k, r)
            assert _row(E, 0) == Poly.one()
            assert t_degree(E) == k


@pytest.mark.parametrize("k", range(5))
def test_top_coefficient(k):
    for r in range(2 * k + 4):
        rp = 2 * k + 3 - r
        if not 0 <= r <= 2 * (k + 1) + 1:
            continue
        E = fibre_E(k + 1, r)
        assert _row(E, k + 1) == Poly.monomial(1, r * rp // 2 - (k + 1) * (k + 2), 0)


def _A_r(r):
    # (1 - q^{r-1})(q^{-r} - 1)
    return Poly.one_minus(r - 1, 0) * (Poly.monomial(1, -r, 0) - Poly.one())


@pytest.mark.parametrize("k", range(6))
def test_pieri_relations(k):
    for r in range(2 * k + 4):
        rp = 2 * k + 3 - r
        for t in range(k + 3):
            lhs = epsilon_kr(k + 1, r, t)
            assert lhs == epsilon_kr(k, r, t) + epsilon_kr(k, r, t - 1).shift(
                dq=1 - rp
            )
            assert lhs == epsilon_kr(k, rp, t) + epsilon_kr(k, rp, t - 1).shift(
                dq=1 - r
            )


def _e(k, r, t):
    return _row(fibre_E(k, r), t)


@pytest.mark.parametrize("k", range(6))
def test_cross_difference_identity(k):
    for r in range(-1, 2 * k + 5):
        rp = 2 * k + 3 - r
        for t in range(k + 1):
            lhs = Poly.one_minus(1 - rp, 1) * _A_r(rp) * _e(k, r, t)
            lhs = lhs - Poly.one_minus(1 - r, 1) * _A_r(r) * _e(k, rp, t)
            d = Poly.monomial(1, -rp, 0) - Poly.monomial(1, -r, 0)
            part = (
                Poly.monomial(1, 2 * t, 0) - Poly.monomial(1, 2 * k + 2, 0)
            ) * _e(k + 1, r, t)
            part = part + (
                Poly.monomial(1, 2 * t + 2, 0) - Poly.one()
            ) * _e(k + 1, r, t + 1).shift(dt=1)
            assert lhs == d * part


# ---------------------------------------------------------------------------
# fibre sums and the coset model
# ---------------------------------------------------------------------------


def test_fibre_I_base_cases():
    n = 3
    X = generic_slots(n)
    base = igusa_A(n, -2, X)
    assert fibre_I(n, 0, 0, X) == base
    assert fibre_I(n, 0, 1, X) == base
    assert fibre_I(n, 0, 5, X).is_zero()


@pytest.mark.parametrize("k", (-1, 4))
def test_the_coset_and_fibre_helpers_refuse_k_outside_0_to_n(k):
    # n = 3, with the n - k trailing slots that the arity check asks for: at
    # k = -1 that is n + 1 slots, which fibre_I once accepted
    X = generic_slots(max(3 - k, 0))
    calls = (lambda: coset_stats((1, 2, 3), k), lambda: fibre_I(3, k, 0, X),
             lambda: fibre_K(3, k, 0, X))
    for call in calls:
        with pytest.raises(UsageError, match=r"k must be in 0\.\.n"):
            call()


def test_fibre_K_terminal_case():
    # K_n^{n,r} = [n]_{q^2}!
    from heiszeta.verify import _qsquare_factorial

    for n in (1, 2, 3):
        for r in range(n + 1):
            assert fibre_K(n, n, r, []) == _qsquare_factorial(n)


def test_fibre_K_base_is_descent_sum():
    # K_n^{0,0} = sum over S_n of q^{-2 l(g)} X^{Des(g)}
    from heiszeta.verify import descent_set
    from reference import perms

    n = 3
    X = generic_slots(n)
    expect = Poly.zero()
    for g in perms(n):
        term = Poly.monomial(1, -2 * inversions(g), 0)
        for j in descent_set(g):
            term = term * Poly.monomial(1, *X[j - 1])
        expect = expect + term
    assert fibre_K(n, 0, 0, X) == expect


def test_fibre_K_example_422():
    X3, X4 = generic_slots(2)
    K = fibre_K(4, 2, 2, [X3, X4])
    x3 = Poly.monomial(1, *X3)
    expect = Poly({(0, 0): 1, (2, 0): 1})
    expect = expect + Poly({(-6, 0): 1, (-5, 0): 1, (-4, 0): 1, (-3, 0): 1}).shift(dt=1)
    expect = expect + Poly({(-13, 0): 1, (-11, 0): 2, (-9, 0): 2, (-7, 0): 1}).shift(dt=2)
    expect = expect + Poly({(-6, 0): 1, (-4, 0): 2, (-2, 0): 2, (0, 0): 1}) * x3
    expect = expect + Poly({(-10, 0): 1, (-9, 0): 1, (-8, 0): 1, (-7, 0): 1}).shift(dt=1) * x3
    expect = expect + Poly({(-15, 0): 1, (-13, 0): 1}).shift(dt=2) * x3
    assert K == expect


def test_fibre_prefactor_example():
    # P_{2,2} = q^2 / ((1-q)(1-q^3))
    assert fibre_prefactor(2, 2) == FR(
        Poly.monomial(1, 2, 0), {(1, 0): 1, (3, 0): 1}
    )


@pytest.mark.parametrize("k", (0, 1, 2))
def test_fibre_prefactor_outside_the_fibres_is_integral(k):
    # (-q)^r keeps integer coefficients at r < 0, and P stays nonzero outside
    # [2k+1]_0, where the empty-fibre check relies on it
    for r in (-1, 2 * k + 2):
        P = fibre_prefactor(k, r)
        assert P.num.terms and all(type(c) is int for c in P.num.terms.values())


def test_fibre_example_422_full():
    X3, X4 = generic_slots(2)
    lhs = fibre_I(4, 2, 2, [X3, X4])
    den = {
        (1, 0): 1,
        (3, 0): 1,
        (-2, 1): 1,
        (-1, 1): 1,
        X3: 1,
        X4: 1,
    }
    rhs = FR(fibre_K(4, 2, 2, [X3, X4]).shift(dq=2), den)
    assert lhs == rhs


@pytest.mark.parametrize("n", (1, 2, 3))
def test_I_equals_K_all_fibres(n):
    for k in range(n + 1):
        for r in range(2 * k + 2):
            check_I_equals_K(n, k, r)


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_mirrored_fibre_has_the_same_operands(n):
    # verify --checks fibre proves r <= k only: r and 2k+1-r must give the
    # same fibre sum, coset model, prefactor and E
    for k in range(n + 1):
        X = generic_slots(n - k)
        for r in range(k + 1):
            rp = 2 * k + 1 - r
            assert fibre_I(n, k, r, X) == fibre_I(n, k, rp, X)
            assert fibre_K(n, k, r, X) == fibre_K(n, k, rp, X)
            P, Pp = fibre_prefactor(k, r), fibre_prefactor(k, rp)
            assert (P.num, P.den) == (Pp.num, Pp.den)
            assert fibre_E(k, r) == fibre_E(k, rp)


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5))
def test_fibre_K_equals_the_coset_loop(n):
    for k in range(n + 1):
        X = generic_slots(n - k)
        for r in range(2 * k + 4):
            assert fibre_K(n, k, r, X).terms == fibre_K_by_cosets(n, k, r, X).terms


def test_I_equals_K_out_of_range_vacuous():
    # E_{1,7} is zero, and with it both sides of the identity
    assert fibre_E(1, 7).is_zero() and fibre_K(2, 1, 7, generic_slots(1)).is_zero()
    check_I_equals_K(2, 1, 7)


@pytest.mark.parametrize("r", [1, 6], ids=["fibre", "empty"])
def test_I_equals_K_fails_on_a_perturbed_K(r, monkeypatch):
    # one extra monomial in the coset model must break the identity, both
    # where the slot factors sit in the right side's denominator and where
    # the fibre is empty (k = 2 has fibres r = 0 .. 5)
    from heiszeta import verify

    real = verify.fibre_K
    check_I_equals_K(4, 2, r)
    monkeypatch.setattr(
        verify, "fibre_K", lambda *args: real(*args) + Poly.monomial(1, 3, 2)
    )
    with pytest.raises(IdentityMismatch):
        check_I_equals_K(4, 2, r)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_I_recursion(n):
    # two-term recursion relating level k+1 to level k
    for k in range(n):
        for r in range(2 * k + 4):
            rp = 2 * k + 3 - r
            Xt = generic_slots(n - k - 1)
            lhs = fibre_I(n, k + 1, r, Xt)
            slot = Y_slot(k + 1, r)
            terms = [
                fibre_I(n, k, u, [slot] + list(Xt))
                * FR.one_over([(2 * k + 1 - 2 * u, 0)])
                for u in (r, rp)
            ]
            assert lhs == FR.sum(terms)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_K_block_recursion(n):
    for k in range(n):
        for r in range(2 * k + 4):
            rp = 2 * k + 3 - r
            Xt = generic_slots(n - k - 1)
            slot = Y_slot(k + 1, r)
            lhs = fibre_K(n, k + 1, r, Xt)
            Kr = fibre_K(n, k, r, [slot] + list(Xt))
            Krp = fibre_K(n, k, rp, [slot] + list(Xt))
            num = Poly.one_minus(1 - rp, 1) * _A_r(rp) * Kr
            num = num - Poly.one_minus(1 - r, 1) * _A_r(r) * Krp
            d = Poly.monomial(1, -rp, 0) - Poly.monomial(1, -r, 0)
            d = d * Poly.one_minus(2, 0) * Poly.one_minus(*slot)
            assert lhs * d == num


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_terminal_E_product(n):
    # E_{n,r}(T) = (-q^{r-2n} T; q^2)_{n-r} (-q^{-r} T; q)_r
    for r in range(n + 1):
        rhs = (
            qpochhammer(Poly.monomial(-1, r - 2 * n, 1), 2, n - r)
            * qpochhammer(Poly.monomial(-1, -r, 1), 1, r)
        )
        assert fibre_E(n, r) == rhs


def test_generic_markers_can_collide():
    # 101 + 211 = 307 + 5: two distinct monomials in the slots meet after the
    # substitution, so an equality on generic slots is evidence, not a proof
    x1, x2, x3 = (Poly.monomial(1, *x) for x in generic_slots(3))
    assert x1 * x2 == Poly.monomial(1, 5, 1) * x3 == Poly.monomial(1, 312, 2)

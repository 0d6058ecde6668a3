"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) and enforces the stated runtime bound where one is given.  All
comparisons are exact.

Criterion 15 asserts that the zeta function of h_5 has a double pole at
s = 4, an order pole_analysis computes as an identity in q, and confirms it
from the hyperoctahedral form at q = 2, 3 and 5 by synthetic division over
the rationals, independently of zeta_compact.
"""

import time
from fractions import Fraction

import pytest

from heiszeta.combinat import partitions_up_to
from heiszeta.counts import birkhoff_alpha, nprime_closed
from heiszeta.exactalg import (
    BivariatePolynomial as Poly,
    FactoredRational as FR,
    _t_low,
    qpochhammer,
)
from heiszeta.igusa import igusa_A, igusa_B
from heiszeta.oracle import (
    check_factorization,
    enum_lagrangians,
    enum_subalgebras,
    enum_sublattices,
)
from heiszeta.verify import (
    GENERIC_Z,
    _reduced_eulerian,
    check_I_equals_K,
    fibre_E,
    fibre_K,
    funeq_check,
    generic_slots,
    igusa_B_residue,
    pole_analysis,
    reduced_c,
    reduced_cone_series,
)
from heiszeta.zeta import (
    c_exponents,
    dirichlet_coeffs,
    global_factor_eval,
    reduced_zeta,
    zeta_igusa_sum,
    zeta_compact,
    zeta_hyperoctahedral,
)
from reference import igusa_B_descent, igusa_B_residue_limit, lemma_global_bound
from reference import qpochhammer_factors


class Criterion:
    def __init__(self, number, description, bound_seconds=None):
        self.number = number
        self.description = description
        self.bound = bound_seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(
            "ACCEPTANCE %2d: %s (%.2fs) - %s"
            % (self.number, status, elapsed, self.description)
        )
        if exc_type is None and self.bound is not None:
            assert elapsed < self.bound, (
                "criterion %d exceeded %.0fs" % (self.number, self.bound)
            )
        return False


N1_FORM = FR(
    Poly.one_minus(3, 3), {(0, 1): 1, (1, 1): 1, (2, 2): 1, (3, 2): 1}
)


def eval_at(poly, q):
    vals = poly.eval_q(q)
    assert set(vals) <= {0}
    return vals.get(0, 0)


def test_criterion_01_n1_closed_form():
    with Criterion(1, "n=1 closed form, three ways", 1.0):
        assert zeta_igusa_sum(1) == N1_FORM
        assert zeta_compact(1) == N1_FORM
        assert zeta_hyperoctahedral(1) == N1_FORM


def test_criterion_02_n2_closed_form():
    with Criterion(2, "n=2 closed form display", 5.0):
        b = zeta_compact(2)
        assert b.num == Poly(
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
        assert b.den == {
            (0, 1): 1,
            (1, 1): 1,
            (2, 1): 1,
            (3, 1): 1,
            (4, 3): 1,
            (6, 3): 1,
            (7, 3): 1,
        }
        assert _t_low(b.num.terms) == 0


def test_criterion_03_n3_closed_form():
    with Criterion(3, "n=3 closed form, all 40 numerator terms", 60.0):
        b = zeta_compact(3)
        m3 = {
            (0, 0): 1,
            (7, 4): 1, (8, 4): 1, (9, 4): 1, (10, 4): 1,
            (7, 5): -1, (8, 5): -1, (9, 5): -2, (10, 5): -2,
            (11, 5): -2, (12, 5): -2, (13, 5): -1, (14, 5): -1,
            (10, 6): 1, (11, 6): 1, (12, 6): 1, (13, 6): 1,
            (14, 6): 1, (15, 6): 1,
            (15, 7): -1,
            (17, 8): 1,
            (17, 9): -1, (18, 9): -1, (19, 9): -1, (20, 9): -1,
            (21, 9): -1, (22, 9): -1,
            (18, 10): 1, (19, 10): 1, (20, 10): 2, (21, 10): 2,
            (22, 10): 2, (23, 10): 2, (24, 10): 1, (25, 10): 1,
            (22, 11): -1, (23, 11): -1, (24, 11): -1, (25, 11): -1,
            (32, 15): -1,
        }
        assert b.num == Poly({(eq, et): c for (eq, et), c in m3.items()})
        assert b.den == {
            **{(i, 1): 1 for i in range(6)},
            (6, 4): 1,
            (9, 4): 1,
            (11, 4): 1,
            (12, 4): 1,
        }


def test_criterion_04_cross_form_identity():
    with Criterion(4, "A = B = C for n in {1,2,3,4}", 600.0):
        for n in (1, 2, 3, 4):
            a, b, c = zeta_igusa_sum(n), zeta_compact(n), zeta_hyperoctahedral(n)
            assert a == b, n
            assert b == c, n


def test_criterion_05_functional_equation():
    with Criterion(5, "functional equation for n in 1..6", 120.0):
        for n in range(1, 7):
            assert funeq_check(n) == "-q^%d T^%d" % ((2 * n + 1) * n, 2 * n + 1)


def test_criterion_06_lagrangian_oracle():
    with Criterion(6, "N'(mu) vs oracle, |mu| <= 3, p in {2,3}", 300.0):
        spot = enum_lagrangians((1,), 2)
        assert sum(spot.values()) == 3
        assert sum(enum_lagrangians((1, 1), 2).values()) == 15
        for p in (2, 3):
            for mu in partitions_up_to(3, 3):
                total = sum(enum_lagrangians(mu, p).values())
                expect = eval_at(nprime_closed(mu.padded(max(1, len(mu)))), p)
                assert total == expect, (mu, p)


def test_criterion_07_factorization():
    with Criterion(7, "N = N' x Birkhoff entrywise, n in {1,2}", 900.0):
        for p in (2, 3):
            rows = check_factorization(1, p, 3)
            assert rows and all(r["ok"] for r in rows)
            rows = check_factorization(2, p, 2)
            assert rows and all(r["ok"] for r in rows)


def test_criterion_08_aggregation():
    with Criterion(8, "sum over mu recovers the rank-2n Birkhoff number"):
        for n, maxval in ((1, 3), (2, 2)):
            for p in (2, 3):
                table = enum_sublattices(n, p, maxval)
                for lam in {l for l, _ in table}:
                    total = sum(c for (l2, _), c in table.items() if l2 == lam)
                    assert total == eval_at(birkhoff_alpha(lam, 2 * n), p)


def test_criterion_09_dirichlet_coefficients():
    with Criterion(9, "subalgebra counts match series coefficients", 600.0):
        counts2 = enum_subalgebras(1, 2, 2)
        assert counts2 == [1, 3, 19]
        assert counts2 == dirichlet_coeffs(1, 2, 2)
        counts3 = enum_subalgebras(1, 3, 1)
        assert counts3 == [1, 4]
        assert counts3 == dirichlet_coeffs(1, 3, 1)


def test_criterion_10_fibre_machinery():
    with Criterion(10, "fibre fixtures and the coset-model identity"):
        # e^(0) = 1, e^(1) = q^-2 + q^-1, e^(2) = q^-3
        assert fibre_E(2, 2) == Poly({(0, 0): 1, (-2, 1): 1, (-1, 1): 1, (-3, 2): 1})
        X3, X4 = generic_slots(2)
        K = fibre_K(4, 2, 2, [X3, X4])
        x3 = Poly.monomial(1, *X3)
        expect = Poly({(0, 0): 1, (2, 0): 1})
        expect = expect + Poly(
            {(-6, 0): 1, (-5, 0): 1, (-4, 0): 1, (-3, 0): 1}
        ).shift(dt=1)
        expect = expect + Poly(
            {(-13, 0): 1, (-11, 0): 2, (-9, 0): 2, (-7, 0): 1}
        ).shift(dt=2)
        expect = expect + Poly({(-6, 0): 1, (-4, 0): 2, (-2, 0): 2, (0, 0): 1}) * x3
        expect = expect + Poly(
            {(-10, 0): 1, (-9, 0): 1, (-8, 0): 1, (-7, 0): 1}
        ).shift(dt=1) * x3
        expect = expect + Poly({(-15, 0): 1, (-13, 0): 1}).shift(dt=2) * x3
        assert K == expect
        for n in (1, 2, 3):
            for k in range(n + 1):
                for r in range(2 * k + 2):
                    check_I_equals_K(n, k, r)
        check_I_equals_K(4, 2, 2)


def test_criterion_11_type_B_layer():
    with Criterion(11, "type-B subset expansion and residue identities"):
        Z = GENERIC_Z
        for n in (1, 2, 3, 4):
            X = generic_slots(n + 1)
            assert igusa_B_descent(n, -1, Z, X) == igusa_B(n, -1, Z, X), n
        for n in (1, 2, 3):
            for m in range(n + 1):
                X = generic_slots(n)
                assert igusa_B_residue(n, m, -1, Z, X) == igusa_B_residue_limit(
                    n, m, -1, Z, X
                ), (n, m)
        # residue identity: L_{n,m} = (T;q)_{2n} A_m(T) at the zeta slots
        for n in (1, 2, 3, 4):
            c = c_exponents(n)
            for m in range(n + 1):
                X = [(c[i] - c[m], 0) for i in range(n + 1) if i != m]
                L = igusa_B_residue(n, m, -1, Poly.monomial(-1, n, 1), X)
                num = Poly.monomial((-1) ** (n - m), n - m, 0)
                num = num * Poly.one_minus(2 * m + 1, 0)
                for i in range(n):
                    num = num * Poly.one_minus(2 * i + 2, 0)
                rhs = FR(num) * FR.one_over(
                    [(1 + i, 0) for i in range(n + m + 1)]
                    + [(1 + i, 0) for i in range(n - m)]
                    + [(n - m + 2 * i, 1) for i in range(m)]
                    + [(n + m + i, 1) for i in range(n - m)]
                )
                for i in range(2 * n):
                    rhs = rhs * Poly.one_minus(i, 1)
                assert L == rhs, (n, m)


def test_criterion_12_q_hypergeometric_specializations():
    with Criterion(12, "triangular specializations of both Igusa types"):
        uq, ut = 97, 2
        for n in range(5):
            X = [(-(r * (r + 1) // 2) + uq * r, ut * r) for r in range(1, n + 1)]
            lhs = igusa_A(n, -1, X)
            num = qpochhammer(Poly.monomial(-1, uq - 1, ut), -1, n)
            den = qpochhammer_factors((2 * uq - 2, 2 * ut), -1, n)
            assert lhs == FR(num, {k: den.count(k) for k in set(den)}), n
        Z = GENERIC_Z
        for k in range(5):
            X = [((k * (k + 1) - r * (r + 1)) // 2, 0) for r in range(k)]
            lhs = igusa_B(k, -1, Z, X)
            num = qpochhammer(Poly.monomial(-1, 1 - k) * Z, 2, k)
            den = qpochhammer_factors((1, 0), 2, k)
            assert lhs == FR(num, {kk: den.count(kk) for kk in set(den)}), k


def test_criterion_13_reduced_zeta():
    with Criterion(13, "reduced zeta displays, oracle, reciprocity, c_n"):
        assert reduced_zeta(1) == FR(
            Poly({(0, 0): 1, (0, 1): 1, (0, 2): 1}), {(0, 1): 1, (0, 2): 2}
        )
        r2 = reduced_zeta(2)
        assert r2.num == Poly(
            {(0, k): c for k, c in enumerate([1, 2, 3, 5, 3, 2, 1])}
        )
        assert r2.den == {(0, 1): 2, (0, 3): 3}
        r3 = reduced_zeta(3)
        assert r3.num == Poly(
            {
                (0, k): c
                for k, c in enumerate(
                    [1, 3, 6, 10, 19, 21, 22, 21, 19, 10, 6, 3, 1]
                )
            }
        )
        for n in range(9):
            assert reduced_zeta(n) == _reduced_eulerian(n), n
        for n in range(1, 6):
            f = reduced_zeta(n)
            series = [c.coefficient(0, 0) for c in f.series_in_T(10)]
            assert series == reduced_cone_series(n, 10), n
            lhs = f.subs_inverse()
            rhs = FR(f.num.scaled(-1).shift(dt=2 * n + 1), f.den)
            assert lhs == rhs, n
        assert reduced_c(1) == Fraction(3, 4)
        assert reduced_c(2) == Fraction(17, 27)
        assert reduced_c(3) == Fraction(71, 128)


def test_criterion_14_global_factors():
    with Criterion(14, "global Euler-factor rows and the degree bound"):
        assert global_factor_eval(1) == Poly({(0, 0): 1, (-3, 0): -1})
        row2 = {0: 1, -7: 1, -8: -1, -9: -1, -10: -1, -11: -1, -12: 1, -19: 1}
        assert global_factor_eval(2) == Poly({(e, 0): c for e, c in row2.items()})
        row3 = global_factor_eval(3)
        displayed = {
            0: 1, -14: 1, -15: 1, -18: -2, -19: -2, -20: -2, -21: -1,
            -24: 1, -25: 1, -26: 1, -27: -1, -31: 1,
        }
        for e, c in displayed.items():
            assert row3.coefficient(e, 0) == c, e
        for e in range(-13, 0):
            assert row3.coefficient(e, 0) == 0, e
        assert min(eq for (eq, _) in row3.terms) == -58
        assert row3.coefficient(-58, 0) == -1
        for n in range(1, 6):
            val, argmax = lemma_global_bound(n)
            assert val == -(3 * n * n - n + 4) // 2, n
            assert argmax == ((-1,) if n == 1 else (2, 1) + tuple(range(3, n + 1)))


def _root_order(coeffs, root):
    """Multiplicity of ``root`` as a zero of sum(coeffs[k] * T^k).

    Synthetic division by (T - root) over Fraction, repeated while the
    remainder is zero.
    """
    order = 0
    while True:
        acc = Fraction(0)
        quot = []
        for c in reversed(coeffs):
            acc = acc * root + c
            quot.append(acc)
        if quot.pop():
            return order
        coeffs = quot[::-1]
        order += 1


def _pole_order_hyperoctahedral(n, p, s):
    """Order of the pole of zeta_hyperoctahedral(n) at q = p, T = p^-s.

    Each denominator factor (1 - p^a T^b)^m contributes m times its root
    order; the numerator's root order is subtracted.
    """
    f = zeta_hyperoctahedral(n)
    root = Fraction(1, p**s)
    num = [Fraction(0)] * (1 + max(et for (_, et) in f.num.terms))
    for (eq, et), c in f.num.terms.items():
        num[et] += c * Fraction(p) ** eq
    order = -_root_order(num, root)
    for (a, b), m in f.den.items():
        factor = [Fraction(0)] * (b + 1)
        factor[0] += 1
        factor[b] -= Fraction(p) ** a
        order += m * _root_order(factor, root)
    return order


def test_criterion_15_pole_analysis():
    with Criterion(15, "pole locations and orders for n <= 6, exact in q"):
        # locations lie in the candidate sets: enforced inside pole_analysis
        orders = {n: pole_analysis(n) for n in range(1, 7)}
        assert orders[3][3] == 2
        # h_5 has a double pole at s = 4 (m(m+1) = 4n for m = 4); a
        # coincidence of candidates alone would not settle the order, so it
        # is recomputed below from the hyperoctahedral form.
        assert orders[5][4] == 2
        double = {(3, Fraction(3)), (5, Fraction(4))}
        for n, rep in orders.items():
            for s, order in rep.items():
                if (n, s) not in double:
                    assert order == 1, (n, s, order)
        # The same order from the hyperoctahedral form at q = p, independently
        # of zeta_compact, against the order pole_analysis computes in q.
        for p in (2, 3, 5):
            assert _pole_order_hyperoctahedral(5, p, 4) == orders[5][4] == 2, p

import pytest

from heiszeta import counts
from heiszeta.combinat import Partition, partitions_up_to
from heiszeta.counts import birkhoff_alpha, birkhoff_number, n_aggregate, nprime_closed
from heiszeta.errors import HeiszetaError, IdentityMismatch, UsageError
from heiszeta.exactalg import BivariatePolynomial as Poly
from reference import difference_vector, gauss_multinom, nprime_recursive


def eval_at(poly, q):
    vals = poly.eval_q(q)
    assert set(vals) <= {0}
    return vals.get(0, 0)


# ---------------------------------------------------------------------------
# Birkhoff numbers
# ---------------------------------------------------------------------------


def test_birkhoff_trivial_cases():
    assert birkhoff_alpha(Partition(()), 3) == Poly.one()
    assert birkhoff_alpha(Partition((5,)), 1) == Poly.one()


def test_birkhoff_rank_two():
    assert birkhoff_alpha(Partition((1,)), 2) == Poly({(0, 0): 1, (1, 0): 1})
    # index-q^2 sublattices with cyclic quotient: q^2 + q
    assert birkhoff_alpha(Partition((2,)), 2) == Poly({(1, 0): 1, (2, 0): 1})
    assert birkhoff_alpha(Partition((1, 1)), 2) == Poly.one()


def test_birkhoff_rank_mismatch():
    with pytest.raises(UsageError):
        birkhoff_alpha(Partition((1, 1, 1)), 2)


def test_birkhoff_depends_on_padding_rank():
    a1 = birkhoff_alpha(Partition((1,)), 1)
    a2 = birkhoff_alpha(Partition((1,)), 2)
    assert a1 != a2


def test_birkhoff_base_exponent_two_is_square_substitution():
    for mu in partitions_up_to(3, 3):
        base1 = birkhoff_alpha(mu, 3, base_exponent=1)
        base2 = birkhoff_alpha(mu, 3, base_exponent=2)
        doubled = Poly({(2 * eq, et): c for (eq, et), c in base1.terms.items()})
        assert base2 == doubled


def test_birkhoff_counts_sublattices_directly():
    # oracle: index-p sublattices of Z^n of quotient type (1) number
    # 1 + p + ... + p^{n-1}
    for n in (2, 3, 4):
        poly = birkhoff_alpha(Partition((1,)), n)
        for p in (2, 3):
            assert eval_at(poly, p) == sum(p**i for i in range(n))


def _birkhoff_support(mu, n, base_exponent):
    """Support form q^{d . rho'} binom(n, Supp^+(d))_Y of the Birkhoff
    number, Y = q^-base, d the difference vector and rho'_k = k(n - k)."""
    d = difference_vector(mu, n)
    exp = sum(dk * k * (n - k) for k, dk in enumerate(d, start=1))
    supp = [i for i in range(1, n) if d[i - 1] > 0]
    return gauss_multinom(n, supp, -base_exponent).shift(dq=base_exponent * exp)


# birkhoff_alpha computes the multiplicity form; compare it with the support
# form over a spread of shapes
@pytest.mark.parametrize("n", range(1, 6))
def test_birkhoff_forms_agree(n):
    for mu in partitions_up_to(6, n):
        for base in (1, 2):
            support = _birkhoff_support(mu, n, base)
            assert birkhoff_alpha(mu, n, base) == support, (mu, base)


@pytest.mark.parametrize("n", range(5))
def test_birkhoff_number_is_the_polynomial_at_q(n):
    for mu in partitions_up_to(6, n):
        for base in (1, 2):
            poly = birkhoff_alpha(mu, n, base)
            for p in (2, 3, 5):
                assert birkhoff_number(mu, n, p**base) == eval_at(poly, p), (mu, base, p)


def test_birkhoff_number_refuses_a_bad_rank_or_q():
    with pytest.raises(UsageError):
        birkhoff_number(Partition((1, 1, 1)), 2, 9)
    with pytest.raises(UsageError):
        birkhoff_number(Partition((1,)), 2, 1)


def test_birkhoff_number_refuses_what_is_not_a_polynomial(monkeypatch):
    # a wrong multiplicity form shows as an inexact quotient or a negative
    # q-exponent, and raises a package error, not an assert
    with pytest.raises(IdentityMismatch):
        counts._exact_quotient(7, 3)
    assert counts._exact_quotient(12, 3) == 4
    monkeypatch.setattr(counts, "_multiplicity_form", lambda mu, n: (-1, [(2, 1)]))
    with pytest.raises(HeiszetaError, match="negative"):
        birkhoff_number(Partition((1,)), 2, 2)


# ---------------------------------------------------------------------------
# N'
# ---------------------------------------------------------------------------


def test_nprime_fixtures():
    assert nprime_closed(()) == Poly.one()
    for a in range(5):
        expect = Poly({(i, 0): 1 for i in range(a + 1)})
        assert nprime_closed((a,)) == expect
    assert nprime_closed((1, 1)) == Poly({(i, 0): 1 for i in range(4)})


def test_nprime_two_row_display():
    # (1 - q^{1+a+b}(1+q+q^2) + q^{2+a+2b}(1+q+q^2) - q^{3+3b}) / ((1-q)(1-q^3))
    for a, b in [(1, 1), (2, 1), (3, 2), (2, 0)]:
        got = nprime_closed((a, b))
        num = Poly.one()
        tri = Poly({(0, 0): 1, (1, 0): 1, (2, 0): 1})
        num = num - tri.shift(dq=1 + a + b) + tri.shift(dq=2 + a + 2 * b)
        num = num - Poly.monomial(1, 3 + 3 * b, 0)
        quot = None
        from heiszeta.exactalg import divide_out_factor

        quot = divide_out_factor(num, 1, 0)
        quot = divide_out_factor(quot, 3, 0)
        assert quot == got


def test_nprime_recursive_examples():
    assert nprime_recursive((0, 0)) == Poly.one()
    assert nprime_recursive((1,)) == Poly({(0, 0): 1, (1, 0): 1})
    assert eval_at(nprime_recursive((2, 1)), 1) == 6


def test_nprime_accepts_compositions():
    assert nprime_recursive((1, 3, 0, 2)) == nprime_closed((3, 2, 1))


@pytest.mark.parametrize("parts", range(1, 5))
def test_nprime_closed_equals_recursive(parts):
    for mu in partitions_up_to(4 * parts, parts):
        padded = mu.padded(parts)
        closed = nprime_closed(padded)
        assert closed == nprime_recursive(padded)
        assert eval_at(closed, 1) == __import__("math").prod(
            m + 1 for m in padded
        )


def test_nprime_padding_invariance():
    for mu in [(2,), (2, 1), (3, 1, 1)]:
        base = nprime_closed(mu)
        assert nprime_closed(mu + (0,)) == base
        assert nprime_closed(mu + (0, 0)) == base


def test_nprime_oracle_values():
    assert eval_at(nprime_closed((1,)), 2) == 3
    assert eval_at(nprime_closed((1, 1)), 2) == 15


# ---------------------------------------------------------------------------
# aggregated count
# ---------------------------------------------------------------------------


def test_n_aggregate():
    assert n_aggregate(Partition(()), 2) == Poly.one()
    assert n_aggregate(Partition((1,)), 1) == Poly({(0, 0): 1, (1, 0): 1})
    got = n_aggregate(Partition((1,)), 2)
    expect = nprime_closed((1, 0)) * birkhoff_alpha(Partition((1,)), 2, 2)
    assert got == expect
    assert eval_at(got, 2) == 15  # all index-2 sublattices of Z^4 have type (1)

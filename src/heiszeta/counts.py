"""Closed-form counting polynomials.

Birkhoff numbers (sublattices of o^n of a given quotient type), the
Lagrangian count N'(mu) in closed form, and the aggregated lattice count
N(mu).
"""

from __future__ import annotations

from .combinat import Partition, gen_W, weight_C
from .errors import NonPolynomialReduction, RankMismatch
from .exactalg import BivariatePolynomial, FactoredRational, gauss_binom


def birkhoff_alpha(mu, n: int, base_exponent: int = 1) -> BivariatePolynomial:
    """Number of finite-index sublattices of o^n of quotient type mu, at q^base.

    Computed in the multiplicity form
    q^{<mu, 2 rho>} [n]_Y! / prod_j [m_j]_Y!  (Y = q^{-base}).  The tests
    compare it with the support form q^{d . rho'} binom(n, Supp^+(d))_Y.

    The result depends on the padding rank n, not only on the partition.
    """
    mu = Partition(mu)
    if mu.num_parts() > n:
        raise RankMismatch(
            "partition %s has more than n = %d parts" % (mu, n)
        )
    padded = mu.padded(n)
    y = -base_exponent

    # the multinomial [n]!/prod [m_j]! as nested binomials
    pairing = sum(p * (n - 2 * i + 1) for i, p in enumerate(padded, start=1))
    mults = [padded.count(j) for j in range(padded[0] + 1)] if padded else []
    multinom = BivariatePolynomial.one()
    upper = n
    for m in mults:
        if m:
            multinom = multinom * gauss_binom(upper, m, y)
            upper -= m
    return multinom.shift(dq=base_exponent * pairing)


def nprime_closed(mu) -> BivariatePolynomial:
    """Lagrangian count N'(mu) = sum over w of C(w) q^{w . mu}.

    mu may carry trailing zeros; the rank is the number of retained parts and
    the value is padding-independent.  The rational sum must reduce to a
    polynomial in q.
    """
    mu = tuple(mu)
    Partition(mu)  # ValueError on a negative or increasing part
    n = len(mu)
    terms = []
    for w in gen_W(n):
        dot = sum(wi * mi for wi, mi in zip(w, mu))
        terms.append(weight_C(w) * BivariatePolynomial.monomial(1, dot, 0))
    total = FactoredRational.sum(terms).reduced()
    if total.den or total.tshift:
        raise NonPolynomialReduction(
            "N'(%s) did not reduce to a polynomial" % (mu,)
        )
    return total.num


def n_aggregate(mu, n: int) -> BivariatePolynomial:
    """Lattice count N(mu) = N'(mu) * alpha_n(mu; q^2)."""
    mu = Partition(mu)
    return nprime_closed(mu.padded(n)) * birkhoff_alpha(mu, n, base_exponent=2)

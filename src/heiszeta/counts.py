"""Closed-form counting polynomials.

Birkhoff numbers (sublattices of o^n of a given quotient type), as a
polynomial and as an integer at a given q, the Lagrangian count N'(mu) in
closed form, and the aggregated lattice count N(mu).  The exact kernel is
imported only by the functions that build polynomials, so the integer
Birkhoff number, all that the factorization oracle needs, loads without it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .combinat import Partition, gen_W, weight_C
from .errors import IdentityMismatch, UsageError, check_limit

if TYPE_CHECKING:
    from .exactalg import BivariatePolynomial


def _multiplicity_form(mu, n: int) -> tuple[int, list[tuple[int, int]]]:
    """<mu, 2 rho> and the Gaussian binomials (N_j, m_j) of alpha_n(mu).

    m_j is the number of parts j of mu padded to n parts, N_j the parts not
    yet chosen: [n]!/prod_j [m_j]! = prod_j binom(N_j, m_j).  Raises
    UsageError when mu has more than n parts.
    """
    mu = Partition(mu)
    if len(mu) > n:
        raise UsageError(
            "partition %s has more than n = %d parts" % (mu, n)
        )
    padded = mu.padded(n)
    pairing = sum(p * (n - 2 * i + 1) for i, p in enumerate(padded, start=1))
    binoms = []
    upper = n
    for j in range(padded[0] + 1 if padded else 0):
        m = padded.count(j)
        if m:
            binoms.append((upper, m))
            upper -= m
    return pairing, binoms


def birkhoff_alpha(mu, n: int, base_exponent: int = 1) -> BivariatePolynomial:
    """Number of finite-index sublattices of o^n of quotient type mu, at q^base.

    Computed in the multiplicity form
    q^{<mu, 2 rho>} [n]_Y! / prod_j [m_j]_Y!  (Y = q^{-base}).  The tests
    compare it with the support form q^{d . rho'} binom(n, Supp^+(d))_Y.

    The result depends on the padding rank n, not only on the partition.
    """
    from .exactalg import BivariatePolynomial, gauss_binom

    pairing, binoms = _multiplicity_form(mu, n)
    multinom = BivariatePolynomial.one()
    for upper, m in binoms:
        multinom = multinom * gauss_binom(upper, m, -base_exponent)
    return multinom.shift(dq=base_exponent * pairing)


def birkhoff_number(mu, n: int, big_q: int) -> int:
    """alpha_n(mu) at the integer Q = big_q >= 2, as an int.

    birkhoff_alpha(mu, n, base) at q is birkhoff_number(mu, n, q**base).
    binom(N, m)_{1/Q} = Q^{-m(N-m)} binom(N, m)_Q and
    binom(N, m)_Q = prod_{i=1}^m (Q^{N-m+i} - 1) / (Q^i - 1), an exact
    quotient of integer products, so alpha_n(mu) = Q^e prod_j binom(N_j, m_j)_Q
    with e = <mu, 2 rho> - sum_j m_j (N_j - m_j).  An inexact quotient or a
    negative e would mean a wrong multiplicity form, and raises
    IdentityMismatch.
    """
    check_limit("birkhoff_number", "Q", big_q)
    pairing, binoms = _multiplicity_form(mu, n)
    value, exponent = 1, pairing
    for upper, m in binoms:
        num = den = 1
        for i in range(1, m + 1):
            num *= big_q ** (upper - m + i) - 1
            den *= big_q**i - 1
        value *= _exact_quotient(num, den)
        exponent -= m * (upper - m)
    if exponent < 0:
        raise IdentityMismatch(
            "alpha_%d(%s) has the negative q-exponent %d" % (n, Partition(mu), exponent)
        )
    return value * big_q**exponent


def _exact_quotient(num: int, den: int) -> int:
    """num / den, which must be an integer."""
    quot, rem = divmod(num, den)
    if rem:
        raise IdentityMismatch("%d is not a multiple of %d" % (num, den))
    return quot


def nprime_closed(mu) -> BivariatePolynomial:
    """Lagrangian count N'(mu) = sum over w of C(w) q^{w . mu}.

    mu may carry trailing zeros; the rank is the number of retained parts and
    the value is padding-independent.  The rational sum must reduce to a
    polynomial in q.
    """
    from .exactalg import BivariatePolynomial, FactoredRational

    mu = tuple(mu)
    Partition(mu)  # UsageError on a negative or increasing part
    n = len(mu)
    terms = []
    for w in gen_W(n):
        dot = sum(wi * mi for wi, mi in zip(w, mu))
        terms.append(weight_C(w) * BivariatePolynomial.monomial(1, dot, 0))
    total = FactoredRational.sum(terms).reduced()
    if total.den or any(et for _, et in total.num.terms):
        raise IdentityMismatch(
            "N'(%s) did not reduce to a polynomial" % (mu,)
        )
    return total.num


def n_aggregate(mu, n: int) -> BivariatePolynomial:
    """Lattice count N(mu) = N'(mu) * alpha_n(mu; q^2)."""
    mu = Partition(mu)
    return nprime_closed(mu.padded(n)) * birkhoff_alpha(mu, n, base_exponent=2)

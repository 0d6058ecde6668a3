"""What the crossform, fibre and residue checks share: the statistic sum
over the hyperoctahedral group B_n and the generic marker slots."""

from __future__ import annotations

from typing import Sequence

from ..errors import UsageError, check_limit
from ..exactalg import BivariatePolynomial, FactorKey, _p_iadd


def signed_descent_sum(
    n: int,
    y_exponent: int,
    Z: BivariatePolynomial,
    X: Sequence[FactorKey],
) -> BivariatePolynomial:
    """Sum over B_n of Y^l(g) Z^neg(g) prod_{i in Des_B(g)} X_i, Y = q^y_exponent.

    Z is one term, and X lists the descent slots X_0 .. X_{n-1}.  A dynamic
    program fills the window left to right; its state is the set U of
    absolute values placed so far and the last signed entry (0 before the
    first), at most 2^n * 2n states against 2^n n! group elements.  It uses
    l(g) = sum_j L_j + sum_{g(j) < 0} (1 + 2 E_j), with L_j and E_j the
    numbers of smaller absolute values after and before position j; this
    equals inv(window) + sum of |g(j)| over the negative entries.  Placing
    b outside U gives E = #{u in U : u < b} and L = b - 1 - E whatever the
    sign, and a descent at index k when the last entry exceeds the new one.
    """
    check_limit("signed_descent_sum", "n", n)
    if len(X) != n:
        raise UsageError("need the %d descent slots X_0 .. X_%d" % (n, n - 1))
    y, ((z_q, z_T), z) = y_exponent, _one_term(Z)
    layer: dict = {(0, 0): {(0, 0): 1}}
    for k in range(n):
        x_q, x_T = X[k]
        nxt: dict = {}
        for (used, last), poly in layer.items():
            below = 0
            for b in range(1, n + 1):
                bit = 1 << (b - 1)
                if used & bit:
                    below += 1
                    continue
                for v in (b, -b):
                    dq, dt, c = y * (b - 1 - below), 0, 1
                    if v < 0:
                        dq += y * (1 + 2 * below) + z_q
                        dt += z_T
                        c = z
                    if last > v:
                        dq += x_q
                        dt += x_T
                    _p_iadd(nxt.setdefault((used | bit, v), {}), poly, c, dq, dt)
        layer = nxt
    total: dict = {}
    for poly in layer.values():
        _p_iadd(total, poly)
    return BivariatePolynomial(total)


def _one_term(Z: BivariatePolynomial) -> tuple[FactorKey, int]:
    """((e_q, e_T), coefficient) of the one term of Z."""
    if len(Z.terms) != 1:
        raise UsageError("Z must be one term c q^a T^b, got %r" % Z)
    return next(iter(Z.terms.items()))


_GENERIC_PRIMES = (101, 211, 307, 401, 503, 601, 701, 809, 907, 1009)

# built once: generic_slots only slices it
_GENERIC_SLOTS = tuple((p, 1) for p in _GENERIC_PRIMES)

# The Z marker of the type-B checks: a prime q-exponent outside
# _GENERIC_PRIMES, at T^2 where every generic slot is at T^1.
GENERIC_Z = BivariatePolynomial.monomial(1, 977, 2)


def generic_slots(count: int) -> list[FactorKey]:
    """The first count of the slots q^P T with large distinct prime
    q-exponents P, as factor keys (P, 1); errors.LIMITS holds their number.

    Markers for identity testing.  The substitution is not injective on
    monomials: 101 + 211 = 307 + 5, so X_1 X_2 and q^5 T X_3 both become
    q^312 T^2.  Two sides that agree on these slots are strong evidence of
    an identity in free slots, not a proof.
    """
    check_limit("generic_slots", "count", count)
    return list(_GENERIC_SLOTS[:count])

"""Igusa-type generating functions.

Type-A Igusa functions (subset expansion with Gaussian multinomial
weights) and their type-B analogues over the hyperoctahedral group (subset
expansion).  The residues of the type-B functions at X_m -> 1 and the
fibre-sum machinery that collapses the 2^n-term zeta formula to n+1 terms
are second derivations, in ``heiszeta.verify``.

The slot count selects the variant.  Type A of degree n takes n - 1 slots
X_1 .. X_{n-1} (truncated), n slots X_1 .. X_n (plain) or n + 1 slots
X_0 .. X_n (augmented); type B takes n slots X_0 .. X_{n-1} (truncated)
or n + 1 slots X_0 .. X_n (full).  A slot whose index never changes the
weight of a subset (X_0 and X_n in type A, X_n in type B) contributes
X / (1 - X) + 1 = 1 / (1 - X), so the variants differ only in their
denominators: one subset sum runs over the other slots, and one slot
denominator prod (1 - X_i) over all of them serves every function here.
That subset sum is a recurrence over the least index chosen so far, O(m^2)
polynomial products for m slots; expanded term by term, each of the 2^m
subsets would cost one Gaussian multinomial and m products.

A slot X_i = q^a T^b is given as the key (a, b) of its factor 1 - X_i, so
the slot denominator is ``Counter(X)``; the Z of type B is a one-term
polynomial.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from .errors import UsageError, check_limit
from .exactalg import (
    BivariatePolynomial,
    FactoredRational,
    FactorKey,
    _p_iadd,
    _p_mul,
    gauss_binom,
    qpochhammer,
)


def _check_slots(kind: str, n: int, X: Sequence[FactorKey], least: int):
    """n >= 0, and X has least .. n + 1 slots."""
    check_limit("Igusa functions", "degree n", n)
    if not least <= len(X) <= n + 1:
        raise UsageError(
            "type %s of degree %d takes %d to %d slots, got %d"
            % (kind, n, least, n + 1, len(X))
        )


def _subset_sum(
    n: int,
    y_exponent: int,
    interior: Sequence[tuple[int, FactorKey]],
    X: Sequence[FactorKey],
    weight: Sequence[BivariatePolynomial] | None = None,
) -> FactoredRational:
    """Sum over I of binom(n, I)_Y w_d prod_{i in I} X_i / (1 - X_i).

    I runs over the subsets of the indices of interior, a list of (i, X_i)
    in increasing i; the denominator runs over all slots X.  weight, when
    given, lists w_d for d in [n]_0, taken at d = n - min(I + {n});
    otherwise w_d = 1.

    binom(n, I)_Y is the chain binom(n, i_l) binom(i_l, i_{l-1}) ..., so a
    walk over the slots from the largest index down only needs the least
    index u chosen so far (u = n before any choice).  Each state u holds the
    numerator summed over its partial subsets: skipping slot i multiplies it
    by 1 - X_i, and choosing i adds binom(u, i)_Y X_i times it to state i.
    That is O(m^2) products for m interior slots, not 2^m subsets.
    """
    states: dict[int, dict] = {n: {(0, 0): 1}}
    for i, (a, b) in reversed(interior):
        chosen: dict = {}
        for u, num in states.items():
            binom = gauss_binom(u, i, y_exponent).terms
            _p_iadd(chosen, _p_mul(binom, num), 1, a, b)  # choose i
            _p_iadd(num, dict(num), -1, a, b)  # skip i: times 1 - X_i
        states[i] = chosen
    num: dict = {}
    for u, terms in states.items():
        if weight is not None:
            terms = _p_mul(weight[n - u].terms, terms)
        _p_iadd(num, terms)
    # k equal slots give one factor of multiplicity k
    return FactoredRational(BivariatePolynomial(num), Counter(X))


def igusa_A(n: int, y_exponent: int, X: Sequence[FactorKey]) -> FactoredRational:
    """Type-A Igusa function of degree n on n - 1, n or n + 1 slots.

    Sum over I in [n-1] of binom(n, I)_Y prod_{i in I} X_i / (1 - X_i),
    over the denominators of all slots.
    """
    _check_slots("A", n, X, max(n - 1, 0))
    first = 1 if len(X) == n + 1 else 0
    return _subset_sum(n, y_exponent, list(zip(range(1, n), X[first:])), X)


# ---------------------------------------------------------------------------
# type-B Igusa functions
# ---------------------------------------------------------------------------


def igusa_B(
    n: int,
    y_exponent: int,
    Z: BivariatePolynomial,
    X: Sequence[FactorKey],
) -> FactoredRational:
    """Type-B Igusa function on n or n + 1 slots, by its subset expansion.

    Sum over I in [n-1]_0 of binom(n, I)_Y (-Y^n Z; Y^-1)_{n - min(I + {n})}
    prod_{i in I} X_i / (1 - X_i), over the denominators of all slots.
    """
    _check_slots("B", n, X, n)
    a0 = BivariatePolynomial.monomial(-1, y_exponent * n) * Z  # -Y^n Z
    weight = [qpochhammer(a0, -y_exponent, d) for d in range(n + 1)]
    return _subset_sum(n, y_exponent, list(enumerate(X[:n])), X, weight)

"""The residue check: the type-B Igusa function against the B_n descent sum
on the same slots, and its residues at X_m -> 1 in factored form against
the descent sum with slot m set to 1."""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from ..errors import UsageError, check_limit
from ..exactalg import (
    BivariatePolynomial,
    FactoredRational,
    FactorKey,
    _p_iadd,
    gauss_binom,
    qpochhammer,
)
from ..igusa import igusa_A, igusa_B
from .descent import GENERIC_Z, _one_term, generic_slots, signed_descent_sum


def igusa_B_residue(
    n: int,
    m: int,
    y_exponent: int,
    Z: BivariatePolynomial,
    X: Sequence[FactorKey],
) -> FactoredRational:
    """Residue of the full type-B Igusa function at X_m -> 1, factored form.

    X lists the n remaining slots X_0 .. X_{m-1}, X_{m+1} .. X_n.  Computed
    as binom(n, m)_Y (-Y^n Z; Y^-1)_{n-m} times the truncated type-B
    function of degree m times the plain type-A function of degree n - m.
    """
    if not 0 <= m <= n:
        raise UsageError("m must lie in [n]_0")
    if len(X) != n:
        raise UsageError("need the n slots other than X_m")
    head, tail = list(X[:m]), list(X[m:])
    a0 = BivariatePolynomial.monomial(-1, y_exponent * n) * Z  # -Y^n Z
    pref = gauss_binom(n, m, y_exponent) * qpochhammer(a0, -y_exponent, n - m)
    left = igusa_B(m, y_exponent, Z, head)
    right = igusa_A(n - m, y_exponent, tail)
    return left * right * pref


def _base_bounds(n: int, y_exponent: int, Z: BivariatePolynomial) -> tuple[int, int]:
    """(lo, hi) bounding y l(g) + e_q(Z) neg(g) over B_n: l <= n^2, neg <= n."""
    y, z = y_exponent, _one_term(Z)[0][0]
    return min(0, y) * n * n + min(0, z) * n, max(0, y) * n * n + max(0, z) * n


def _descent_by_mask(n: int, y_exponent: int, Z: BivariatePolynomial) -> dict[int, dict]:
    """The terms Y^l(g) Z^neg(g) of
    :func:`~heiszeta.verify.descent.signed_descent_sum` summed by descent
    set, {mask: raw terms}.

    The sum is multilinear in its slots, so one run on the marker slots
    X_i = q^(M 2^i) gives every descent set: a term's q-exponent is then
    base + M mask, with base = y l + e_q(Z) neg in [lo, hi] and
    M = 2^bitlen(hi - lo) > hi - lo.  The guard comes before the markers.
    """
    check_limit("signed_descent_sum", "n", n)
    lo, hi = _base_bounds(n, y_exponent, Z)
    M = 1 << (hi - lo).bit_length()
    markers = [(M << i, 0) for i in range(n)]
    by_mask: dict[int, dict] = {}
    for (eq, et), c in signed_descent_sum(n, y_exponent, Z, markers).terms.items():
        mask, base = divmod(eq - lo, M)
        by_mask.setdefault(mask, {})[base + lo, et] = c
    return by_mask


def residue_limits(
    n: int,
    y_exponent: int,
    Z: BivariatePolynomial,
    X: Sequence[FactorKey],
) -> tuple[BivariatePolynomial, list[FactoredRational]]:
    """The descent sum on the n slots X and, for each m < n, the residue of
    the full type-B Igusa function at X_m -> 1 from it.

    (1 - X_m) Ig_Bn is regular at X_m = 1: it is the descent sum on the
    slots X[:m], 1, X[m:n-1] over the denominators of X, the slots other
    than X_m.  All n + 1 sums come from one run of the dynamic program, each
    the sum over descent sets of that set's terms times its slot monomial.
    None shares B_n code with ``igusa.igusa_B``, the subset expansion.
    """
    if len(X) != n:
        raise UsageError("need %d slots" % n)
    by_mask = _descent_by_mask(n, y_exponent, Z)
    sums = []
    for slots in [list(X)] + [[*X[:m], (0, 0), *X[m:n - 1]] for m in range(n)]:
        shift = [(0, 0)]  # (dq, dt) of prod X_i over mask's bits
        for mask in range(1, 1 << n):
            dq, dt = shift[mask & (mask - 1)]
            a, b = slots[(mask & -mask).bit_length() - 1]
            shift.append((dq + a, dt + b))
        out: dict = {}
        for mask, terms in by_mask.items():
            _p_iadd(out, terms, 1, *shift[mask])
        sums.append(BivariatePolynomial(out))
    return sums[0], [FactoredRational(s, Counter(X)) for s in sums[1:]]


def _check_residue(n: int) -> dict:
    """igusa_B's numerator against the descent sum on the same slots, over the
    slot denominator both share, then the residue of igusa_B at X_m -> 1 in
    factored form against the descent sum with slot m set to 1, for m < n.
    The descent sums all come from one run of the dynamic program, made
    first, so that its size guard refuses before any other work.

    igusa_B, and the factored residue through it, is the subset expansion.
    At m = n the two residues are igusa_B(n) on n slots and its descent sum
    (X_n is never a descent slot), which the first comparison already checks.
    """
    Z, X = GENERIC_Z, generic_slots(n)
    descent, limits = residue_limits(n, -1, Z, X)
    if igusa_B(n, -1, Z, generic_slots(n + 1)).num != descent:
        return {"status": "fail", "detail": "subset"}
    for m, limit in enumerate(limits):
        if igusa_B_residue(n, m, -1, Z, X) != limit:
            return {"status": "fail", "detail": "m=%d" % m}
    return {"status": "pass"}

"""The fibre check: the fibre-sum identity I E(-T) = P K / prod (1 - X_j),
with the fibre sum over the w-vectors of ``heiszeta.combinat`` on one side
and the coset model over S_n / S_k, built from the permutation and coset
statistics of S_n, on the other."""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import Iterator, Sequence

from .._engine import _p_tslices
from ..combinat import gen_W, weight_C
from ..errors import IdentityMismatch, UsageError, check_limit
from ..exactalg import BivariatePolynomial, FactoredRational, FactorKey, _p_iadd, qpochhammer
from ..igusa import igusa_A
from .descent import generic_slots

# ---------------------------------------------------------------------------
# permutations of [n]
# ---------------------------------------------------------------------------


def descent_set(g: Sequence[int]) -> frozenset[int]:
    return frozenset(
        i for i in range(1, len(g)) if g[i - 1] > g[i]
    )


def coset_stats(g: Sequence[int], k: int) -> tuple[int, int, frozenset[int]]:
    """(t_k, ell_k^+, Des_{>k}) for the coset g S_k, with g(n+1) := n+1.

    t_k counts entries among the first k exceeding g(k+1); ell_k^+ counts
    inversions whose second index is beyond k; Des_{>k} keeps descents at
    positions k+1, ..., n-1.  All three are constant on the coset.
    """
    n = len(g)
    if not 0 <= k <= n:
        raise UsageError("k must be in 0..n")
    nxt = g[k] if k < n else n + 1
    t_k = sum(1 for i in range(k) if g[i] > nxt)
    ell = sum(
        1
        for j in range(k, n)
        for i in range(j)
        if g[i] > g[j]
    )
    des = frozenset(i for i in descent_set(g) if i >= k + 1)
    return t_k, ell, des


def coset_reps(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Canonical representatives of S_n / S_k: first k window entries sorted."""
    values = range(1, n + 1)
    for head in itertools.combinations(values, k):
        rest = [v for v in values if v not in head]
        for tail in itertools.permutations(rest):
            yield head + tail


def fibre_W(k: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The fibre {w : w_k in {r, 2k+1-r}}; empty unless r in [2k+1]_0."""
    if r < 0 or r > 2 * k + 1:
        return ()
    if k == 0:
        return ((),)
    targets = {r, 2 * k + 1 - r}
    return tuple(w for w in gen_W(k) if w[-1] in targets)


# ---------------------------------------------------------------------------
# fibre machinery
# ---------------------------------------------------------------------------


def fibre_E(k: int, r: int) -> BivariatePolynomial:
    """E_{k,r}(T) = F_r(T) F_{2k+1-r}(T), F_s(T) = (-q^{1-s} T; q^2)_{floor(s/2)}.

    A polynomial of T-degree k for r in [2k+1]_0, whose T^t row is
    e_{k,r}^(t); zero outside that range.
    """
    if r < 0 or r > 2 * k + 1:
        return BivariatePolynomial.zero()
    E = BivariatePolynomial.one()
    for s in (r, 2 * k + 1 - r):
        E = E * qpochhammer(BivariatePolynomial.monomial(-1, 1 - s, 1), 2, s // 2)
    return E


@lru_cache(maxsize=None)
def _qsquare_factorial(t: int) -> BivariatePolynomial:
    """[t]_{q^2}!"""
    out = BivariatePolynomial.one()
    for k in range(2, t + 1):
        out = out * BivariatePolynomial({(2 * i, 0): 1 for i in range(k)})
    return out


def Y_slot(j: int, r: int) -> FactorKey:
    """The slot Y_j(r, T) = q^{r(2j+1-r)/2 - 2 j^2} T^j."""
    return r * (2 * j + 1 - r) // 2 - 2 * j * j, j


def fibre_I(n: int, k: int, r: int, X_tail: Sequence[FactorKey]) -> FactoredRational:
    """Fibre sum over the w-vectors with terminal entry in {r, 2k+1-r}.

    Sum of C_k(w) times the plain degree-n Igusa function at
    (Y_1(w_1,T), ..., Y_k(w_k,T), X_{k+1}, ..., X_n); slots X_tail are the
    trailing n - k arguments.
    """
    if not 0 <= k <= n:
        raise UsageError("k must be in 0..n")
    if len(X_tail) != n - k:
        raise UsageError("need the %d trailing slots" % (n - k))
    terms = []
    for w in fibre_W(k, r):
        slots = [Y_slot(j, wj) for j, wj in enumerate(w, start=1)]
        terms.append(weight_C(w) * igusa_A(n, -2, slots + list(X_tail)))
    return FactoredRational.sum(terms)


def fibre_K(n: int, k: int, r: int, X_tail: Sequence[FactorKey]) -> BivariatePolynomial:
    """Coset model: sum over S_n / S_k of B^(t_k) q^{-2 l_k^+} X^{Des_>k} T^{t_k},
    with B^(t) = q^{-t(t-1)} [t]_{q^2}! [k-t]_{q^2}! e_{k,r}^(t).

    X_tail supplies X_{k+1} .. X_n (the last slot is never used by descents
    beyond position n - 1 but is accepted for signature symmetry with the
    fibre sum).  Each coset adds B^(t_k) times one monomial, so the cosets
    are grouped by t_k and the exponents of that monomial, counted, and each
    B^(t_k) is added once per group, times its count.
    """
    check_limit("fibre_K", "n", n)
    if not 0 <= k <= n:
        raise UsageError("k must be in 0..n")
    if len(X_tail) != n - k:
        raise UsageError("need the %d trailing slots" % (n - k))
    slots = dict(zip(range(k + 1, n + 1), X_tail))
    B = []
    for t, row in enumerate(_p_tslices(fibre_E(k, r).terms, 0, k)):
        e = BivariatePolynomial({(eq, 0): c for eq, c in row.items()})
        B.append((_qsquare_factorial(t) * _qsquare_factorial(k - t) * e).shift(dq=-t * (t - 1)))
    groups: Counter = Counter()
    for g in coset_reps(n, k):
        t_k, ell, des = coset_stats(g, k)
        dq, dt = -2 * ell, t_k
        for j in des:
            a, b = slots[j]
            dq, dt = dq + a, dt + b
        groups[t_k, dq, dt] += 1
    out: dict = {}
    for (t_k, dq, dt), c in groups.items():
        _p_iadd(out, B[t_k].terms, c, dq, dt)
    return BivariatePolynomial(out)


def fibre_prefactor(k: int, r: int) -> FactoredRational:
    """P_{k,r}(q) = (-q)^r (1-q^2)^k (1-q^{2k-2r+1}) / ((q;q)_{2k-r+1} (q;q)_r)."""
    num = BivariatePolynomial.monomial(-1 if r % 2 else 1, r, 0)
    num = num * BivariatePolynomial.one_minus(2, 0) ** k
    num = num * BivariatePolynomial.one_minus(2 * k - 2 * r + 1, 0)
    factors = [(1 + i, 0) for i in range(2 * k - r + 1)]
    factors += [(1 + i, 0) for i in range(r)]
    return FactoredRational(num, Counter(factors))


def check_I_equals_K(n: int, k: int, r: int) -> None:
    """Prove the fibre-sum identity I E(-T) = P K / prod (1 - X_j).

    The slots are generic independent monomials (large distinct prime
    exponents).  K is built first, so that its size guard refuses before the
    fibre sum runs.  Outside r in [2k+1]_0, E and with it both sides are
    zero.  Raises IdentityMismatch on failure.
    """
    X_tail = generic_slots(n - k)
    K = fibre_K(n, k, r, X_tail)
    # E(-T): E with its odd T-rows negated
    E = {(eq, et): -c if et % 2 else c for (eq, et), c in fibre_E(k, r).terms.items()}
    # prod (1 - X_j) goes into the right side's denominator, which the fibre
    # sum shares, so the comparison's sum, which multiplies each side only by
    # the factors it lacks, never expands it
    left = fibre_I(n, k, r, X_tail) * BivariatePolynomial(E)
    right = fibre_prefactor(k, r) * FactoredRational(K, Counter(X_tail))
    if left != right:
        raise IdentityMismatch(
            "fibre identity failed at (n, k, r) = (%d, %d, %d)" % (n, k, r)
        )


def _check_fibre(n: int) -> dict:
    """The fibre identity I = P K / (E(-T) prod (1 - X_j)) for every k <= n.

    r and 2k+1-r name the same fibre, with the same E, P and K, so each
    pair is proved once, at r <= k; the detail lists the (k, r) proved.
    """
    pairs = []
    for k in range(n + 1):
        for r in range(k + 1):
            check_I_equals_K(n, k, r)
            pairs.append([k, r])
    return {"status": "pass", "detail": {"pairs": pairs}}

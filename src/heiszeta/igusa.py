"""Igusa-type generating functions and the fibre-sum machinery.

Type-A Igusa functions (subset expansion with Gaussian multinomial
weights), their type-B analogues over the hyperoctahedral group (subset
expansion, and the residue at X_m -> 1 both factored and from the B_n
descent sum), and the fibre apparatus used to collapse the 2^n-term zeta
formula to n+1 terms: coefficient families E_{k,r} / B_{k,r}^(t), fibre
sums over the terminal-entry fibres of the w-vectors, and their coset
model on S_n / S_k.

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
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Sequence

from .combinat import (
    coset_reps,
    coset_stats,
    fibre_W,
    signed_descent_sum,
    weight_C,
)
from .errors import IdentityMismatch, SizeGuard, UsageError, check_limit
from .exactalg import (
    BivariatePolynomial,
    FactoredRational,
    SignedMonomial,
    _p_iadd,
    _p_mul,
    _p_tslices,
    gauss_binom,
    gauss_multinom,
    mono,
    qpochhammer,
)


def _check_slots(kind: str, n: int, X: Sequence[SignedMonomial], least: int):
    """n >= 0, and X has least .. n + 1 slots, all positive monomials."""
    check_limit("Igusa functions", "degree n", n)
    if not least <= len(X) <= n + 1:
        raise UsageError(
            "type %s of degree %d takes %d to %d slots, got %d"
            % (kind, n, least, n + 1, len(X))
        )
    if any(x.sign != 1 for x in X):
        raise UsageError("Igusa slot arguments must be positive monomials")


def _over_slots(num: BivariatePolynomial, X: Sequence[SignedMonomial]) -> FactoredRational:
    """num / prod (1 - X_i); k equal slots give one factor of multiplicity k."""
    return FactoredRational(num, Counter((x.e_q, x.e_T) for x in X))


def _subset_sum(
    n: int,
    y_exponent: int,
    interior: Sequence[tuple[int, SignedMonomial]],
    X: Sequence[SignedMonomial],
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
    for i, x in reversed(interior):
        chosen: dict = {}
        for u, num in states.items():
            binom = gauss_binom(u, i, y_exponent).terms
            _p_iadd(chosen, _p_mul(binom, num), 1, x.e_q, x.e_T)  # choose i
            _p_iadd(num, dict(num), -1, x.e_q, x.e_T)  # skip i: times 1 - X_i
        states[i] = chosen
    num: dict = {}
    for u, terms in states.items():
        if weight is not None:
            terms = _p_mul(weight[n - u].terms, terms)
        _p_iadd(num, terms)
    return _over_slots(BivariatePolynomial(num), X)


def igusa_A(n: int, y_exponent: int, X: Sequence[SignedMonomial]) -> FactoredRational:
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
    Z: SignedMonomial,
    X: Sequence[SignedMonomial],
) -> FactoredRational:
    """Type-B Igusa function on n or n + 1 slots, by its subset expansion.

    Sum over I in [n-1]_0 of binom(n, I)_Y (-Y^n Z; Y^-1)_{n - min(I + {n})}
    prod_{i in I} X_i / (1 - X_i), over the denominators of all slots.
    """
    _check_slots("B", n, X, n)
    a0 = mono(y_exponent * n, 0, -1) * Z  # -Y^n Z
    weight = [qpochhammer(a0, -y_exponent, d).num for d in range(n + 1)]
    return _subset_sum(n, y_exponent, list(enumerate(X[:n])), X, weight)


def igusa_B_residue(
    n: int,
    m: int,
    y_exponent: int,
    Z: SignedMonomial,
    X: Sequence[SignedMonomial],
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
    a0 = mono(y_exponent * n, 0, -1) * Z
    pref = gauss_multinom(n, [m], y_exponent) * qpochhammer(a0, -y_exponent, n - m).num
    left = igusa_B(m, y_exponent, Z, head)
    right = igusa_A(n - m, y_exponent, tail)
    return left * right * pref


def igusa_B_residue_limit(
    n: int,
    m: int,
    y_exponent: int,
    Z: SignedMonomial,
    X: Sequence[SignedMonomial],
) -> FactoredRational:
    """Residue at X_m -> 1 straight from the descent sum.

    (1 - X_m) * Ig_Bn is regular at X_m = 1: the singular factor cancels
    syntactically, leaving the descent numerator with the X_m slot set to 1
    over the remaining denominator factors.  The numerator is
    :func:`~heiszeta.combinat.signed_descent_sum` with slot m set to 1.
    It shares no B_n code with the factored form above, whose type-B factor
    is the subset expansion.
    """
    if not 0 <= m <= n:
        raise UsageError("m must lie in [n]_0")
    if len(X) != n:
        raise UsageError("need the n slots other than X_m")
    slots = {i: x for i, x in zip([i for i in range(n + 1) if i != m], X)}
    descent_slots = [slots.get(i, mono(0, 0)) for i in range(n)]
    return _over_slots(signed_descent_sum(n, y_exponent, Z, descent_slots), X)


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
        E = E * qpochhammer(mono(1 - s, 1, -1), 2, s // 2).num
    return E


@lru_cache(maxsize=None)
def _qsquare_factorial(t: int) -> BivariatePolynomial:
    """[t]_{q^2}!"""
    out = BivariatePolynomial.one()
    for k in range(2, t + 1):
        out = out * BivariatePolynomial({(2 * i, 0): 1 for i in range(k)})
    return out


def Y_slot(j: int, r: int) -> SignedMonomial:
    """The slot Y_j(r, T) = q^{r(2j+1-r)/2 - 2 j^2} T^j."""
    return mono(r * (2 * j + 1 - r) // 2 - 2 * j * j, j)


def fibre_I(n: int, k: int, r: int, X_tail: Sequence[SignedMonomial]) -> FactoredRational:
    """Fibre sum over the w-vectors with terminal entry in {r, 2k+1-r}.

    Sum of C_k(w) times the plain degree-n Igusa function at
    (Y_1(w_1,T), ..., Y_k(w_k,T), X_{k+1}, ..., X_n); slots X_tail are the
    trailing n - k arguments.
    """
    if k > n:
        raise UsageError("k must be at most n")
    if len(X_tail) != n - k:
        raise UsageError("need the %d trailing slots" % (n - k))
    terms = []
    for w in fibre_W(k, r):
        slots = [Y_slot(j, wj) for j, wj in enumerate(w, start=1)]
        terms.append(weight_C(w) * igusa_A(n, -2, slots + list(X_tail)))
    return FactoredRational.sum(terms)


def fibre_K(n: int, k: int, r: int, X_tail: Sequence[SignedMonomial]) -> BivariatePolynomial:
    """Coset model: sum over S_n / S_k of B^(t_k) q^{-2 l_k^+} X^{Des_>k} T^{t_k},
    with B^(t) = q^{-t(t-1)} [t]_{q^2}! [k-t]_{q^2}! e_{k,r}^(t).

    X_tail supplies X_{k+1} .. X_n (the last slot is never used by descents
    beyond position n - 1 but is accepted for signature symmetry with the
    fibre sum).  Each coset adds B^(t_k) times one signed monomial, so the
    cosets are grouped by t_k and the exponents of that monomial, with their
    signs summed into one multiplicity, and each B^(t_k) is added once per
    group.
    """
    check_limit("fibre_K", "n", n)
    if k > n:
        raise UsageError("k must be at most n")
    if len(X_tail) != n - k:
        raise UsageError("need the %d trailing slots" % (n - k))
    slots = dict(zip(range(k + 1, n + 1), X_tail))
    B = []
    for t, row in enumerate(_p_tslices(fibre_E(k, r).terms, top=k)):
        e = BivariatePolynomial({(eq, 0): c for eq, c in row.items()})
        B.append((_qsquare_factorial(t) * _qsquare_factorial(k - t) * e).shift(dq=-t * (t - 1)))
    groups: Counter = Counter()
    for g in coset_reps(n, k):
        t_k, ell, des = coset_stats(g, k)
        sign, dq, dt = 1, -2 * ell, t_k
        for j in des:
            x = slots[j]
            sign, dq, dt = sign * x.sign, dq + x.e_q, dt + x.e_T
        groups[t_k, dq, dt] += sign
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
    right = fibre_prefactor(k, r) * _over_slots(K, X_tail)
    if left != right:
        raise IdentityMismatch(
            "fibre identity failed at (n, k, r) = (%d, %d, %d)" % (n, k, r)
        )


_GENERIC_PRIMES = (101, 211, 307, 401, 503, 601, 701, 809, 907, 1009)
# built once: generic_slots only slices it
_GENERIC_SLOTS = tuple(mono(p, 1) for p in _GENERIC_PRIMES)

# The Z marker of the type-B checks: a prime q-exponent outside
# _GENERIC_PRIMES, at T^2 where every generic slot is at T^1.
GENERIC_Z = mono(977, 2)


def generic_slots(count: int) -> list[SignedMonomial]:
    """Monomial slots q^P T with large distinct prime q-exponents.

    Markers for identity testing.  The substitution is not injective on
    monomials: 101 + 211 = 307 + 5, so X_1 X_2 and q^5 T X_3 both become
    q^312 T^2.  Two sides that agree on these slots are strong evidence of
    an identity in free slots, not a proof.
    """
    if count > len(_GENERIC_SLOTS):
        raise SizeGuard("not enough generic markers")
    return list(_GENERIC_SLOTS[:count])

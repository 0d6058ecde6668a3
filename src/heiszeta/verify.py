"""The checks of `heiszeta verify`, and the second derivations they compare
the library with.

Each check in ``CHECKS`` proves a closed form or a building block of one
equal to an independent derivation, and those derivations live here too:
the permutation and coset statistics of S_n, the statistic sum over the
hyperoctahedral group B_n (a dynamic program; no group element is built)
and the type-A Eulerian polynomials; the residues of the type-B Igusa
functions and the fibre-sum/coset-model machinery; the B_n group sum behind
form c, the functional equation and the pole orders of form b; and the
lattice-point oracle and the leading coefficient c_n of the reduced zeta
functions.  Only the verify command imports this module, so no other
command, `--version` included, compiles it; the checks, the
functional-equation and the pole functions import the closed forms when they
run, so the fibre and residue checks do not compile them.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

from .combinat import gen_W, weight_C
from .errors import IdentityMismatch, SizeGuard, UsageError, check_limit
from .exactalg import (
    BivariatePolynomial,
    FactoredRational,
    SignedMonomial,
    _divide_dense,
    _p_iadd,
    _p_tslices,
    gauss_multinom,
    mono,
    qpochhammer,
)
from .igusa import _over_slots, igusa_A, igusa_B

if TYPE_CHECKING:  # Fraction is imported by the pole and c_n functions that use it
    from fractions import Fraction


# ---------------------------------------------------------------------------
# permutations of [n] and the statistic sum over B_n
# ---------------------------------------------------------------------------


def perms(n: int) -> Iterator[tuple[int, ...]]:
    """All one-line windows (g(1), ..., g(n)) on values 1..n."""
    return itertools.permutations(range(1, n + 1))


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
    if k > n:
        raise UsageError("k must be at most n")
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


def signed_descent_sum(
    n: int,
    y_exponent: int,
    Z: SignedMonomial,
    X: Sequence[SignedMonomial],
) -> BivariatePolynomial:
    """Sum over B_n of Y^l(g) Z^neg(g) prod_{i in Des_B(g)} X_i, Y = q^y_exponent.

    X lists the descent slots X_0 .. X_{n-1}.  A dynamic program fills the
    window left to right; its state is the set U of absolute values placed
    so far and the last signed entry (0 before the first), at most
    2^n * 2n states against 2^n n! group elements.  It uses
    l(g) = sum_j L_j + sum_{g(j) < 0} (1 + 2 E_j), with L_j and E_j the
    numbers of smaller absolute values after and before position j; this
    equals inv(window) + sum of |g(j)| over the negative entries.  Placing
    b outside U gives E = #{u in U : u < b} and L = b - 1 - E whatever the
    sign, and a descent at index k when the last entry exceeds the new one.
    """
    check_limit("signed_descent_sum", "n", n)
    if len(X) != n:
        raise UsageError("need the %d descent slots X_0 .. X_%d" % (n, n - 1))
    y = y_exponent
    layer: dict = {(0, 0): {(0, 0): 1}}
    for k in range(n):
        x = X[k]
        nxt: dict = {}
        for (used, last), poly in layer.items():
            below = 0
            for b in range(1, n + 1):
                bit = 1 << (b - 1)
                if used & bit:
                    below += 1
                    continue
                for v in (b, -b):
                    dq, dt, sign = y * (b - 1 - below), 0, 1
                    if v < 0:
                        dq += y * (1 + 2 * below) + Z.e_q
                        dt += Z.e_T
                        sign = Z.sign
                    if last > v:
                        dq += x.e_q
                        dt += x.e_T
                        sign *= x.sign
                    _p_iadd(nxt.setdefault((used | bit, v), {}), poly, sign, dq, dt)
        layer = nxt
    total: dict = {}
    for poly in layer.values():
        _p_iadd(total, poly)
    return BivariatePolynomial(total)


@lru_cache(maxsize=None)
def eulerian_A(d: int) -> tuple[int, ...]:
    """Coefficient list of the Eulerian polynomial A_d(X); A_0 = 1.

    For d >= 1 the polynomial is sum over S_d of X^{des+1}, returned as
    coefficients indexed by exponent.
    """
    check_limit("eulerian_A", "d", d)
    if d == 0:
        return (1,)
    coeffs = [0] * (d + 1)
    for g in perms(d):
        coeffs[len(descent_set(g)) + 1] += 1
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# generic slots and type-B residues
# ---------------------------------------------------------------------------


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


def _base_bounds(n: int, y_exponent: int, Z: SignedMonomial) -> tuple[int, int]:
    """(lo, hi) bounding y l(g) + e_q(Z) neg(g) over B_n: l <= n^2, neg <= n."""
    y, z = y_exponent, Z.e_q
    return min(0, y) * n * n + min(0, z) * n, max(0, y) * n * n + max(0, z) * n


def _descent_by_mask(n: int, y_exponent: int, Z: SignedMonomial) -> dict[int, dict]:
    """The terms Y^l(g) Z^neg(g) of :func:`signed_descent_sum` summed by
    descent set, {mask: raw terms}.

    The sum is multilinear in its slots, so one run on the marker slots
    X_i = q^(M 2^i) gives every descent set: a term's q-exponent is then
    base + M mask, with base = y l + e_q(Z) neg in [lo, hi] and
    M = 2^bitlen(hi - lo) > hi - lo.  The guard comes before the markers.
    """
    check_limit("signed_descent_sum", "n", n)
    lo, hi = _base_bounds(n, y_exponent, Z)
    M = 1 << (hi - lo).bit_length()
    markers = [mono(M << i, 0) for i in range(n)]
    by_mask: dict[int, dict] = {}
    for (eq, et), c in signed_descent_sum(n, y_exponent, Z, markers).terms.items():
        mask, base = divmod(eq - lo, M)
        by_mask.setdefault(mask, {})[base + lo, et] = c
    return by_mask


def residue_limits(
    n: int,
    y_exponent: int,
    Z: SignedMonomial,
    X: Sequence[SignedMonomial],
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
    one = mono(0, 0)
    sums = []
    for slots in [list(X)] + [[*X[:m], one, *X[m:n - 1]] for m in range(n)]:
        shift = [(1, 0, 0)]  # (sign, dq, dt) of prod X_i over mask's bits
        for mask in range(1, 1 << n):
            sign, dq, dt = shift[mask & (mask - 1)]
            x = slots[(mask & -mask).bit_length() - 1]
            shift.append((sign * x.sign, dq + x.e_q, dt + x.e_T))
        out: dict = {}
        for mask, terms in by_mask.items():
            _p_iadd(out, terms, *shift[mask])
        sums.append(BivariatePolynomial(out))
    return sums[0], [_over_slots(s, X) for s in sums[1:]]


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


# ---------------------------------------------------------------------------
# the closed forms' second derivations
# ---------------------------------------------------------------------------


def hyperoctahedral_numerator(n: int, c: Sequence[int]) -> BivariatePolynomial:
    """Sum over B_n of (-1)^neg q^{C(g)} T^{(n+1) des_B(g) + neg(g)}.

    With C(g) = n neg - l + sum of c_i over Des_B(g) this is the group sum
    of :func:`signed_descent_sum` at Y = q^-1, Z = -q^n T and descent
    slots X_i = q^{c_i} T^{n+1}, computed by its dynamic program.
    """
    return signed_descent_sum(n, -1, mono(n, 1, -1), [mono(ci, n + 1) for ci in c[:n]])


def is_self_reciprocal(f: FactoredRational, a: int, b: int) -> bool:
    """Whether f(1/q, 1/T) = -q^a T^b f(q, T)."""
    return f.subs_inverse() == FactoredRational(f.num.scaled(-1).shift(dq=a), f.den, f.tshift + b)


def funeq_check(n: int) -> str:
    """Verify the local functional equation; return its factor.

    Substituting q -> q^-1 (hence T = q^-s -> T^-1) multiplies the zeta
    function by -q^{binom(2n+1,2) - (2n+1)s}, i.e. by
    -q^{binom(2n+1,2)} T^{2n+1}.  Raises IdentityMismatch.
    """
    from .zeta import zeta_compact

    a, b = (2 * n + 1) * n, 2 * n + 1  # binom(2n+1, 2), 2n+1
    if not is_self_reciprocal(zeta_compact(n), a, b):
        raise IdentityMismatch("functional equation failed at n = %d" % n)
    return "-q^%d T^%d" % (a, b)


def pole_candidates(n: int) -> tuple[list[int], list[Fraction]]:
    """Integral candidates [2n-1]_0 and fractional candidates a_{n,r}/(n+1)."""
    from fractions import Fraction

    from .zeta import special_exponent

    integral = list(range(2 * n))
    fractional = sorted(
        {Fraction(special_exponent(n, r), n + 1) for r in range(n + 1)}
    )
    return integral, fractional


# the primes at which pole_analysis specializes q
POLE_PRIMES = (2, 3, 5)


def _vanishing_order(coeffs: dict[int, int], p: int, c: int, d: int) -> int:
    """Largest k with (1 - p^c T^d)^k dividing the integer polynomial."""
    xs = [coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)]
    order = 0
    while xs:
        xs = _divide_dense(xs, d, p**c)
        if xs is None:
            break
        order += 1
    return order


def pole_analysis(n: int) -> dict[Fraction, int]:
    """Exact pole orders, {s: order} for every pole s in increasing order.

    Every denominator factor of the reduced compact form must sit over a
    candidate location; the order at s = c/d is the matching factor
    multiplicity minus the numerator's vanishing order at T = p^{-c/d},
    for q specialized to each prime p of POLE_PRIMES.  Raises
    IdentityMismatch when an order differs between the primes.
    """
    from fractions import Fraction

    from .zeta import zeta_compact

    f = zeta_compact(n)
    integral, fractional = pole_candidates(n)
    candidates = {Fraction(s) for s in integral} | set(fractional)
    mults = Counter()  # factor multiplicity over each location
    for (a, b), m in f.den.items():
        if b == 0:
            raise IdentityMismatch("unreduced constant factor in denominator")
        if Fraction(a, b) not in candidates:
            raise IdentityMismatch(
                "denominator factor (1 - q^%d T^%d) off the candidate list" % (a, b)
            )
        mults[Fraction(a, b)] += m
    at_p = {p: f.num.eval_q(p) for p in POLE_PRIMES}
    orders = {}
    for s in sorted(mults):
        by_p = {p: mults[s] - _vanishing_order(coeffs, p, s.numerator, s.denominator)
                for p, coeffs in at_p.items()}
        order = by_p[POLE_PRIMES[0]]
        if any(o != order for o in by_p.values()):
            raise IdentityMismatch("order at s = %s varies with q: %s" % (s, by_p))
        if order > 0:
            orders[s] = order
    return orders


def reduced_cone_series(n: int, order: int) -> list[int]:
    """Lattice-point transform oracle: counts of (e_0, ..., e_{2n}) with
    e_0 <= e_{2i-1} + e_{2i} for all i, graded by coordinate sum."""
    check_limit("reduced_cone_series", "n", n)
    out = []
    for m in range(order + 1):
        total = 0
        for e0 in range(m + 1):
            total += _pair_count(n, m - e0, e0)
        out.append(total)
    return out


@lru_cache(maxsize=None)
def _pair_count(pairs: int, rem: int, floor: int) -> int:
    # number of (s_1..s_pairs), s_i >= floor, sum rem, weighted by prod (s_i + 1)
    if pairs == 0:
        return 1 if rem == 0 else 0
    total = 0
    for s in range(floor, rem + 1):
        total += (s + 1) * _pair_count(pairs - 1, rem - s, floor)
    return total


def reduced_c(n: int) -> Fraction:
    """Leading coefficient c_n = lim (1-T)^{2n+1} Z_red(T) at T = 1.

    The binomial sum sum_k binom(n, k) k! / (n+1)^{k+1}; c_0 = 1.
    ``verify --checks reduced`` compares it with the telescoped sum and
    with P_n(1) / (n+1)^{n+1} from the normalized form, and checks
    0 < c_n < 1.
    """
    from fractions import Fraction

    check_limit("reduced_c", "n", n)
    return sum(
        Fraction(math.comb(n, k) * math.factorial(k), (n + 1) ** (k + 1))
        for k in range(n + 1)
    )


def _reduced_eulerian(n: int):
    """The reduced zeta function as the classical Eulerian sum
    sum_d binom(n, d) A_d(T^{n+1}) / ((1-T)^{2n-d} (1-T^{n+1})^{d+1})."""
    return FactoredRational.sum(
        [
            FactoredRational(
                BivariatePolynomial(
                    {(0, (n + 1) * k): c * math.comb(n, d)
                     for k, c in enumerate(eulerian_A(d)) if c}
                ),
                {(0, 1): 2 * n - d, (0, n + 1): d + 1},
            )
            for d in range(n + 1)
        ]
    )


def _reduced_c_telescoped(n: int):
    """c_n as the complement 1 - n sum_k binom(n-1, k-1) k! / (n+1)^{k+1}, a Fraction."""
    from fractions import Fraction

    return 1 - n * sum(
        Fraction(math.comb(n - 1, k - 1) * math.factorial(k), (n + 1) ** (k + 1))
        for k in range(1, n + 1)
    )


# ---------------------------------------------------------------------------
# the checks of `heiszeta verify`
# ---------------------------------------------------------------------------


def _check_crossform(n: int) -> dict:
    """Forms a, b and c agree, and form c's numerator is the B_n group sum."""
    from .zeta import c_exponents, zeta_compact, zeta_hyperoctahedral, zeta_igusa_sum

    a, b, c = zeta_igusa_sum(n), zeta_compact(n), zeta_hyperoctahedral(n)
    ok = a == b and b == c and c.num == hyperoctahedral_numerator(n, c_exponents(n))
    return {"status": "pass" if ok else "fail"}


def _check_funeq(n: int) -> dict:
    return {"status": "pass", "detail": funeq_check(n)}


def _check_poles(n: int) -> dict:
    """The pole orders of form b, and the double-pole law: the poles of order
    2 or more are exactly the s = m with m(m+1) = 4n (s = 3 at n = 3, s = 4
    at n = 5).  The law is observed, not proved: it holds for every n <= 12,
    the n up to which verify runs this check."""
    orders = pole_analysis(n)
    double = [s for s, o in orders.items() if o >= 2]
    ok = double == [m for m in range(1, n + 1) if m * (m + 1) == 4 * n]
    detail = {
        "integral": [[int(s), o] for s, o in orders.items() if s.denominator == 1],
        "fractional": [[str(s), o] for s, o in orders.items() if s.denominator > 1],
        "double": [str(s) for s in double],
    }
    return {"status": "pass" if ok else "fail", "detail": detail}


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


def _check_reduced(n: int) -> dict:
    """reduced_zeta against the Eulerian form, the lattice-point oracle and
    self-reciprocity; reduced_c against its telescoped form and the limit
    P_n(1) / (n+1)^{n+1} of the normalized numerator, and inside (0, 1)."""
    from fractions import Fraction

    from .zeta import reduced_zeta

    f = reduced_zeta(n)
    series = [c.coefficient(0, 0) for c in f.series_in_T(10)]
    ok = series == reduced_cone_series(n, 10)
    ok = ok and is_self_reciprocal(f, 0, 2 * n + 1) and f == _reduced_eulerian(n)
    cn = reduced_c(n)
    limit = Fraction(sum(f.num.terms.values()), (n + 1) ** (n + 1))
    ok = ok and cn == _reduced_c_telescoped(n) == limit and 0 < cn < 1
    return {"status": "pass" if ok else "fail"}


# Each check returns the status of its report, and its detail where it has
# one; the verify command adds the rest.
CHECKS = {
    "crossform": _check_crossform,
    "funeq": _check_funeq,
    "poles": _check_poles,
    "fibre": _check_fibre,
    "residue": _check_residue,
    "reduced": _check_reduced,
}

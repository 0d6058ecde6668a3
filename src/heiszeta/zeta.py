"""The subalgebra zeta functions of the higher Heisenberg Lie algebras.

Three closed forms of the same rational function (the 2^n-term augmented
Igusa sum, the (n+1)-term compact sum, and the hyperoctahedral form), the
ideal and graded variants, series/Dirichlet-coefficient extraction, the
functional equation and pole analysis, the q -> 1 reduced zeta functions,
and the global Euler-factor polynomials.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .combinat import (
    gen_W,
    signed_descent_sum,
    w_partial_sums,
    weight_C,
)
from .errors import IdentityMismatch, check_limit
from .exactalg import (
    BivariatePolynomial,
    FactoredRational,
    SignedMonomial,
    _divide_dense,
    _p_iadd,
    _unroll_dense,
    divide_out_factor,
    gauss_binom,
    mono,
)

if TYPE_CHECKING:  # Fraction is imported by the pole and c_n functions that use it
    from fractions import Fraction


def c_exponents(n: int) -> list[int]:
    """c_i = (n(n+5) - i(i+1)) / 2 for i in [n]_0."""
    return [(n * (n + 5) - i * (i + 1)) // 2 for i in range(n + 1)]


def c_exponents_graded(n: int) -> list[int]:
    """c_i' = binom(n+1, 2) - binom(i+1, 2); equals c_i - 2n."""
    return [c - 2 * n for c in c_exponents(n)]


def special_exponent(n: int, r: int) -> int:
    """a_{n,r} = 2n + r(2n+1-r)/2, the q-exponent of the T^{n+1} factor."""
    return 2 * n + r * (2 * n + 1 - r) // 2


# ---------------------------------------------------------------------------
# the three closed forms
# ---------------------------------------------------------------------------


def igusa_args(n: int, w: Sequence[int]) -> list[SignedMonomial]:
    """Slots (X_0, X_1, ..., X_n) for the w-indexed augmented Igusa summand.

    X_k = q^{(partial sum) + 2k(n-k)} T^k and X_0 = q^{2n} T * X_n.
    """
    ps = w_partial_sums(w)
    X = [mono(ps[k - 1] + 2 * k * (n - k), k) for k in range(1, n + 1)]
    return [mono(2 * n, 1) * X[-1]] + X


@lru_cache(maxsize=None)
def zeta_igusa_sum(n: int) -> FactoredRational:
    """2^n-term form: sum over w of C(w) times an augmented Igusa function."""
    from .igusa import igusa_A

    check_limit("zeta_igusa_sum", "n", n)
    terms = [
        weight_C(w) * igusa_A(n, -2, igusa_args(n, w))
        for w in gen_W(n)
    ]
    return FactoredRational.sum(terms).reduced()


@lru_cache(maxsize=None)
def zeta_compact(n: int) -> FactoredRational:
    """(n+1)-term compact form, the reference implementation.

    By (q;q)_{2n+1} = (q;q^2)_{n+1} (q^2;q^2)_n, the paper's
    (q^2;q^2)_n / ((q;q)_{2n-r+1} (q;q)_r) in summand r is
    [2n+1 choose r]_q / (q;q^2)_{n+1}: the summands share that one constant
    denominator, which is divided out of their sum's numerator.
    """
    check_limit("zeta_compact", "n", n)
    total = FactoredRational.sum([_compact_summand(n, r) for r in range(n + 1)])
    odd = FactoredRational(total.num, {(2 * i + 1, 0): 1 for i in range(n + 1)}).reduced()
    return odd * FactoredRational(1, total.den, total.tshift)


def _compact_summand(n: int, r: int) -> FactoredRational:
    """Summand r of form b times (q;q^2)_{n+1}: (-q)^r (1 - q^{2n-2r+1}) [2n+1 choose r]_q
    over (1 - q^{a_{n,r}} T^{n+1}) (q^r T; q^2)_{n-r} (q^{2n-r} T; q)_r."""
    num = gauss_binom(2 * n + 1, r, 1) * BivariatePolynomial.monomial((-1) ** r, r, 0)
    num = num * BivariatePolynomial.one_minus(2 * n - 2 * r + 1, 0)
    factors = [(special_exponent(n, r), n + 1)]
    factors += [(r + 2 * i, 1) for i in range(n - r)]
    factors += [(2 * n - r + i, 1) for i in range(r)]
    return FactoredRational(num, Counter(factors))


def hyperoctahedral_numerator(n: int, c: Sequence[int]) -> BivariatePolynomial:
    """Sum over B_n of (-1)^neg q^{C(g)} T^{(n+1) des_B(g) + neg(g)}.

    With C(g) = n neg - l + sum of c_i over Des_B(g) this is the group sum
    of :func:`signed_descent_sum` at Y = q^-1, Z = -q^n T and descent
    slots X_i = q^{c_i} T^{n+1}, computed by its dynamic program.
    """
    return signed_descent_sum(n, -1, mono(n, 1, -1), [mono(ci, n + 1) for ci in c[:n]])


@lru_cache(maxsize=None)
def zeta_hyperoctahedral(n: int) -> FactoredRational:
    """Hyperoctahedral form: type-B Igusa specialization over (T;q)_{2n}.

    Built from the subset expansion of the type-B Igusa function at
    Y = q^-1, Z = -q^n T and slots q^{c_i} T^{n+1}; the recurrence of
    ``igusa._subset_sum`` sums its 2^n subsets in O(n^2) products.  Its
    numerator equals the statistic sum over B_n of
    :func:`hyperoctahedral_numerator`, an independent derivation that
    ``verify --checks crossform`` compares with it.
    """
    check_limit("zeta_hyperoctahedral", "n", n)
    return _type_B_form(n, c_exponents(n))


def _type_B_form(n: int, c: Sequence[int]) -> FactoredRational:
    """The type-B Igusa function at Y = q^-1, Z = -q^n T and slots
    q^{c_i} T^{n+1}, over (T;q)_{2n}."""
    from .igusa import igusa_B

    f = igusa_B(n, -1, mono(n, 1, -1), [mono(ci, n + 1) for ci in c])
    return f * FactoredRational.one_over((i, 1) for i in range(2 * n))


def zeta_ideal(n: int) -> FactoredRational:
    """Ideal zeta function 1 / ((T;q)_{2n} (1 - q^{2n} T^{2n+1})).

    Counts finite-index two-sided ideals.  The special factor sees the
    whole rank-(2n+1) lattice scaled by the uniformizer: index q^{2n+1}
    with q^{2n} central lifts per step.  Verified against brute-force
    ideal enumeration (for n = 1 this is the classical
    zeta(s) zeta(s-1) zeta(3s-2) local factor).
    """
    check_limit("zeta_ideal", "n", n)
    den = {(i, 1): 1 for i in range(2 * n)}
    den[(2 * n, 2 * n + 1)] = 1
    return FactoredRational.one_over(den)


def zeta_graded(n: int) -> FactoredRational:
    """EXPERIMENTAL graded variant: c_i replaced by c_i' everywhere.

    The substitution is applied both in the Igusa slots and inside the
    statistic C: the hyperoctahedral form built at the c_i'.  Its numerator
    is the B_n group sum :func:`hyperoctahedral_numerator` at the c_i' (the
    tests compare the two); no count outside the package is compared with it.
    """
    check_limit("zeta_graded", "n", n)
    return _type_B_form(n, c_exponents_graded(n))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def dirichlet_coeffs(n: int, p: int, order: int) -> list[int]:
    """Subalgebra counts a_{p^i} for i <= order: form b's numerator at q = p
    over each denominator factor 1 - p^a T^b, in integers."""
    check_limit("dirichlet_coeffs", "q", p)
    check_limit("dirichlet_coeffs", "order", order)
    f = zeta_compact(n)
    at_p = f.num.eval_q(p)
    xs = [at_p.get(k - f.tshift, 0) for k in range(order + 1)]
    for (a, b), m in f.den.items():
        for _ in range(m):
            _unroll_dense(xs, b, p**a)
    return xs


# ---------------------------------------------------------------------------
# functional equation and poles
# ---------------------------------------------------------------------------


def is_self_reciprocal(f: FactoredRational, a: int, b: int) -> bool:
    """Whether f(1/q, 1/T) = -q^a T^b f(q, T)."""
    return f.subs_inverse() == FactoredRational(f.num.scaled(-1).shift(dq=a), f.den, f.tshift + b)


def funeq_check(n: int) -> str:
    """Verify the local functional equation; return its factor.

    Substituting q -> q^-1 (hence T = q^-s -> T^-1) multiplies the zeta
    function by -q^{binom(2n+1,2) - (2n+1)s}, i.e. by
    -q^{binom(2n+1,2)} T^{2n+1}.  Raises IdentityMismatch.
    """
    a, b = (2 * n + 1) * n, 2 * n + 1  # binom(2n+1, 2), 2n+1
    if not is_self_reciprocal(zeta_compact(n), a, b):
        raise IdentityMismatch("functional equation failed at n = %d" % n)
    return "-q^%d T^%d" % (a, b)


def pole_candidates(n: int) -> tuple[list[int], list[Fraction]]:
    """Integral candidates [2n-1]_0 and fractional candidates a_{n,r}/(n+1)."""
    from fractions import Fraction

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


# ---------------------------------------------------------------------------
# reduced zeta functions (q -> 1)
# ---------------------------------------------------------------------------


def reduced_zeta(n: int) -> FactoredRational:
    """The q -> 1 degeneration, normalized over (1-T)^n (1-T^{n+1})^{n+1}.

    Form c's construction at q = 1: the type-B Igusa function at Y = 1,
    Z = -T and slots T^{n+1}, whose numerator is B_n(T^{n+1}, -T), over
    (1-T)^{2n}; (1-T)^n is divided out of the numerator.  ``verify --checks
    reduced`` compares it with the classical Eulerian-sum form, the
    lattice-point oracle and self-reciprocity.
    """
    from .igusa import igusa_B

    check_limit("reduced_zeta", "n", n)
    P = igusa_B(n, 0, mono(0, 1, -1), [mono(0, n + 1)] * (n + 1)).num
    for _ in range(n):
        quot = divide_out_factor(P, 0, 1)
        if quot is None:
            raise IdentityMismatch("(1-T)^%d does not divide the numerator" % n)
        P = quot
    return FactoredRational(P, {(0, 1): n, (0, n + 1): n + 1})


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


# ---------------------------------------------------------------------------
# global Euler factor
# ---------------------------------------------------------------------------


def global_factor(n: int) -> BivariatePolynomial:
    """N_n(X, Y) = sum over B_n of (-1)^neg X^{C(g)} Y^{D(g)}.

    Returned with (e_q, e_T) read as (X-, Y-) exponents; identical to the
    compact-form numerator after T^{(n+1) des + neg} is regrouped by D.
    This is the numerator of the cached :func:`zeta_hyperoctahedral`, which
    ``verify --checks crossform`` compares with the group sum
    :func:`hyperoctahedral_numerator`; no group element is built.
    """
    check_limit("global_factor", "n", n)
    return zeta_hyperoctahedral(n).num


def global_factor_eval(n: int) -> BivariatePolynomial:
    """N_n(p, p^{-2n}) as an exact Laurent polynomial in p (variable q)."""
    out: dict = {}
    for (C, D), coeff in global_factor(n).terms.items():
        _p_iadd(out, {(C - 2 * n * D, 0): coeff})
    return BivariatePolynomial(out)


def _primes_up_to(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(bound**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    return [i for i in range(bound + 1) if sieve[i]]


def _scan(primes: Sequence[int], cut: int, step) -> tuple[float, float]:
    """x = step(x, p) from x = 1.0 over primes: (x after primes[:cut], x at the end)."""
    x = 1.0
    for p in primes[:cut]:
        x = step(x, p)
    head = x
    for p in primes[cut:]:
        x = step(x, p)
    return head, x


def rn_numeric(n: int, prime_bound: int = 1000) -> dict:
    """Truncated numeric approximation of the residue factor R_n (n >= 2;
    n = 1 has a double pole).

    Product over primes <= prime_bound of N_n(p, p^{-2n}), times truncated
    Euler products for the Riemann zeta values at the integer arguments
    dictated by the denominator.  APPROXIMATE by construction; the report
    echoes the truncation parameters, and `delta_vs_half_bound` is the
    change from the same product over the primes <= max(2, prime_bound // 2),
    which each product passes through on the way.
    """
    from bisect import bisect_right

    check_limit("rn_numeric", "n", n)
    check_limit("rn_numeric", "prime_bound", prime_bound)
    primes = _primes_up_to(prime_bound)
    cut = bisect_right(primes, max(2, prime_bound // 2))
    # summed in exponent order, so the float result does not depend on the
    # order in which N_n's terms were built
    terms = sorted((e, coeff) for (e, _), coeff in global_factor_eval(n).terms.items())

    def times_N(x, p):
        val = 0.0
        for e, coeff in terms:
            val += coeff * float(p) ** e
        return x * val

    zargs = [2 * n - i for i in range(2 * n - 1)]
    zargs += [2 * n * (n + 1) - c for c in c_exponents(n)]
    half, value = _scan(primes, cut, times_N)
    for s in zargs:
        zeta_half, zeta_s = _scan(primes, cut, lambda x, p: x / (1.0 - float(p) ** (-s)))
        half *= zeta_half
        value *= zeta_s
    return {
        "n": n,
        "value": value,
        "prime_bound": prime_bound,
        "zeta_arguments": sorted(zargs),
        "label": "APPROXIMATE",
        "delta_vs_half_bound": abs(value - half),
    }

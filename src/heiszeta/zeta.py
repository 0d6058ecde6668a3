"""The subalgebra zeta functions of the higher Heisenberg Lie algebras.

Three closed forms of the same rational function (the 2^n-term augmented
Igusa sum, the (n+1)-term compact sum, and the hyperoctahedral form), the
ideal and graded variants, Dirichlet-coefficient extraction, the q -> 1
reduced zeta functions, and the global Euler-factor polynomials.  The
B_n group sum behind form c, the functional equation, the pole orders and
c_n are second derivations, in ``heiszeta.verify``; the float residue factor
R_n is in ``heiszeta.numeric``.  Only form a imports ``heiszeta.combinat``,
for its w-vectors and weights, so the other forms do not compile it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

from .errors import IdentityMismatch, check_limit
from .exactalg import (
    BivariatePolynomial,
    FactoredRational,
    FactorKey,
    divide_out_factor,
    gauss_binom,
)


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


def igusa_args(n: int, w: Sequence[int]) -> list[FactorKey]:
    """Slots (X_0, X_1, ..., X_n) for the w-indexed augmented Igusa summand.

    X_k = q^{(partial sum) + 2k(n-k)} T^k and X_0 = q^{2n} T * X_n.
    """
    ps = list(accumulate(w))
    X = [(ps[k - 1] + 2 * k * (n - k), k) for k in range(1, n + 1)]
    return [(2 * n + X[-1][0], n + 1)] + X


@lru_cache(maxsize=None)
def zeta_igusa_sum(n: int) -> FactoredRational:
    """2^n-term form: sum over w of C(w) times an augmented Igusa function."""
    from .combinat import gen_W, weight_C
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
    return odd * FactoredRational(1, total.den)


def _compact_summand(n: int, r: int) -> FactoredRational:
    """Summand r of form b times (q;q^2)_{n+1}: (-q)^r (1 - q^{2n-2r+1}) [2n+1 choose r]_q
    over (1 - q^{a_{n,r}} T^{n+1}) (q^r T; q^2)_{n-r} (q^{2n-r} T; q)_r."""
    num = gauss_binom(2 * n + 1, r, 1) * BivariatePolynomial.monomial((-1) ** r, r, 0)
    num = num * BivariatePolynomial.one_minus(2 * n - 2 * r + 1, 0)
    factors = [(special_exponent(n, r), n + 1)]
    factors += [(r + 2 * i, 1) for i in range(n - r)]
    factors += [(2 * n - r + i, 1) for i in range(r)]
    return FactoredRational(num, Counter(factors))


@lru_cache(maxsize=None)
def zeta_hyperoctahedral(n: int) -> FactoredRational:
    """Hyperoctahedral form: type-B Igusa specialization over (T;q)_{2n}.

    Built from the subset expansion of the type-B Igusa function at
    Y = q^-1, Z = -q^n T and slots q^{c_i} T^{n+1}; the recurrence of
    ``igusa._subset_sum`` sums its 2^n subsets in O(n^2) products.  Its
    numerator equals the statistic sum over B_n of
    :func:`~heiszeta.verify.crossform.hyperoctahedral_numerator`, an
    independent derivation that ``verify --checks crossform`` compares with
    it.
    """
    check_limit("zeta_hyperoctahedral", "n", n)
    return _type_B_form(n, c_exponents(n))


def _type_B_form(n: int, c: Sequence[int]) -> FactoredRational:
    """The type-B Igusa function at Y = q^-1, Z = -q^n T and slots
    q^{c_i} T^{n+1}, over (T;q)_{2n}."""
    from .igusa import igusa_B

    f = igusa_B(n, -1, BivariatePolynomial.monomial(-1, n, 1), [(ci, n + 1) for ci in c])
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
    is the B_n group sum
    :func:`~heiszeta.verify.crossform.hyperoctahedral_numerator` at the c_i'
    (the tests compare the two); no count outside the package is compared
    with it.
    """
    check_limit("zeta_graded", "n", n)
    return _type_B_form(n, c_exponents_graded(n))


# ---------------------------------------------------------------------------
# series
# ---------------------------------------------------------------------------


def dirichlet_coeffs(n: int, p: int, order: int) -> list[int]:
    """Subalgebra counts a_{p^i} for i <= order: form b's numerator at q = p
    over each denominator factor 1 - p^a T^b, in integers."""
    from ._engine import _unroll_dense

    check_limit("dirichlet_coeffs", "q", p)
    check_limit("dirichlet_coeffs", "order", order)
    f = zeta_compact(n)
    at_p = f.num.eval_q(p)
    xs = [at_p.get(k, 0) for k in range(order + 1)]
    for (a, b), m in f.den.items():
        for _ in range(m):
            _unroll_dense(xs, b, p**a)
    return xs


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
    P = igusa_B(n, 0, BivariatePolynomial.monomial(-1, 0, 1), [(0, n + 1)] * (n + 1)).num
    for _ in range(n):
        quot = divide_out_factor(P, 0, 1)
        if quot is None:
            raise IdentityMismatch("(1-T)^%d does not divide the numerator" % n)
        P = quot
    return FactoredRational(P, {(0, 1): n, (0, n + 1): n + 1})


# ---------------------------------------------------------------------------
# global Euler factor
# ---------------------------------------------------------------------------


def global_factor(n: int) -> BivariatePolynomial:
    """N_n(X, Y) = sum over B_n of (-1)^neg X^{C(g)} Y^{D(g)}.

    Returned with (e_q, e_T) read as (X-, Y-) exponents; identical to the
    compact-form numerator after T^{(n+1) des + neg} is regrouped by D.
    This is the numerator of the cached :func:`zeta_hyperoctahedral`, which
    ``verify --checks crossform`` compares with the group sum
    :func:`~heiszeta.verify.crossform.hyperoctahedral_numerator`; no group
    element is built.
    """
    check_limit("global_factor", "n", n)
    return zeta_hyperoctahedral(n).num


def global_factor_eval(n: int) -> BivariatePolynomial:
    """N_n(p, p^{-2n}) as an exact Laurent polynomial in p (variable q)."""
    out: Counter = Counter()
    for (C, D), coeff in global_factor(n).terms.items():
        out[C - 2 * n * D, 0] += coeff
    return BivariatePolynomial(out)

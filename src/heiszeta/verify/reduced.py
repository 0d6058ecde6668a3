"""The reduced check: the reduced zeta functions against their Eulerian
form and a lattice-point oracle, and their leading coefficient c_n against
its telescoped form."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from ..errors import check_limit
from ..exactalg import BivariatePolynomial, FactoredRational
from ..zeta import reduced_zeta
from . import is_self_reciprocal


@lru_cache(maxsize=None)
def eulerian_A(d: int) -> tuple[int, ...]:
    """Coefficient list of the Eulerian polynomial A_d(X); A_0 = 1.

    For d >= 1 the polynomial is sum over S_d of X^{des+1}, returned as
    coefficients indexed by exponent.  Its coefficients A(m, k) of X^k obey
    A(m, k) = k A(m-1, k) + (m-k+1) A(m-1, k-1), so no permutation is built.
    """
    check_limit("eulerian_A", "d", d)
    coeffs = [1]
    for m in range(1, d + 1):
        prev = coeffs + [0]
        coeffs = [0] + [k * prev[k] + (m - k + 1) * prev[k - 1] for k in range(1, m + 1)]
    return tuple(coeffs)


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
    return 1 - n * sum(
        Fraction(math.comb(n - 1, k - 1) * math.factorial(k), (n + 1) ** (k + 1))
        for k in range(1, n + 1)
    )


def _check_reduced(n: int) -> dict:
    """reduced_zeta against the Eulerian form, the lattice-point oracle and
    self-reciprocity; reduced_c against its telescoped form and the limit
    P_n(1) / (n+1)^{n+1} of the normalized numerator, and inside (0, 1)."""
    f = reduced_zeta(n)
    series = [c.coefficient(0, 0) for c in f.series_in_T(10)]
    ok = series == reduced_cone_series(n, 10)
    ok = ok and is_self_reciprocal(f, 0, 2 * n + 1) and f == _reduced_eulerian(n)
    cn = reduced_c(n)
    limit = Fraction(sum(f.num.terms.values()), (n + 1) ** (n + 1))
    ok = ok and cn == _reduced_c_telescoped(n) == limit and 0 < cn < 1
    return {"status": "pass" if ok else "fail"}

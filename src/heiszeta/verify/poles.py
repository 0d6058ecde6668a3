"""The poles check: the pole orders of form b, exact in q, and the
double-pole law."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from ..errors import IdentityMismatch
from ..exactalg import FactoredRational
from ..zeta import special_exponent, zeta_compact


def pole_candidates(n: int) -> tuple[list[int], list[Fraction]]:
    """Integral candidates [2n-1]_0 and fractional candidates a_{n,r}/(n+1)."""
    integral = list(range(2 * n))
    fractional = sorted(
        {Fraction(special_exponent(n, r), n + 1) for r in range(n + 1)}
    )
    return integral, fractional


def pole_analysis(n: int) -> dict[Fraction, int]:
    """Exact pole orders of form b, {s: order} for every pole s in increasing
    order, each computed as an identity in q.

    Every denominator factor 1 - q^a T^b of the reduced compact form must sit
    over a candidate location s = a/b, and vanishes once at T = q^-s.  Write
    s = c/d in lowest terms.  Then T = q^-s is a root of 1 - q^c T^d, which
    is irreducible over Q(q) and prime to the factor of every other
    location.  So one reduction of the numerator over (1 - q^c T^d)^m, m the
    factor multiplicity over s, counts each location on its own: the order
    at s is the number of copies of 1 - q^c T^d left, and s is not a pole
    when none is left.  Raises IdentityMismatch on a factor off the
    candidate list.
    """
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
    keys = {s: (s.numerator, s.denominator) for s in sorted(mults)}
    left = FactoredRational(f.num, {keys[s]: mults[s] for s in keys}).reduced().den
    return {s: left[k] for s, k in keys.items() if k in left}


def _check_poles(n: int) -> dict:
    """The pole orders of form b, computed exactly in q, and the double-pole
    law: the poles of order 2 or more are exactly the s = m with m(m+1) = 4n
    (s = 3 at n = 3, s = 4 at n = 5).  The law is observed, not proved: it
    holds for every n <= 12, the n up to which verify runs this check."""
    orders = pole_analysis(n)
    double = [s for s, o in orders.items() if o >= 2]
    ok = double == [m for m in range(1, n + 1) if m * (m + 1) == 4 * n]
    detail = {
        "integral": [[int(s), o] for s, o in orders.items() if s.denominator == 1],
        "fractional": [[str(s), o] for s, o in orders.items() if s.denominator > 1],
        "double": [str(s) for s in double],
    }
    return {"status": "pass" if ok else "fail", "detail": detail}

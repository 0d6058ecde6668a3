"""The crossform check: forms a, b and c agree, and form c's numerator is
the statistic sum over B_n, its second derivation."""

from __future__ import annotations

from typing import Sequence

from ..exactalg import BivariatePolynomial
from ..zeta import c_exponents, zeta_compact, zeta_hyperoctahedral, zeta_igusa_sum
from .descent import signed_descent_sum


def hyperoctahedral_numerator(n: int, c: Sequence[int]) -> BivariatePolynomial:
    """Sum over B_n of (-1)^neg q^{C(g)} T^{(n+1) des_B(g) + neg(g)}.

    With C(g) = n neg - l + sum of c_i over Des_B(g) this is the group sum
    of :func:`~heiszeta.verify.descent.signed_descent_sum` at Y = q^-1,
    Z = -q^n T and descent slots X_i = q^{c_i} T^{n+1}, computed by its
    dynamic program.
    """
    Z = BivariatePolynomial.monomial(-1, n, 1)
    return signed_descent_sum(n, -1, Z, [(ci, n + 1) for ci in c[:n]])


def _check_crossform(n: int) -> dict:
    """Forms a, b and c agree, and form c's numerator is the B_n group sum."""
    a, b, c = zeta_igusa_sum(n), zeta_compact(n), zeta_hyperoctahedral(n)
    ok = a == b and b == c and c.num == hyperoctahedral_numerator(n, c_exponents(n))
    return {"status": "pass" if ok else "fail"}

"""The funeq check: form b satisfies the local functional equation."""

from __future__ import annotations

from ..errors import IdentityMismatch
from ..zeta import zeta_compact
from . import is_self_reciprocal


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


def _check_funeq(n: int) -> dict:
    return {"status": "pass", "detail": funeq_check(n)}

"""The package's only float code: the truncated numeric residue factor R_n.

Only `global --rn` imports this module, so no closed form compiles it.  It
builds on the global Euler-factor polynomial N_n of ``heiszeta.zeta``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

from .errors import check_limit
from .zeta import c_exponents, global_factor_eval


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

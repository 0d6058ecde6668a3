"""Exception types shared across the package, and the input checks that raise them."""


class HeiszetaError(Exception):
    """Base class for all package-specific errors."""


class UsageError(HeiszetaError):
    """An input is out of range or malformed; rejected before any computation."""


# Miller-Rabin with the first 13 primes as bases is exact below this bound,
# psi_13 (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981

# Largest --prime-bound of `global --rn` and --max-order of `coeffs`: each
# the largest power of ten at which its case finished inside 10 s on a
# 2-vCPU VM.  `global --n 6 --rn`, the largest n, took 1.6 s at a prime
# bound of 10^5 and 9.8 s at 10^6; `coeffs --n 1` took 1.8 s and 137 MB at
# a max-order of 10^3 and 9.5 s and 549 MB at 2000 (`coeffs --n 2`, 5.2 s
# and 301 MB at 10^3).  Far larger values end in a MemoryError.
PRIME_BOUND_LIMIT = 10**6
MAX_ORDER_LIMIT = 10**3


def check_prime(p: int) -> None:
    """Raise UsageError unless p is a prime below PRIME_LIMIT."""
    if p >= PRIME_LIMIT:
        raise UsageError("--prime must be below %d, the limit of the primality test, got %d"
                         % (PRIME_LIMIT, p))
    if p < 2 or not _is_prime(p):
        raise UsageError("--prime must be a prime, got %d" % p)


def _is_prime(p: int) -> bool:
    """Whether p >= 2 is a strong probable prime to every base of _PRIME_BASES:
    whether p is a prime, for p below PRIME_LIMIT."""
    if p in _PRIME_BASES:
        return True
    if any(p % b == 0 for b in _PRIME_BASES):
        return False
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _PRIME_BASES:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class SizeGuard(HeiszetaError):
    """An input exceeds a combinatorial-explosion guard (2^n n! and friends)."""


# Guarded entry point -> (least n, largest n).  Below the least n the object
# is undefined; above the largest n the cost explodes.  A largest n of None
# means no largest n: the cost stays small, or a budget bounds the
# enumeration instead.
N_RANGE = {
    "signed_descent_sum": (0, 8),
    "brenti_B": (0, 8),
    "eulerian_A": (0, 10),
    "fibre_K": (0, 8),
    "zeta_igusa_sum": (1, 5),
    "zeta_compact": (0, 12),
    "zeta_hyperoctahedral": (0, 6),
    "zeta_ideal": (0, None),
    "zeta_graded": (0, 6),
    "reduced_zeta": (0, 8),
    "reduced_cone_series": (0, None),
    "reduced_c": (0, 20),
    "global_factor": (0, 6),
    "rn_numeric": (2, 6),
    "enum_sublattices": (1, None),
    "enum_subalgebras": (0, None),
}


def check_n(name: str, n: int) -> None:
    """Raise ValueError below N_RANGE[name] and SizeGuard above it."""
    least, largest = N_RANGE[name]
    if n < least:
        raise ValueError("%s needs n >= %d, got %d" % (name, least, n))
    if largest is not None and n > largest:
        raise SizeGuard("%s guard: n = %d exceeds %d" % (name, n, largest))


class BudgetExceeded(HeiszetaError):
    """A brute-force enumeration would exceed its configured budget."""


class RankMismatch(HeiszetaError):
    """A partition has more parts than the ambient rank allows."""


class NonPolynomialReduction(HeiszetaError):
    """A rational sum that is provably a polynomial failed to clear its
    denominator; this always indicates an arithmetic bug."""


class NotRegularAtZero(HeiszetaError):
    """Series expansion requested for a function with a pole at T = 0."""


class ArityMismatch(HeiszetaError):
    """Wrong number of slot arguments for a generating function."""


class IdentityMismatch(HeiszetaError):
    """A proved rational identity failed to verify; indicates a bug."""


class FactorizationMismatch(HeiszetaError):
    """Oracle lattice counts contradict the Lagrangian-times-Birkhoff
    factorization; indicates a bug."""


class FunctionalEquationFailure(HeiszetaError):
    """The local functional equation failed to verify; indicates a bug."""


class DegenerateForm(HeiszetaError):
    """An alternating form is degenerate over the fraction field."""


class SingularMatrix(HeiszetaError):
    """A matrix required to be nonsingular has determinant zero."""

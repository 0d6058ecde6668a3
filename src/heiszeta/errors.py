"""Exception types shared across the package, and the input checks that raise them."""

import math


class HeiszetaError(Exception):
    """Base class for all package-specific errors."""


class UsageError(HeiszetaError):
    """An input is out of range or malformed; rejected before any computation."""


def check_prime(p: int) -> None:
    """Raise UsageError unless p is a prime."""
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise UsageError("--prime must be a prime, got %d" % p)


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
    "igusa_B": (0, 6),
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

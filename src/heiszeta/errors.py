"""Exception types shared across the package."""


class HeiszetaError(Exception):
    """Base class for all package-specific errors."""


class UsageError(HeiszetaError):
    """A command-line input is out of range or malformed; rejected before
    any computation."""


class SizeGuard(HeiszetaError):
    """An input exceeds a combinatorial-explosion guard (2^n n! and friends)."""


class BudgetExceeded(HeiszetaError):
    """A brute-force enumeration would exceed its configured budget."""


class RankMismatch(HeiszetaError):
    """A partition has more parts than the ambient rank allows."""


class NonPolynomialReduction(HeiszetaError):
    """A rational sum that is provably a polynomial failed to clear its
    denominator; this always indicates an arithmetic bug."""


class SubstitutionSingular(HeiszetaError):
    """A substitution hits a vanishing denominator factor (e.g. q -> 1 with
    an unremoved factor 1 - q^a)."""


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

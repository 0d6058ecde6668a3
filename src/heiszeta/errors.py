"""Exception types shared across the package, and the input checks that raise them."""


class HeiszetaError(Exception):
    """Base class for all package-specific errors."""


class UsageError(HeiszetaError, ValueError):
    """An argument is out of range, malformed or outside a function's domain."""


# Miller-Rabin with the first 13 primes as bases is exact below this bound,
# psi_13 (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def check_prime(p: int) -> None:
    """Raise UsageError unless p is a prime, and SizeGuard from PRIME_LIMIT on."""
    check_limit("check_prime", "p", p)
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


class BudgetExceeded(SizeGuard):
    """A brute-force enumeration would exceed its configured budget."""


# Every numeric input limit: (entry point or budget, value) -> (least, largest).
# Below the least value the object is undefined; above the largest the cost
# explodes.  A largest value set by cost is the largest round value whose case
# finishes inside 10 s on a 2-vCPU VM and peaks under 1 GB in a fresh process;
# the row comments give the measurements.  None means no bound on that side:
# no largest value means the cost stays small, or a budget bounds the
# enumeration instead.  The rows of "budget" bound the size of a brute-force
# enumeration, not an input.
LIMITS = {
    ("signed_descent_sum", "n"): (0, 8),
    ("eulerian_A", "d"): (0, None),
    ("fibre_K", "n"): (0, 8),
    # the number of generic marker slots of the fibre and residue checks
    ("generic_slots", "count"): (0, 10),
    ("zeta_igusa_sum", "n"): (1, 5),
    ("zeta_compact", "n"): (0, 12),
    ("zeta_hyperoctahedral", "n"): (0, 6),
    # the largest power of ten by the rule: `zeta --n 1000000 --form ideal`
    # took 5.4-6.7 s and 604 MB (10^5: 0.8 s and 86 MB), so 10^7 would take
    # about a minute and 6 GB
    ("zeta_ideal", "n"): (0, 10**6),
    ("zeta_graded", "n"): (0, 6),
    ("reduced_zeta", "n"): (0, 8),
    ("reduced_cone_series", "n"): (0, None),
    ("reduced_c", "n"): (0, 20),
    ("global_factor", "n"): (0, 6),
    ("rn_numeric", "n"): (2, 6),
    ("enum_sublattices", "n"): (1, None),
    ("enum_subalgebras", "n"): (0, None),
    # the largest n by the rule: gen_W(n) builds 2^n vectors, n = 21 took
    # 2.9-3.4 s and 675-677 MB (n = 20: 1.4 s and 336 MB), and each step
    # doubles both, so n = 22 would peak near 1.4 GB
    ("gen_W", "n"): (0, 21),
    ("gauss_binom", "n"): (0, None),
    ("qpochhammer", "m"): (0, None),
    # igusa_A and igusa_B
    ("Igusa functions", "degree n"): (0, None),
    # hnf_count and hnf_enumerate
    ("HNF enumeration", "rank"): (0, None),
    # Q and q are sizes of residue fields
    ("birkhoff_number", "Q"): (2, None),
    ("dirichlet_coeffs", "q"): (2, None),
    # not a library limit: at n = 0 crossform raises and reduced fails
    # 0 < c_0 < 1
    ("verify", "n"): (1, None),
    # The largest prime bound and order: each the largest power of ten by
    # the rule.  `global --n 6 --rn`, the largest n, took 1.6 s at a prime
    # bound of 10^5 and 9.8 s at 10^6 (3.1-5.3 s and 18 MB since the
    # half-bound value comes from the same pass); far larger bounds end in a
    # MemoryError.  `coeffs --n 12 --prime 2`, the largest n, takes 1.05 s
    # and 43 MB at an order of 10^3; at 10^4 its integer recurrence takes
    # 3.7 s and 192 MB, but printing its counts of up to 69,000 digits did
    # not end inside 30 s.
    ("rn_numeric", "prime_bound"): (2, 10**6),
    ("dirichlet_coeffs", "order"): (0, 10**3),
    # the primality test is exact below PRIME_LIMIT; below 2 is no prime
    ("check_prime", "p"): (None, PRIME_LIMIT - 1),
    # enum_sublattices, enum_subalgebras and check_factorization
    ("lattice oracles", "max valuation"): (0, None),
    # HNF bases enumerated up to the max valuation, counted before any is
    # built, and the elements p^(2|mu|) of the module M_mu whose Lagrangians
    # are grown
    ("budget", "HNF bases"): (None, 2_000_000),
    ("budget", "|M_mu|"): (None, 3**10),
}


def check_limit(owner: str, what: str, value: int) -> None:
    """Raise UsageError below LIMITS[owner, what] and SizeGuard above it;
    BudgetExceeded above a budget."""
    least, largest = LIMITS[owner, what]
    if least is not None and value < least:
        raise UsageError("%s: %s must be >= %d, got %d" % (owner, what, least, value))
    if largest is not None and value > largest:
        refuse = BudgetExceeded if owner == "budget" else SizeGuard
        raise refuse("%s: %s = %d exceeds %d" % (owner, what, value, largest))


class IdentityMismatch(HeiszetaError):
    """A proved identity failed to verify; indicates a bug."""

"""Combinatorial ground sets and statistics.

Partitions, the two-choice vectors w indexing the Lagrangian-count closed
formula, permutations of [n] with descent/coset statistics, the statistic
sum over the hyperoctahedral group B_n (a dynamic program; no group element
is built), and the type-A Eulerian polynomials (the type-B one is the
numerator of ``igusa.igusa_B`` at Y = 1).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import UsageError, check_limit

if TYPE_CHECKING:  # the oracles load this module without the exact kernel
    from .exactalg import BivariatePolynomial, FactoredRational, SignedMonomial


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


class Partition:
    """Weakly decreasing tuple of nonnegative integers.

    Trailing zeros are allowed on input and stripped for equality and
    hashing; operations that depend on the ambient rank (like Birkhoff
    numbers) take an explicit rank argument instead.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(parts)
        if any(p < 0 for p in parts):
            raise UsageError("negative part")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise UsageError("parts must be weakly decreasing")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        self.parts = parts

    @classmethod
    def from_string(cls, s: str) -> "Partition":
        s = s.strip()
        if not s:
            return cls(())
        return cls(tuple(int(x) for x in s.split(",")))

    def size(self) -> int:
        return sum(self.parts)

    def num_parts(self) -> int:
        return len(self.parts)

    def padded(self, n: int) -> tuple[int, ...]:
        if len(self.parts) > n:
            raise UsageError("partition has more than %d parts" % n)
        return self.parts + (0,) * (n - len(self.parts))

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self == Partition(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)


def partitions_up_to(max_size: int, max_parts: int) -> list[Partition]:
    """All partitions with at most max_parts parts and size at most max_size.

    Ordered by size, and within a size with larger first parts first, so the
    listing starts (), (1), (2), (1,1), (3), (2,1), ...
    """
    out: list[Partition] = []

    def rec(remaining: int, biggest: int, budget: int, prefix: tuple):
        if remaining == 0:
            out.append(Partition(prefix))
            return
        if budget == 0:
            return
        top = min(remaining, biggest)
        for p in range(top, 0, -1):
            if p * budget < remaining:
                break
            rec(remaining - p, p, budget - 1, prefix + (p,))

    for size in range(max_size + 1):
        rec(size, size, max_parts, ())
    return out


# ---------------------------------------------------------------------------
# the sets W_n and their fibres
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def gen_W(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2^n admissible vectors (w_1, ..., w_n), sorted lexicographically."""
    check_limit("gen_W", "n", n)
    vecs = [()]
    for i in range(1, n + 1):
        nxt = []
        for w in vecs:
            prev = w[-1] if w else 0
            nxt.append(w + (prev,))
            other = 2 * i - 1 - prev
            if other != prev:
                nxt.append(w + (other,))
        vecs = nxt
    return tuple(sorted(vecs))


def w_partial_sums(w: Sequence[int]) -> tuple[int, ...]:
    """(sum_{i<=1} w_i, ..., sum_{i<=n} w_i)."""
    return tuple(itertools.accumulate(w))


def weight_C(w: Sequence[int]) -> FactoredRational:
    """C(w) = prod_i 1 / (1 - q^{2i - 1 - 2 w_i})."""
    from .exactalg import FactoredRational

    return FactoredRational.one_over(
        (2 * i - 1 - 2 * wi, 0) for i, wi in enumerate(w, start=1)
    )


def fibre_W(k: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The fibre {w : w_k in {r, 2k+1-r}}; empty unless r in [2k+1]_0."""
    if r < 0 or r > 2 * k + 1:
        return ()
    if k == 0:
        return ((),)
    targets = {r, 2 * k + 1 - r}
    return tuple(w for w in gen_W(k) if w[-1] in targets)


# ---------------------------------------------------------------------------
# permutations of [n]
# ---------------------------------------------------------------------------


def perms(n: int) -> Iterator[tuple[int, ...]]:
    """All one-line windows (g(1), ..., g(n)) on values 1..n."""
    return itertools.permutations(range(1, n + 1))


def descent_set(g: Sequence[int]) -> frozenset[int]:
    return frozenset(
        i for i in range(1, len(g)) if g[i - 1] > g[i]
    )


def coset_stats(g: Sequence[int], k: int) -> tuple[int, int, frozenset[int]]:
    """(t_k, ell_k^+, Des_{>k}) for the coset g S_k, with g(n+1) := n+1.

    t_k counts entries among the first k exceeding g(k+1); ell_k^+ counts
    inversions whose second index is beyond k; Des_{>k} keeps descents at
    positions k+1, ..., n-1.  All three are constant on the coset.
    """
    n = len(g)
    if k > n:
        raise UsageError("k must be at most n")
    nxt = g[k] if k < n else n + 1
    t_k = sum(1 for i in range(k) if g[i] > nxt)
    ell = sum(
        1
        for j in range(k, n)
        for i in range(j)
        if g[i] > g[j]
    )
    des = frozenset(i for i in descent_set(g) if i >= k + 1)
    return t_k, ell, des


def coset_reps(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Canonical representatives of S_n / S_k: first k window entries sorted."""
    values = range(1, n + 1)
    for head in itertools.combinations(values, k):
        rest = [v for v in values if v not in head]
        for tail in itertools.permutations(rest):
            yield head + tail


# ---------------------------------------------------------------------------
# the statistic sum over the hyperoctahedral group B_n
# ---------------------------------------------------------------------------


def signed_descent_sum(
    n: int,
    y_exponent: int,
    Z: SignedMonomial,
    X: Sequence[SignedMonomial],
) -> BivariatePolynomial:
    """Sum over B_n of Y^l(g) Z^neg(g) prod_{i in Des_B(g)} X_i, Y = q^y_exponent.

    X lists the descent slots X_0 .. X_{n-1}.  A dynamic program fills the
    window left to right; its state is the set U of absolute values placed
    so far and the last signed entry (0 before the first), at most
    2^n * 2n states against 2^n n! group elements.  It uses
    l(g) = sum_j L_j + sum_{g(j) < 0} (1 + 2 E_j), with L_j and E_j the
    numbers of smaller absolute values after and before position j; this
    equals inv(window) + sum of |g(j)| over the negative entries.  Placing
    b outside U gives E = #{u in U : u < b} and L = b - 1 - E whatever the
    sign, and a descent at index k when the last entry exceeds the new one.
    """
    from .exactalg import BivariatePolynomial, _p_iadd

    check_limit("signed_descent_sum", "n", n)
    if len(X) != n:
        raise UsageError("need the %d descent slots X_0 .. X_%d" % (n, n - 1))
    y = y_exponent
    layer: dict = {(0, 0): {(0, 0): 1}}
    for k in range(n):
        x = X[k]
        nxt: dict = {}
        for (used, last), poly in layer.items():
            below = 0
            for b in range(1, n + 1):
                bit = 1 << (b - 1)
                if used & bit:
                    below += 1
                    continue
                for v in (b, -b):
                    dq, dt, sign = y * (b - 1 - below), 0, 1
                    if v < 0:
                        dq += y * (1 + 2 * below) + Z.e_q
                        dt += Z.e_T
                        sign = Z.sign
                    if last > v:
                        dq += x.e_q
                        dt += x.e_T
                        sign *= x.sign
                    _p_iadd(nxt.setdefault((used | bit, v), {}), poly, sign, dq, dt)
        layer = nxt
    total: dict = {}
    for poly in layer.values():
        _p_iadd(total, poly)
    return BivariatePolynomial(total)


# ---------------------------------------------------------------------------
# type-A Eulerian polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def eulerian_A(d: int) -> tuple[int, ...]:
    """Coefficient list of the Eulerian polynomial A_d(X); A_0 = 1.

    For d >= 1 the polynomial is sum over S_d of X^{des+1}, returned as
    coefficients indexed by exponent.
    """
    check_limit("eulerian_A", "d", d)
    if d == 0:
        return (1,)
    coeffs = [0] * (d + 1)
    for g in perms(d):
        coeffs[len(descent_set(g)) + 1] += 1
    return tuple(coeffs)


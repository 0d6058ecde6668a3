"""Combinatorial ground sets and statistics.

Partitions, the two-choice vectors w indexing the Lagrangian-count closed
formula, permutations of [n] with descent/coset statistics, signed
permutations of the hyperoctahedral group with their length, descent,
negativity and derived statistics, and the Eulerian polynomials of types A
and B.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import ArityMismatch, check_n
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
            raise ValueError("negative part")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
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
            raise ValueError("partition has more than %d parts" % n)
        return self.parts + (0,) * (n - len(self.parts))

    def multiplicity(self, j: int) -> int:
        return sum(1 for p in self.parts if p == j)

    def difference_vector(self, n: int) -> tuple[int, ...]:
        """d_i = mu_i - mu_{i+1} for i < n, d_n = mu_n (on the n-padding)."""
        mu = self.padded(n)
        return tuple(
            mu[i] - mu[i + 1] if i + 1 < n else mu[i] for i in range(n)
        )

    def n_stat(self) -> int:
        """sum_i (i - 1) * parts_i."""
        return sum(i * p for i, p in enumerate(self.parts))

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


def is_w_vector(w: Sequence[int]) -> bool:
    prev = 0
    for i, wi in enumerate(w, start=1):
        if wi not in (prev, 2 * i - 1 - prev):
            return False
        prev = wi
    return True


@lru_cache(maxsize=None)
def gen_W(n: int) -> tuple[tuple[int, ...], ...]:
    """All 2^n admissible vectors (w_1, ..., w_n), sorted lexicographically."""
    if n < 0:
        raise ValueError("n must be nonnegative")
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


def inversions(g: Sequence[int]) -> int:
    n = len(g)
    return sum(1 for i in range(n) for j in range(i + 1, n) if g[i] > g[j])


def coset_stats(g: Sequence[int], k: int) -> tuple[int, int, frozenset[int]]:
    """(t_k, ell_k^+, Des_{>k}) for the coset g S_k, with g(n+1) := n+1.

    t_k counts entries among the first k exceeding g(k+1); ell_k^+ counts
    inversions whose second index is beyond k; Des_{>k} keeps descents at
    positions k+1, ..., n-1.  All three are constant on the coset.
    """
    n = len(g)
    if k > n:
        raise ValueError("k must be at most n")
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
# signed permutations (hyperoctahedral group)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignedPermutation:
    """Element of B_n in window notation (g(1), ..., g(n)).

    The absolute values form a permutation of [n]; each entry carries a sign.
    """

    window: tuple[int, ...]

    def __post_init__(self):
        n = len(self.window)
        if sorted(abs(x) for x in self.window) != list(range(1, n + 1)):
            raise ValueError("window is not a signed permutation of [n]")

    @property
    def n(self) -> int:
        return len(self.window)

    def length(self) -> int:
        """Coxeter length: inv(window) + sum of |g(i)| over negative entries."""
        w = self.window
        inv = sum(
            1
            for i in range(len(w))
            for j in range(i + 1, len(w))
            if w[i] > w[j]
        )
        return inv + sum(-x for x in w if x < 0)

    def descent_set_B(self) -> frozenset[int]:
        """{i in [n-1]_0 : g(i) > g(i+1)} with g(0) = 0."""
        w = (0,) + self.window
        return frozenset(i for i in range(len(w) - 1) if w[i] > w[i + 1])

    def neg(self) -> int:
        return sum(1 for x in self.window if x < 0)

    def stat_C(self, c: Sequence[int]) -> int:
        """n*neg - length + sum of c_i over the type-B descent set."""
        return (
            self.n * self.neg()
            - self.length()
            + sum(c[i] for i in self.descent_set_B())
        )

    def stat_D(self) -> int:
        """(n+1)*des_B + neg."""
        return (self.n + 1) * len(self.descent_set_B()) + self.neg()

    def __str__(self):
        return ",".join(str(x) for x in self.window)


def signed_perms(n: int) -> Iterator[SignedPermutation]:
    """All 2^n n! signed permutations, deterministic order."""
    check_n("signed_perms", n)
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(tuple(s * v for s, v in zip(signs, perm)))


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
    check_n("signed_descent_sum", n)
    if len(X) != n:
        raise ArityMismatch("need the %d descent slots X_0 .. X_%d" % (n, n - 1))
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
                    target = nxt.setdefault((used | bit, v), {})
                    for (eq, et), c in poly.items():
                        key = (eq + dq, et + dt)
                        target[key] = target.get(key, 0) + sign * c
        layer = nxt
    total: dict = {}
    for poly in layer.values():
        for key, c in poly.items():
            total[key] = total.get(key, 0) + c
    return BivariatePolynomial(total)


def signed_perm_length_bfs(n: int) -> dict[tuple[int, ...], int]:
    """Coxeter lengths by breadth-first search over the generators.

    Independent cross-check of :meth:`SignedPermutation.length`; meant for
    n <= 3 where the group is tiny.
    """
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            images = [(-w[0],) + w[1:]] if n else []
            for i in range(n - 1):
                images.append(w[:i] + (w[i + 1], w[i]) + w[i + 2:])
            for img in images:
                if img not in dist:
                    dist[img] = dist[w] + 1
                    nxt.append(img)
        frontier = nxt
    return dist


# ---------------------------------------------------------------------------
# Eulerian polynomials
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def eulerian_A(d: int) -> tuple[int, ...]:
    """Coefficient list of the Eulerian polynomial A_d(X); A_0 = 1.

    For d >= 1 the polynomial is sum over S_d of X^{des+1}, returned as
    coefficients indexed by exponent.
    """
    check_n("eulerian_A", d)
    if d == 0:
        return (1,)
    coeffs = [0] * (d + 1)
    for g in perms(d):
        coeffs[len(descent_set(g)) + 1] += 1
    return tuple(coeffs)


def brenti_B(n: int) -> BivariatePolynomial:
    """Type-B Eulerian polynomial B_n(X, Y) = sum Y^neg X^des_B.

    Computed from the generating identity
    sum_i (1 + (1+Y) i)^n X^i = B_n(X, Y) / (1 - X)^{n+1}:
    since B_n has X-degree at most n, it is the X-truncation of
    (1 - X)^{n+1} times the partial sum through X^n.  The direct sum over
    the group is kept as a cross-check in the tests.  Returned as a
    BivariatePolynomial with (e_q, e_T) read as (X-, Y-) exponents.
    """
    check_n("brenti_B", n)
    partial: dict = {}
    for i in range(n + 1):
        # (1 + (1+Y) i)^n = sum_k C(n,k) (1+i)^{n-k} i^k Y^k
        for k in range(n + 1):
            c = math.comb(n, k) * (1 + i) ** (n - k) * i**k
            if c:
                partial[(i, k)] = c
    out = BivariatePolynomial(partial)
    for _ in range(n + 1):  # multiply by (1 - X)^{n+1}
        out = out - out.shift(dq=1)
    return BivariatePolynomial(
        {(i, k): c for (i, k), c in out.terms.items() if i <= n}
    )


def brenti_B_by_enumeration(n: int) -> BivariatePolynomial:
    """B_n(X, Y) summed over the group directly; the defining formula."""
    terms: dict = {}
    for g in signed_perms(n):
        k = (len(g.descent_set_B()), g.neg())
        terms[k] = terms.get(k, 0) + 1
    return BivariatePolynomial(terms)

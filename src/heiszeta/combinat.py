"""Combinatorial ground sets and statistics.

Partitions, each a tuple of its parts, and the two-choice vectors w
indexing the Lagrangian-count closed formula with their weights C(w).  The
permutation statistics, the statistic sum over the hyperoctahedral group B_n
and the Eulerian polynomials are second derivations, in ``heiszeta.verify``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .errors import UsageError, check_limit

if TYPE_CHECKING:  # the oracles load this module without the exact kernel
    from .exactalg import FactoredRational


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


class Partition(tuple):
    """A partition: a weakly decreasing tuple of positive integers.

    Trailing zeros are allowed on input and stripped, so a partition equals,
    hashes and sorts as the plain tuple of its parts; operations that depend
    on the ambient rank (like Birkhoff numbers) take an explicit rank
    argument instead.
    """

    __slots__ = ()

    def __new__(cls, parts: Sequence[int] = ()):
        try:
            parts = tuple(parts)
        except TypeError:
            raise UsageError("a partition is a sequence of parts, got %r" % (parts,)) from None
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool):
                raise UsageError("parts must be integers")
            if p < 0:
                raise UsageError("negative part")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise UsageError("parts must be weakly decreasing")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return super().__new__(cls, parts)

    @classmethod
    def from_string(cls, s: str) -> "Partition":
        s = s.strip()
        if not s:
            return cls(())
        try:
            parts = [int(x) for x in s.split(",")]
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return cls(parts)

    def padded(self, n: int) -> tuple[int, ...]:
        if len(self) > n:
            raise UsageError("partition has more than %d parts" % n)
        return self + (0,) * (n - len(self))

    def __str__(self):
        return ",".join(map(str, self))


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
# the sets W_n
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


def weight_C(w: Sequence[int]) -> FactoredRational:
    """C(w) = prod_i 1 / (1 - q^{2i - 1 - 2 w_i})."""
    from .exactalg import FactoredRational

    return FactoredRational.one_over(
        (2 * i - 1 - 2 * wi, 0) for i, wi in enumerate(w, start=1)
    )

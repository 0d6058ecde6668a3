"""Brute-force enumeration oracles over Z/p^k.

Ground truth for every closed form in the package: Lagrangian submodules of
finite alternating modules, Hermite-normal-form sublattice enumeration
classified by quotient and symplectic type, and Heisenberg subalgebra counts.
Budgets are hard errors, never silent truncation.  Every isotropic subgroup
is built, as a bitset over the elements of the module, and every HNF is
enumerated and classified exactly: one local Smith elimination per distinct
minor on the non-unit diagonal entries and per distinct Gram matrix.

One symplectic form serves both lattice enumerations: `_omega` pairs x_{2i-1}
with x_{2i}, the y-coefficient of the bracket of h_n.  An HNF basis is a
tuple of row tuples.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .combinat import Partition, partitions_up_to
from .errors import IdentityMismatch, UsageError, check_limit, check_prime


# ---------------------------------------------------------------------------
# Smith normal form and alternating type
# ---------------------------------------------------------------------------


def _smith_diagonal(mat: Sequence[Sequence[int]], p: int) -> list[int]:
    """p-valuations of the Smith diagonal, by fraction-free elimination over Z_(p).

    Pivots on a nonzero entry p^v u of least valuation (the first unit ends
    the search, since no valuation is below 0), replaces every other row r by
    u r - (r_j / p^v) (pivot row), which is unimodular over the integers
    localized at p because p does not divide u, then drops the pivot row and
    column and records v.  A row with r_j = 0 is kept as it is: u r differs
    from r by a unit.  Stops when what is left is all zero, so a matrix of
    rank r gives r valuations.
    """
    rows = [list(row) for row in mat]
    vals = []
    while rows:
        pivot = _least_pivot(rows, p)
        if pivot is None:
            break
        v, i, j = pivot
        top, pv = rows.pop(i), p**v
        u = top.pop(j) // pv
        nxt = []
        for r in rows:
            f = r.pop(j) // pv
            nxt.append([u * a - f * b for a, b in zip(r, top)] if f else r)
        rows = nxt
        vals.append(v)
    return vals


def _least_pivot(rows: list[list[int]], p: int) -> tuple[int, int, int] | None:
    """(v, i, j) of the first entry of least p-valuation v, None if all are zero."""
    pivot = None  # x % p^v is nonzero iff x has valuation below v
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            if x and (pivot is None or x % p ** pivot[0]):
                if x % p:
                    return 0, i, j
                pivot = (_valuation(x, p), i, j)
    return pivot


def _valuation(x: int, p: int) -> int:
    if x == 0:
        raise UsageError("0 has no finite %d-adic valuation" % p)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def smith_type(mat: Sequence[Sequence[int]], p: int) -> Partition:
    """Quotient type of Z^r / M Z^r at p: p-valuations of the SNF diagonal."""
    check_prime(p)
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise UsageError("matrix must be square")
    vals = _smith_diagonal(mat, p)
    if len(vals) < n:
        raise UsageError("matrix has determinant zero")
    return Partition(sorted(vals, reverse=True))


def alt_type(gram: Sequence[Sequence[int]], p: int) -> Partition:
    """Symplectic elementary-divisor type of an alternating Gram matrix.

    Over a local ring an alternating form admits a symplectic basis, so the
    Smith divisors pair up; the type keeps one valuation per pair.
    """
    check_prime(p)
    n = len(gram)
    if n % 2:
        raise UsageError("alternating matrix of odd size is degenerate")
    for i in range(n):
        if gram[i][i] != 0:
            raise UsageError("nonzero diagonal entry")
        for j in range(i + 1, n):  # the check is symmetric in (i, j)
            if gram[i][j] != -gram[j][i]:
                raise UsageError("matrix is not alternating")
    vals = sorted(_smith_diagonal(gram, p), reverse=True)
    if len(vals) < n:
        raise UsageError("form is degenerate over the fraction field")
    if vals[0::2] != vals[1::2]:
        raise IdentityMismatch("alternating divisors failed to pair up")
    return Partition(tuple(vals[0::2]))


# ---------------------------------------------------------------------------
# finite alternating modules
# ---------------------------------------------------------------------------

class AltModule:
    """The alternating module M_mu: blocks (Z/p^{mu_i}) e_i + (Z/p^{mu_i}) f_i.

    An element (a_1, b_1, ..., a_l, b_l) has coordinates x_k modulo m_k and
    the mixed-radix index sum_k x_k r_k, r_k = m_0 ... m_{k-1}; a set of
    elements is a bitset, the int with the bits of their indices set.  The
    pairing takes values in (1/E) Z / Z for the exponent E = p^{mu_1},
    represented by integers modulo E with zero meaning perpendicular.
    """

    def __init__(self, mu: tuple[int, ...], p: int):
        self.mu, self.p = mu, p
        self.mods = tuple(p**m for m in mu for _ in (0, 1))
        self.exponent = p ** (mu[0] if mu else 0)
        self.scale = tuple(self.exponent // p**m for m in mu)
        self.radix = tuple(math.prod(self.mods[:k]) for k in range(len(self.mods)))
        self.size = math.prod(self.mods)
        self._below: dict[tuple[int, int], int] = {}
        self._torsion: list[int] | None = None

    def coords(self, i: int) -> tuple[int, ...]:
        """The coordinates of the element with index i."""
        return tuple(i // r % m for r, m in zip(self.radix, self.mods))

    def below(self, k: int, t: int) -> int:
        """The bitset of the elements whose coordinate k is below t."""
        if (k, t) not in self._below:
            r = self.radix[k]
            self._below[k, t] = _comb(r * self.mods[k], self.size) * ((1 << t * r) - 1)
        return self._below[k, t]

    def rotation(self, v: Sequence[int]) -> tuple[tuple[int, int, int, int], ...]:
        """The steps of s -> s + v on bitsets, one per nonzero coordinate c
        of v: an element whose x_k is below m_k - c moves up by c r_k, the
        others down by (m_k - c) r_k.  `_span` applies them."""
        return tuple((self.below(k, m - c), c * r, (m - c) * r, self.below(k, c))
                     for k, (c, m, r) in enumerate(zip(v, self.mods, self.radix)) if c)

    def grid(self, steps: Sequence[int]) -> int:
        """The bitset of the elements whose coordinate k is a multiple of steps[k] | m_k."""
        return math.prod(_comb(q * r, m * r) for q, m, r in zip(steps, self.mods, self.radix))

    def orth(self, v: Sequence[int]) -> int:
        """The bitset of {x : <x, v> = 0}, where <x, v> = sum_k w_k x_k modulo E.

        d -> w_k d modulo E has a period t_k dividing m_k.  Over the digits
        below t_k, one coordinate at a time, keeps for each value of the
        pairing so far the bitset of the elements reaching it (at the last
        coordinate, only the value 0); the product with `grid(t)` then adds
        the multiples of t_k to each digit, without carries.
        """
        e, last = self.exponent, len(self.mods) - 1
        w = [c % e for i, s in enumerate(self.scale) for c in (s * v[2 * i + 1], -s * v[2 * i])]
        periods = [e // math.gcd(c, e) for c in w]
        sums = {0: 1}  # value of the pairing so far -> bitset over those coordinates
        for k in range(last):
            nxt: dict[int, int] = {}
            for s, bits in sums.items():
                for d in range(periods[k]):
                    key = (s + w[k] * d) % e
                    nxt[key] = nxt.get(key, 0) | bits << d * self.radix[k]
            sums = nxt
        solve = {-w[last] * d % e: d * self.radix[last] for d in range(periods[last])}
        zero = sum(bits << solve[s] for s, bits in sums.items() if s in solve)
        return zero * self.grid(periods)

    def subgroup_type(self, sub: int) -> Partition:
        """Abelian type of a subgroup: |sub & M[p^k]| = p^{lambda'_1 + ... + lambda'_k}
        for the conjugate partition lambda', where M[p^k] = {x : p^k x = 0}."""
        if self._torsion is None:
            self._torsion = [self.grid([max(m // self.p**k, 1) for m in self.mods])
                             for k in range(1, max(self.mu, default=0) + 1)]
        sizes = [0] + [_valuation((sub & t).bit_count(), self.p) for t in self._torsion]
        conj = [b - a for a, b in zip(sizes, sizes[1:])]  # lambda'_k, the number of parts >= k
        return Partition(sum(c > i for c in conj) for i in range(conj[0] if conj else 0))


def _span(s: int, rotation: Sequence[tuple[int, int, int, int]], p: int) -> int:
    """The bitset s + {0, v, ..., (p - 1) v}, for the `AltModule.rotation` of v."""
    out = s
    for _ in range(1, p):
        for low, up, down, high in rotation:
            s = (s & low) << up | (s >> down) & high
        out |= s
    return out


def _comb(period: int, total: int) -> int:
    """The bits 0, period, 2 period, ... below bit `total`, a multiple of `period`."""
    bits, span = 1, period
    while span < total:
        bits |= bits << span
        span *= 2
    return bits & ((1 << total) - 1)


def enum_lagrangians(mu, p: int) -> dict[Partition, int]:
    """Count Lagrangian submodules of M_mu by module type.

    Grows isotropic subgroups one index-p step at a time, each a bitset of
    `AltModule` kept with its perp and its preimage under x -> p x.  Each
    candidate v in perp & preimage & ~sub gives sub + <v>, the span of p
    translates, with the perp perp & orth(v); its bits leave the candidates.
    A subgroup of order p^{|mu|} contained in its own perp equals it, hence
    is Lagrangian.  Returns {quotient type lambda: count}; the total is N'(mu).
    """
    check_prime(p)
    mu = Partition(mu)
    m = sum(mu)
    check_limit("budget", "|M_mu|", p ** (2 * m))
    if m == 0:
        return {Partition(()): 1}
    mod = AltModule(mu, p)
    multiples = mod.grid([p] * len(mod.mods))  # pM
    gens: dict[int, tuple] = {}  # index of v -> (rotation, orth(v) unless first met last)
    # subgroup -> (perp, preimage); grown by index p per step, deduplicated globally
    level = {1: ((1 << mod.size) - 1, mod.grid([q // p for q in mod.mods]))}
    for step in range(m):
        last = step == m - 1
        nxt: dict[int, tuple[int, int] | None] = {}
        for sub, (perp, pre) in level.items():
            todo = perp & pre & ~sub
            while todo:
                i = (todo & -todo).bit_length() - 1
                if i not in gens:
                    v = mod.coords(i)
                    gens[i] = (mod.rotation(v), None if last else mod.orth(v))
                rotation, orth = gens[i]
                grown = _span(sub, rotation, p)
                todo &= ~grown
                if last:
                    nxt[grown] = None
                elif grown not in nxt:
                    hit = (grown ^ sub) & multiples  # p u in grown, not in sub: u joins pre
                    u = [c // p for c in mod.coords(hit.bit_length() - 1)] if hit else ()
                    nxt[grown] = (perp & orth, _span(pre, mod.rotation(u), p))
        level = nxt
    out: dict[Partition, int] = {}
    for sub in level:  # the Lagrangians
        lam = mod.subgroup_type(sub)
        out[lam] = out.get(lam, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Hermite normal form enumeration
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Diagonal valuations of the HNFs of rank `parts` and index p^total."""
    if parts <= 0:
        check_limit("HNF enumeration", "rank", parts)
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def hnf_count(rank: int, p: int, valuation: int) -> int:
    """Number of HNF matrices with determinant p^valuation in the given rank."""
    # column j has j entries above the diagonal
    return sum(math.prod((p**b) ** j for j, b in enumerate(comp))
               for comp in _compositions(valuation, rank))


def hnf_enumerate(rank: int, p: int, valuation: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All sublattices of Z^rank with index p^valuation, as HNF row tuples.

    The basis is upper triangular with each above-diagonal entry reduced
    modulo the diagonal entry of its column: one basis per sublattice.  Row i
    is (0, ..., 0, d_i, t_{i+1}, ..., t_{rank-1}) with t_j in range(d_j), so
    the rows are chosen independently.
    """
    for comp in _compositions(valuation, rank):
        diag = [p**b for b in comp]
        choices = [
            [(0,) * i + (diag[i],) + tail
             for tail in itertools.product(*(range(d) for d in diag[i + 1:]))]
            for i in range(rank)
        ]
        yield from itertools.product(*choices)


def _omega(u: Sequence[int], v: Sequence[int], n: int) -> int:
    """sum_i (u_{2i-1} v_{2i} - u_{2i} v_{2i-1}): the y-coefficient of [u, v] in h_n.

    The symplectic form of Z^{2n}; a y-coordinate past the first 2n is ignored.
    """
    total = 0
    for i in range(0, 2 * n, 2):
        total += u[i] * v[i + 1] - u[i + 1] * v[i]
    return total


def _gram(upper: Sequence[int], size: int) -> list[list[int]]:
    """The alternating Gram matrix with `upper` above the diagonal, row by row."""
    mat = [[0] * size for _ in range(size)]
    for (i, j), w in zip(itertools.combinations(range(size), 2), upper):
        mat[i][j], mat[j][i] = w, -w
    return mat


def _nonunit_minor(H: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The minor of an HNF on the indices whose diagonal entry is not 1."""
    idx = [i for i, row in enumerate(H) if row[i] != 1]
    return tuple(tuple(H[r][c] for c in idx) for r in idx)


def _check_hnf_budget(rank: int, p: int, max_valuation: int) -> None:
    """Refuse a negative max valuation, then stop at the first valuation where
    the running HNF count passes its budget."""
    check_limit("lattice oracles", "max valuation", max_valuation)
    total = 0
    for j in range(max_valuation + 1):
        total += hnf_count(rank, p, j)
        check_limit("budget", "HNF bases", total)


def enum_sublattices(n: int, p: int, max_valuation: int) -> dict[tuple[Partition, Partition], int]:
    """Sublattices of the symplectic Z^{2n} by (quotient type, alternating type).

    The quotient type of an HNF H is `smith_type` of its minor on the indices
    whose diagonal entry is not 1.  A column with diagonal entry 1 is zero
    above it (entries there are reduced modulo 1) and below it (H is upper
    triangular), so column operations with it clear the rest of its row, and
    that row and column split off a unit.  At index p^j the minor has at
    most j rows.  Each distinct minor and each distinct Gram matrix is
    eliminated once per call, and `_omega` runs once per distinct row pair.
    """
    check_limit("enum_sublattices", "n", n)
    check_prime(p)
    _check_hnf_budget(2 * n, p, max_valuation)
    out: dict[tuple[Partition, Partition], int] = {}
    quotient: dict[tuple[tuple[int, ...], ...], Partition] = {}  # minor -> lambda
    pairs: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}  # rows -> _omega
    alternating: dict[tuple[int, ...], Partition] = {}  # Gram above the diagonal -> mu
    for j in range(max_valuation + 1):
        for H in hnf_enumerate(2 * n, p, j):
            minor = _nonunit_minor(H)
            lam = quotient.get(minor)
            if lam is None:
                lam = quotient[minor] = smith_type(minor, p)
            upper = []
            for uv in itertools.combinations(H, 2):
                w = pairs.get(uv)
                if w is None:
                    w = pairs[uv] = _omega(*uv, n)
                upper.append(w)
            upper = tuple(upper)
            mu = alternating.get(upper)
            if mu is None:
                mu = alternating[upper] = alt_type(_gram(upper, 2 * n), p)
            key = (lam, mu)
            out[key] = out.get(key, 0) + 1
    return out


def check_factorization(n: int, p: int, max_valuation: int) -> list[dict]:
    """Verify lattice count = Lagrangian count x Birkhoff number, entrywise.

    Compares enum_sublattices against enum_lagrangians * alpha_n(mu; q^2)
    at q = p, the integer `counts.birkhoff_number(mu, n, p * p)`, over every
    (lambda, mu) in range; raises IdentityMismatch on any discrepancy
    (the factorization is a theorem, so a mismatch means an implementation
    bug).  The HNF budget bounds the lattice enumeration and the |M_mu|
    budget each Lagrangian enumeration; both are checked before any
    enumeration, the HNF one first, since every mu has |mu| <= max_valuation.
    """
    from .counts import birkhoff_number

    check_limit("enum_sublattices", "n", n)
    check_prime(p)
    _check_hnf_budget(2 * n, p, max_valuation)
    for size in range(max_valuation + 1):  # names the least |M_mu| over budget
        check_limit("budget", "|M_mu|", p ** (2 * size))
    lattice = enum_sublattices(n, p, max_valuation)
    rows = []
    for mu in sorted({mu for _, mu in lattice} | set(partitions_up_to(max_valuation, n))):
        lagr = enum_lagrangians(mu, p)
        alpha = birkhoff_number(mu, n, p * p)
        for lam in sorted({lam for lam, m2 in lattice if m2 == mu} | set(lagr)):
            got = lattice.get((lam, mu), 0)
            expect = lagr.get(lam, 0) * alpha
            rows.append({"lambda": str(lam), "mu": str(mu), "p": p, "lattice": got,
                         "lagrangian": lagr.get(lam, 0), "birkhoff": alpha, "ok": got == expect})
            if got != expect:
                raise IdentityMismatch(
                    "N(%s; %s) = %d but N'(%s; %s) * alpha = %d at p = %d"
                    % (lam, mu, got, lam, mu, expect, p)
                )
    return rows


# ---------------------------------------------------------------------------
# Heisenberg subalgebras
# ---------------------------------------------------------------------------


def enum_subalgebras(n: int, p: int, max_index_valuation: int) -> list[int]:
    """Counts a_{p^i}, i <= max_index_valuation, of finite-index subalgebras.

    A sublattice of Z^{2n+1} (coordinates x_1, ..., x_{2n}, y) has an HNF whose
    first 2n rows restrict to the HNF of an x-part lattice L of index p^j, each
    with a y-entry modulo p^e, and whose last row is p^e y.  [u, v] = _omega(u, v) y
    is central, so it is closed iff p^e divides _omega on every pair of rows of L:
    only L is enumerated, and it counts p^{2n e} subalgebras of index p^{j+e}.
    """
    check_limit("enum_subalgebras", "n", n)
    check_prime(p)
    _check_hnf_budget(2 * n, p, max_index_valuation)  # the x-part bases, which are built
    counts = [0] * (max_index_valuation + 1)
    for j in range(max_index_valuation + 1):
        for H in hnf_enumerate(2 * n, p, j):
            top = max_index_valuation - j  # then the largest e with p^e | _omega on H
            for u, v in itertools.combinations(H, 2):
                w = _omega(u, v, n)
                if w:
                    top = min(top, _valuation(w, p))
                    if top == 0:
                        break
            for e in range(top + 1):
                counts[j + e] += p ** (2 * n * e)
    return counts

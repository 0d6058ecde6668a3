"""Brute-force enumeration oracles over Z/p^k.

Ground truth for every closed form in the package: Lagrangian submodules of
finite alternating modules, Hermite-normal-form sublattice enumeration
classified by quotient and symplectic type, and Heisenberg subalgebra counts.
Budgets are hard errors, never silent truncation.  Every HNF is enumerated
and classified exactly: the quotient type is read off the minor on the
non-unit diagonal entries (a unit diagonal entry splits off), one local Smith
elimination per distinct minor.

One symplectic form serves both lattice enumerations: `_omega` pairs x_{2i-1}
with x_{2i}, the y-coefficient of the bracket of h_n.  An HNF basis is a
tuple of row tuples.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from .combinat import Partition, partitions_up_to
from .errors import (
    BudgetExceeded,
    DegenerateForm,
    FactorizationMismatch,
    IdentityMismatch,
    SingularMatrix,
    check_n,
    check_prime,
)

LAGRANGIAN_BUDGET = 3**10
HNF_BUDGET = 2_000_000


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
        raise ValueError("0 has no finite %d-adic valuation" % p)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def smith_type(mat: Sequence[Sequence[int]], p: int) -> Partition:
    """Quotient type of Z^r / M Z^r at p: p-valuations of the SNF diagonal."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    vals = _smith_diagonal(mat, p)
    if len(vals) < n:
        raise SingularMatrix("matrix has determinant zero")
    return Partition(sorted(vals, reverse=True))


def alt_type(gram: Sequence[Sequence[int]], p: int) -> Partition:
    """Symplectic elementary-divisor type of an alternating Gram matrix.

    Over a local ring an alternating form admits a symplectic basis, so the
    Smith divisors pair up; the type keeps one valuation per pair.
    """
    n = len(gram)
    if n % 2:
        raise DegenerateForm("alternating matrix of odd size is degenerate")
    for i in range(n):
        if gram[i][i] != 0:
            raise DegenerateForm("nonzero diagonal entry")
        for j in range(i + 1, n):  # the check is symmetric in (i, j)
            if gram[i][j] != -gram[j][i]:
                raise DegenerateForm("matrix is not alternating")
    vals = sorted(_smith_diagonal(gram, p), reverse=True)
    if len(vals) < n:
        raise DegenerateForm("form is degenerate over the fraction field")
    pairs = []
    for i in range(0, n, 2):
        if vals[i] != vals[i + 1]:
            raise IdentityMismatch("alternating divisors failed to pair up")
        pairs.append(vals[i])
    return Partition(tuple(pairs))


# ---------------------------------------------------------------------------
# finite alternating modules
# ---------------------------------------------------------------------------

class AltModule:
    """The alternating module M_mu: blocks (Z/p^{mu_i}) e_i + (Z/p^{mu_i}) f_i.

    An element (a_1, b_1, ..., a_l, b_l) is one int: coordinate k sits in
    slot k, the bits [k W, (k + 1) W), where W = bit_length(L (E - 1)^2) + 1
    for L = 2 l slots and the exponent E = p^{mu_1}.  A slot of a sum of two
    elements, or of the Kronecker product in `orthogonal`, stays below
    2^(W-1), so no carry crosses into the next slot.  The pairing takes values
    in (1/E) Z / Z, represented by integers modulo E with zero meaning
    perpendicular.  Modules are equal when their mu and p are.
    """

    def __init__(self, mu: tuple[int, ...], p: int):
        self.mu, self.p = mu, p
        self.mods = tuple(self.p**m for m in self.mu for _ in (0, 1))
        self.exponent = self.p ** (self.mu[0] if self.mu else 0)
        self.scale = tuple(self.exponent // self.p**m for m in self.mu)
        self.size = math.prod(self.mods)
        self.zero = 0
        w = self.width = (len(self.mods) * (self.exponent - 1) ** 2).bit_length() + 1
        self.slot_mask = (1 << w) - 1
        # per slot: the modulus m_k, the offset 2^(W-1) - m_k, and the top bit
        self.moduli = sum(m << (w * k) for k, m in enumerate(self.mods))
        self.offsets = sum(((1 << (w - 1)) - m) << (w * k) for k, m in enumerate(self.mods))
        self.flags = sum(1 << (w * k + w - 1) for k in range(len(self.mods)))

    def __eq__(self, other):
        if other.__class__ is not AltModule:
            return NotImplemented
        return (self.mu, self.p) == (other.mu, other.p)

    __hash__ = None

    def __repr__(self):
        return "AltModule(mu=%r, p=%r)" % (self.mu, self.p)

    def times_p(self) -> dict[int, int]:
        """Every element x, mapped to p x."""
        table = {0: 0}
        for k, m in enumerate(self.mods):
            shift = self.width * k
            table = {x + (c << shift): px + ((self.p * c % m) << shift)
                     for x, px in table.items() for c in range(m)}
        return table

    def translate(self, xs: Iterable[int], v: int) -> set[int]:
        """{x + v for x in xs}: add slotwise, then subtract m_k where a slot reached it.

        t + offsets sets the top bit of slot k exactly when t_k >= m_k; those
        bits, moved down and multiplied by the slot mask, select the moduli.
        """
        m, off, top, s, f = self.moduli, self.offsets, self.flags, self.width - 1, self.slot_mask
        return {(t := x + v) - (m & ((((t + off) & top) >> s) * f)) for x in xs}

    def dual(self, v: int) -> int:
        """w with <x, v> = sum_k w_k x_k modulo `exponent`, w_k packed in slot L - 1 - k."""
        w, mask, last, e = self.width, self.slot_mask, len(self.mods) - 1, self.exponent
        out = 0
        for i, s in enumerate(self.scale):
            a, b = (v >> (2 * i * w)) & mask, (v >> ((2 * i + 1) * w)) & mask
            out |= (s * b % e) << ((last - 2 * i) * w) | (-s * a % e) << ((last - 2 * i - 1) * w)
        return out

    def orthogonal(self, xs: Iterable[int], v: int) -> list[int]:
        """The x in xs with <x, v> = 0, read off slot L - 1 of x * dual(v)."""
        w, shift = self.dual(v), self.width * (len(self.mods) - 1)
        mask, e = self.slot_mask, self.exponent
        return [x for x in xs if ((x * w >> shift) & mask) % e == 0]

    def subgroup_type(self, sub: frozenset[int], times_p: dict[int, int]) -> Partition:
        """Abelian type of a subgroup from the sizes of its p^k multiples."""
        sizes = [len(sub)]
        cur = set(sub)
        while len(cur) > 1:
            cur = {times_p[x] for x in cur}
            sizes.append(len(cur))
        heights = [_valuation(sizes[k - 1] // sizes[k], self.p) for k in range(1, len(sizes))]
        lam = [sum(1 for t in heights if t > i) for i in range(heights[0] if heights else 0)]
        return Partition(tuple(sorted(lam, reverse=True)))


def _check_lagrangian_budget(p: int, size: int) -> None:
    if p ** (2 * size) > LAGRANGIAN_BUDGET:
        raise BudgetExceeded(
            "|M_mu| = %d^%d exceeds the budget %d" % (p, 2 * size, LAGRANGIAN_BUDGET)
        )


def enum_lagrangians(mu, p: int) -> dict[Partition, int]:
    """Count Lagrangian submodules of M_mu by module type.

    Grows isotropic subgroups one index-p step at a time, building every
    element as a packed int of `AltModule`: p - 1 cosets by `translate`, the
    perp by `orthogonal`.  A subgroup of order p^{|mu|} contained in its own
    perp equals it, hence is Lagrangian.  Returns {quotient type lambda:
    count}; the total is N'(mu).
    """
    check_prime(p)
    mu = Partition(mu)
    m = mu.size()
    _check_lagrangian_budget(p, m)
    if m == 0:
        return {Partition(()): 1}
    mod = AltModule(tuple(mu.parts), p)
    times_p = mod.times_p()
    # subgroup -> perp list; grown by index p per step, deduplicated globally
    level: dict[frozenset[int], list[int]] = {frozenset({mod.zero}): list(times_p)}
    found: set[frozenset[int]] = set()
    for step in range(m):
        last = step == m - 1
        nxt: dict[frozenset[int], list[int]] = {}
        for sub, perp in level.items():
            processed = set(sub)
            for v in perp:
                if v in processed:
                    continue
                if times_p[v] not in sub:
                    continue  # index-p^2 jump; reached later along a chain
                grown, coset = set(sub), sub
                for _ in range(1, p):  # the cosets sub + j v, j = 1, ..., p - 1
                    coset = mod.translate(coset, v)
                    grown |= coset
                processed |= grown
                fz = frozenset(grown)
                if last:
                    found.add(fz)
                elif fz not in nxt:
                    nxt[fz] = mod.orthogonal(perp, v)
        level = nxt
    out: dict[Partition, int] = {}
    for sub in found:
        lam = mod.subgroup_type(sub, times_p)
        out[lam] = out.get(lam, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Hermite normal form enumeration
# ---------------------------------------------------------------------------


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Diagonal valuations of the HNFs of rank `parts` and index p^total."""
    if parts < 0:
        raise ValueError("HNF rank must be >= 0, got %d" % parts)
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def hnf_count(rank: int, p: int, valuation: int) -> int:
    """Number of HNF matrices with determinant p^valuation in the given rank."""
    total = 0
    for comp in _compositions(valuation, rank):
        prod = 1
        for j, b in enumerate(comp):  # column j has j entries above the diagonal
            prod *= (p**b) ** j
        total += prod
    return total


def hnf_enumerate(
    rank: int, p: int, valuation: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
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


def _gram(H: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """The alternating Gram matrix of the rows of H under `_omega`: the
    entries above the diagonal, mirrored with a minus sign."""
    gram = [[0] * len(H) for _ in H]
    for i, u in enumerate(H):
        for j in range(i + 1, len(H)):
            gram[i][j] = _omega(u, H[j], n)
            gram[j][i] = -gram[i][j]
    return gram


def _nonunit_minor(H: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """The minor of an HNF on the indices whose diagonal entry is not 1."""
    idx = [i for i, row in enumerate(H) if row[i] != 1]
    return tuple(tuple(H[r][c] for c in idx) for r in idx)


def _check_hnf_budget(rank: int, p: int, max_valuation: int) -> None:
    """Refuse a negative max valuation, then stop at the first valuation where
    the running HNF count passes HNF_BUDGET."""
    if max_valuation < 0:
        raise ValueError("max valuation must be >= 0, got %d" % max_valuation)
    total = 0
    for j in range(max_valuation + 1):
        total += hnf_count(rank, p, j)
        if total > HNF_BUDGET:
            raise BudgetExceeded(
                "HNF enumeration size %d up to valuation %d exceeds %d"
                % (total, j, HNF_BUDGET)
            )


def enum_sublattices(
    n: int, p: int, max_valuation: int
) -> dict[tuple[Partition, Partition], int]:
    """Sublattices of the symplectic Z^{2n} by (quotient type, alternating type).

    The quotient type of an HNF H is `smith_type` of its minor on the indices
    whose diagonal entry is not 1.  A column with diagonal entry 1 is zero
    above it (entries there are reduced modulo 1) and below it (H is upper
    triangular), so column operations with it clear the rest of its row, and
    that row and column split off a unit.  At index p^j the minor has at
    most j rows; each distinct minor is eliminated once per call.  The
    alternating type needs the whole Gram matrix, for every H.
    """
    check_n("enum_sublattices", n)
    check_prime(p)
    _check_hnf_budget(2 * n, p, max_valuation)
    out: dict[tuple[Partition, Partition], int] = {}
    quotient: dict[tuple[tuple[int, ...], ...], Partition] = {}  # minor -> lambda
    for j in range(max_valuation + 1):
        for H in hnf_enumerate(2 * n, p, j):
            minor = _nonunit_minor(H)
            lam = quotient.get(minor)
            if lam is None:
                lam = quotient[minor] = smith_type(minor, p)
            mu = alt_type(_gram(H, n), p)
            key = (lam, mu)
            out[key] = out.get(key, 0) + 1
    return out


def check_factorization(n: int, p: int, max_valuation: int) -> list[dict]:
    """Verify lattice count = Lagrangian count x Birkhoff number, entrywise.

    Compares enum_sublattices against enum_lagrangians * alpha_n(mu; q^2)
    at q = p over every (lambda, mu) in range; raises FactorizationMismatch
    on any discrepancy (the factorization is a theorem, so a mismatch means
    an implementation bug).  HNF_BUDGET bounds the lattice enumeration and
    LAGRANGIAN_BUDGET each Lagrangian enumeration; both are checked before
    any enumeration, the HNF one first, since every mu has |mu| <= max_valuation.
    """
    from .counts import birkhoff_alpha
    from .exactalg import _constant_at

    check_n("enum_sublattices", n)
    check_prime(p)
    _check_hnf_budget(2 * n, p, max_valuation)
    for size in range(max_valuation + 1):  # names the least |mu| over budget
        _check_lagrangian_budget(p, size)
    lattice = enum_sublattices(n, p, max_valuation)
    mus = sorted(
        {mu.parts for _, mu in lattice}
        | {pt.parts for pt in partitions_up_to(max_valuation, n)}
    )
    rows = []
    for mu_parts in mus:
        mu = Partition(mu_parts)
        lagr = enum_lagrangians(mu, p)
        alpha = _constant_at(birkhoff_alpha(mu, n, base_exponent=2), p)
        lambdas = {lam.parts for lam, m2 in lattice if m2 == mu}
        lambdas |= {lam.parts for lam in lagr}
        for lam_parts in sorted(lambdas):
            lam = Partition(lam_parts)
            got = lattice.get((lam, mu), 0)
            expect = lagr.get(lam, 0) * alpha
            rows.append(
                {
                    "lambda": str(lam),
                    "mu": str(mu),
                    "p": p,
                    "lattice": got,
                    "lagrangian": lagr.get(lam, 0),
                    "birkhoff": alpha,
                    "ok": got == expect,
                }
            )
            if got != expect:
                raise FactorizationMismatch(
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
    check_n("enum_subalgebras", n)
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

"""Reference derivations that the tests compare the library against.

Each is a second way to compute what a library function computes, or the
defining formula read off directly: a sum over group elements, a
recursion, a substitution.  The library never calls them, so they live
here and not in src/heiszeta (tests/test_library_reach.py keeps it so).
They carry no size guard; the tests call them at small n only.
"""

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import mul

from heiszeta.combinat import Partition, partitions_up_to
from heiszeta.counts import birkhoff_alpha, nprime_closed
from heiszeta.errors import HeiszetaError, IdentityMismatch, UsageError, check_limit, check_prime
from heiszeta.exactalg import (
    BivariatePolynomial as Poly,
    FactoredRational,
    _divide_dense,
    _p_iadd,
    _p_mul_schoolbook,
    _p_tslices,
    _t_low,
    _unroll,
    gauss_binom,
    qpochhammer,
)
from heiszeta.igusa import _check_slots, igusa_A
from heiszeta.oracle import (
    _gram,
    _omega,
    _span,
    _valuation,
    alt_type,
    hnf_enumerate,
    smith_type,
)
from heiszeta.verify import (
    coset_reps,
    coset_stats,
    descent_set,
    fibre_E,
    signed_descent_sum,
)
from heiszeta.zeta import c_exponents, igusa_args, special_exponent, zeta_compact


def is_w_vector(w) -> bool:
    """Membership in W_n: each w_i is w_{i-1} or 2i - 1 - w_{i-1}, w_0 = 0."""
    prev = 0
    for i, wi in enumerate(w, start=1):
        if wi not in (prev, 2 * i - 1 - prev):
            return False
        prev = wi
    return True


def inversions(g) -> int:
    return sum(1 for i in range(len(g)) for j in range(i + 1, len(g)) if g[i] > g[j])


def difference_vector(mu, n: int) -> tuple[int, ...]:
    """d_i = mu_i - mu_{i+1} for i < n, d_n = mu_n (on the n-padding)."""
    m = mu.padded(n) + (0,)
    return tuple(m[i] - m[i + 1] for i in range(n))


@dataclass(frozen=True)
class SignedPermutation:
    """Element of B_n in window notation (g(1), ..., g(n))."""

    window: tuple[int, ...]

    def __post_init__(self):
        if sorted(abs(x) for x in self.window) != list(range(1, len(self.window) + 1)):
            raise ValueError("window is not a signed permutation of [n]")

    def length(self) -> int:
        """Coxeter length: inv(window) + sum of |g(i)| over negative entries."""
        return inversions(self.window) + sum(-x for x in self.window if x < 0)

    def descent_set_B(self) -> frozenset[int]:
        """{i in [n-1]_0 : g(i) > g(i+1)} with g(0) = 0."""
        w = (0,) + self.window
        return frozenset(i for i in range(len(w) - 1) if w[i] > w[i + 1])

    def neg(self) -> int:
        return sum(1 for x in self.window if x < 0)

    def stat_C(self, c) -> int:
        """n*neg - length + sum of c_i over the type-B descent set."""
        n = len(self.window)
        return n * self.neg() - self.length() + sum(c[i] for i in self.descent_set_B())

    def stat_D(self) -> int:
        """(n+1)*des_B + neg."""
        return (len(self.window) + 1) * len(self.descent_set_B()) + self.neg()

    def __str__(self):
        return ",".join(str(x) for x in self.window)


def signed_perms(n: int):
    """All 2^n n! signed permutations, deterministic order."""
    for perm in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            yield SignedPermutation(tuple(s * v for s, v in zip(signs, perm)))


def signed_perm_length_bfs(n: int) -> dict[tuple[int, ...], int]:
    """Coxeter lengths by breadth-first search over the generators."""
    dist = {tuple(range(1, n + 1)): 0}
    frontier = list(dist)
    while frontier:
        nxt = []
        for w in frontier:
            images = [(-w[0],) + w[1:]] if n else []
            images += [w[:i] + (w[i + 1], w[i]) + w[i + 2:] for i in range(n - 1)]
            for img in images:
                if img not in dist:
                    dist[img] = dist[w] + 1
                    nxt.append(img)
        frontier = nxt
    return dist


def brenti_B_by_enumeration(n: int) -> Poly:
    """B_n(X, Y) summed over the group directly; the defining formula."""
    terms: dict = {}
    for g in signed_perms(n):
        k = (len(g.descent_set_B()), g.neg())
        terms[k] = terms.get(k, 0) + 1
    return Poly(terms)


@lru_cache(maxsize=None)
def nprime_recursive(mu: tuple[int, ...]) -> Poly:
    """N'(mu) for any composition, by the first-part recursion.

    The count depends only on the multiset of nonzero parts, so the
    recursion runs on those, sorted decreasingly.
    """
    key = tuple(sorted((x for x in mu if x), reverse=True))
    if any(x < 0 for x in key):
        raise ValueError("negative part")
    if not key:
        return Poly.one()
    head = (key[0] - 1,) + key[1:]
    return nprime_recursive(head) + nprime_recursive(key[1:]).shift(dq=sum(key))


def perms(n: int):
    """All one-line windows (g(1), ..., g(n)) on values 1..n."""
    return itertools.permutations(range(1, n + 1))


def gauss_multinom(n: int, I, y_exponent: int) -> Poly:
    """binom(n, I)_Y = binom(n,i_l) binom(i_l,i_{l-1}) ... for I = {i_1<...<i_l}."""
    idx = sorted(set(I))
    if any(i < 0 or i > n for i in idx):
        raise UsageError("subset must lie in {0,...,n}")
    out = Poly.one()
    upper = n
    for i in reversed(idx):
        out = out * gauss_binom(upper, i, y_exponent)
        upper = i
    return out


def qpochhammer_rational(a: Poly, step_exponent: int, m: int) -> FactoredRational:
    """(a; q^step)_m for every integer m and a = +-q^e_q T^e_T: the library's
    finite product for m >= 0, its reciprocal ((a q^{step m}; q^step)_{-m})^-1
    for m < 0."""
    if m >= 0:
        return FactoredRational(qpochhammer(a, step_exponent, m))
    ((e_q, e_T), sign), = a.terms.items()
    if sign not in (1, -1):
        raise UsageError("a must be +-q^e_q T^e_T")
    # (a;q)_m = ((a q^m; q)_{-m})^-1
    exps = [e_q + step_exponent * (m + i) for i in range(-m)]
    if e_T == 0 and 0 in exps:
        raise UsageError("(a; q^%d)_%d has the constant factor %s, whose reciprocal is not "
                         "a product of factors 1 - q^a T^b"
                         % (step_exponent, m, "1 - 1 = 0" if sign == 1 else "1 + 1 = 2"))
    if sign == 1:
        return FactoredRational.one_over((eq, e_T) for eq in exps)
    # negative monomial: 1/(1 + u) = (1 - u)/(1 - u^2)
    num = Poly.one()
    for eq in exps:
        num = num * Poly.one_minus(eq, e_T)
    return FactoredRational(num, Counter((2 * eq, 2 * e_T) for eq in exps))


def qpochhammer_factors(a: tuple[int, int], step_exponent: int, m: int) -> list[tuple[int, int]]:
    """Factor list [(a_i, b)] with (q^e_q T^e_T; q^step)_m = prod (1 - q^{a_i} T^b),
    for a = (e_q, e_T) and m >= 0."""
    if m < 0:
        raise ValueError("factor list needs m >= 0")
    e_q, e_T = a
    return [(e_q + step_exponent * i, e_T) for i in range(m)]


class SubstitutionSingular(HeiszetaError):
    """q -> 1 hits a denominator factor 1 - q^a that vanishes there."""


def subs_q_one(f: FactoredRational) -> FactoredRational:
    """Substitution q -> 1; denominator factors constant in T must be gone."""
    den: dict = {}
    for (a, b), m in f.den.items():
        if b == 0:
            raise SubstitutionSingular("factor 1 - q^%d vanishes under q -> 1" % a)
        den[(0, b)] = den.get((0, b), 0) + m
    num: dict = {}
    for (_, et), c in f.num.terms.items():
        num[(0, et)] = num.get((0, et), 0) + c
    return FactoredRational(Poly(num), den)


def igusa_A_descent(n: int, y_exponent: int, X) -> FactoredRational:
    """Augmented type-A Igusa function by its descent form over S_n.

    Numerator sum of Y^{l(g)} prod_{j in Des(g)} X_j over the slot
    denominators, divided out one slot at a time.
    """
    if len(X) != n + 1:
        raise UsageError("need n + 1 slots X_0 .. X_n")
    num = Poly.zero()
    for g in perms(n):
        term = Poly.monomial(1, y_exponent * inversions(g), 0)
        for j in descent_set(g):
            term = term * Poly.monomial(1, *X[j])
        num = num + term
    return FactoredRational(num) * FactoredRational.one_over(X)


def igusa_B_descent(n: int, y_exponent: int, Z, X) -> FactoredRational:
    """Type-B Igusa function on n or n + 1 slots, by its descent form.

    The numerator, over B_n with Y^l Z^neg prod X_i, is the group sum of
    signed_descent_sum, a dynamic program over (absolute values placed,
    last entry); no group element is built.
    """
    _check_slots("B", n, X, n)
    return FactoredRational(signed_descent_sum(n, y_exponent, Z, X[:n]), Counter(X))


def igusa_B_residue_limit(n: int, m: int, y_exponent: int, Z, X) -> FactoredRational:
    """Residue at X_m -> 1 straight from the descent sum, one sum per m.

    (1 - X_m) * Ig_Bn is regular at X_m = 1: the singular factor cancels
    syntactically, leaving the descent numerator with the X_m slot set to 1
    over the remaining denominator factors.  The numerator is
    signed_descent_sum with slot m set to 1; verify.residue_limits reads
    every m off one run of it.
    """
    if not 0 <= m <= n:
        raise UsageError("m must lie in [n]_0")
    if len(X) != n:
        raise UsageError("need the n slots other than X_m")
    slots = {i: x for i, x in zip([i for i in range(n + 1) if i != m], X)}
    descent_slots = [slots.get(i, (0, 0)) for i in range(n)]
    return FactoredRational(signed_descent_sum(n, y_exponent, Z, descent_slots), Counter(X))


def subset_sum_by_masks(n: int, y_exponent: int, interior, X, weight=None) -> FactoredRational:
    """igusa._subset_sum term by term: one Gaussian multinomial and one
    product per slot for each of the 2^m subsets of the m interior slots."""
    num: dict = {}
    for mask in range(1 << len(interior)):
        I = [i for k, (i, _) in enumerate(interior) if mask >> k & 1]
        term = gauss_multinom(n, I, y_exponent)
        if weight is not None:
            term = term * weight[n - min(I + [n])]
        for k, (_, x) in enumerate(interior):
            if mask >> k & 1:
                term = term * Poly.monomial(1, *x)
            else:
                term = term * Poly.one_minus(*x)
        _p_iadd(num, term.terms)
    return FactoredRational(Poly(num), Counter(X))


def _qsquare_int(m: int) -> Poly:
    """[m]_{q^2} = 1 + q^2 + ... + q^{2(m-1)}."""
    return Poly({(2 * i, 0): 1 for i in range(m)})


def fibre_K_by_cosets(n: int, k: int, r: int, X_tail) -> Poly:
    """igusa.fibre_K coset by coset: B^(t_k) T^(t_k) shifted by q^{-2 l_k^+},
    times each descent slot, built as polynomial products.

    B^(t) T^t = q^{-t(t-1)} [t]_{q^2}! [k-t]_{q^2}! times the T^t terms of
    E_{k,r}, each q-factorial a product of q^2-integers.
    """
    slots = dict(zip(range(k + 1, n + 1), X_tail))
    E = fibre_E(k, r)
    B = []
    for t in range(k + 1):
        b = Poly({key: c for key, c in E.terms.items() if key[1] == t}).shift(dq=-t * (t - 1))
        for m in list(range(1, t + 1)) + list(range(1, k - t + 1)):
            b = b * _qsquare_int(m)
        B.append(b)
    out: dict = {}
    for g in coset_reps(n, k):
        t_k, ell, des = coset_stats(g, k)
        term = B[t_k].shift(dq=-2 * ell)
        for j in des:
            term = term * Poly.monomial(1, *slots[j])
        _p_iadd(out, term.terms)
    return Poly(out)


def epsilon_kr(k: int, r: int, t: int) -> Poly:
    """Series coefficient [x^t] E_{k,r}(x) for any integer r (no support cut):
    F_r(x) F_{2k+1-r}(x), F_s(x) = (-q^{1-s} x; q^2)_{floor(s/2)}, a
    reciprocal product for negative s, expanded as a series in x."""
    if t < 0:
        return Poly.zero()
    F = [qpochhammer_rational(Poly.monomial(-1, 1 - s, 1), 2, s // 2) for s in (r, 2 * k + 1 - r)]
    return (F[0] * F[1]).series_in_T(t)[t]


def Z_of_w(w, n: int) -> FactoredRational:
    """Analytic contribution of one w: truncated Igusa over (1-X_0)(1-X_n)."""
    X = igusa_args(n, w)
    f = igusa_A(n, -2, X[1:n])
    return f * FactoredRational.one_over([X[0], X[n]])


def _partition_sum(n: int, max_size: int, weight) -> FactoredRational:
    """Sum of weight(mu) alpha_n(mu; q^2) T^{|mu|} (1 - q^{2n(mu_n+1)} T^{mu_n+1})
    over |mu| <= max_size, over (1 - q^{2n} T); weight takes the n-padded mu.

    Exact for series coefficients of T^0 .. T^{max_size}: partitions of
    larger size only contribute higher T-orders.
    """
    total = Poly.zero()
    for mu in partitions_up_to(max_size, n):
        last = mu.padded(n)[-1]
        alpha = birkhoff_alpha(mu, n, base_exponent=2).shift(dt=sum(mu))
        total = total + weight(mu.padded(n)) * alpha * Poly.one_minus(2 * n * (last + 1), last + 1)
    return FactoredRational(total, {(2 * n, 1): 1})


def Z_of_w_partition_sum(w, n: int, max_size: int) -> FactoredRational:
    """Partition-sum form of Z(w): weight q^{w . mu}, truncated to |mu| <= max_size."""
    return _partition_sum(
        n, max_size, lambda mu: Poly.monomial(1, sum(a * b for a, b in zip(w, mu)), 0)
    )


def zeta_series_oracle(n: int, truncation: int) -> list[Poly]:
    """T-series through T^truncation from the partition sum with weight N'(mu)."""
    return _partition_sum(n, truncation, nprime_closed).series_in_T(truncation)


def compact_summand_by_pochhammers(n: int, r: int) -> FactoredRational:
    """Summand r of form b as the paper writes it: (-q)^r (1 - q^{2n-2r+1})
    (q^2;q^2)_n over (1 - q^{a_{n,r}} T^{n+1}) (q;q)_{2n-r+1} (q;q)_r
    (q^r T; q^2)_{n-r} (q^{2n-r} T; q)_r, each q-Pochhammer built factor by factor."""
    num = Poly.monomial((-1) ** r, r, 0) * Poly.one_minus(2 * n - 2 * r + 1, 0)
    for i in range(n):
        num = num * Poly.one_minus(2 * i + 2, 0)
    factors = [(special_exponent(n, r), n + 1)]
    factors += [(1 + i, 0) for i in range(2 * n - r + 1)]
    factors += [(1 + i, 0) for i in range(r)]
    factors += [(r + 2 * i, 1) for i in range(n - r)]
    factors += [(2 * n - r + i, 1) for i in range(r)]
    return FactoredRational(num, Counter(factors))


def dirichlet_coeffs_by_series(n: int, p: int, order: int) -> list[int]:
    """a_{p^i} for i <= order: form b's T-series with coefficients in q, each
    coefficient then evaluated at q = p."""
    out = []
    for c in zeta_compact(n).series_in_T(order):
        vals = c.eval_q(p)
        if set(vals) - {0}:
            raise IdentityMismatch("series coefficient is not constant in T")
        out.append(vals.get(0, 0))
    return out


def _vanishing_order(coeffs: dict[int, int], p: int, c: int, d: int) -> int:
    """Largest k with (1 - p^c T^d)^k dividing the integer polynomial."""
    xs = [coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)]
    order = 0
    while xs:
        xs = _divide_dense(xs, d, p**c)
        if xs is None:
            break
        order += 1
    return order


def pole_orders_at(n: int, p: int) -> dict[Fraction, int]:
    """The pole orders of form b with q specialized to the prime p, {s: order}
    in increasing s: the factor multiplicity over s = c/d minus the vanishing
    order of the numerator at q = p, T = p^(-c/d)."""
    f = zeta_compact(n)
    mults = Counter()
    for (a, b), m in f.den.items():
        mults[Fraction(a, b)] += m
    coeffs = f.num.eval_q(p)
    orders = {s: mults[s] - _vanishing_order(coeffs, p, s.numerator, s.denominator)
              for s in sorted(mults)}
    return {s: o for s, o in orders.items() if o > 0}


def lemma_global_bound(n: int) -> tuple[int, tuple[int, ...]]:
    """Exhaustive maximum of C(g) - 2n D(g) over g != 1 in B_n, with its argmax.

    The maximum equals -(3n^2 - n + 4)/2 and is attained uniquely (at the
    sign flip for n = 1, at the first transposition for n >= 2).  B_0 has
    no element g != 1, so n must be at least 1.
    """
    if n < 1:
        raise ValueError("lemma_global_bound needs n >= 1, got %d" % n)
    c = c_exponents(n)
    vals = [(g.stat_C(c) - 2 * n * g.stat_D(), g.window) for g in signed_perms(n) if g.length()]
    best = max(v for v, _ in vals)
    argmax = [w for v, w in vals if v == best]
    if len(argmax) != 1:
        raise IdentityMismatch("maximizer of C - 2nD not unique at n = %d" % n)
    return best, argmax[0]


def contains(H, vec) -> bool:
    """Membership of an integer vector in the row span of HNF rows H."""
    x = list(vec)
    for i, row in enumerate(H):
        if x[i] % row[i]:
            return False
        t = x[i] // row[i]
        x = [xj - t * rj for xj, rj in zip(x, row)]
    return True


def pack(mod, coords) -> int:
    """The index of an element of an AltModule: coordinate k is digit k, of radix m_k."""
    index = 0
    for c, m in zip(reversed(coords), reversed(mod.mods)):
        index = index * m + c
    return index


def unpack(mod, x) -> tuple[int, ...]:
    """The coordinates of the element of an AltModule with index x, digit by digit."""
    out = []
    for m in mod.mods:
        x, c = divmod(x, m)
        out.append(c)
    return tuple(out)


def closure(mod, gens) -> frozenset:
    """The indices of the subgroup of an AltModule generated by the indices
    gens, by breadth-first search over bitsets with the module's rotations.

    Raises AssertionError once a rotation sets a bit past the module's size,
    which only an addition that leaves the module can cause.
    """
    rotations = [mod.rotation(unpack(mod, g)) for g in gens]
    seen = frontier = 1  # the zero element
    while frontier:
        grown = 0
        for rotation in rotations:
            grown |= _span(frontier, rotation, 2)
        frontier = grown & ~seen
        seen |= frontier
        assert seen >> mod.size == 0, "the sums left the module"
    return frozenset(i for i in range(mod.size) if seen >> i & 1)


def pairing(mod, a, b) -> int:
    """<a, b> in an AltModule, for indices a and b: the dot product of the
    coordinates of a with the dual coefficients of b (`TupleAltModule.dual`)."""
    w = TupleAltModule(mod.mu, mod.p).dual(unpack(mod, b))
    return sum(map(mul, unpack(mod, a), w)) % mod.exponent


def perp(mod, gens) -> list:
    """The indices of the elements of an AltModule perpendicular to every generator."""
    return [v for v in range(mod.size) if all(pairing(mod, v, g) == 0 for g in gens)]


# The Lagrangian enumeration and the Smith form as they were before the oracle
# grew its subgroups as bitsets and worked over Z_(p): coordinate tuples and an
# integer Smith normal form with a divisibility fix-up.

Element = tuple[int, ...]


class TupleAltModule:
    """The alternating module M_mu: blocks (Z/p^{mu_i}) e_i + (Z/p^{mu_i}) f_i.

    Elements are coordinate tuples (a_1, b_1, ..., a_l, b_l); the pairing
    takes values in (1/p^{mu_1}) Z / Z, represented by integers modulo
    p^{mu_1} with zero meaning perpendicular.
    """

    def __init__(self, mu: tuple[int, ...], p: int):
        self.mu, self.p = mu, p
        self.mods = tuple(self.p**m for m in self.mu for _ in (0, 1))
        self.exponent = self.p ** (self.mu[0] if self.mu else 0)
        self.scale = tuple(self.exponent // self.p**m for m in self.mu)
        self.size = 1
        for b in self.mods:
            self.size *= b
        self.zero = (0,) * len(self.mods)

    def elements(self):
        return itertools.product(*(range(b) for b in self.mods))

    def add(self, a: Element, b: Element) -> Element:
        return tuple((x + y) % m for x, y, m in zip(a, b, self.mods))

    def scalar(self, k: int, a: Element) -> Element:
        return tuple((k * x) % m for x, m in zip(a, self.mods))

    def dual(self, v: Element) -> Element:
        """w with <x, v> = sum_k w_k x_k modulo `exponent`, for every x."""
        pairs = ((s * v[2 * i + 1], -s * v[2 * i]) for i, s in enumerate(self.scale))
        return tuple(c % self.exponent for pair in pairs for c in pair)

    def subgroup_type(self, sub: frozenset) -> Partition:
        """Abelian type of a subgroup from the sizes of its p^k multiples."""
        sizes = [len(sub)]
        cur = set(sub)
        while len(cur) > 1:
            cur = {self.scalar(self.p, x) for x in cur}
            sizes.append(len(cur))
        heights = [
            _valuation(sizes[k - 1] // sizes[k], self.p)
            for k in range(1, len(sizes))
        ]
        lam = [
            sum(1 for t in heights if t > i)
            for i in range(heights[0] if heights else 0)
        ]
        return Partition(tuple(sorted(lam, reverse=True)))


def enum_lagrangians_by_tuples(mu, p: int) -> dict[Partition, int]:
    """Count Lagrangian submodules of M_mu by module type.

    Grows isotropic subgroups one index-p step at a time; a subgroup of order
    p^{|mu|} contained in its own perp equals it, hence is Lagrangian.
    Returns {quotient type lambda: count}; the total is N'(mu).
    """
    check_prime(p)
    mu = Partition(mu)
    m = sum(mu)
    check_limit("budget", "|M_mu|", p ** (2 * m))
    if m == 0:
        return {Partition(()): 1}
    mod = TupleAltModule(mu, p)
    elements = list(mod.elements())
    times_p = {x: mod.scalar(p, x) for x in elements}
    # subgroup -> perp list; grown by index p per step, deduplicated globally
    level: dict[frozenset[Element], list[Element]] = {frozenset({mod.zero}): elements}
    found: set[frozenset[Element]] = set()
    for step in range(m):
        last = step == m - 1
        nxt: dict[frozenset[Element], list[Element]] = {}
        for sub, perp in level.items():
            processed = set(sub)
            for v in perp:
                if v in processed:
                    continue
                if times_p[v] not in sub:
                    continue  # index-p^2 jump; reached later along a chain
                grown = set(sub)
                for j in range(1, p):
                    jv = mod.scalar(j, v)
                    grown.update(mod.add(x, jv) for x in sub)
                processed |= grown
                fz = frozenset(grown)
                if last:
                    found.add(fz)
                elif fz not in nxt:
                    w = mod.dual(v)
                    nxt[fz] = [x for x in perp if sum(map(mul, w, x)) % mod.exponent == 0]
        level = nxt
    out: dict[Partition, int] = {}
    for sub in found:
        lam = mod.subgroup_type(sub)
        out[lam] = out.get(lam, 0) + 1
    return out


def smith_diagonal_integer(mat) -> list[int]:
    """Diagonal of the Smith normal form (absolute values, divisibility chain)."""
    m = [list(row) for row in mat]
    rows, cols = len(m), len(m[0])
    diag = []
    top = 0
    while top < min(rows, cols):
        pivot = None
        best = None
        for i in range(top, rows):
            for j in range(top, cols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    pivot, best = (i, j), v
        if pivot is None:
            break
        pi, pj = pivot
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        p = m[top][top]
        dirty = False
        for i in range(top + 1, rows):
            f = m[i][top] // p
            if f:
                for j in range(top, cols):
                    m[i][j] -= f * m[top][j]
            if m[i][top]:
                dirty = True
        for j in range(top + 1, cols):
            f = m[top][j] // p
            if f:
                for i in range(top, rows):
                    m[i][j] -= f * m[i][top]
            if m[top][j]:
                dirty = True
        if dirty:
            continue
        bad = None
        for i in range(top + 1, rows):
            if any(m[i][j] % p for j in range(top + 1, cols)):
                bad = i
                break
        if bad is not None:
            for j in range(top, cols):
                m[top][j] += m[bad][j]
            continue
        diag.append(abs(p))
        top += 1
    return diag


def sublattice_table_by_full_smith(n: int, p: int, max_valuation: int) -> dict:
    """Sublattices of the symplectic Z^{2n} by (quotient type, alternating type),
    with a full 2n x 2n Smith elimination of every HNF for its quotient type."""
    out = {}
    for j in range(max_valuation + 1):
        for H in hnf_enumerate(2 * n, p, j):
            lam = smith_type(H, p)
            upper = [_omega(u, v, n) for u, v in itertools.combinations(H, 2)]
            mu = alt_type(_gram(upper, 2 * n), p)
            key = (lam, mu)
            out[key] = out.get(key, 0) + 1
    return out


def subalgebras_by_full_hnf(n: int, p: int, k: int) -> list[int]:
    """Subalgebra counts a_{p^j}, j <= k, of h_n over every HNF of Z^{2n+1}.

    Keeps each sublattice whose basis rows pairwise bracket into it:
    [u, v] = _omega(u, v) y is central, so membership reduces to divisibility
    by the last diagonal entry.  No budget; small cases only.
    """
    counts = []
    for j in range(k + 1):
        c = 0
        for H in hnf_enumerate(2 * n + 1, p, j):
            ylat = H[-1][-1]
            c += all(_omega(u, v, n) % ylat == 0 for u, v in itertools.combinations(H, 2))
        counts.append(c)
    return counts


def expand_factor_by_factor(den) -> dict:
    """prod (1 - q^a T^b)^mult as a raw dict, one schoolbook product per factor."""
    out = {(0, 0): 1}
    for (a, b), m in den.items():
        for _ in range(m):
            out = _p_mul_schoolbook(out, {(0, 0): 1, (a, b): -1})
    return out


def sum_per_item(items) -> FactoredRational:
    """FactoredRational.sum one product at a time: each numerator times the
    factors of the common denominator that its own lacks, added into a dict."""
    items = [it for it in items if not it.num.is_zero()]
    if len(items) < 2:
        return items[0] if items else FactoredRational.zero()
    lcm: dict = {}
    for it in items:
        for k, m in it.den.items():
            lcm[k] = max(lcm.get(k, 0), m)
    total: dict = {}
    for it in items:
        missing = {k: m - it.den.get(k, 0) for k, m in lcm.items() if m > it.den.get(k, 0)}
        product = _p_mul_schoolbook(dict(it.num.terms), expand_factor_by_factor(missing))
        _p_iadd(total, product)
    return FactoredRational(Poly(total), lcm)


def divide_one_factor(p: Poly, a: int, b: int):
    """p / (1 - q^a T^b), or None, with fresh rows on every call: the series in
    T unrolled to the top degree for b >= 1, a dense list per T-row for b == 0."""
    if b == 0 and a < 0:  # 1 - q^a = -q^a (1 - q^-a)
        p, a = p.scaled(-1).shift(dq=-a), -a
    t0 = _t_low(p.terms)
    rows = _p_tslices(p.terms, t0)
    if b == 0:
        out = {}
        for k, row in enumerate(rows):
            if row:
                lo = min(row)
                ys = _divide_dense([row.get(j, 0) for j in range(lo, max(row) + 1)], a)
                if ys is None:
                    return None
                out.update(((lo + j, t0 + k), c) for j, c in enumerate(ys) if c)
        return Poly(out)
    top = len(rows) - 1
    rows = _unroll(rows, a, b, top)
    if any(rows[max(top - b + 1, 0) :]):
        return None
    return Poly({(eq, t0 + k): c for k, row in enumerate(rows) for eq, c in row.items()})


def t_degree(p: Poly) -> int:
    """Largest T-exponent of p; -1 for the zero polynomial."""
    return max((et for _, et in p.terms), default=-1)


def reduced_factor_at_a_time(f: FactoredRational) -> FactoredRational:
    """FactoredRational.reduced by one divide_one_factor call per copy of each
    factor, constant factors first."""
    if f.num.is_zero():
        return FactoredRational.zero()
    num, den = f.num, dict(f.den)
    for a, b in sorted(den, key=lambda k: (k[1], k[0])):
        while den.get((a, b)):
            quot = divide_one_factor(num, a, b)
            if quot is None:
                break
            num = quot
            den[(a, b)] -= 1
    return FactoredRational(num, den)

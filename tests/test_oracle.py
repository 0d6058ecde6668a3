import itertools
import os
import random
import subprocess
import sys
import time
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from heiszeta import counts, oracle
from heiszeta.combinat import Partition, partitions_up_to
from heiszeta.counts import birkhoff_alpha, nprime_closed
from heiszeta.errors import LIMITS, BudgetExceeded, IdentityMismatch, UsageError
from heiszeta.oracle import (
    AltModule,
    _gram,
    _omega,
    alt_type,
    check_factorization,
    enum_lagrangians,
    enum_subalgebras,
    enum_sublattices,
    hnf_count,
    hnf_enumerate,
    smith_type,
)
from heiszeta.zeta import dirichlet_coeffs
from reference import (
    TupleAltModule,
    closure,
    contains,
    enum_lagrangians_by_tuples,
    pack,
    pairing,
    perp,
    smith_diagonal_integer,
    subalgebras_by_full_hnf,
    sublattice_table_by_full_smith,
    unpack,
)


def eval_at(poly, q):
    vals = poly.eval_q(q)
    assert set(vals) <= {0}
    return vals.get(0, 0)


# ---------------------------------------------------------------------------
# Smith normal form and types
# ---------------------------------------------------------------------------


def test_smith_type_examples():
    assert smith_type([[1, 0], [0, 1]], 2) == Partition(())
    assert smith_type([[4, 0], [0, 2]], 2) == Partition((2, 1))
    assert smith_type([[2, 1], [0, 2]], 2) == Partition((2,))
    assert smith_type([], 2) == Partition(())  # Z^0 / 0 is trivial


def test_smith_type_singular():
    with pytest.raises(UsageError):
        smith_type([[1, 1], [1, 1]], 2)


def test_smith_type_random_diagonal_recovery():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        vals = sorted((rng.randint(0, 3) for _ in range(n)), reverse=True)
        m = [[0] * n for _ in range(n)]
        for i, v in enumerate(vals):
            m[i][i] = 2**v
        # scramble by elementary operations
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    m[i][k] += c * m[j][k]
        assert smith_type(m, 2) == Partition(tuple(v for v in vals if v))


# entries with every p-valuation up to 3 at p = 2, 3 and 5, and zeros
_entries = st.builds(mul, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4, 5, 8, 9, 25, 27)))


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 5))
    mat = draw(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):  # make the last row a combination of the others: singular
        c = draw(st.integers(-3, 3))
        mat[-1] = [c * a + b for a, b in zip(mat[0], mat[-2])] if n > 1 else [0]
    return mat


@settings(max_examples=300, deadline=None)
@given(_square_matrices(), st.sampled_from((2, 3, 5)))
def test_smith_valuations_match_the_integer_smith_form(mat, p):
    expect = sorted(oracle._valuation(d, p) for d in smith_diagonal_integer(mat))
    assert sorted(oracle._smith_diagonal(mat, p)) == expect
    if len(expect) < len(mat):
        with pytest.raises(UsageError, match="determinant zero"):
            smith_type(mat, p)
    else:
        assert smith_type(mat, p) == Partition(sorted(expect, reverse=True))


def _integer_smith_valuations(mat, p):
    return sorted(oracle._valuation(d, p) for d in smith_diagonal_integer(mat))


@pytest.mark.parametrize(
    "mat, p",
    [
        # the only unit is in the first row; one later row has a zero in its column
        ([[2, 3, 0], [4, 0, 6], [0, 8, 2]], 2),
        ([[3, 9, 1], [9, 3, 0], [6, 27, 3]], 3),
        # the only unit is in the last row
        ([[2, 4, 6], [4, 2, 8], [6, 1, 4]], 2),
        ([[3, 6, 0], [0, 9, 3], [6, 3, 2]], 3),
        # no unit: every entry is divisible by p
        ([[2, 4, 0], [6, 2, 4], [0, 8, 12]], 2),
        ([[3, 9, 0], [0, 6, 27], [9, 0, 3]], 3),
    ],
    ids=["first-row-2", "first-row-3", "last-row-2", "last-row-3", "none-2", "none-3"],
)
def test_smith_valuations_wherever_the_unit_is(mat, p):
    assert sorted(oracle._smith_diagonal(mat, p)) == _integer_smith_valuations(mat, p)


def test_valuation_of_zero_is_refused():
    # it looped forever, since 0 % p == 0 at every step; a subprocess with a
    # timeout turns a regression into a failure instead of a hang
    code = (
        "from heiszeta.oracle import _valuation\n"
        "try:\n    _valuation(0, 3)\nexcept ValueError as e:\n    print(e)"
    )
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    assert proc.stdout.strip() == "0 has no finite 3-adic valuation", proc.stderr
    assert oracle._valuation(-24, 2) == 3


def test_smith_and_alt_type_refuse_a_non_prime():
    # p = 1 looped forever, p = 0 divided by zero, and p = 4 and p = -3 gave a
    # type with no error; run in a subprocess with a timeout, as a hang may be
    code = (
        "from heiszeta.errors import UsageError\n"
        "from heiszeta.oracle import alt_type, smith_type\n"
        "for p in (1, 0, 4, -3):\n"
        "    for fn, mat in ((smith_type, [[6]]), (alt_type, [[0, 2], [-2, 0]])):\n"
        "        try:\n            print(fn(mat, p))\n"
        "        except UsageError as e:\n            print(e)"
    )
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10
    )
    want = ["--prime must be a prime, got %d" % p for p in (1, 0, 4, -3) for _ in range(2)]
    assert proc.stdout.splitlines() == want, proc.stderr


def test_alt_type_examples():
    assert alt_type([[0, 1], [-1, 0]], 3) == Partition(())
    assert alt_type([], 3) == Partition(())
    assert alt_type([[0, 2], [-2, 0]], 2) == Partition((1,))
    J_mu = [
        [0, 0, 2, 0],
        [0, 0, 0, 1],
        [-2, 0, 0, 0],
        [0, -1, 0, 0],
    ]
    assert alt_type(J_mu, 2) == Partition((1,))


def test_alt_type_rejects_non_alternating():
    with pytest.raises(UsageError):
        alt_type([[1, 0], [0, 1]], 2)
    with pytest.raises(UsageError):
        alt_type([[0, 1], [1, 0]], 2)
    with pytest.raises(UsageError):
        alt_type([[0, 0], [0, 0]], 2)


_ALTERNATING = [
    [0, 2, 0, 1],
    [-2, 0, 3, 0],
    [0, -3, 0, 4],
    [-1, 0, -4, 0],
]


@pytest.mark.parametrize(
    "i, j, value, match",
    [
        (2, 2, 1, "nonzero diagonal entry"),
        (1, 3, 5, "not alternating"),  # above the diagonal
        (3, 1, 5, "not alternating"),  # below the diagonal
    ],
    ids=["diagonal", "above", "below"],
)
def test_alt_type_rejects_each_broken_entry(i, j, value, match):
    assert alt_type(_ALTERNATING, 2) == Partition(())  # Pfaffian 11
    gram = [row[:] for row in _ALTERNATING]
    gram[i][j] = value
    with pytest.raises(UsageError, match=match):
        alt_type(gram, 2)


# ---------------------------------------------------------------------------
# alternating modules and Lagrangians
# ---------------------------------------------------------------------------


def test_altmodule_cardinality_and_pairing():
    mod = AltModule((2, 1), 3)
    assert mod.size == 3 ** (2 * 3)
    e1 = pack(mod, (1, 0, 0, 0))
    f1 = pack(mod, (0, 1, 0, 0))
    e2 = pack(mod, (0, 0, 1, 0))
    assert pairing(mod, e1, f1) == mod.exponent // 9  # value 1/9 scaled by 9
    assert pairing(mod, f1, e1) == mod.exponent - mod.exponent // 9  # alternating
    assert pairing(mod, e1, e1) == 0
    assert pairing(mod, e1, e2) == 0
    # <x, f1> = a_1 / 9, so f1 is perpendicular exactly to the x with a_1 = 0
    assert mod.orth(unpack(mod, f1)) == sum(1 << x for x in range(mod.size) if unpack(mod, x)[0] == 0)


def test_perp_duality_random():
    rng = random.Random(9)
    for mu in [(1,), (2,), (1, 1), (2, 1)]:
        mod = AltModule(mu, 2)
        elts = range(mod.size)
        for _ in range(6):
            gens = tuple(rng.choice(elts) for _ in range(rng.randint(1, 2)))
            N = closure(mod, gens)
            orth = perp(mod, gens)
            assert len(N) * len(orth) == mod.size
            # (N^perp)^perp == N
            back = perp(mod, tuple(orth))
            assert frozenset(back) == N


ARITHMETIC_MODULES = [((1,), 2), ((1, 1), 2), ((2, 1), 2), ((3,), 2), ((1,), 3), ((2, 1), 3), ((1, 1), 5)]


def _bitset(indices):
    return sum(1 << i for i in set(indices))


@pytest.mark.parametrize("mu, p", ARITHMETIC_MODULES)
def test_packed_arithmetic_matches_coordinates(mu, p):
    # the mixed-radix bitsets against the coordinate tuples of TupleAltModule:
    # the index of every element, sub + {0, v, ..., (p - 1) v} by rotations,
    # orth(v) and the type read off popcounts
    mod, ref = AltModule(mu, p), TupleAltModule(mu, p)
    assert mod.size == ref.size
    assert sorted(unpack(mod, x) for x in range(mod.size)) == sorted(ref.elements())
    assert all(mod.coords(x) == unpack(mod, x) and pack(mod, unpack(mod, x)) == x
               for x in range(mod.size))
    rng = random.Random(10 * sum(mu) + p)
    for v in rng.sample(range(mod.size), min(12, mod.size)):
        vt, rotation = unpack(mod, v), mod.rotation(unpack(mod, v))
        for x in range(mod.size):
            added = ref.add(unpack(mod, x), vt)
            assert oracle._span(1 << x, rotation, 2) == _bitset([x, pack(mod, added)])
            multiples = [ref.add(unpack(mod, x), ref.scalar(j, vt)) for j in range(p)]
            assert oracle._span(1 << x, rotation, p) == _bitset(pack(mod, y) for y in multiples)
        w = ref.dual(vt)
        expect = [x for x in range(mod.size) if sum(map(mul, w, unpack(mod, x))) % ref.exponent == 0]
        assert mod.orth(vt) == _bitset(expect)
        sub = closure(mod, (v, rng.randrange(mod.size)))
        lam = ref.subgroup_type(frozenset(unpack(mod, x) for x in sub))
        assert mod.subgroup_type(_bitset(sub)) == lam


@pytest.mark.parametrize("mu, p", ARITHMETIC_MODULES + [((7,), 2), ((5,), 3), ((2, 2, 2, 2, 2), 3)])
def test_slots_keep_their_top_bit_free(mu, p):
    # coordinate k is digit k of the index, of radix m_k, so a rotation that
    # adds c to it stays inside the block of r_{k+1} = m_k r_k indices that
    # shares the other digits; checked on the layout alone, without building
    # a bitset, so the module may be past the |M_mu| budget
    mod = AltModule(mu, p)
    assert mod.radix[0] == 1
    assert all(mod.radix[k + 1] == mod.radix[k] * m for k, m in enumerate(mod.mods[:-1]))
    assert mod.radix[-1] * mod.mods[-1] == mod.size == p ** (2 * sum(mu))
    top = tuple(m - 1 for m in mod.mods)
    assert pack(mod, top) == mod.size - 1 and mod.coords(mod.size - 1) == top
    for k, m in enumerate(mod.mods):
        digit = tuple(m - 1 if j == k else 0 for j in range(len(mod.mods)))
        assert pack(mod, digit) == (m - 1) * mod.radix[k] < mod.radix[k] * m
        assert mod.coords(pack(mod, digit)) == digit


def test_enum_lagrangians_examples():
    assert enum_lagrangians((), 5) == {Partition(()): 1}
    assert enum_lagrangians((1,), 2) == {Partition((1,)): 3}
    counts = enum_lagrangians((1, 1), 2)
    assert sum(counts.values()) == 15
    assert counts == {Partition((1, 1)): 15}
    assert counts == {(1, 1): 15}  # a partition is its tuple


def test_each_supergroup_is_grown_once_per_parent(monkeypatch):
    # F_2^4: the 15 lines each grow once from {0}, each with its preimage, and
    # each line lies in 3 Lagrangian planes, grown once each from that line:
    # 15 + 15 + 15 * 3 spans, where a candidate that only drops its own bit
    # would grow each plane once per new element, 15 * 6 times
    calls = []

    def counting(s, rotation, p):
        calls.append(s)
        return span(s, rotation, p)

    span = oracle._span
    monkeypatch.setattr(oracle, "_span", counting)
    assert enum_lagrangians((1, 1), 2) == {Partition((1, 1)): 15}
    assert len(calls) == 15 + 15 + 15 * 3


def test_enum_lagrangians_size_constraint():
    for mu in [(2,), (2, 1)]:
        for lam, c in enum_lagrangians(mu, 2).items():
            assert sum(lam) == sum(mu)
            assert c > 0


def test_enum_lagrangians_budget():
    with pytest.raises(BudgetExceeded):
        enum_lagrangians((3, 3, 3), 3)


@pytest.mark.parametrize("p", (2, 3))
def test_lagrangian_totals_match_closed_form(p):
    for mu in partitions_up_to(3, 3):
        if sum(mu) == 0:
            continue
        total = sum(enum_lagrangians(mu, p).values())
        assert total == eval_at(nprime_closed(mu.padded(len(mu))), p)


@pytest.mark.parametrize("p", (2, 3))
def test_lagrangian_tables_match_the_tuple_enumeration(p):
    for mu in partitions_up_to(3, 3):
        assert enum_lagrangians(mu, p) == enum_lagrangians_by_tuples(mu, p)


def test_lagrangian_tables_at_size_4_match_the_tuple_enumeration():
    # every mu of size 4 with at most 3 parts at p = 2, |M_mu| = 2^8
    for mu in partitions_up_to(4, 3):
        if sum(mu) == 4:
            assert enum_lagrangians(mu, 2) == enum_lagrangians_by_tuples(mu, 2)


def test_lagrangian_total_of_four_parts():
    # (1, 1, 1, 1) at p = 2: the Lagrangian subspaces of F_2^8, 3 * 5 * 9 * 17
    total = sum(enum_lagrangians((1, 1, 1, 1), 2).values())
    assert total == eval_at(nprime_closed((1, 1, 1, 1)), 2) == 2295


@pytest.mark.parametrize("mu, p", [((7,), 2), ((5,), 3), ((3,), 5), ((2,), 7)])
def test_widest_slots_under_the_budget(mu, p):
    # the largest exponent p^{mu_1} whose module fits the |M_mu| budget
    budget = LIMITS["budget", "|M_mu|"][1]
    assert p ** (2 * mu[0]) <= budget < p ** (2 * mu[0] + 2)
    assert sum(enum_lagrangians(mu, p).values()) == eval_at(nprime_closed(mu), p)


def test_lagrangian_polynomiality_cross_check():
    # counts at p in {2,3,5} all fit the same closed-form polynomial
    for mu in [(1,), (2,), (1, 1)]:
        poly = nprime_closed(mu)
        for p in (2, 3, 5):
            assert sum(enum_lagrangians(mu, p).values()) == eval_at(poly, p)


# ---------------------------------------------------------------------------
# HNF enumeration
# ---------------------------------------------------------------------------


def test_hnf_count_matches_enumeration():
    for rank in (2, 3):
        for p in (2, 3):
            for v in range(3):
                assert hnf_count(rank, p, v) == sum(
                    1 for _ in hnf_enumerate(rank, p, v)
                )


def test_hnf_count_is_birkhoff_total():
    # sum over quotient types of the Birkhoff number = number of HNFs
    for rank in (2, 3, 4):
        for p in (2, 3):
            for v in range(3):
                total = sum(
                    eval_at(birkhoff_alpha(mu, rank), p)
                    for mu in partitions_up_to(v, rank)
                    if sum(mu) == v
                )
                assert total == hnf_count(rank, p, v)


def test_hnf_canonical_distinct_lattices():
    seen = set()
    for H in hnf_enumerate(2, 2, 2):
        # fingerprint the lattice by membership of small vectors
        fp = tuple(
            contains(H, (x, y)) for x in range(-4, 5) for y in range(-4, 5)
        )
        assert fp not in seen
        seen.add(fp)


def test_hermite_contains():
    H = ((1, 1), (0, 2))
    assert contains(H, (1, 1))
    assert contains(H, (0, 2))
    assert not contains(H, (0, 1))


# ---------------------------------------------------------------------------
# sublattices by two types
# ---------------------------------------------------------------------------


def test_enum_sublattices_rank_two():
    table = enum_sublattices(1, 2, 1)
    assert table[(Partition(()), Partition(()))] == 1
    assert table[(Partition((1,)), Partition((1,)))] == 3


def test_enum_sublattices_n2_table():
    table = enum_sublattices(2, 2, 2)
    flat = {(str(a), str(b)): v for (a, b), v in table.items()}
    assert flat == {
        ("", ""): 1,
        ("1", "1"): 15,
        ("1,1", "1,1"): 15,
        ("1,1", "2"): 20,
        ("2", "2"): 120,
    }


@pytest.mark.parametrize("n,p,maxval", [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 2), (3, 2, 1)])
def test_sublattice_table_matches_the_full_smith_form(n, p, maxval):
    assert enum_sublattices(n, p, maxval) == sublattice_table_by_full_smith(n, p, maxval)


@pytest.mark.parametrize("rank", [2, 4, 6])
@pytest.mark.parametrize("p", [2, 3])
def test_nonunit_minor_has_the_quotient_type(rank, p):
    # every HNF up to valuation 2: a unit diagonal entry splits off
    for j in range(3):
        for H in hnf_enumerate(rank, p, j):
            minor = oracle._nonunit_minor(H)
            assert len(minor) <= j
            lam = smith_type(minor, p)
            assert lam == smith_type(H, p)
            assert lam == Partition(sorted(_integer_smith_valuations(H, p), reverse=True))


@pytest.mark.parametrize("n,p,maxval", [(1, 2, 3), (1, 3, 2), (2, 2, 2)])
def test_remark_aggregation_over_mu(n, p, maxval):
    # summing the two-type counts over mu recovers the rank-2n Birkhoff number
    table = enum_sublattices(n, p, maxval)
    lams = {lam for lam, _ in table}
    for lam in lams:
        total = sum(c for (l2, _), c in table.items() if l2 == lam)
        assert total == eval_at(birkhoff_alpha(lam, 2 * n), p)


@pytest.mark.parametrize("n,p,maxval", [(1, 2, 3), (1, 3, 3), (2, 2, 2), (2, 3, 2)])
def test_factorization(n, p, maxval):
    rows = check_factorization(n, p, maxval)
    assert rows and all(r["ok"] for r in rows)


def test_factorization_mismatch_in_the_lattice_count(monkeypatch):
    real = enum_sublattices

    def one_more(n, p, max_valuation):
        table = real(n, p, max_valuation)
        table[Partition((1,)), Partition((1,))] += 1
        return table

    monkeypatch.setattr(oracle, "enum_sublattices", one_more)
    with pytest.raises(IdentityMismatch, match=r"N\(1; 1\) = 16"):
        check_factorization(2, 2, 2)


def test_factorization_mismatch_in_the_birkhoff_number(monkeypatch):
    real = counts.birkhoff_number

    def one_more(mu, n, big_q):
        return real(mu, n, big_q) + (mu == Partition((1, 1)))

    monkeypatch.setattr(counts, "birkhoff_number", one_more)
    with pytest.raises(IdentityMismatch, match=r"N\(1,1; 1,1\)"):
        check_factorization(2, 2, 2)


def test_factorization_budget():
    # 7.0e8 HNF bases of rank 4 up to index 3^6, refused before enumerating;
    # |M_(6)| = 3^12 also exceeds the Lagrangian budget, but the HNF refusal
    # comes first
    with pytest.raises(BudgetExceeded):
        enum_sublattices(2, 3, 6)
    with pytest.raises(BudgetExceeded, match="HNF"):
        check_factorization(2, 3, 6)


def test_factorization_keeps_the_lagrangian_budget(monkeypatch):
    # |M_(8)| = 2^16 exceeds the Lagrangian budget 3^10, though the HNF
    # enumeration of rank 2 up to index 2^8 is well inside its own; the
    # refusal comes before the lattice enumeration
    def refuse(*args):
        raise AssertionError("enum_sublattices ran before the budget check")

    monkeypatch.setattr(oracle, "enum_sublattices", refuse)
    with pytest.raises(BudgetExceeded, match=r"\|M_mu\| = 65536 exceeds"):
        check_factorization(1, 2, 8)


def test_hnf_budget_stops_at_the_first_valuation_over_it(monkeypatch):
    # the running count passes 2 * 10^6 at valuation 19 of rank 2, p = 2
    calls = []

    def counting(*args):
        calls.append(args)
        return hnf_count(*args)

    monkeypatch.setattr(oracle, "hnf_count", counting)
    with pytest.raises(BudgetExceeded):
        enum_sublattices(1, 2, 200)
    assert len(calls) <= 25


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_pairs_each_row_pair_once(n, monkeypatch):
    # _gram mirrors the n(2n - 1) values of _omega above the diagonal into the
    # full table, and enum_sublattices calls _omega once per distinct pair of
    # rows over all the HNFs it classifies, not once per pair and lattice
    calls = []

    def counting(u, v, n):
        calls.append((u, v))
        return _omega(u, v, n)

    for H in hnf_enumerate(2 * n, 3, 1):
        upper = [_omega(a, b, n) for a, b in itertools.combinations(H, 2)]
        assert len(upper) == n * (2 * n - 1)
        assert _gram(upper, 2 * n) == [[_omega(a, b, n) for b in H] for a in H]
    monkeypatch.setattr(oracle, "_omega", counting)
    table = enum_sublattices(n, 3, 1)
    pairs = {uv for j in range(2) for H in hnf_enumerate(2 * n, 3, j)
             for uv in itertools.combinations(H, 2)}
    assert len(calls) == len(set(calls)) == len(pairs)
    assert table == sublattice_table_by_full_smith(n, 3, 1)


def test_sublattices_eliminate_each_distinct_gram_once(monkeypatch):
    # the 1566 lattices at (2, 2, 3) have 20 distinct non-unit minors and 463
    # distinct Gram matrices: one Smith elimination each, not one per lattice
    calls = []

    def counting(mat, p):
        calls.append(mat)
        return smith_diagonal(mat, p)

    smith_diagonal = oracle._smith_diagonal
    monkeypatch.setattr(oracle, "_smith_diagonal", counting)
    table = enum_sublattices(2, 2, 3)
    assert sum(table.values()) == 1566
    assert len(calls) == 20 + 463


# ---------------------------------------------------------------------------
# Heisenberg subalgebras
# ---------------------------------------------------------------------------


def test_lie_ring_bracket():
    # _omega(u, v, n) is the y-coefficient of [u, v] in h_n, x_{2i-1} with x_{2i}
    u, v, w = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)
    assert _omega(u, v, 2) == 1
    assert _omega(v, u, 2) == -1  # antisymmetry
    assert _omega(u, w, 2) == 0  # x_1 pairs only with x_2
    assert _omega((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), 2) == 1
    # the centre is untouched by brackets: y-components never contribute
    assert _omega((0, 0, 0, 0, 7), (0, 0, 0, 0, -2), 2) == 0
    # class 2: [u, v] is central, so [[u, v], w] = 0 for the induced bracket
    assert _omega((0, 0, 0, 0, _omega(u, v, 2)), w, 2) == 0


def test_enum_subalgebras_fixtures():
    assert enum_subalgebras(1, 2, 2) == [1, 3, 19]
    assert enum_subalgebras(1, 3, 1) == [1, 4]


@pytest.mark.parametrize(
    "fn,args",
    [
        (enum_sublattices, (1, 1, 1)),
        (enum_lagrangians, ((1,), 0)),
        (enum_subalgebras, (1, 4, 2)),
        (check_factorization, (1, 4, 2)),
    ],
    ids=["sublattices", "lagrangians", "subalgebras", "factorization"],
)
def test_oracles_refuse_a_non_prime(fn, args):
    # p = 1 looped forever in smith_type, p = 0 divided by zero, and p = 4
    # gave subalgebra counts with no error
    with pytest.raises(UsageError, match="must be a prime"):
        fn(*args)


@pytest.mark.parametrize(
    "fn",
    [enum_sublattices, enum_subalgebras, check_factorization],
    ids=["sublattices", "subalgebras", "factorization"],
)
def test_oracles_refuse_a_negative_max_valuation(fn):
    # they returned {}, [] and [] where the command line refuses
    with pytest.raises(UsageError, match="max valuation must be >= 0, got -1"):
        fn(1, 2, -1)


def test_subalgebra_budget_counts_the_bases_built():
    # 4,916 x-part bases of rank 2 up to 3^7; the 9,077,708 rank-3 bases
    # they stand for are never built
    assert sum(hnf_count(2, 3, j) for j in range(8)) == 4916
    assert enum_subalgebras(1, 3, 7) == dirichlet_coeffs(1, 3, 7)


def test_subalgebras_of_the_centre_alone_take_linear_work():
    # h_0 = Z y has one subalgebra of each index p^e, and the rank-0 budget
    # bounds nothing; testing p^e | p^k for every e is quadratic in k (9 s at
    # k = 20000 on a 2-vCPU Xeon VM)
    start = time.perf_counter()
    assert enum_subalgebras(0, 3, 20000) == [1] * 20001
    assert time.perf_counter() - start < 3


def test_enum_subalgebras_budget():
    with pytest.raises(BudgetExceeded):
        enum_subalgebras(2, 5, 6)


@pytest.mark.parametrize("n,p,k", [(1, 2, 5), (1, 3, 3), (2, 2, 3), (1, 5, 2)])
def test_subalgebras_collapse_the_sublattice_table(n, p, k):
    # a subalgebra projects onto a lattice L of Z^{2n}, of type (lambda, mu),
    # and meets Z y in p^e Z y; it is closed iff p^e divides the form on L,
    # i.e. e <= min(mu padded to n).  Each L lifts in p^{2ne} ways (a y-entry
    # mod p^e per basis row), each lift of index p^{|lambda| + e}
    table = enum_sublattices(n, p, k)
    counts = [
        sum(
            p ** (2 * n * e) * c
            for e in range(j + 1)
            for (lam, mu), c in table.items()
            if sum(lam) == j - e and min(mu.padded(n)) >= e
        )
        for j in range(k + 1)
    ]
    assert counts == enum_subalgebras(n, p, k)


@pytest.mark.parametrize(
    "n,p,k", [(0, 2, 3), (1, 2, 6), (1, 3, 3), (1, 5, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)]
)
def test_subalgebras_match_the_full_hnf_enumeration(n, p, k):
    assert enum_subalgebras(n, p, k) == subalgebras_by_full_hnf(n, p, k)


def test_subalgebras_enumerate_only_x_part_lattices(monkeypatch):
    # each subalgebra is an x-part lattice of Z^{2n} and a y-column; only the
    # former is enumerated: 543 bases of rank 2 for n = 1, p = 3 up to 3^5,
    # where the full rank-3 enumeration builds 111,834
    ranks, seen = [], []

    def counting(rank, p, v):
        ranks.append(rank)
        for H in hnf_enumerate(rank, p, v):
            seen.append(H)
            yield H

    monkeypatch.setattr(oracle, "hnf_enumerate", counting)
    assert enum_subalgebras(1, 3, 5) == [1, 4, 49, 157, 1534, 4693]
    assert set(ranks) == {2}
    assert len(seen) == 543


def test_hnf_rows_are_chosen_independently():
    # every basis is upper triangular, reduced modulo its column diagonal,
    # and distinct; the count is hnf_count's
    for rank, p, v in [(0, 2, 0), (1, 3, 2), (3, 2, 2), (4, 2, 2)]:
        bases = list(hnf_enumerate(rank, p, v))
        assert len(set(bases)) == len(bases) == hnf_count(rank, p, v)
        for H in bases:
            prod = 1
            for i, row in enumerate(H):
                assert len(row) == rank and all(x == 0 for x in row[:i])
                prod *= row[i]
                assert all(0 <= row[j] < H[j][j] for j in range(i + 1, rank))
            assert prod == p**v

import itertools
import math
import pickle
import random
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from heiszeta.combinat import Partition, gen_W, partitions_up_to, weight_C
from heiszeta.errors import SizeGuard, UsageError
from heiszeta.exactalg import BivariatePolynomial as Poly, FactoredRational as FR, _t_low
from heiszeta.igusa import igusa_B
from heiszeta.oracle import enum_lagrangians
from heiszeta.verify.descent import GENERIC_Z, signed_descent_sum
from heiszeta.verify.fibre import coset_reps, coset_stats, descent_set, fibre_W
from heiszeta.verify.reduced import eulerian_A
from heiszeta.zeta import reduced_zeta
from reference import SignedPermutation, brenti_B_by_enumeration, difference_vector
from reference import inversions, is_w_vector, perms, signed_perm_length_bfs, signed_perms


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def test_partition_normalizes_trailing_zeros():
    assert Partition((2, 1, 0, 0)) == Partition((2, 1))
    assert hash(Partition((2, 1, 0))) == hash(Partition((2, 1)))
    # a partition is the tuple of its parts, trailing zeros stripped
    assert isinstance(Partition((2, 1)), tuple)
    assert Partition((2, 1)) == (2, 1) and hash(Partition((2, 1))) == hash((2, 1))
    assert Partition((2, 1, 0)) == (2, 1)
    assert Partition((2, 1)) != (2, 1, 0)


def test_partition_rejects_bad_input():
    with pytest.raises(UsageError, match="parts must be weakly decreasing"):
        Partition((1, 2))
    with pytest.raises(UsageError, match="negative part"):
        Partition((1, -1))
    # a part that is no integer, a string's characters among them
    for parts in ((1.5,), (2, 1.0), "1", "ab"):
        with pytest.raises(UsageError, match="parts must be integers"):
            Partition(parts)
    # int()'s own text, which `oracle lagrangian --mu` prints
    with pytest.raises(UsageError, match="invalid literal for int"):
        Partition.from_string("a")
    with pytest.raises(UsageError, match="parts must be integers"):
        enum_lagrangians((1.5,), 2)


def test_partition_refuses_a_value_that_is_no_sequence():
    # a bare int has no parts to iterate over
    for call in (lambda: Partition(3), lambda: Partition(None), lambda: enum_lagrangians(3, 2)):
        with pytest.raises(UsageError, match="a partition is a sequence of parts, got"):
            call()


def test_partition_refuses_a_bool_part():
    # True is an int to isinstance, but no part: it printed as "True"
    for parts in ((True,), (2, False), (True, True)):
        with pytest.raises(UsageError, match="parts must be integers"):
            Partition(parts)
    with pytest.raises(UsageError, match="parts must be integers"):
        enum_lagrangians((True,), 2)


def test_partition_difference_vector_reconstructs():
    mu = Partition((4, 2, 2))
    d = difference_vector(mu, 4)
    assert d == (2, 0, 2, 0)
    rebuilt = tuple(sum(d[i:]) for i in range(4))
    assert rebuilt == mu.padded(4)


def test_partition_string_round_trip():
    assert Partition.from_string("2,1") == Partition((2, 1))
    assert Partition.from_string("") == Partition(())
    assert str(Partition((2, 1))) == "2,1"
    back = pickle.loads(pickle.dumps(Partition((2, 1))))
    assert type(back) is Partition and back == (2, 1)


def test_partitions_up_to_small():
    assert partitions_up_to(0, 3) == [()]
    assert partitions_up_to(2, 2) == [(), (1,), (2,), (1, 1)]
    # partitions sort as their tuples do
    assert sorted(partitions_up_to(4, 3)) == sorted(map(tuple, partitions_up_to(4, 3)))
    assert len(partitions_up_to(4, 2)) == 9


def test_partitions_up_to_respects_bounds():
    for p in partitions_up_to(6, 3):
        assert sum(p) <= 6 and len(p) <= 3
    seen = set(partitions_up_to(6, 3))
    assert len(seen) == len(partitions_up_to(6, 3))


# ---------------------------------------------------------------------------
# the sets W_n
# ---------------------------------------------------------------------------


def test_gen_W_paper_fixtures():
    assert set(gen_W(1)) == {(0,), (1,)}
    assert set(gen_W(2)) == {(0, 0), (0, 3), (1, 1), (1, 2)}
    assert gen_W(3) == (
        (0, 0, 0),
        (0, 0, 5),
        (0, 3, 2),
        (0, 3, 3),
        (1, 1, 1),
        (1, 1, 4),
        (1, 2, 2),
        (1, 2, 3),
    )


@pytest.mark.parametrize("n", range(13))
def test_gen_W_cardinality_and_membership(n):
    vecs = gen_W(n)
    assert len(vecs) == 2**n
    assert len(set(vecs)) == 2**n
    assert all(is_w_vector(w) for w in vecs)


@pytest.mark.parametrize("n", range(1, 9))
def test_partial_sum_law(n):
    for w in gen_W(n):
        ps = list(itertools.accumulate(w))
        for j in range(1, n + 1):
            assert ps[j - 1] == w[j - 1] * (2 * j + 1 - w[j - 1]) // 2


def test_weight_C_fixtures():
    assert weight_C((0,)) == FR(1, {(1, 0): 1})
    assert weight_C((1,)) == FR(1, {(-1, 0): 1})
    assert weight_C((0, 3)) == FR(1, {(1, 0): 1, (-3, 0): 1})


def test_fibre_W_examples():
    assert fibre_W(2, 0) == ((0, 0),)
    assert set(fibre_W(2, 2)) == {(0, 3), (1, 2)}
    assert fibre_W(0, 0) == ((),) and fibre_W(0, 1) == ((),)
    assert fibre_W(2, 9) == ()


@pytest.mark.parametrize("k", range(7))
def test_fibre_W_partition_and_symmetry(k):
    union = []
    for r in range(k + 1):
        union.extend(fibre_W(k, r))
    assert sorted(union) == sorted(gen_W(k))
    for r in range(2 * k + 2):
        assert fibre_W(k, r) == fibre_W(k, 2 * k + 1 - r)


@pytest.mark.parametrize("k", range(5))
def test_fibre_W_recursion(k):
    for r in range(2 * k + 4):
        rp = 2 * k + 3 - r
        expect = [w + (r,) for w in fibre_W(k, r)] + [
            w + (rp,) for w in fibre_W(k, rp) if rp != r
        ]
        assert sorted(fibre_W(k + 1, r)) == sorted(expect)


# ---------------------------------------------------------------------------
# permutations and coset statistics
# ---------------------------------------------------------------------------


def test_descents_and_inversions():
    assert descent_set((3, 1, 2)) == {1}
    assert inversions((3, 1, 2)) == 2
    assert descent_set((1, 2, 3)) == frozenset()


def test_coset_stats_examples():
    for k in range(3):
        assert coset_stats((1, 2, 3), k) == (0, 0, frozenset())
    assert coset_stats((2, 1), 1)[0] == 1
    t0, ell0, des0 = coset_stats((3, 1, 2), 0)
    assert (t0, ell0, des0) == (0, 2, frozenset({1}))


def test_coset_stats_invariance_under_right_Sk():
    rng = random.Random(5)
    for n in (3, 4, 5):
        for _ in range(20):
            g = list(rng.sample(range(1, n + 1), n))
            k = rng.randint(0, n)
            ref = coset_stats(tuple(g), k)
            head = g[:k]
            rng.shuffle(head)
            assert coset_stats(tuple(head + g[k:]), k) == ref


def test_coset_reps_are_canonical_and_complete():
    for n in range(5):
        for k in range(n + 1):
            reps = list(coset_reps(n, k))
            import math

            assert len(reps) == math.factorial(n) // math.factorial(k)
            assert all(list(r[:k]) == sorted(r[:k]) for r in reps)
            assert len(set(reps)) == len(reps)


# ---------------------------------------------------------------------------
# signed permutations
# ---------------------------------------------------------------------------


def test_signed_perm_identity_stats():
    g = SignedPermutation((1,))
    assert g.length() == 0 and g.descent_set_B() == frozenset()
    assert g.neg() == 0 and g.stat_C([3, 2]) == 0 and g.stat_D() == 0


def test_signed_perm_flip_stats():
    g = SignedPermutation((-1,))
    assert g.length() == 1
    assert g.descent_set_B() == {0}
    assert g.neg() == 1
    assert g.stat_C([3, 2]) == 1 * 1 - 1 + 3  # n*neg - length + c_0
    assert g.stat_D() == 2 * 1 + 1


def test_signed_perms_counts():
    assert sum(1 for _ in signed_perms(2)) == 8
    assert sum(1 for _ in signed_perms(3)) == 48


def test_signed_perm_rejects_bad_window():
    with pytest.raises(ValueError):
        SignedPermutation((1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((2, 3))


@pytest.mark.parametrize("n", (1, 2, 3))
def test_length_formula_matches_bfs(n):
    dist = signed_perm_length_bfs(n)
    assert len(dist) == 2**n * math.factorial(n)
    for g in signed_perms(n):
        assert g.length() == dist[g.window]


def test_signed_perm_serialization():
    assert str(SignedPermutation((-2, 1, 3))) == "-2,1,3"


# ---------------------------------------------------------------------------
# the B_n statistic sum, against the group elements one by one
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _group_statistics(n):
    """Counter of (length, neg, Des_B) over the signed_perms enumeration."""
    return Counter((g.length(), g.neg(), g.descent_set_B()) for g in signed_perms(n))


def _direct_signed_sum(n, y, Z, X):
    """Sum over B_n of q^{y l(g)} Z^neg(g) prod_{i in Des_B(g)} X_i, term by term."""
    ((z_q, z_T), z), = Z.terms.items()
    terms = {}
    for (length, neg, des), count in _group_statistics(n).items():
        key = (y * length + neg * z_q, neg * z_T)
        for i in des:
            key = (key[0] + X[i][0], key[1] + X[i][1])
        terms[key] = terms.get(key, 0) + z**neg * count
    return Poly(terms)


_monomials = st.builds(
    Poly.monomial, st.sampled_from((1, -1, 3)), st.integers(-9, 9), st.integers(0, 3)
)
_slots = st.tuples(st.integers(-9, 9), st.integers(0, 3))


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(0, 4),
    y=st.integers(-3, 3),
    Z=_monomials,
    X=st.lists(_slots, min_size=4, max_size=4),
)
def test_signed_descent_sum_matches_group_enumeration(n, y, Z, X):
    assert signed_descent_sum(n, y, Z, X[:n]) == _direct_signed_sum(n, y, Z, X[:n])


@pytest.mark.parametrize("n", (5, 6))
@pytest.mark.parametrize("graded", (False, True), ids=("form_c", "graded"))
def test_signed_descent_sum_hyperoctahedral_slots(n, graded):
    from heiszeta.zeta import c_exponents, c_exponents_graded

    c = c_exponents_graded(n) if graded else c_exponents(n)
    args = (-1, Poly.monomial(-1, n, 1), [(ci, n + 1) for ci in c[:n]])
    assert signed_descent_sum(n, *args) == _direct_signed_sum(n, *args)


@pytest.mark.parametrize("n", (5, 6))
def test_signed_descent_sum_residue_limit_slots(n):
    # slot m set to 1, as in the residue limits
    for m in range(n + 1):
        X = [(0, 0) if i == m else (101 + 100 * i, 1) for i in range(n)]
        got = signed_descent_sum(n, -1, GENERIC_Z, X)
        assert got == _direct_signed_sum(n, -1, GENERIC_Z, X)


def test_signed_descent_sum_guard_and_arity():
    Z = Poly.monomial(1, 0, 1)
    with pytest.raises(SizeGuard):
        signed_descent_sum(9, -1, Z, [(1, 1)] * 9)
    with pytest.raises(UsageError):
        signed_descent_sum(3, -1, Z, [(1, 1)] * 4)
    with pytest.raises(UsageError):
        signed_descent_sum(-1, -1, Z, [])
    assert signed_descent_sum(0, -1, Z, []) == Poly.one()


@pytest.mark.parametrize("Z", [Poly.one_minus(0, 1), Poly.zero()], ids=["1 - T", "0"])
def test_signed_descent_sum_refuses_a_Z_of_other_than_one_term(Z):
    with pytest.raises(UsageError, match="one term"):
        signed_descent_sum(2, -1, Z, [(1, 1)] * 2)


# ---------------------------------------------------------------------------
# Eulerian polynomials
# ---------------------------------------------------------------------------


def test_eulerian_A_fixtures():
    assert eulerian_A(0) == (1,)
    assert eulerian_A(2) == (0, 1, 1)
    assert sum(eulerian_A(3)) == 6
    assert eulerian_A(10) == (
        0, 1, 1013, 47840, 455192, 1310354, 1310354, 455192, 47840, 1013, 1)


@pytest.mark.parametrize("d", range(8))
def test_eulerian_A_counts_descents(d):
    # the recurrence gives the number of permutations of S_d with des + 1 = k
    counts = Counter(len(descent_set(g)) + 1 for g in perms(d)) if d else Counter({0: 1})
    assert eulerian_A(d) == tuple(counts[k] for k in range(d + 1))


@pytest.mark.parametrize("d", range(1, 6))
def test_eulerian_identity(d):
    # sum_i i^d X^i = A_d(X) / (1 - X)^{d+1}, checked through X^8
    order = 8
    lhs = [i**d for i in range(order + 1)]
    coeffs = list(eulerian_A(d)) + [0] * (order + 1)
    series = FR(
        Poly({(0, e): c for e, c in enumerate(coeffs[: order + 1]) if c}),
        {(0, 1): d + 1},
    ).series_in_T(order)
    assert [c.coefficient(0, 0) for c in series] == lhs


def _brenti_B(n):
    # B_n(X, Y) = sum over B_n of Y^neg X^des_B, as the type-B Igusa function's
    # numerator at Y = 1: slots q mark descents and Z = T marks negatives
    f = igusa_B(n, 0, Poly.monomial(1, 0, 1), [(1, 0)] * n)
    assert Counter(f.den) == Counter({(1, 0): n}) and _t_low(f.num.terms) == 0
    return f.num


def test_brenti_B_fixtures():
    assert _brenti_B(1) == Poly({(0, 0): 1, (1, 1): 1})  # 1 + XY
    for n in (1, 2, 3, 8):
        assert sum(_brenti_B(n).terms.values()) == 2**n * math.factorial(n)


@pytest.mark.parametrize("n", range(7))
def test_brenti_B_matches_group_enumeration(n):
    # the engine at Y = 1 against the group sum, and reduced_zeta's numerator
    # times (1 - T)^n against B_n(T^{n+1}, -T) from the same sum
    B = brenti_B_by_enumeration(n)
    assert _brenti_B(n) == B
    substituted = Poly({(0, (n + 1) * i + j): (-1) ** j * c for (i, j), c in B.terms.items()})
    assert reduced_zeta(n).num * Poly.one_minus(0, 1) ** n == substituted


def test_brenti_B_reduced_numerator_fixture():
    # B_1(T^2, -T) = 1 - T^3
    assert reduced_zeta(1).num * Poly.one_minus(0, 1) == Poly.one_minus(0, 3)


@pytest.mark.parametrize("n", range(1, 5))
def test_brenti_generating_identity(n):
    # sum_i (1 + (1+Y) i)^n X^i = B_n(X, Y)/(1-X)^{n+1} at Y = 2, through X^6
    y = 2
    order = 6
    lhs = [(1 + (1 + y) * i) ** n for i in range(order + 1)]
    bn = _brenti_B(n)
    num = Poly({(0, i): sum(c * y**j for (ii, j), c in bn.terms.items() if ii == i)
                for i in range(n + 1)})
    series = FR(num, {(0, 1): n + 1}).series_in_T(order)
    assert [c.coefficient(0, 0) for c in series] == lhs

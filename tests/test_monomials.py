"""Monomial ideal arithmetic: examples frozen from brute-force oracles, plus
the generating-set identities for disjoint-support pairs."""

from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from stanley_lab import BudgetExceededError, InputError, MonomialIdeal, divides, minimalize
from stanley_lab.monomials import as_degree, iter_box, members_in_box

P3 = MonomialIdeal.make(3, [(1, 1, 0), (0, 1, 1)])


def brute_contains(ideal, a):
    return any(all(g[i] <= a[i] for i in range(len(a))) for g in ideal.gens)


def test_minimalize_drops_multiples():
    assert minimalize([(1, 1), (2, 1)], 2) == ((1, 1),)


def test_minimalize_empty_is_zero():
    assert MonomialIdeal.make(2, []).is_zero()


def test_minimalize_pairwise_products():
    # all pairwise products of the P3 generators, then divisibility filtering
    pairs = [
        tuple(x + y for x, y in zip(a, b)) for a in P3.gens for b in P3.gens
    ]
    kept = [
        d
        for d in sorted(set(pairs))
        if not any(e != d and divides(e, d) for e in pairs)
    ]
    assert minimalize(pairs, 3) == tuple(kept)
    assert minimalize(pairs, 3) == ((0, 2, 2), (1, 2, 1), (2, 2, 0))


def test_minimalize_rejects_bad_degrees():
    # the first bad generator in input order is the one reported
    with pytest.raises(InputError, match="length 2"):
        minimalize([(1, 1), [1], (-1, 0)], 2)
    with pytest.raises(InputError, match="negative"):
        minimalize([(1, 1), [-1, 0], (1,)], 2)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3), max_size=8))
def test_minimalize_matches_bruteforce(gens):
    # raw lists, duplicates and mixed total degrees
    degs = {tuple(g) for g in gens}
    kept = [d for d in degs if not any(e != d and divides(e, d) for e in degs)]
    assert minimalize(gens, 3) == tuple(sorted(kept))


def test_as_degree_validates():
    assert as_degree(["1", "0", "2"], 3) == (1, 0, 2)  # string digits are coerced
    assert as_degree([]) == ()
    with pytest.raises(InputError, match="negative"):
        as_degree((1, -1), 2)
    with pytest.raises(InputError, match="length 3"):
        as_degree((1, 1), 3)
    with pytest.raises(InputError, match="length 2"):
        as_degree([], 2)
    # both faults at once: the negative exponent is reported first
    with pytest.raises(InputError, match="negative"):
        as_degree((-1,), 3)


def test_contains_basic():
    I = MonomialIdeal.make(2, [(1, 1)])
    assert I.contains((1, 1))
    assert not I.contains((5, 0))
    assert (P3**2).contains((1, 2, 1))


def test_contains_length_mismatch():
    with pytest.raises(InputError):
        MonomialIdeal.make(2, [(1, 1)]).contains((1, 1, 1))


def test_power():
    assert (P3**2).gens == ((0, 2, 2), (1, 2, 1), (2, 2, 0))
    assert (P3**0).is_unit()
    a = MonomialIdeal.make(2, [(1, 0)])
    b = MonomialIdeal.make(2, [(0, 1)])
    assert (a * b).gens == ((1, 1),)


def test_intersect():
    a = MonomialIdeal.make(2, [(1, 0)])
    b = MonomialIdeal.make(2, [(0, 1)])
    assert a.intersect(b).gens == ((1, 1),)
    assert P3.intersect(MonomialIdeal.unit(3)) == P3
    L = MonomialIdeal.make(4, [(1, 1, 0, 0)])
    J = MonomialIdeal.make(4, [(0, 0, 1, 1)])
    assert ((L**2) * J).intersect(L * J**2) == (L**2) * (J**2)
    assert ((L**2) * J).intersect(L * J**2).gens == ((2, 2, 2, 2),)


def test_colon():
    assert P3.colon((0, 1, 0)).gens == ((0, 0, 1), (1, 0, 0))
    assert (P3**2).colon((0, 1, 0)).gens == ((0, 1, 2), (1, 1, 1), (2, 1, 0))
    assert P3.colon((0, 0, 0)) == P3


def test_colon_membership_oracle():
    # a in (I : m) iff a + m in I, sampled over a box
    m = (0, 2, 1)
    quotient = (P3**2).colon(m)
    for a in product(range(3), repeat=3):
        shifted = tuple(x + y for x, y in zip(a, m))
        assert quotient.contains(a) == (P3**2).contains(shifted)


def test_restrict():
    assert P3.restrict((2, 3)).gens == ((1, 1),)
    assert MonomialIdeal.make(2, [(1, 1)]).restrict((2,)).is_zero()
    assert (P3**2).restrict((2, 3)).gens == ((2, 2),)


def test_extend_roundtrip():
    sub = MonomialIdeal.make(2, [(1, 1)])
    ext = sub.extend((2, 3), 3)
    assert ext.gens == ((0, 1, 1),)
    assert ext.restrict((2, 3)) == sub
    assert MonomialIdeal.zero(2).extend((1, 3), 4).is_zero()


def test_members_in_box_matches_contains():
    corner = (2, 2, 2)
    members = members_in_box(P3**2, corner)
    for a in product(range(3), repeat=3):
        assert (a in members) == brute_contains(P3**2, a)


def test_members_in_box_caps_the_box():
    with pytest.raises(BudgetExceededError):
        members_in_box(MonomialIdeal.make(3, [(1, 1, 1)]), (1000, 1000, 1000))


def test_json_roundtrip():
    obj = (P3**2).to_json()
    assert obj == {"n": 3, "gens": [[0, 2, 2], [1, 2, 1], [2, 2, 0]]}
    assert MonomialIdeal.from_json(obj) == P3**2


small_degrees = st.lists(
    st.tuples(*(st.integers(0, 2) for _ in range(4))), min_size=0, max_size=4
)


@st.composite
def ideals(draw, n=4):
    return MonomialIdeal.make(n, draw(small_degrees))


@st.composite
def disjoint_pairs(draw):
    """Nonzero ideals supported on {x1,x2} and {x3,x4} respectively."""
    lgens = draw(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3)
    )
    rgens = draw(
        st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3)
    )
    left = MonomialIdeal.make(4, [g + (0, 0) for g in lgens if any(g)] or [(1, 1, 0, 0)])
    right = MonomialIdeal.make(4, [(0, 0) + g for g in rgens if any(g)] or [(0, 0, 1, 1)])
    return left, right


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.tuples(*(st.integers(0, 3) for _ in range(3))), max_size=4).map(
        lambda gens: MonomialIdeal.make(3, gens)
    ),
    st.tuples(*(st.integers(0, 2) for _ in range(3))),
)
@example(MonomialIdeal.zero(3), (2, 1, 2))
@example(MonomialIdeal.unit(3), (2, 0, 1))
@example(MonomialIdeal.unit(3), (0, 0, 0))
@example(MonomialIdeal.make(3, [(2, 2, 2), (0, 3, 0)]), (2, 2, 1))
def test_members_in_box_matches_bruteforce(ideal, corner):
    # corners may be 0 on an axis, and generators may leave the box
    expected = {a for a in iter_box(corner) if brute_contains(ideal, a)}
    assert members_in_box(ideal, corner) == expected


@settings(max_examples=60, deadline=None)
@given(ideals())
def test_minimalize_idempotent(ideal):
    assert minimalize(ideal.gens, ideal.n) == ideal.gens


@settings(max_examples=60, deadline=None)
@given(ideals(), st.tuples(*(st.integers(0, 3) for _ in range(4))))
def test_contains_agrees_with_bruteforce(ideal, a):
    assert ideal.contains(a) == brute_contains(ideal, a)


@settings(max_examples=100, deadline=None)
@given(ideals(), ideals())
@example(P3.extend((1, 2, 3), 4), (P3**2).extend((1, 2, 3), 4))
@example((P3**2).extend((1, 2, 3), 4), P3.extend((1, 2, 3), 4))
def test_subset_of_matches_contains(ideal, other):
    assert ideal.subset_of(other) == all(other.contains(g) for g in ideal.gens)


@settings(max_examples=100, deadline=None)
@given(small_degrees, small_degrees)
@example([], [(1, 0, 0, 0)])
@example([(0, 0, 0, 0)], [(2, 1, 0, 0), (1, 1, 1, 1)])
def test_sum_and_product_match_make_on_raw_degrees(left, right):
    # the operations reduce stored generators without re-validating them
    ideal, other = MonomialIdeal.make(4, left), MonomialIdeal.make(4, right)
    raw_products = [[x + y for x, y in zip(a, b)] for a in left for b in right]
    assert ideal * other == MonomialIdeal.make(4, raw_products)
    assert ideal + other == MonomialIdeal.make(4, [list(g) for g in left + right])


@settings(max_examples=30, deadline=None)
@given(ideals(), st.integers(0, 2), st.integers(0, 2))
def test_power_is_additive(ideal, s, t):
    assert ideal ** (s + t) == (ideal**s) * (ideal**t)


@settings(max_examples=40, deadline=None)
@given(disjoint_pairs())
def test_disjoint_product_equals_intersection(pair):
    left, right = pair
    assert left * right == left.intersect(right)


@settings(max_examples=25, deadline=None)
@given(disjoint_pairs(), st.integers(0, 3))
def test_layer_kernel_identity(pair, k):
    # L^{s+1} J^t + L^s J^{t+1} equals L^s J^t meet (L+J)^{k+1} for all s+t=k
    left, right = pair
    power_next = (left + right) ** (k + 1)
    for s in range(k + 1):
        t = k - s
        kernel = (left ** (s + 1)) * (right**t) + (left**s) * (right ** (t + 1))
        assert kernel == ((left**s) * (right**t)).intersect(power_next)


@settings(max_examples=25, deadline=None)
@given(disjoint_pairs(), st.integers(0, 3))
def test_mixed_power_sum_is_direct(pair, k):
    # distinct mixed powers meet inside the next total power
    left, right = pair
    power_next = (left + right) ** (k + 1)
    mixed = [(left**s) * (right ** (k - s)) for s in range(k + 1)]
    for s in range(k + 1):
        for l in range(s + 1, k + 1):
            assert mixed[s].intersect(mixed[l]).subset_of(power_next)


@settings(max_examples=25, deadline=None)
@given(disjoint_pairs(), st.integers(1, 3))
def test_filtration_intersection_identity(pair, k):
    # L^l J^{k-l} meet sum_{t<l} L^t J^{k-t} equals L^l J^{k-l+1}
    left, right = pair
    mixed = [(left**s) * (right ** (k - s)) for s in range(k + 1)]
    for l in range(1, k + 1):
        partial = mixed[0]
        for t in range(1, l):
            partial = partial + mixed[t]
        assert mixed[l].intersect(partial) == (left**l) * (right ** (k - l + 1))

from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincore import (
    Chain,
    GroundSet,
    SetFunction,
    chain_from_order,
    chain_generates,
    generated_algebra,
    insert_chain,
    iter_submasks,
    maximal_chain,
    verify_uniqueness,
)


def test_maximal_chain_examples():
    g3 = GroundSet(3)
    assert maximal_chain(g3, (0, 1, 2)).sets == (0, 0b001, 0b011, 0b111)
    assert maximal_chain(g3, (2, 0, 1)).sets == (0, 0b100, 0b101, 0b111)
    assert maximal_chain(GroundSet(1), (0,)).sets == (0, 1)


def test_maximal_chain_rejects_bad_orders():
    g = GroundSet(3)
    with pytest.raises(ValueError):
        maximal_chain(g, (0, 1))
    with pytest.raises(ValueError):
        maximal_chain(g, (0, 1, 1))
    with pytest.raises(ValueError):
        maximal_chain(g, (0, 1, 3))


def test_chain_validation():
    with pytest.raises(ValueError):
        Chain(0b11, (0b01, 0b11))  # does not start at empty
    with pytest.raises(ValueError):
        Chain(0b11, (0, 0b01))  # does not reach carrier
    with pytest.raises(ValueError):
        Chain(0b11, (0, 0b10, 0b01, 0b11))  # not increasing
    with pytest.raises(ValueError):
        Chain(0b01, (0, 0b10, 0b11))  # member outside carrier
    assert Chain(0, (0,)).is_maximal  # empty-carrier chain is fine


def test_point_order():
    chain = maximal_chain(GroundSet(3), (2, 0, 1))
    assert chain.point_order() == (2, 0, 1)
    with pytest.raises(ValueError):
        Chain(0b11, (0, 0b11)).point_order()


def test_insert_chain_worked_example():
    base = maximal_chain(GroundSet(4), (0, 1, 2, 3))
    out = insert_chain(base, 0b1011, 0b1010)
    assert out.sets == (0, 0b0010, 0b1010, 0b1011)
    assert out.is_maximal
    assert out.carrier == 0b1011


def test_insert_chain_b_equals_a_is_restriction():
    base = maximal_chain(GroundSet(4), (0, 1, 2, 3))
    a = 0b1011
    assert insert_chain(base, a, a).sets == base.restrict(a).sets


def test_insert_chain_b_empty_is_restriction():
    base = maximal_chain(GroundSet(4), (3, 1, 0, 2))
    a = 0b0111
    assert insert_chain(base, a, 0).sets == base.restrict(a).sets


def test_insert_chain_errors():
    base = maximal_chain(GroundSet(3), (0, 1, 2))
    with pytest.raises(ValueError):
        insert_chain(base, 0b011, 0b100)  # B not within A
    with pytest.raises(ValueError):
        insert_chain(Chain(0b011, (0, 0b001, 0b011)), 0b111, 0)  # A outside carrier


def test_insertion_lemma_small_exhaustive():
    """For every pair B inside A, the inserted chain contains the empty set,
    B and A, is a valid chain, and stays maximal in A."""
    for n in range(1, 7):
        g = GroundSet(n)
        base = maximal_chain(g, range(n))
        for a in g.subsets():
            for b in iter_submasks(a):
                out = insert_chain(base, a, b)
                assert 0 in out and b in out and a in out
                assert out.carrier == a
                assert out.is_maximal
                assert chain_generates(out)


def _insert_by_union(base: Chain, a: int, b: int) -> tuple[int, ...]:
    """The insertion as a set: ``b & r`` and ``b | r`` over the restriction
    of the base to ``a``, deduplicated and sorted by inclusion."""
    restricted = base.restrict(a)
    merged = {b & r for r in restricted} | {b | r for r in restricted}
    return tuple(sorted(merged, key=lambda m: (m.bit_count(), m)))


@st.composite
def base_chains(draw) -> tuple[tuple[int, ...], Chain]:
    """A permutation of 1 to 5 points and its chain, coarsened by dropping
    a random selection of the intermediate members."""
    n = draw(st.integers(1, 5))
    order = tuple(draw(st.permutations(range(n))))
    full = chain_from_order(order)
    keep = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
    inner = tuple(s for s, k in zip(full.sets[1:-1], keep) if k)
    return order, Chain(full.carrier, (0, *inner, full.carrier))


@settings(max_examples=80, deadline=None)
@given(drawn=base_chains(), data=st.data())
def test_insertion_lemma_property(drawn, data):
    order, base = drawn
    n = len(order)
    maximal = chain_from_order(order)
    v = SetFunction.from_callable(GroundSet(n), lambda m: m.bit_count())
    a = data.draw(st.integers(0, base.carrier))
    restricted = base.restrict(a)
    for b in iter_submasks(a):
        out = insert_chain(base, a, b)
        assert out.sets == _insert_by_union(base, a, b)
        assert out.carrier == a
        assert 0 in out and b in out and a in out
        # b splits each step of the restriction into the points inside and
        # outside it, so the result is maximal when the restriction is, and
        # otherwise exactly when both parts of every step are single points
        splits = all((gap & b).bit_count() <= 1 and (gap & ~b).bit_count() <= 1
                     for _, _, gap in restricted.steps())
        assert out.is_maximal == splits
        assert chain_generates(out, method="closure") == out.is_maximal
        assert verify_uniqueness(v, a, b, base=order) == chain_generates(
            insert_chain(maximal, a, b), method="closure")


def test_chain_generates_examples():
    assert chain_generates(Chain(0b111, (0, 0b001, 0b011, 0b111)), method="closure")
    assert chain_generates(Chain(0b111, (0, 0b001, 0b011, 0b111)))
    coarse = Chain(0b111, (0, 0b011, 0b111))
    assert not chain_generates(coarse)
    assert not chain_generates(coarse, method="closure")
    assert generated_algebra(coarse.sets, 0b111) == frozenset(
        {0, 0b011, 0b100, 0b111}
    )
    assert chain_generates(Chain(0b1, (0, 0b1)))
    with pytest.raises(ValueError):
        chain_generates(coarse, method="sideways")


def test_chain_generates_shortcut_agrees_with_closure():
    rng = Random(5)
    for n in range(1, 9):
        g = GroundSet(n)
        order = list(range(n))
        rng.shuffle(order)
        chain = maximal_chain(g, order)
        assert chain_generates(chain) == chain_generates(chain, method="closure") is True
        if n >= 2:
            # drop an interior member: no longer maximal, no longer generating
            sets = chain.sets[:1] + chain.sets[2:]
            coarse = Chain(g.full, sets)
            assert chain_generates(coarse) == chain_generates(coarse, method="closure") is False


def test_every_permutation_generates():
    for n in range(1, 6):
        g = GroundSet(n)
        for perm in permutations(range(n)):
            assert chain_generates(maximal_chain(g, perm), method="closure")


def test_restrict_and_complement():
    base = maximal_chain(GroundSet(4), (0, 1, 2, 3))
    r = base.restrict(0b1010)
    assert r.sets == (0, 0b0010, 0b1010)


def test_refined_completes_ties():
    chain = Chain(0b111, (0, 0b101, 0b111))
    assert chain.refined().sets == (0, 0b001, 0b101, 0b111)
    assert chain.refined().is_maximal

from fractions import Fraction
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincore import (
    GroundSet,
    PointFunction,
    SetFunction,
    brute_force_sup,
    chain_measure,
    choquet_integral,
    integrate,
    level_set_chain,
    maximal_chain,
    random_submodular,
    sample_core,
    verify_choquet_sup,
)
from conftest import additive_capacity, quadratic_capacity


def F(*nums):
    return tuple(Fraction(x) for x in nums)


def test_choquet_running_example(v3):
    f = PointFunction(v3.ground, F(3, 1, 2))
    assert choquet_integral(v3, f) == Fraction(22, 9)


def test_choquet_with_negative_values(v3):
    f = PointFunction(v3.ground, F(-1, 0, 1))
    assert choquet_integral(v3, f) == Fraction(4, 9)


def test_choquet_indicator_reduces_to_v(v3):
    for a in v3.ground.subsets():
        f = PointFunction.indicator(v3.ground, a)
        assert choquet_integral(v3, f) == v3.table[a]


def test_choquet_anchor_independence(v3):
    """Anchoring the integral below min f never changes the value: push the
    minimum further down with a constant and translate back."""
    f = PointFunction(v3.ground, F(3, 1, 2))
    for c in (Fraction(5), Fraction(17, 3)):
        shifted = f.shift(-c)
        assert choquet_integral(v3, shifted) + c * v3.table[7] == choquet_integral(v3, f)


def test_level_set_chain_examples(v3):
    f = PointFunction(v3.ground, F(3, 1, 2))
    assert level_set_chain(f).sets == (0, 0b001, 0b101, 0b111)
    const = PointFunction(v3.ground, F(2, 2, 2))
    assert level_set_chain(const).sets == (0, 0b111)
    assert level_set_chain(f).is_maximal  # injective f
    assert not level_set_chain(PointFunction(v3.ground, F(1, 1, 2))).is_maximal


def test_additive_choquet_is_weighted_sum():
    w = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    v = additive_capacity(w)
    rng = Random(2)
    for _ in range(20):
        f = PointFunction(v.ground, tuple(Fraction(rng.randint(-9, 9), 2) for _ in range(3)))
        expected = sum(w[i] * f.values[i] for i in range(3))
        assert choquet_integral(v, f) == expected


def test_verify_choquet_running_example(v3):
    f = PointFunction(v3.ground, F(3, 1, 2))
    report = verify_choquet_sup(v3, f, samples=16, seed=0)
    assert report.passed
    mu = report.witness
    assert mu.weight(0) == Fraction(5, 9)
    assert mu.weight(2) == Fraction(1, 3)
    assert mu.weight(1) == Fraction(1, 9)
    assert integrate(f, mu) == Fraction(22, 9)


def test_all_six_permutations_dominated(v3):
    f = PointFunction(v3.ground, F(3, 1, 2))
    vf = choquet_integral(v3, f)
    values = {}
    for perm in permutations(range(3)):
        mu = chain_measure(v3, maximal_chain(v3.ground, perm))
        values[perm] = integrate(f, mu)
        assert values[perm] <= vf
    # attained exactly by the order sorting f decreasingly
    attaining = [perm for perm, val in values.items() if val == vf]
    assert attaining == [(0, 2, 1)]


def test_brute_force_attained_by_every_decreasing_order():
    rng = Random(77)
    for seed in range(15):
        n = rng.randint(2, 6)
        v = random_submodular(n, seed)
        f = PointFunction(
            v.ground, tuple(Fraction(rng.randint(-6, 9), rng.choice((1, 2, 3))) for _ in range(n))
        )
        vf = choquet_integral(v, f)
        best, argmax = brute_force_sup(v, f)
        assert best == vf
        # every order sorting f non-increasingly attains the maximum
        for perm in permutations(range(n)):
            if all(f.values[p] >= f.values[q] for p, q in zip(perm, perm[1:])):
                assert perm in argmax


def test_brute_force_n7_once():
    v = random_submodular(7, 4)
    rng = Random(4)
    f = PointFunction(v.ground, tuple(Fraction(rng.randint(-5, 9)) for _ in range(7)))
    best, _ = brute_force_sup(v, f)
    assert best == choquet_integral(v, f)


def test_verify_choquet_with_ties(v3):
    f = PointFunction(v3.ground, F(2, 1, 1))
    report = verify_choquet_sup(v3, f, samples=8, seed=5)
    assert report.passed
    assert tuple(report.context["level_chain"]) == (0, 0b001, 0b111)
    assert tuple(report.context["completed_chain"]) == (0, 0b001, 0b011, 0b111)


def test_positive_homogeneity_and_translation():
    rng = Random(8)
    for seed in range(25):
        n = rng.randint(2, 5)
        v = random_submodular(n, seed)
        f = PointFunction(
            v.ground, tuple(Fraction(rng.randint(-8, 8), 3) for _ in range(n))
        )
        vf = choquet_integral(v, f)
        for c in (Fraction(0), Fraction(2), Fraction(7, 3)):
            assert choquet_integral(v, f.scale(c)) == c * vf
        for c in (Fraction(3), Fraction(-5, 4)):
            assert choquet_integral(v, f.shift(c)) == vf + c * v.table[v.ground.full]


def test_pointwise_monotonicity():
    rng = Random(9)
    for seed in range(25):
        n = rng.randint(2, 5)
        v = random_submodular(n, seed)
        f = PointFunction(v.ground, tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(n)))
        g = PointFunction(
            v.ground,
            tuple(x + Fraction(rng.randint(0, 5), 2) for x in f.values),
        )
        assert choquet_integral(v, f) <= choquet_integral(v, g)


@st.composite
def comonotone_pairs(draw) -> tuple[SetFunction, PointFunction, PointFunction]:
    """An arbitrary exact table on 1 to 5 points, grounded or not, and two
    point functions that are both non-increasing along one drawn
    permutation (ties included)."""
    n = draw(st.integers(1, 5))
    values = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    v = SetFunction(GroundSet(n), tuple(draw(st.lists(values, min_size=1 << n, max_size=1 << n))))
    order = draw(st.permutations(range(n)))

    def along_order() -> PointFunction:
        by_point = [Fraction(0)] * n
        for p, x in zip(order, sorted(draw(st.lists(values, min_size=n, max_size=n)), reverse=True)):
            by_point[p] = x
        return PointFunction(v.ground, tuple(by_point))

    return v, along_order(), along_order()


@settings(max_examples=80, deadline=None)
@given(drawn=comonotone_pairs())
def test_comonotone_additivity_property(drawn):
    """v(f + g) = v(f) + v(g) for comonotone f and g (Schmeidler 1986):
    the closed form is linear in f along a fixed order, for any table."""
    v, f, g = drawn
    both = PointFunction(v.ground, tuple(x + y for x, y in zip(f.values, g.values)))
    assert choquet_integral(v, both) == choquet_integral(v, f) + choquet_integral(v, g)


#: few distinct values, so drawn tables and point functions have ties
TIED = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2)))
#: nonnegative steps, zero among them
STEPS = st.builds(Fraction, st.integers(0, 2), st.sampled_from((1, 2)))


@st.composite
def tables_and_points(draw, monotone: bool = False) -> tuple[SetFunction, PointFunction]:
    """An exact table on 1 to 5 points, arbitrary or (``monotone``)
    grounded and non-decreasing, and a point function on its ground set;
    both have ties."""
    n = draw(st.integers(1, 5))
    size = 1 << n
    if monotone:
        steps = draw(st.lists(STEPS, min_size=size, max_size=size))
        table = [Fraction(0)] * size
        for mask in range(1, size):
            below = max(table[mask & ~(1 << i)] for i in range(n) if mask >> i & 1)
            table[mask] = below + steps[mask]
    else:
        table = draw(st.lists(TIED, min_size=size, max_size=size))
    ground = GroundSet(n)
    f = PointFunction(ground, tuple(draw(st.lists(TIED, min_size=n, max_size=n))))
    return SetFunction(ground, tuple(table)), f


@settings(max_examples=80, deadline=None)
@given(drawn=tables_and_points(), c=st.fractions(min_value=0, max_value=6, max_denominator=4))
def test_positive_homogeneity_property(drawn, c):
    """v(c f) = c v(f) for every c >= 0, on any table: scaling by c > 0
    keeps every level set, and c = 0 leaves the constant 0."""
    v, f = drawn
    assert choquet_integral(v, f.scale(c)) == c * choquet_integral(v, f)


@settings(max_examples=80, deadline=None)
@given(drawn=tables_and_points(), c=TIED)
def test_translation_property(drawn, c):
    """v(f + c) = v(f) + c v(full) on any table: shifting f keeps every
    level set and moves only the bottom level."""
    v, f = drawn
    assert choquet_integral(v, f.shift(c)) == choquet_integral(v, f) + c * v.table[v.ground.full]


@settings(max_examples=80, deadline=None)
@given(drawn=tables_and_points(monotone=True), data=st.data())
def test_pointwise_monotonicity_property(drawn, data):
    """f <= g pointwise gives v(f) <= v(g) for grounded non-decreasing v:
    each level set of f lies inside the one of g."""
    v, f = drawn
    assert v.is_grounded() and v.is_monotone()
    bumps = data.draw(st.lists(STEPS, min_size=v.ground.n, max_size=v.ground.n))
    g = PointFunction(v.ground, tuple(x + d for x, d in zip(f.values, bumps)))
    assert choquet_integral(v, f) <= choquet_integral(v, g)


def test_sampled_core_measures_dominated():
    rng = Random(10)
    for seed in range(10):
        n = rng.randint(2, 5)
        v = random_submodular(n, seed)
        f = PointFunction(v.ground, tuple(Fraction(rng.randint(-5, 9)) for _ in range(n)))
        vf = choquet_integral(v, f)
        for mu in sample_core(v, v.ground.full, 10, seed):
            assert integrate(f, mu) <= vf


def test_point_function_validation():
    g = GroundSet(2)
    with pytest.raises(ValueError):
        PointFunction(g, (Fraction(1),))
    with pytest.raises(ValueError):
        PointFunction(g, (Fraction(1), 0.5))
    with pytest.raises(ValueError):
        choquet_integral(quadratic_capacity(3), PointFunction(g, F(1, 2)))

from fractions import Fraction
from random import Random

import pytest

from chaincore import (
    GeneratorError,
    members,
    PiecewiseLinearDistortion,
    PolynomialDistortion,
    chain_measure,
    concave_on_grid,
    convex_on_grid,
    coverage_capacity,
    distortion_capacity,
    dual_transform,
    insert_chain,
    interval_discretization,
    random_monotone_nonsubmodular,
    random_submodular,
    shapley_example,
)
from chaincore.generators import (
    _random_concave_distortion,
    distortion_from_spec,
    set_function_from_spec,
)
from conftest import quadratic_capacity


QUAD = PolynomialDistortion((Fraction(0), Fraction(2), Fraction(-1)))  # 2x - x**2


def test_distortion_validation():
    with pytest.raises(GeneratorError):
        PolynomialDistortion((Fraction(1), Fraction(0)))  # g(0) != 0
    with pytest.raises(GeneratorError):
        PolynomialDistortion((Fraction(0), Fraction(2)))  # g(1) != 1
    with pytest.raises(GeneratorError):
        PolynomialDistortion((Fraction(0), Fraction(3), Fraction(-2)))  # decreasing near 1
    with pytest.raises(GeneratorError):
        PiecewiseLinearDistortion(((Fraction(0), Fraction(0)), (Fraction(1, 2), Fraction(1))))


def test_concavity_detection():
    assert concave_on_grid(QUAD)
    assert not convex_on_grid(QUAD)
    square = PolynomialDistortion((Fraction(0), Fraction(0), Fraction(1)))
    assert convex_on_grid(square) and not concave_on_grid(square)
    identity = PolynomialDistortion((Fraction(0), Fraction(1)))
    assert convex_on_grid(identity) and concave_on_grid(identity)


def test_distortion_capacity_running_example():
    v = distortion_capacity(QUAD, [Fraction(1, 3)] * 3)
    assert v.table == quadratic_capacity(3).table
    assert v.is_submodular()


def test_identity_distortion_gives_additive():
    identity = PolynomialDistortion((Fraction(0), Fraction(1)))
    p = [Fraction(1, 2), Fraction(1, 6), Fraction(1, 3)]
    v = distortion_capacity(identity, p)
    assert v.is_additive()
    assert [v.table[1 << i] for i in range(3)] == p


def test_square_distortion_supermodular():
    square = PolynomialDistortion((Fraction(0), Fraction(0), Fraction(1)))
    v = distortion_capacity(square, [Fraction(1, 2)] * 2)
    assert v.table == (Fraction(0), Fraction(1, 4), Fraction(1, 4), Fraction(1))
    assert v.is_supermodular()
    assert v.table[1] + v.table[2] <= v.table[3] + v.table[0]


def test_distortion_capacity_validates_p():
    with pytest.raises(GeneratorError):
        distortion_capacity(QUAD, [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(GeneratorError):
        distortion_capacity(QUAD, [Fraction(3, 2), Fraction(-1, 2)])


def test_coverage_capacity_structure():
    v = coverage_capacity([0b011, 0b110, 0b100], [Fraction(1), Fraction(2), Fraction(3)])
    assert v.table[0] == 0
    assert v.table[0b001] == 3  # covers items 0,1
    assert v.table[0b111] == 6
    assert v.is_monotone() and v.is_submodular()


# -- the tables against their per-subset definitions --------------------------


def _typed(table):
    """Each entry's type and value, a float by its exact bits."""
    return [(type(x), x.hex() if isinstance(x, float) else x) for x in table]


def _distortion_reference(g, p):
    """v(S) = g(p(S)) evaluated subset by subset, p(S) summed in ascending order."""
    table = [g(sum((p[i] for i in members(m)), 0)) for m in range(1 << len(p))]
    if any(isinstance(w, float) for w in p):
        table = [float(x) for x in table]
    return table


def _coverage_reference(covers, weights):
    table = []
    for m in range(1 << len(covers)):
        covered = 0
        for i in members(m):
            covered |= covers[i]
        table.append(sum((weights[k] for k in members(covered)), 0))
    return table


def _random_weights(rng, n, exact):
    """Probability weights with some zeros; float mode reads the same
    fractions as floats, as the CLI does."""
    raw = [rng.choice((0, 0, rng.randint(1, 9))) for _ in range(n)]
    raw[rng.randrange(n)] = rng.randint(1, 9)
    total = sum(raw)
    p = [Fraction(r, total) for r in raw]
    return p if exact else [float(w) for w in p]


DISTORTIONS = (
    QUAD,
    PolynomialDistortion((Fraction(0), Fraction(0), Fraction(1))),
    PolynomialDistortion((Fraction(0), Fraction(1, 2), Fraction(-1, 4), Fraction(3, 4))),
)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_distortion_table_matches_its_definition(exact):
    rng = Random(5)
    for trial in range(40):
        n = rng.randint(1, 9)
        g = DISTORTIONS[trial % 3] if trial % 2 else _random_concave_distortion(rng)
        p = _random_weights(rng, n, exact)
        v = distortion_capacity(g, p)
        assert _typed(v.table) == _typed(_distortion_reference(g, p))
    # float sums that differ in their last bits stay distinct arguments
    p = [0.1, 0.2, 0.3, 0.4]
    assert _typed(distortion_capacity(QUAD, p).table) == _typed(_distortion_reference(QUAD, p))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_coverage_table_matches_its_definition(exact):
    rng = Random(6)
    for _ in range(40):
        n = rng.randint(1, 9)
        items = rng.randint(1, 6)
        covers = [rng.randrange(0, 1 << items) for _ in range(n)]
        weights = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(items)]
        if not exact:
            weights = [float(w) for w in weights]
        v = coverage_capacity(covers, weights)
        assert _typed(v.table) == _typed(_coverage_reference(covers, weights))


@pytest.mark.parametrize("g", DISTORTIONS + (PiecewiseLinearDistortion(
    ((Fraction(0), Fraction(0)), (Fraction(1, 3), Fraction(1, 2)), (Fraction(1), Fraction(1)))
),))
def test_interval_table_matches_its_definition(g):
    for cells in range(1, 9):
        v, _ = interval_discretization(cells, g)
        expected = [g(Fraction(m.bit_count(), cells)) for m in range(1 << cells)]
        assert _typed(v.table) == _typed(expected)


class _Counting:
    """A distortion that counts its calls."""

    def __init__(self, g):
        self.g, self.calls = g, 0

    def __call__(self, x):
        self.calls += 1
        return self.g(x)


def test_interval_calls_g_once_per_cell_count():
    g = _Counting(QUAD)
    interval_discretization(10, g)
    assert g.calls <= 11


def test_distortion_calls_g_once_per_distinct_weight():
    g = _Counting(QUAD)
    v = distortion_capacity(g, [Fraction(1, 8)] * 8)
    assert g.calls <= 9  # p(S) = |S| / 8
    assert list(v.table) == _distortion_reference(QUAD, [Fraction(1, 8)] * 8)
    for exact in (True, False):
        p = _random_weights(Random(3), 9, exact)
        distinct = {sum((p[i] for i in members(m)), 0) for m in range(1 << 9)}
        g = _Counting(QUAD)
        distortion_capacity(g, p)
        assert g.calls <= len(distinct) < 1 << 9


def test_shapley_example_two_blocks(v3):
    chain, mu = shapley_example((1,), (0, 2), v3)
    assert chain.sets == (0, 0b010, 0b011, 0b111)
    assert mu.weight(1) == Fraction(5, 9)
    assert mu.weight(0) == Fraction(1, 3)
    assert mu.weight(2) == Fraction(1, 9)


def test_shapley_example_empty_b_is_identity_marginals(v3):
    chain, mu = shapley_example((), (0, 1, 2), v3)
    assert chain.sets == (0, 0b001, 0b011, 0b111)
    assert mu.weights == chain_measure(v3, chain).weights


def test_shapley_example_rejects_overlap(v3):
    with pytest.raises(GeneratorError):
        shapley_example((0, 1), (1, 2), v3)


def test_shapley_weight_formulas_randomized():
    rng = Random(51)
    for seed in range(30):
        n = rng.randint(2, 6)
        v = random_submodular(n, seed)
        pts = list(range(n))
        rng.shuffle(pts)
        cut = rng.randint(0, n)
        b, c = tuple(pts[:cut]), tuple(pts[cut:rng.randint(cut, n)])
        _, mu = shapley_example(b, c, v)
        prefix = 0
        for p in b + c:
            assert mu.weight(p) == v.table[prefix | 1 << p] - v.table[prefix]
            prefix |= 1 << p


def test_interval_discretization():
    v, chain = interval_discretization(4, QUAD)
    assert chain.sets == (0, 0b0001, 0b0011, 0b0111, 0b1111)
    for k in range(5):
        x = Fraction(k, 4)
        assert v.table[chain.sets[k]] == 2 * x - x * x
    assert v.is_submodular()


def test_interval_discretization_identity_gives_uniform():
    identity = PolynomialDistortion((Fraction(0), Fraction(1)))
    v, chain = interval_discretization(5, identity)
    mu = chain_measure(v, chain)
    assert mu.weights == (Fraction(1, 5),) * 5


def test_interval_insertion_reproduces_two_sided_class():
    v, chain = interval_discretization(4, QUAD)
    b = 0b1000  # the last cell
    inserted = insert_chain(chain, v.ground.full, b)
    assert inserted.sets == (0, 0b1000, 0b1001, 0b1011, 0b1111)
    # prefix intersections then prefix unions, exactly the two families
    prefixes = chain.sets
    expected = {b & s for s in prefixes} | {b | s for s in prefixes}
    assert set(inserted.sets) == expected


def test_concave_pwl_distortions_are_submodular():
    from chaincore.generators import _random_probability

    rng = Random(14)
    for _ in range(40):
        g = _random_concave_distortion(rng)
        assert concave_on_grid(g)
        n = rng.randint(2, 6)
        v = distortion_capacity(g, _random_probability(rng, n))
        assert v.is_submodular(), "concave distortion produced a non-submodular capacity"


def test_random_submodular_deterministic():
    a = random_submodular(5, 123)
    b = random_submodular(5, 123)
    assert a.table == b.table
    assert a.table != random_submodular(5, 124).table


def test_random_submodular_self_check_bulk():
    """Generator self-check: a large seeded batch passes both predicates,
    and the dual of each sample is supermodular."""
    for seed in range(1000):
        v = random_submodular(6, seed)
        assert v.is_grounded() and v.is_monotone() and v.is_submodular()
        assert dual_transform(v).is_supermodular()


def test_random_nonsubmodular_properties():
    for seed in range(50):
        v = random_monotone_nonsubmodular(5, seed)
        assert v.is_grounded() and v.is_monotone()
        assert not v.is_submodular()


def test_spec_dispatch():
    g = distortion_from_spec({"kind": "poly", "coeffs": [0, 2, -1]})
    assert g(Fraction(1, 3)) == Fraction(5, 9)
    v = set_function_from_spec(
        {"generator": "distortion", "g": {"kind": "poly", "coeffs": [0, 2, -1]},
         "p": ["1/3", "1/3", "1/3"]}
    )
    assert v.table == quadratic_capacity(3).table
    v2 = set_function_from_spec(
        {"generator": "coverage", "covers": [1, 3], "weights": ["1/2", "1/2"]}
    )
    assert v2.table[0b01] == Fraction(1, 2)
    v3_ = set_function_from_spec(
        {"generator": "interval", "cells": 3, "g": {"kind": "poly", "coeffs": [0, 2, -1]}}
    )
    assert v3_.ground.n == 3
    with pytest.raises(GeneratorError):
        set_function_from_spec({"generator": "mystery"})

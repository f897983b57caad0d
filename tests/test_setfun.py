from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaincore import (
    GroundSet,
    SetFunction,
    dual_transform,
    iter_submasks,
    members,
    random_submodular,
)
from chaincore.setfun import subset_masks, subset_sums, subset_unions
from conftest import additive_capacity, convex_game_2, quadratic_capacity


@st.composite
def set_functions(draw, max_points: int = 5) -> SetFunction:
    """Arbitrary exact tables on 1 to ``max_points`` points."""
    n = draw(st.integers(1, max_points))
    values = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    table = draw(st.lists(values, min_size=1 << n, max_size=1 << n))
    return SetFunction(GroundSet(n), tuple(table))


def test_ground_set_bounds():
    GroundSet(1)
    GroundSet(24)
    for bad in (0, 25, -1):
        with pytest.raises(ValueError):
            GroundSet(bad)
    with pytest.raises(ValueError):
        GroundSet(2, ("a",))
    with pytest.raises(ValueError):
        GroundSet(2, ("a", "a"))
    for bad in ("ab", (1, 2), ["a", None], {"a": 0, "b": 1}, 5):
        with pytest.raises(ValueError, match="labels must be a list of strings"):
            GroundSet(2, bad)


def test_parse_subset_conventions():
    g = GroundSet(4, ("a", "b", "c", "d"))
    assert g.parse_subset(5) == 5
    assert g.parse_subset("5") == 5
    assert g.parse_subset("a,c") == 0b0101
    assert g.parse_subset(["a", 3]) == 0b1001
    assert g.parse_subset("") == 0
    assert g.parse_subset("{}") == 0
    with pytest.raises(ValueError):
        g.parse_subset("z")
    with pytest.raises(ValueError):
        g.parse_subset(1 << 4)


def test_members_helper():
    assert members(0) == ()
    assert members(0b1011) == (0, 1, 3)


def test_table_validation():
    g = GroundSet(2)
    with pytest.raises(ValueError):
        SetFunction(g, (Fraction(0),) * 3)
    with pytest.raises(ValueError):
        SetFunction(g, (Fraction(0), 0.5, Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        SetFunction(g, (0.0, 0.5, float("nan"), 1.0))


def test_grounded():
    assert SetFunction.from_callable(GroundSet(2), lambda m: 0).is_grounded()
    assert SetFunction.from_callable(GroundSet(3), lambda m: m.bit_count()).is_grounded()
    assert not SetFunction.from_callable(GroundSet(2), lambda m: 1).is_grounded()


def test_monotone():
    assert SetFunction.from_callable(GroundSet(3), lambda m: m.bit_count()).is_monotone()
    assert quadratic_capacity(3).is_monotone()
    g = GroundSet(2)
    v = SetFunction(g, (Fraction(0), Fraction(1), Fraction(0), Fraction(0)))
    assert not v.is_monotone()


def test_submodular_running_example():
    v = quadratic_capacity(3)
    assert v.is_submodular()
    assert v.is_submodular(exhaustive=True)
    # spot check: v({0}) + v({1}) = 10/9 >= v({0,1}) + v(empty) = 8/9
    assert v.table[1] + v.table[2] == Fraction(10, 9)
    assert v.table[3] + v.table[0] == Fraction(8, 9)
    assert not v.is_supermodular()


def test_additive_is_both():
    v = additive_capacity([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert v.is_submodular() and v.is_supermodular() and v.is_additive()


def test_convex_game_supermodular():
    v = convex_game_2()
    assert v.is_supermodular()
    assert not v.is_submodular()  # 0 + 0 < 1 + 0


def test_pairwise_agrees_with_exhaustive():
    rng = Random(20240917)
    for n in (2, 3, 4, 5, 6, 8):
        for _ in range(3 if n < 8 else 1):
            g = GroundSet(n)
            table = [Fraction(rng.randint(0, 12), 4) for _ in g.subsets()]
            table[0] = Fraction(0)
            v = SetFunction(g, tuple(table))
            assert v.is_submodular() == v.is_submodular(exhaustive=True)
            assert v.is_supermodular() == v.is_supermodular(exhaustive=True)


def test_modular_means_additive():
    rng = Random(7)
    for _ in range(50):
        n = rng.randint(2, 6)
        g = GroundSet(n)
        table = [Fraction(rng.randint(0, 9), 3) for _ in g.subsets()]
        table[0] = Fraction(0)
        v = SetFunction(g, tuple(table))
        if v.is_additive():
            for m in g.subsets():
                assert v.table[m] == sum(
                    (v.table[1 << i] for i in members(m)), Fraction(0)
                )


def test_dual_transform_running_example(v3):
    d = dual_transform(v3)
    for i in range(3):
        assert d.table[1 << i] == Fraction(1, 9)
    for pair in (0b011, 0b101, 0b110):
        assert d.table[pair] == Fraction(4, 9)
    assert d.table[0] == v3.table[0]
    assert d.table[7] == v3.table[7]


def test_dual_is_involution():
    rng = Random(99)
    for _ in range(30):
        n = rng.randint(1, 6)
        g = GroundSet(n)
        v = SetFunction(g, tuple(Fraction(rng.randint(-5, 9), 2) for _ in g.subsets()))
        assert dual_transform(dual_transform(v)).table == v.table


@settings(max_examples=60, deadline=None)
@given(v=set_functions())
def test_dual_involution_property(v):
    assert dual_transform(dual_transform(v)).table == v.table


def test_dual_of_additive_is_itself():
    v = additive_capacity([Fraction(2, 7), Fraction(4, 7), Fraction(1, 7)])
    assert dual_transform(v).table == v.table


def test_dual_swaps_modularity_and_keeps_monotonicity():
    for seed in range(40):
        v = random_submodular(4, seed)
        d = dual_transform(v)
        assert d.is_supermodular()
        assert not d.is_submodular() or v.is_additive()
        assert d.is_monotone()
        assert d.is_grounded()


def test_normalized_subtracts_empty_value():
    g = GroundSet(2)
    v = SetFunction(g, (Fraction(3), Fraction(4), Fraction(5), Fraction(6)))
    w = v.normalized()
    assert w.is_grounded()
    assert w.table == (Fraction(0), Fraction(1), Fraction(2), Fraction(3))


def test_restrict():
    v = quadratic_capacity(3)
    sub, pts = v.restrict(0b101)
    assert pts == (0, 2)
    assert sub.ground.n == 2
    assert sub.table == (v.table[0], v.table[0b001], v.table[0b100], v.table[0b101])
    with pytest.raises(ValueError):
        v.restrict(0)


@given(pts=st.lists(st.integers(0, 11), unique=True, max_size=6))
def test_subset_masks_maps_local_to_global(pts):
    masks = subset_masks(pts)
    assert len(masks) == 1 << len(pts)
    for i, mask in enumerate(masks):
        expected = 0
        for j, p in enumerate(pts):
            if i >> j & 1:
                expected |= 1 << p
        assert mask == expected


def _bits(x):
    """A float by its exact bits, any other scalar as it is."""
    return x.hex() if isinstance(x, float) else x


@given(weights=st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=7),
    st.lists(st.floats(0, 1), max_size=7),
    st.lists(st.fractions(max_denominator=30), max_size=7),
    st.lists(st.integers(-50, 50), max_size=7),
))
def test_subset_sums_add_each_subset_in_ascending_order(weights):
    sums = subset_sums(weights)
    assert len(sums) == 1 << len(weights)
    for mask, x in enumerate(sums):
        expected = sum((weights[i] for i in members(mask)), 0)
        assert type(x) is type(expected)
        assert _bits(x) == _bits(expected)


@given(masks=st.lists(st.integers(0, 255), max_size=7))
def test_subset_unions_or_each_subset(masks):
    unions = subset_unions(masks)
    assert len(unions) == 1 << len(masks)
    for mask, u in enumerate(unions):
        expected = 0
        for i in members(mask):
            expected |= masks[i]
        assert u == expected


@settings(max_examples=60, deadline=None)
@given(v=set_functions(), data=st.data())
def test_restrict_round_trips(v, data):
    carrier = data.draw(st.integers(1, v.ground.full))
    sub, pts = v.restrict(carrier)
    assert pts == members(carrier)
    # every subset of the carrier is read back at its local mask
    local = {m: i for i, m in enumerate(subset_masks(pts))}
    assert sorted(local) == sorted(iter_submasks(carrier))
    assert all(sub.table[local[m]] == v.table[m] for m in local)
    # restricting the restriction to its whole ground set changes nothing
    again, identity = sub.restrict(sub.ground.full)
    assert again.table == sub.table and identity == tuple(range(sub.ground.n))
    assert v.restrict(v.ground.full)[0].table == v.table


def test_json_roundtrip(v3):
    v = SetFunction.from_json_dict(v3.to_json_dict())
    assert v.table == v3.table


def test_json_missing_subset_names_bitmask():
    obj = {"n": 2, "values": {"0": 0, "1": "1/2", "3": 1}}
    with pytest.raises(ValueError, match="bitmask 2"):
        SetFunction.from_json_dict(obj)


def test_json_label_keys():
    obj = {
        "n": 2,
        "labels": ["x", "y"],
        "values": {"": 0, "x": "1/2", "y": "1/2", "x,y": 1},
    }
    v = SetFunction.from_json_dict(obj)
    assert v.table == (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1))


def test_float_mode_predicates():
    g = GroundSet(3)
    v = SetFunction.from_callable(
        g, lambda m: 2 * (m.bit_count() / 3) - (m.bit_count() / 3) ** 2, exact=False
    )
    assert not v.exact
    assert v.is_grounded() and v.is_monotone() and v.is_submodular()


def test_predicate_memo_follows_eps(monkeypatch):
    # submodular only up to 5e-4: v({0}) + v({1}) = 1 < 1.0005 = v({0,1})
    v = SetFunction(GroundSet(2), (0.0, 0.5, 0.5, 1.0005))
    monkeypatch.setenv("CHAINCORE_EPS", "1e-3")
    assert v.is_submodular()
    monkeypatch.setenv("CHAINCORE_EPS", "1e-12")
    assert not v.is_submodular()
    assert v.is_submodular(eps=1e-3)
    assert not v.is_submodular(eps=1e-12)
    # monotone only up to 1e-4: v({1}) dips below v({0}) on {0,1}
    w = SetFunction(GroundSet(2), (0.0, 0.5, 0.2, 0.4999))
    monkeypatch.setenv("CHAINCORE_EPS", "1e-3")
    assert w.is_monotone()
    monkeypatch.setenv("CHAINCORE_EPS", "1e-12")
    assert not w.is_monotone()


def test_exact_predicates_ignore_eps(monkeypatch):
    v = quadratic_capacity(3)
    monkeypatch.setenv("CHAINCORE_EPS", "nan")
    assert v.is_monotone() and v.is_submodular() and not v.is_supermodular()

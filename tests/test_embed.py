from fractions import Fraction
from itertools import product
from random import Random

import pytest

from chaincore import (
    GeneratingFamily,
    GroundSet,
    PointFunction,
    chain_generates,
    embed_chain,
    generated_algebra,
    iter_submasks,
    level_set_chain,
    recover_generator,
    sublevel_set,
    ternary_digit,
    ternary_embed,
)
from chaincore.embed import MAX_MEMBERS


@pytest.fixture
def fam3():
    return GeneratingFamily(GroundSet(3), (0b011, 0b110))


def test_ternary_embed_example(fam3):
    f = ternary_embed(fam3)
    assert f.values == (Fraction(1, 3), Fraction(4, 9), Fraction(1, 9))


def test_ternary_embed_edge_cases():
    g = GroundSet(3)
    assert ternary_embed(GeneratingFamily(g, ())).values == (Fraction(0),) * 3
    assert ternary_embed(GeneratingFamily(g, (0b111,))).values == (Fraction(1, 3),) * 3


def test_embed_chain_example(fam3):
    chain = embed_chain(fam3)
    assert chain.sets == (0, 0b100, 0b101, 0b111)
    assert chain.is_maximal
    assert chain_generates(chain)


def test_embed_chain_is_level_set_chain_of_negated_embedding():
    rng = Random(4321)
    for _ in range(80):
        n = rng.randint(1, 8)
        fam = GeneratingFamily(
            GroundSet(n), tuple(rng.randrange(1 << n) for _ in range(rng.randint(0, 6)))
        )
        f = ternary_embed(fam)
        sublevels = sorted(
            {sum(1 << p for p in range(n) if f.values[p] <= y) for y in f.values},
            key=int.bit_count,
        )
        chain = embed_chain(fam)
        assert chain == level_set_chain(f.negate())
        assert chain.sets == (0, *sublevels)


def test_embed_chain_empty_family():
    chain = embed_chain(GeneratingFamily(GroundSet(3), ()))
    assert chain.sets == (0, 0b111)


def test_recover_example(fam3):
    f = ternary_embed(fam3)
    assert recover_generator(f, 2, 1) == 0b011
    assert recover_generator(f, 2, 2) == 0b110


def test_recover_zero_function():
    f = ternary_embed(GeneratingFamily(GroundSet(4), (0, 0, 0)))
    for idx in (1, 2, 3):
        assert recover_generator(f, 3, idx) == 0


def test_recover_index_validation(fam3):
    f = ternary_embed(fam3)
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            recover_generator(f, 2, bad)


def test_recover_rejects_non_embeddings():
    g = GroundSet(2)
    from chaincore import PointFunction

    with pytest.raises(ValueError):
        recover_generator(PointFunction(g, (Fraction(1, 2), Fraction(0))), 2, 1)


def test_round_trip_random_families():
    rng = Random(1234)
    for _ in range(60):
        n = rng.randint(1, 12)
        m = rng.randint(0, 10)
        g = GroundSet(n)
        subsets = tuple(rng.randrange(1 << n) for _ in range(m))
        fam = GeneratingFamily(g, subsets)
        f = ternary_embed(fam)
        for idx in range(1, m + 1):
            via_intervals = recover_generator(f, m, idx)
            assert via_intervals == subsets[idx - 1]
            via_digits = 0
            for p, x in enumerate(f.values):
                if ternary_digit(x, idx) == 1:
                    via_digits |= 1 << p
            assert via_intervals == via_digits


def test_recover_full_size_family_matches_digits():
    # MAX_MEMBERS members: listing the 2**23 intervals of the last one
    # would not finish; bisecting them takes O(N**2) per point.
    rng = Random(2468)
    g = GroundSet(16)
    fam = GeneratingFamily(g, tuple(rng.randrange(1 << 16) for _ in range(MAX_MEMBERS)))
    f = ternary_embed(fam)
    for idx in range(1, MAX_MEMBERS + 1):
        via_digits = sum(1 << p for p, x in enumerate(f.values) if ternary_digit(x, idx) == 1)
        assert recover_generator(f, MAX_MEMBERS, idx) == via_digits == fam.subsets[idx - 1]


def test_recover_bisection_matches_listed_intervals():
    # Every multiple of 3**-m in [0, 1), digits 2 included, against the
    # membership test over the listed intervals.
    for m in range(1, 6):
        values = [Fraction(t, 3**m) for t in range(3**m)]
        for idx in range(1, m + 1):
            step = Fraction(1, 3**idx)
            lows = [
                step + sum(Fraction(d, 3**k) for k, d in enumerate(bits, start=1))
                for bits in product((0, 1), repeat=idx - 1)
            ]
            for start in range(0, len(values), 24):
                chunk = values[start : start + 24]
                f = PointFunction(GroundSet(len(chunk)), tuple(chunk))
                expected = sum(
                    1 << p for p, x in enumerate(chunk) if any(lo <= x < lo + step for lo in lows)
                )
                assert recover_generator(f, m, idx) == expected


def test_separating_families_give_maximal_chains():
    rng = Random(77)
    found = 0
    for _ in range(80):
        n = rng.randint(2, 8)
        g = GroundSet(n)
        fam = GeneratingFamily(
            g, tuple(rng.randrange(1 << n) for _ in range(rng.randint(1, 8)))
        )
        chain = embed_chain(fam)
        if fam.separates_points:
            found += 1
            assert chain.is_maximal
            assert chain_generates(chain)
        else:
            assert not chain.is_maximal
    assert found > 10  # the sweep actually exercised the separating branch


def test_non_separating_family_generates_quotient_algebra():
    g = GroundSet(4)
    fam = GeneratingFamily(g, (0b0011, 0b0111))  # points 2,3 never separated... check
    classes = fam.point_classes()
    assert not fam.separates_points
    chain = embed_chain(fam)
    quotient = set()
    for pick in iter_submasks((1 << len(classes)) - 1):
        mask = 0
        for i, cls in enumerate(classes):
            if pick >> i & 1:
                mask |= cls
        quotient.add(mask)
    assert generated_algebra(chain.sets, g.full) == frozenset(quotient)
    assert generated_algebra(fam.subsets, g.full) == frozenset(quotient)


def test_sublevel_monotone(fam3):
    f = ternary_embed(fam3)
    thresholds = sorted({Fraction(0), Fraction(1)} | set(f.values))
    prev = None
    for a in thresholds:
        cur = sublevel_set(f, a)
        if prev is not None:
            assert prev & ~cur == 0
        prev = cur
    assert sublevel_set(f, Fraction(0)) == 0
    assert sublevel_set(f, Fraction(1)) == 0b111


def test_point_classes_and_flag():
    g = GroundSet(3)
    fam = GeneratingFamily(g, (0b011,))
    assert fam.point_classes() == (0b011, 0b100)
    assert not fam.separates_points
    sep = GeneratingFamily(g, (0b001, 0b010))
    assert sep.separates_points


def test_family_validation():
    g = GroundSet(2)
    with pytest.raises(ValueError):
        GeneratingFamily(g, (0b100,))
    with pytest.raises(ValueError):
        GeneratingFamily(g, tuple(0b01 for _ in range(25)))

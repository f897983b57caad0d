import os
from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from chaincore import (
    AtomicMeasure,
    Chain,
    EPS_ENV_VAR,
    GroundSet,
    PointFunction,
    SetFunction,
    chain_measure,
    core_check,
    find_sup_counterexample,
    in_lower_core,
    in_upper_core,
    iter_submasks,
    maximal_chain,
    random_monotone_nonsubmodular,
    random_submodular,
    random_supermodular,
    sample_core,
    verify_inf_representation,
    verify_sup_representation,
    verify_choquet_sup,
    verify_uniqueness,
    weights_from_chain_values,
)
from conftest import additive_capacity, quadratic_capacity


def test_atomic_measure_basics():
    mu = AtomicMeasure.from_weights(
        0b111, {0: Fraction(5, 9), 1: Fraction(1, 3), 2: Fraction(1, 9)}
    )
    assert mu(0b110) == Fraction(4, 9)
    assert mu(0) == 0
    assert mu(0b111) == Fraction(1) == mu.total
    assert mu.is_nonnegative()
    with pytest.raises(ValueError):
        mu(0b1000)
    with pytest.raises(ValueError):
        AtomicMeasure.from_weights(0b101, {0: Fraction(1)})


def test_measure_table_matches_pointwise():
    mu = AtomicMeasure.from_weights(
        0b1101, {0: Fraction(1, 2), 2: Fraction(1, 3), 3: Fraction(1, 6)}
    )
    tbl = mu.table()
    assert set(tbl) == set(iter_submasks(0b1101))
    for m, x in tbl.items():
        assert x == mu(m)


def test_chain_measure_running_example(v3):
    mu = chain_measure(v3, maximal_chain(v3.ground, (0, 1, 2)))
    assert mu.weights == (Fraction(5, 9), Fraction(1, 3), Fraction(1, 9))
    for s in (0, 0b001, 0b011, 0b111):
        assert mu(s) == v3.table[s]


def test_chain_measure_of_additive_returns_weights():
    w = [Fraction(2, 7), Fraction(4, 7), Fraction(1, 7)]
    v = additive_capacity(w)
    for perm in permutations(range(3)):
        mu = chain_measure(v, maximal_chain(v.ground, perm))
        assert list(mu.weights) == w


def test_chain_measure_two_block_pattern(v3):
    # chain through B = {1} first, then the remaining points
    chain = Chain(0b111, (0, 0b010, 0b011, 0b111))
    mu = chain_measure(v3, chain)
    assert mu.weight(1) == v3.table[0b010]
    assert mu.weight(0) == v3.table[0b011] - v3.table[0b010]
    assert mu.weight(2) == v3.table[0b111] - v3.table[0b011]


def test_chain_measure_requires_maximal(v3):
    with pytest.raises(ValueError, match="maximal"):
        chain_measure(v3, Chain(0b111, (0, 0b011, 0b111)))


def test_chain_measure_flags_negative_weights():
    # non-monotone: v({0}) = 1 but v({0,1}) = 0
    g = GroundSet(2)
    v = SetFunction(g, (Fraction(0), Fraction(1), Fraction(0), Fraction(0)))
    mu = chain_measure(v, maximal_chain(g, (0, 1)))
    assert not mu.is_nonnegative()
    assert mu.weight(0) == 1 and mu.weight(1) == -1


def test_lower_core_running_example(v3):
    mu = chain_measure(v3, maximal_chain(v3.ground, (0, 1, 2)))
    assert in_lower_core(mu, v3, 0b111)
    assert not in_upper_core(mu, v3, 0b111)  # mu({1}) = 1/3 < 5/9


def test_lower_core_rejects_convex_game(convex2):
    mu = chain_measure(convex2, maximal_chain(convex2.ground, (0, 1)))
    assert not in_lower_core(mu, convex2)
    assert in_upper_core(mu, convex2)


def test_core_of_additive_is_equality():
    v = additive_capacity([Fraction(1, 2), Fraction(1, 2)])
    mu = chain_measure(v, maximal_chain(v.ground, (0, 1)))
    assert in_lower_core(mu, v) and in_upper_core(mu, v)


def test_core_rejects_a_carrier_outside_the_ground_set(v3):
    """A measure on a point v does not have is an input error, not a
    lookup past the end of v's table."""
    mu = AtomicMeasure(0b1001, (0, 3), (Fraction(1), Fraction(1)))
    for check in (core_check, in_lower_core, in_upper_core):
        with pytest.raises(ValueError, match="outside ground set"):
            check(mu, v3)


def test_core_carrier_mismatch():
    v = quadratic_capacity(3)
    mu = chain_measure(v, maximal_chain(v.ground, (0, 1, 2)))
    with pytest.raises(ValueError):
        in_lower_core(mu, v, 0b011)


# -- sup attainment -------------------------------------------------------------


def test_verify_sup_running_example(v3):
    report = verify_sup_representation(v3, 0b111, 0b010)
    assert report.passed
    mu = report.witness
    assert mu.weight(1) == Fraction(5, 9)
    assert mu.weight(0) == Fraction(1, 3)
    assert mu.weight(2) == Fraction(1, 9)
    assert report.context["chain"] == [0, 0b010, 0b011, 0b111]


def test_verify_sup_additive_everywhere():
    v = additive_capacity([Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)])
    for a in v.ground.subsets():
        for b in iter_submasks(a):
            report = verify_sup_representation(v, a, b)
            assert report.passed
            for p in report.witness.points:
                assert report.witness.weight(p) == v.table[1 << p]


def test_verify_sup_reports_nonsubmodular_failure(convex2):
    report = verify_sup_representation(convex2, 0b11, 0b10)
    assert not report.passed
    assert not report.construction_passed
    # B is forced onto the witness chain, so mu(B) = v(B) holds and the
    # violated lower-core inequality lands on the other singleton:
    # mu({0}) = 1 > v({0}) = 0.
    assert report.context["core_violations"] == [0b01]
    failed = [c for c in report.failures() if c.category == "core" and c.subsets == (0b01,)]
    assert failed and failed[0].lhs == Fraction(1) and failed[0].rhs == Fraction(0)


def test_verify_sup_empty_carrier(v3):
    report = verify_sup_representation(v3, 0, 0)
    assert report.passed
    assert report.witness.weights == ()


def test_verify_sup_respects_base_chain(v3):
    r1 = verify_sup_representation(v3, 0b111, 0b100, base=(2, 1, 0))
    assert r1.passed
    assert r1.context["base_order"] == [2, 1, 0]
    with pytest.raises(ValueError):
        verify_sup_representation(v3, 0b011, 0b100)


def test_verify_sup_theorem_sweep_random_instances():
    """Chain measures of submodular instances always land in the lower core
    and attain v(B), for every pair and several base chains."""
    rng = Random(424242)
    for seed in range(12):
        n = rng.randint(2, 5)
        v = random_submodular(n, seed)
        base = list(range(n))
        rng.shuffle(base)
        for a in v.ground.subsets():
            for b in iter_submasks(a):
                assert verify_sup_representation(v, a, b, base=base).passed


def test_chain_measures_always_in_lower_core():
    for seed in range(20):
        v = random_submodular(4, 1000 + seed)
        for perm in permutations(range(4)):
            mu = chain_measure(v, maximal_chain(v.ground, perm))
            assert in_lower_core(mu, v, v.ground.full)


def test_monotone_gives_nonnegative_weights():
    rng = Random(31337)
    for seed in range(25):
        v = random_submodular(rng.randint(2, 6), seed)
        order = list(range(v.ground.n))
        rng.shuffle(order)
        assert chain_measure(v, maximal_chain(v.ground, order)).is_nonnegative()


# -- uniqueness -----------------------------------------------------------------


def test_uniqueness_by_telescoping(v3):
    assert verify_uniqueness(v3, 0b111, 0b010)
    assert verify_uniqueness(v3, 0b110, 0b100)


def test_uniqueness_different_bases_same_insertion(v3):
    # both bases restrict to the same chain on A = {0, 1}
    a, b = 0b011, 0b001
    r1 = verify_sup_representation(v3, a, b, base=(0, 1, 2))
    r2 = verify_sup_representation(v3, a, b, base=(0, 2, 1))
    assert r1.context["chain"] == r2.context["chain"]
    assert r1.witness.weights == r2.witness.weights


def test_uniqueness_perturbation_breaks_chain_agreement(v3):
    from chaincore import insert_chain

    chain = insert_chain(maximal_chain(v3.ground, (0, 1, 2)), 0b111, 0b010)
    mu = chain_measure(v3, chain)
    for p in mu.points:
        bumped = mu.perturbed(p, Fraction(1, 10**6))
        assert any(bumped(s) != v3.table[s] for s in chain.sets)


def test_uniqueness_fails_when_the_inserted_chain_does_not_generate(v3, monkeypatch):
    import chaincore.measure

    # a coarse chain leaves the atoms of its two-point steps unpinned
    monkeypatch.setattr(chaincore.measure, "insert_chain", lambda base, a, b: Chain(a, (0, a)))
    assert not verify_uniqueness(v3, 0b111, 0b010)
    assert verify_uniqueness(v3, 0b001, 0b001)


def test_weights_from_chain_values_rejects_gaps(v3):
    chain = maximal_chain(v3.ground, (0, 1, 2))
    values = {s: v3.table[s] for s in chain.sets}
    rebuilt = weights_from_chain_values(chain, values)
    assert rebuilt.weights == chain_measure(v3, chain).weights
    assert weights_from_chain_values(chain, v3.table).weights == rebuilt.weights
    del values[0b011]
    # a mapping without a member, and a table indexed by mask that stops short
    for gappy in (values, v3.table[:0b111]):
        with pytest.raises(ValueError, match="cover every chain member"):
            weights_from_chain_values(chain, gappy)


# -- the base chain ----------------------------------------------------------------


_BASE_CHECKS = {
    "sup": lambda v, base: verify_sup_representation(v, 0b1101, 0b0100, base=base).to_json_dict(),
    "inf": lambda v, base: verify_inf_representation(v, 0b1101, 0b0100, base=base).to_json_dict(),
    "uniqueness": lambda v, base: verify_uniqueness(v, 0b1101, 0b0100, base=base),
    "counterexample": lambda v, base: find_sup_counterexample(v, base=base),
}


@pytest.mark.parametrize("check", sorted(_BASE_CHECKS))
def test_base_given_as_none_permutation_or_chain(check):
    """None is the identity permutation, and a permutation is the same
    base as its maximal chain; a coarse chain, a chain on fewer points or
    a non-permutation is a ValueError."""
    run = _BASE_CHECKS[check]
    v = random_supermodular(4, 71) if check == "inf" else random_monotone_nonsubmodular(4, 74)
    results = {}
    for order in ((0, 1, 2, 3), (2, 0, 3, 1)):
        results[order] = run(v, order)
        assert run(v, maximal_chain(v.ground, order)) == results[order], order
    assert run(v, None) == results[0, 1, 2, 3]
    assert check == "uniqueness" or results[0, 1, 2, 3] != results[2, 0, 3, 1]
    coarse, short = Chain(0b1111, (0, 0b0011, 0b1111)), maximal_chain(GroundSet(3), (0, 1, 2))
    for bad in (coarse, short, (0, 1, 1, 3), (0, 1, 2)):
        with pytest.raises(ValueError):
            run(v, bad)


# -- inf attainment and the dual route -------------------------------------------


def test_verify_inf_convex_game(convex2):
    report = verify_inf_representation(convex2, 0b11, 0b01)
    assert report.passed
    assert report.witness.weights == (Fraction(0), Fraction(1))
    assert report.dual is not None and report.dual.passed


def test_verify_inf_additive():
    v = additive_capacity([Fraction(1, 4), Fraction(3, 4)])
    for a in v.ground.subsets():
        for b in iter_submasks(a):
            assert verify_inf_representation(v, a, b).passed


def test_verify_inf_dual_route_agrees_on_random_supermodular():
    """Direct upper-core route and the complement-dual route must agree
    claim for claim; checked on 100 seeded instances."""
    rng = Random(55)
    for seed in range(100):
        n = rng.randint(2, 6)
        v = random_supermodular(n, seed)
        a = rng.randrange(1 << n)
        b = a
        for _ in range(rng.randint(0, n)):
            b &= rng.randrange(1 << n)
        report = verify_inf_representation(v, a, b)
        assert report.passed
        consistency = [c for c in report.claims if c.category == "consistency"]
        assert consistency and all(c.passed for c in consistency)


def test_dual_route_consistency_under_every_base():
    """Every pair on n <= 4 supermodular instances passes all five
    consistency claims under every permutation base, and the same base
    given as an explicit subset list gives the same report."""
    for n in range(1, 5):
        v = random_supermodular(n, 500 + n)
        for order in permutations(range(n)):
            explicit = Chain(v.ground.full, maximal_chain(v.ground, order).sets)
            for a in v.ground.subsets():
                for b in iter_submasks(a):
                    report = verify_inf_representation(v, a, b, base=order)
                    consistency = [c for c in report.claims if c.category == "consistency"]
                    assert len(consistency) == (5 if a else 1)
                    assert all(c.passed for c in consistency)
                    assert report.passed
                    same = verify_inf_representation(v, a, b, base=explicit)
                    assert same.to_json_dict() == report.to_json_dict()


def test_verify_inf_empty_carrier(convex2):
    report = verify_inf_representation(convex2, 0, 0)
    assert report.passed
    assert report.dual is None


def test_verify_inf_reports_failure_for_submodular_input(v3):
    # strictly submodular input cannot sit in its own upper core everywhere
    report = verify_inf_representation(v3, 0b111, 0b010)
    assert not report.passed
    # the two routes must still agree with each other about the failure
    assert all(c.passed for c in report.claims if c.category == "consistency")


# -- core sampling ----------------------------------------------------------------


def test_sample_core_empty_and_deterministic(v3):
    assert sample_core(v3, 0b111, 0, seed=1) == []
    a = sample_core(v3, 0b111, 5, seed=9)
    b = sample_core(v3, 0b111, 5, seed=9)
    assert [m.weights for m in a] == [m.weights for m in b]


def test_sample_core_additive_all_identical():
    v = additive_capacity([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    for mu in sample_core(v, v.ground.full, 10, seed=3):
        assert mu.weights == tuple(v.table[1 << i] for i in range(3))


def test_sample_core_symmetric_instance_permutes_weights(v3):
    expected = sorted((Fraction(5, 9), Fraction(1, 3), Fraction(1, 9)))
    for mu in sample_core(v3, 0b111, 20, seed=4):
        assert sorted(mu.weights) == expected
        assert in_lower_core(mu, v3, 0b111)


def test_sample_core_attains_when_b_comes_first(v3):
    b = 0b010
    best = max(mu(b) for mu in sample_core(v3, 0b111, 30, seed=8))
    assert best == v3.table[b]


# -- converse direction ------------------------------------------------------------


def test_nonsubmodular_instances_always_caught():
    for seed in range(40):
        v = random_monotone_nonsubmodular(4, seed)
        assert v.is_monotone() and v.is_grounded() and not v.is_submodular()
        assert find_sup_counterexample(v) is not None


def test_counterexample_is_none_for_submodular():
    for seed in range(5):
        assert find_sup_counterexample(random_submodular(3, seed)) is None


# -- finite additivity over chain intervals ----------------------------------------


def test_measure_of_interval_union_is_telescoped_sum():
    """mu of a disjoint union of chain intervals C minus D, over nested
    chain members C_1 > D_1 > C_2 > ... > D_k, equals the sum of
    v(C) - v(D) over the pairs: the finite-additive mass formula."""
    rng = Random(2024)
    for seed in range(30):
        n = rng.randint(2, 6)
        v = random_submodular(n, 6000 + seed)
        order = list(range(n))
        rng.shuffle(order)
        chain = maximal_chain(v.ground, order)
        mu = chain_measure(v, chain)
        # chain members are nested, so descending masks descend under inclusion
        ends = sorted(rng.sample(chain.sets, 2 * rng.randint(0, len(chain) // 2)), reverse=True)
        pairs = list(zip(ends[::2], ends[1::2]))
        union = 0
        for c, d in pairs:
            union |= c & ~d
        expected = sum((v.table[c] - v.table[d] for c, d in pairs), Fraction(0))
        assert mu(union) == expected


def test_float_mode_verification():
    g = GroundSet(3)
    v = SetFunction.from_callable(
        g, lambda m: 2 * (m.bit_count() / 3) - (m.bit_count() / 3) ** 2, exact=False
    )
    report = verify_sup_representation(v, 0b111, 0b010)
    assert report.passed
    assert not report.witness.exact
    assert verify_uniqueness(v, 0b111, 0b010)


def test_core_rejects_signed_measure():
    g = GroundSet(2)
    v = SetFunction(g, (Fraction(0), Fraction(1), Fraction(0), Fraction(0)))
    mu = chain_measure(v, maximal_chain(g, (0, 1)))  # weight -1 at point 1
    assert not in_lower_core(mu, v)
    assert not in_upper_core(mu, v)


# -- one tolerance per check ---------------------------------------------------------


class _CountingEnviron(dict):
    """An ``os.environ`` stand-in that counts reads of the tolerance variable."""

    reads = 0

    def get(self, key, default=None):
        if key == EPS_ENV_VAR:
            self.reads += 1
        return super().get(key, default)

    def __getitem__(self, key):
        if key == EPS_ENV_VAR:
            self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("check", ["inf", "sup", "uniqueness", "counterexample", "choquet"])
def test_float_check_reads_the_tolerance_once(monkeypatch, check):
    exact = random_supermodular(5, 21) if check == "inf" else random_monotone_nonsubmodular(5, 22)
    v = SetFunction(exact.ground, tuple(float(x) for x in exact.table))
    full = v.ground.full
    env = _CountingEnviron(os.environ, **{EPS_ENV_VAR: "1e-9"})
    monkeypatch.setattr(os, "environ", env)
    run = {
        "inf": lambda: verify_inf_representation(v, full, 0b01001),
        "sup": lambda: verify_sup_representation(v, full, 0b01001),
        "uniqueness": lambda: verify_uniqueness(v, full, 0b01001),
        "counterexample": lambda: find_sup_counterexample(v),
        "choquet": lambda: verify_choquet_sup(
            v, PointFunction(v.ground, (3.0, 1.0, 2.0, 1.0, 0.5)), samples=4),
    }[check]
    run()
    assert env.reads <= 1

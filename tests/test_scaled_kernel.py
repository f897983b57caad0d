"""The checks run on each table scaled to integers; these tests pin that
down from outside.

* Differential: every report matches what the public Fraction functions
  (``insert_chain``, ``chain_measure``, ``core_check``) rebuild on their
  own, in exact and in float mode.
* Dual table: the dual route's table on each carrier is the public
  ``dual_transform`` of the restriction, in exact and in float mode.
* Scaling invariance: for any exact v and positive rational c, every
  verdict on ``c * v`` equals the one on v, and every reported value is
  c times the one on v.
* Verdict kernel: the verdict a sweep reads without building a report
  equals the report's, each check alone flips it, and a dual verdict that
  disagrees with the direct one fails the pair.
* Carrier-batched kernel: one call per carrier gives, for every B, the
  verdict of the per-pair report and ``insert_chain`` in local masks,
  under every base; the sweep's counts equal a per-pair loop's; the
  float compares use the tolerance in effect; and the counterexample is
  the first failing pair.
"""

from __future__ import annotations

import json
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import permutations
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chaincore.measure as measure
from chaincore import (
    GroundSet,
    PointFunction,
    SetFunction,
    chain_measure,
    core_check,
    dual_transform,
    find_sup_counterexample,
    insert_chain,
    iter_submasks,
    maximal_chain,
    members,
    random_monotone_nonsubmodular,
    random_submodular,
    random_supermodular,
    resolve_eps,
    scalar_eq,
    verify_choquet_sup,
    verify_inf_representation,
    verify_sup_representation,
    verify_uniqueness,
)
from chaincore.cli import _route, _unique, load_instance, main
from chaincore.chains import one_point_steps
from chaincore.measure import construction_verdicts, preconditions_hold
from chaincore.setfun import subset_masks
from conftest import quadratic_capacity
from test_cli_golden import _bench_sweeps


def _primes(count: int) -> list[int]:
    found: list[int] = []
    k = 2
    while len(found) < count:
        if all(k % p for p in found):
            found.append(k)
        k += 1
    return found


def coprime_capacity(n: int = 5) -> SetFunction:
    """v(S) = 10|S| - |S|**2 + 1/p_S with a distinct prime p_S per nonempty S.

    The second differences of the integer part are -2 and the fractions
    move each submodular gap by less than 1, so v is grounded, monotone and
    submodular, and the lcm of its denominators is the product of 2**n - 1
    primes.
    """
    primes = iter(_primes((1 << n) - 1))
    table = [Fraction(0)]
    for mask in range(1, 1 << n):
        k = mask.bit_count()
        table.append(10 * k - k * k + Fraction(1, next(primes)))
    return SetFunction(GroundSet(n), tuple(table))


def signed_table(n: int, seed: int) -> SetFunction:
    """Seeded random values: neither grounded nor monotone, so the witness
    has negative atoms and every claim can fail."""
    rng = Random(seed)
    return SetFunction(GroundSet(n), tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                                           for _ in range(1 << n)))


INSTANCES = {
    "sub4": random_submodular(4, 11),
    "sub5": random_submodular(5, 12),
    "super4": random_supermodular(4, 13),
    "super5": random_supermodular(5, 14),
    "non4": random_monotone_nonsubmodular(4, 15),
    "non5": random_monotone_nonsubmodular(5, 16),
    "coprime5": coprime_capacity(5),
    "signed4": signed_table(4, 17),
}


def _as_float(v: SetFunction) -> SetFunction:
    return SetFunction(v.ground, tuple(float(x) for x in v.table))


def _expected_construction(v: SetFunction, a: int, b: int, lower: bool) -> tuple:
    """Witness weights, core scan and construction claims, rebuilt from the
    public Fraction functions."""
    eps = 0 if v.exact else resolve_eps()
    chain = insert_chain(maximal_chain(v.ground, range(v.ground.n)), a, b)
    mu = chain_measure(v, chain)
    check = core_check(mu, v, lower=lower)
    tbl = mu.table()
    vt = v.table
    bad = [s for s in chain.sets if not scalar_eq(tbl[s], vt[s], eps)]
    rel = "<=" if lower else ">="
    claims = [
        ("mu agrees with v on every chain member", (a, b), len(bad), 0, not bad),
        *(("mu(I) = v(I)", (s,), tbl[s], vt[s], False) for s in bad),
        ("mu(A) = v(A)", (a,), tbl[a], vt[a], check.mass_ok),
        ("all weights nonnegative", (a,), len(check.negative_points), 0,
         not check.negative_points),
        *(("weight >= 0", (1 << p,), mu.weight(p), 0, False) for p in check.negative_points),
        (f"mu(E) {rel} v(E) for all E in A", (a,), len(check.violations), 0,
         not check.violations),
        *((f"mu(E) {rel} v(E)", (m,), tbl[m], vt[m], False) for m in check.violations),
        ("mu(B) = v(B)", (b,), tbl[b], vt[b], scalar_eq(tbl[b], vt[b], eps)),
    ]
    return chain, mu, check, claims


def test_coprime_instance_scale_is_multi_limb():
    v = coprime_capacity(5)
    values, scale = v.scaled_table()
    assert scale.bit_length() > 150
    assert all(type(x) is int for x in values)
    assert all(Fraction(x, scale) == y for x, y in zip(values, v.table))
    assert v.is_grounded() and v.is_monotone() and v.is_submodular()


def test_reports_match_the_public_fraction_functions():
    compared = 0
    for name, exact_v in INSTANCES.items():
        for v in (exact_v, _as_float(exact_v)):
            for a in v.ground.subsets():
                for b in iter_submasks(a):
                    for lower, verify in ((True, verify_sup_representation),
                                          (False, verify_inf_representation)):
                        report = verify(v, a, b)
                        chain, mu, check, claims = _expected_construction(v, a, b, lower)
                        where = (name, v.exact, a, b, lower)
                        assert report.witness.weights == mu.weights, where
                        assert report.context["chain"] == list(chain.sets), where
                        assert report.context["core_violations"] == list(check.violations), where
                        assert report.context["negative_points"] == list(
                            check.negative_points), where
                        got = [(c.claim, c.subsets, c.lhs, c.rhs, c.passed)
                               for c in report.claims
                               if c.category not in ("precondition", "consistency")]
                        assert got == claims, where
                        compared += 1
    assert compared == 2 * 2 * sum(3 ** v.ground.n for v in INSTANCES.values())


def test_dual_table_matches_the_fraction_reference():
    """The dual route's table on each carrier A is the complement dual of
    v restricted to A, in A's local coordinates: unscaled, it equals
    ``dual_transform(v.restrict(A))`` as Fractions in exact mode and bit
    for bit in float mode."""
    compared = 0
    for name, exact_v in INSTANCES.items():
        for v in (exact_v, _as_float(exact_v)):
            for a in range(1, 1 << v.ground.n):
                carrier = measure._carrier(v, a)
                dual, order, _ = measure._dual(carrier, (), range(v.ground.n), 0)
                restricted, points = v.restrict(a)
                reference = dual_transform(restricted).table
                where = (name, v.exact, a)
                assert carrier.points == points, where
                assert dual.points == tuple(range(len(points))), where
                assert dual.masks == list(range(1 << len(points))), where
                assert order == list(reversed(range(len(points)))), where
                assert (dual.scale, dual.exact) == (carrier.scale, v.exact), where
                if v.exact:
                    assert all(type(x) is int for x in dual.values), where
                    assert [Fraction(x, dual.scale) for x in dual.values] == list(reference), where
                else:
                    assert dual.scale == 1, where
                    assert [x.hex() for x in dual.values] == [x.hex() for x in reference], where
                compared += 1
    assert compared == 2 * sum((1 << v.ground.n) - 1 for v in INSTANCES.values())


# -- scaling invariance ---------------------------------------------------------------

FRACTIONS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def exact_instances(draw) -> SetFunction:
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("sub", "super", "non", "table")))
    seed = draw(st.integers(0, 10**6))
    if kind == "sub":
        return random_submodular(n, seed)
    if kind == "super":
        return random_supermodular(n, seed)
    if kind == "non" and n >= 2:
        return random_monotone_nonsubmodular(n, seed)
    return SetFunction(GroundSet(n), tuple(draw(st.lists(FRACTIONS, min_size=1 << n,
                                                         max_size=1 << n))))


POSITIVE = st.builds(Fraction, st.integers(1, 10**12), st.integers(1, 10**12))


def _scaled(x: object, c: Fraction) -> object:
    """A reported value scales with v; counts and flags do not."""
    return c * x if isinstance(x, Fraction) else x


def _assert_report_scales(r1, r2, c: Fraction) -> None:
    assert r1.passed == r2.passed
    assert r2.witness.weights == tuple(c * w for w in r1.witness.weights)
    assert len(r1.claims) == len(r2.claims)
    for k1, k2 in zip(r1.claims, r2.claims):
        assert (k2.claim, k2.category, k2.subsets, k2.passed) == (
            k1.claim, k1.category, k1.subsets, k1.passed)
        assert k2.lhs == _scaled(k1.lhs, c) and k2.rhs == _scaled(k1.rhs, c)
    assert (r1.dual is None) == (r2.dual is None)
    if r1.dual is not None:
        _assert_report_scales(r1.dual, r2.dual, c)


@settings(max_examples=40, deadline=None)
@given(v=exact_instances(), c=POSITIVE, data=st.data())
def test_verdicts_and_values_scale_with_v(v, c, data):
    w = SetFunction(v.ground, tuple(c * x for x in v.table))
    for exhaustive in (False, True):
        assert v.is_submodular(exhaustive=exhaustive) == w.is_submodular(exhaustive=exhaustive)
        assert v.is_supermodular(exhaustive=exhaustive) == w.is_supermodular(
            exhaustive=exhaustive)
    assert v.is_grounded() == w.is_grounded()
    assert v.is_monotone() == w.is_monotone()

    for a in v.ground.subsets():
        for b in iter_submasks(a):
            for verify in (verify_sup_representation, verify_inf_representation):
                _assert_report_scales(verify(v, a, b), verify(w, a, b), c)
            assert verify_uniqueness(v, a, b) == verify_uniqueness(w, a, b)

    f = PointFunction(v.ground, tuple(data.draw(st.lists(FRACTIONS, min_size=v.ground.n,
                                                         max_size=v.ground.n))))
    samples = data.draw(st.integers(1, 6))
    _assert_report_scales(verify_choquet_sup(v, f, samples=samples),
                          verify_choquet_sup(w, f, samples=samples), c)


# -- the verdict kernel ---------------------------------------------------------------


def non_grounded(n: int, seed: int) -> SetFunction:
    """A submodular instance shifted by 1/3: v(empty) != 0, so the chain,
    mass and attainment claims fail on every pair."""
    v = random_submodular(n, seed)
    return SetFunction(v.ground, tuple(x + Fraction(1, 3) for x in v.table))


VERDICT_INSTANCES = {**INSTANCES, "nongrounded4": non_grounded(4, 18),
                     "signed5": signed_table(5, 19)}


def test_kernel_verdict_matches_the_report():
    """On every pair, on both routes, in exact and float mode: the verdict
    equals ``construction_passed``, together with the preconditions it
    equals ``passed``, and its chain is maximal exactly when the report's
    chain gives ``unique``."""
    seen = set()
    for name, exact_v in VERDICT_INSTANCES.items():
        for v in (exact_v, _as_float(exact_v)):
            tol = 0 if v.exact else resolve_eps()
            for lower, verify in ((True, verify_sup_representation),
                                  (False, verify_inf_representation)):
                holds = preconditions_hold(v, submodular=lower, tol=tol)
                for a in v.ground.subsets():
                    verdicts = construction_verdicts(v, a, lower, tol)
                    assert len(verdicts) == 1 << a.bit_count()
                    for local_b, b in enumerate(subset_masks(members(a))):
                        report = verify(v, a, b)
                        passed, chain = verdicts[local_b]
                        where = (name, v.exact, lower, a, b)
                        assert passed == report.construction_passed, where
                        assert (holds and passed) == report.passed, where
                        assert one_point_steps(chain) == _unique(report), where
                        seen.add((v.exact, lower, passed))
    assert seen == {(e, low, p) for e in (True, False) for low in (True, False)
                    for p in (True, False)}


def _verdict(v: SetFunction, a: int, b: int) -> measure.Verdict:
    """The sup kernel's verdict on (A, B) in exact mode, default base."""
    order = measure._resolve_base(v, None)
    local_b = subset_masks(members(a)).index(b)
    return next(measure._kernel(measure._carrier(v, a), (local_b,), order, True, 0))


def _only(verdict: measure.Verdict, *failing: str) -> bool:
    """Whether exactly the named checks of the verdict fail."""
    fails = {
        "chain_bad": bool(verdict.chain_bad),
        "mass_ok": not verdict.mass_ok,
        "negative_points": bool(verdict.negative_points),
        "violations": bool(verdict.violations),
        "attained": not verdict.attained,
    }
    return {k for k, bad in fails.items() if bad} == set(failing)


#: check -> (a verdict field and its failing value, the claims that then fail);
#: masks and points are local to A = {0, 1, 3}: 0b101 is {0, 3}
ALONE = {
    "chain agreement": ("chain_bad", (0b0010,),
                        {"mu agrees with v on every chain member", "mu(I) = v(I)"}),
    "mass": ("mass_ok", False, {"mu(A) = v(A)"}),
    "negative weight": ("negative_points", (1,), {"all weights nonnegative", "weight >= 0"}),
    "core violation": ("violations", (0b101,),
                       {"mu(E) <= v(E) for all E in A", "mu(E) <= v(E)"}),
    "attainment": ("attained", False, {"mu(B) = v(B)"}),
}


@pytest.mark.parametrize("check", sorted(ALONE))
def test_each_check_alone_flips_the_verdict(check):
    v = random_submodular(4, 11)
    a, b = 0b1011, 0b0010
    verdict = _verdict(v, a, b)
    assert verdict.passed and _only(verdict)
    name, value, claims = ALONE[check]
    bad = verdict._replace(**{name: value})
    assert _only(bad, name)
    assert not bad.passed
    local_b = subset_masks(members(a)).index(b)
    report = measure._report(measure._carrier(v, a), local_b, tuple(range(4)), bad, lower=True)
    assert {c.claim for c in report.failures()} == claims


def test_kernel_flags_a_negative_weight_alone():
    # submodular and grounded but not monotone: the atom at point 1 is -1
    v = SetFunction(GroundSet(2), tuple(map(Fraction, (0, 2, 1, 1))))
    verdict = _verdict(v, 0b11, 0b01)
    assert verdict.negative_points == (1,) and _only(verdict, "negative_points")
    assert not construction_verdicts(v, 0b11, True, 0)[0b01][0]


def test_kernel_flags_a_core_violation_alone():
    # supermodular: mu({1}) = v({0,1}) - v({0}) = 1 exceeds v({1}) = 0
    v = SetFunction(GroundSet(2), tuple(map(Fraction, (0, 0, 0, 1))))
    verdict = _verdict(v, 0b11, 0b01)
    assert verdict.violations == (0b10,) and _only(verdict, "violations")
    assert not construction_verdicts(v, 0b11, True, 0)[0b01][0]


def test_kernel_flags_a_missed_attainment_alone(monkeypatch):
    # a chain that skips B: on strictly submodular v, mu(B) < v(B)
    v = quadratic_capacity(3)
    monkeypatch.setattr(measure, "_inserted_order", lambda order, b: order)
    verdict = _verdict(v, 0b111, 0b010)
    assert _only(verdict, "attained")
    assert not construction_verdicts(v, 0b111, True, 0)[0b010][0]


#: a corruption of the dual verdict -> the consistency claims that then fail
CORRUPT = {
    "weights": (lambda d: d._replace(weights=(d.weights[0] + 1, *d.weights[1:])),
                {"dual witness has identical weights"}),
    "chain": (lambda d: d._replace(chain=(0, d.chain[-1])),
              {"dual chain is the complemented chain"}),
    "violations": (lambda d: d._replace(violations=(d.chain[-1],)),
                   {"core violations correspond under complement",
                    "overall verdicts agree across routes"}),
    "attainment": (lambda d: d._replace(attained=False),
                   {"attainment agrees across routes", "overall verdicts agree across routes"}),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPT))
def test_a_corrupted_dual_verdict_fails_the_pair(monkeypatch, corruption):
    v = random_supermodular(4, 13)
    a, b = 0b1101, 0b0100
    local_b = 0b010  # point 2 of A = {0, 2, 3}
    assert construction_verdicts(v, a, False, 0)[local_b][0]
    assert verify_inf_representation(v, a, b).passed
    corrupt, claims = CORRUPT[corruption]
    kernel = measure._kernel

    def corrupted(c, bs, base_order, lower, tol):
        # the direct pass of the inf route runs in upper-core mode, the dual pass in lower
        verdicts = kernel(c, bs, base_order, lower, tol)
        return map(corrupt, verdicts) if lower else verdicts

    monkeypatch.setattr(measure, "_kernel", corrupted)
    assert not construction_verdicts(v, a, False, 0)[local_b][0]
    assert {c.claim for c in verify_inf_representation(v, a, b).failures()} == claims


# -- the carrier-batched kernel --------------------------------------------------------


def _local(points: tuple[int, ...], mask: int) -> int:
    """The local mask of a subset of ``points`` (bit i picks ``points[i]``)."""
    return sum(1 << i for i, p in enumerate(points) if mask >> p & 1)


def _assert_carriers_match_the_reports(v: SetFunction, lower: bool, base=None) -> tuple:
    """Every carrier's batched verdicts against a per-pair ``verify_*`` loop:
    each verdict equals ``construction_passed`` and each chain is
    ``insert_chain`` mapped to local masks.  Returns the per-pair loop's
    (pairs, failures, unique), as a sweep counts them."""
    verify = verify_sup_representation if lower else verify_inf_representation
    tol = 0 if v.exact else resolve_eps()
    holds = preconditions_hold(v, submodular=lower, tol=tol)
    base_chain = maximal_chain(v.ground, base if base is not None else range(v.ground.n))
    pairs = failures = 0
    unique = True
    for a in v.ground.subsets():
        points = members(a)
        verdicts = construction_verdicts(v, a, lower, tol, base)
        for b in iter_submasks(a):
            report = verify(v, a, b, base=base)
            passed, chain = verdicts[_local(points, b)]
            where = (v.exact, lower, base, a, b)
            assert passed == report.construction_passed, where
            inserted = insert_chain(base_chain, a, b).sets
            assert chain == tuple(_local(points, s) for s in inserted), where
            pairs += 1
            failures += not report.passed
            unique = unique and _unique(report)
        assert len(verdicts) == 1 << len(points)
    assert holds or failures == pairs
    return pairs, failures, unique


SMALL = {n: (random_submodular(n, 40 + n), random_supermodular(n, 50 + n), signed_table(n, 60 + n))
         for n in range(1, 5)}


@pytest.mark.parametrize("n", sorted(SMALL))
def test_batched_kernel_matches_per_pair_reports_under_every_base(n):
    outcomes = set()
    for exact_v in SMALL[n]:
        for v in (exact_v, _as_float(exact_v)):
            for order in permutations(range(n)):
                for lower in (True, False):
                    pairs, failures, _ = _assert_carriers_match_the_reports(v, lower, order)
                    outcomes.add((v.exact, lower, failures == 0, failures == pairs))
    # both modes and both routes see all-pass and all-fail instances
    assert {(e, low, True, False) for e in (True, False) for low in (True, False)} <= outcomes
    assert {(e, low, False, True) for e in (True, False) for low in (True, False)} <= outcomes


def _sweep(directory: Path, obj: dict, exact: bool) -> dict:
    """The summary ``chaincore sweep`` prints for the one instance ``obj``."""
    directory.mkdir()
    (directory / "instance.json").write_text(json.dumps(obj))
    out = StringIO()
    with redirect_stdout(out):
        main([*(() if exact else ("--float",)), "sweep", str(directory)])
    (summary,) = json.loads(out.getvalue())["instances"]
    return summary


@pytest.mark.parametrize("exact", (True, False), ids=("exact", "float"))
@pytest.mark.parametrize("name", sorted(_bench_sweeps()))
def test_sweep_counts_match_a_per_pair_loop(tmp_path, name, exact):
    """At the benchmark's sizes, on both routes: every batched verdict and
    chain matches the per-pair report, and the sweep's counts equal the
    per-pair loop's."""
    obj = _bench_sweeps()[name]
    (tmp_path / "in.json").write_text(json.dumps(obj))
    v = load_instance(str(tmp_path / "in.json"), exact=exact)
    lower = _route(v) is verify_sup_representation
    pairs, failures, unique = _assert_carriers_match_the_reports(v, lower)
    summary = _sweep(tmp_path / "sweep", obj, exact)
    assert (summary["pairs"], summary["failures"], summary["unique"]) == (pairs, failures, unique)
    assert summary["route"] == ("sup" if lower else "inf")


def test_float_chain_and_attainment_use_the_tolerance():
    """A float instance whose telescoped measure misses v by 1e-5 on every
    chain member (v(empty) = 1e-5): more than the default eps, less than
    1e-3.  Chain agreement and attainment fail at the default eps and hold
    at eps = 1e-4, so neither compare may use a slack other than the
    tolerance in effect."""
    exact_v = random_submodular(4, 21)
    v = SetFunction(exact_v.ground, tuple(float(x) + 1e-5 for x in exact_v.table))
    a, b = 0b1101, 0b0100
    order = measure._resolve_base(v, None)
    local_b = _local(members(a), b)
    for eps, misses in ((resolve_eps(), True), (1e-4, False)):
        verdict = next(measure._kernel(measure._carrier(v, a), (local_b,), order, True, eps))
        assert verdict.attained is not misses
        assert verdict.chain_bad == (verdict.chain if misses else ())
        report = verify_sup_representation(v, a, b, eps=eps)
        failed = {c.claim for c in report.failures()}
        assert ("mu(B) = v(B)" in failed) is misses
        assert ("mu agrees with v on every chain member" in failed) is misses


def _first_failing_pair(v: SetFunction, base=None) -> tuple[int, int] | None:
    """The reference: ``a`` ascending, ``b`` by ``iter_submasks``, one
    report per pair."""
    for a in v.ground.subsets():
        for b in iter_submasks(a):
            if not verify_sup_representation(v, a, b, base=base).construction_passed:
                return a, b
    return None


def test_counterexample_is_the_first_failing_pair():
    rng = Random(77)
    found = 0
    for seed in range(50):
        n = rng.randint(2, 5)
        v = random_monotone_nonsubmodular(n, 700 + seed)
        base = None if seed % 2 else tuple(reversed(range(n)))
        expected = _first_failing_pair(v, base)
        assert find_sup_counterexample(v, base) == expected, seed
        found += expected is not None
    assert found == 50

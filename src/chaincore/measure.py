"""Atomic measures on a carrier set and the theorems they witness.

The central construction: telescoping a set function v along a maximal
chain yields an atomic measure whose atom at the k-th added point is
v(S_k) - v(S_{k-1}).  That measure agrees with v on every chain member,
and for submodular monotone grounded v it lies in the lower core of v
on the carrier, attaining v(B) whenever B is a chain member.  The
verification operations here check those facts exhaustively over all
2**|A| subsets of the carrier and report each claim in machine-readable
form; the mirrored statements for supermodular functions are checked
both directly on the upper core and through the complement dual, with
claim-for-claim agreement between the two routes asserted.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Mapping, NamedTuple, Sequence

from .chains import Chain, chain_from_order, chain_generates, insert_chain, maximal_chain
from .scalar import Scalar, format_scalar, scalar_eq, scalar_ge, tolerance
from .setfun import SetFunction, dual_transform, iter_submasks, members, subset_masks, subset_sums


@dataclass(frozen=True)
class AtomicMeasure:
    """Per-point weights on a carrier set; evaluation is additive.

    Weights may be negative (a signed object, produced e.g. by telescoping
    a non-monotone function); core predicates reject such measures, and
    :meth:`is_nonnegative` is the flag to inspect.
    """

    carrier: int
    points: tuple[int, ...]
    weights: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.points != members(self.carrier):
            raise ValueError("points must list the carrier members in ascending order")
        if len(self.weights) != len(self.points):
            raise ValueError("one weight per carrier point required")

    @classmethod
    def from_weights(cls, carrier: int, by_point: Mapping[int, Scalar]) -> "AtomicMeasure":
        pts = members(carrier)
        if set(by_point) != set(pts):
            raise ValueError("weight map must cover exactly the carrier points")
        return cls(carrier, pts, tuple(by_point[p] for p in pts))

    @property
    def exact(self) -> bool:
        return not any(isinstance(w, float) for w in self.weights)

    @property
    def total(self) -> Scalar:
        return sum(self.weights, 0)

    def weight(self, point: int) -> Scalar:
        try:
            return self.weights[self.points.index(point)]
        except ValueError:
            raise ValueError(f"point {point} is not in the carrier") from None

    def is_nonnegative(self, eps: float | None = None) -> bool:
        return all(scalar_ge(w, 0, eps) for w in self.weights)

    def __call__(self, subset: int) -> Scalar:
        if subset & ~self.carrier:
            raise ValueError(f"subset {subset} is not within the carrier {self.carrier}")
        total: Scalar = 0
        for p, w in zip(self.points, self.weights):
            if subset >> p & 1:
                total += w
        return total

    def table(self) -> dict[int, Scalar]:
        """Values on all 2**|carrier| subsets, built by one add per subset."""
        return dict(zip(subset_masks(self.points), subset_sums(self.weights)))

    def perturbed(self, point: int, delta: Scalar) -> "AtomicMeasure":
        idx = self.points.index(point)
        weights = list(self.weights)
        weights[idx] = weights[idx] + delta
        return AtomicMeasure(self.carrier, self.points, tuple(weights))

    def to_json_dict(self) -> dict:
        return {
            "carrier": self.carrier,
            "weights": {str(p): format_scalar(w) for p, w in zip(self.points, self.weights)},
        }


def _telescope(
    values: Sequence[Scalar] | Mapping[int, Scalar], chain: Chain
) -> tuple[Scalar, ...]:
    """Atoms of the telescoped measure in ascending point order: the atom at
    each point is the increment of ``values`` across the step adding it."""
    sets = chain.sets
    by_point: dict[int, Scalar] = {}
    for prev, cur in zip(sets, sets[1:]):
        by_point[(cur ^ prev).bit_length() - 1] = values[cur] - values[prev]
    return tuple(by_point[p] for p in sorted(by_point))


def chain_measure(v: SetFunction, chain: Chain) -> AtomicMeasure:
    """Telescope v along a maximal chain: the atom at each added point is
    the increment of v across that step.

    The result agrees with v on every chain member (minus v(empty) when v
    is not grounded); all weights are nonnegative iff v is non-decreasing
    along the chain.
    """
    if not chain.is_maximal:
        raise ValueError("chain is not maximal: per-point weights are undefined")
    v.ground.check_subset(chain.carrier)
    return AtomicMeasure(chain.carrier, members(chain.carrier), _telescope(v.table, chain))


def weights_from_chain_values(chain: Chain, values: Mapping[int, Scalar]) -> AtomicMeasure:
    """Reconstruct the only possible atomic measure agreeing with the given
    values on every member of a maximal chain.

    Consecutive chain members differ by one point, so any agreeing measure
    has its atom pinned to the difference of the two values; this is the
    uniqueness argument made executable.
    """
    if not chain.is_maximal:
        raise ValueError("chain is not maximal: atoms are not pinned")
    try:
        weights = _telescope(values, chain)
    except KeyError:
        raise ValueError("values must cover every chain member") from None
    return AtomicMeasure(chain.carrier, members(chain.carrier), weights)


# -- core membership ----------------------------------------------------------


@dataclass(frozen=True)
class CoreCheck:
    """Outcome of one exhaustive core-membership scan."""

    mass_ok: bool
    negative_points: tuple[int, ...]
    violations: tuple[int, ...]  # subsets where the core inequality fails
    checked: int

    @property
    def ok(self) -> bool:
        return self.mass_ok and not self.negative_points and not self.violations


def _scan_core(
    points: Sequence[int],
    weights: Sequence[Scalar],
    masks: Sequence[int],
    sums: Sequence[Scalar],
    values: Sequence[Scalar],
    lower: bool,
    tol: Scalar,
) -> tuple[bool, tuple[int, ...], tuple[int, ...]]:
    """Core scan of the measure with atoms ``weights`` at ``points``, whose
    value on the subset ``masks[i]`` is ``sums[i]``, against the set
    function values ``values[i]`` (the carrier last), slack by ``tol``.

    Returns mass_ok, the negative points and the violating subsets.  In
    exact mode (``tol`` is the int 0 of :func:`tolerance`) one ``map``
    compares the two lists and the violations are listed only when there
    are some; float mode keeps the tolerant expressions."""
    if isinstance(tol, float):
        negative = tuple(p for p, w in zip(points, weights) if w + tol < 0)
        if lower:
            violations = tuple(m for m, x, y in zip(masks, sums, values) if x > y + tol)
        else:
            violations = tuple(m for m, x, y in zip(masks, sums, values) if x + tol < y)
    else:
        negative = tuple(p for p, w in zip(points, weights) if w < 0)
        cmp = operator.gt if lower else operator.lt
        violations = ()
        if any(map(cmp, sums, values)):
            violations = tuple(m for m, x, y in zip(masks, sums, values) if cmp(x, y))
    # scalar_eq also rejects a float measure checked against an exact v
    return scalar_eq(sums[-1], values[-1], tol), negative, violations


def core_check(
    mu: AtomicMeasure,
    v: SetFunction,
    lower: bool = True,
    eps: float | None = None,
) -> CoreCheck:
    """Scan all subsets of the carrier for core membership.

    Lower core: mu(A) = v(A), mu(E) <= v(E) for every E inside A, and all
    weights nonnegative.  Upper core mirrors the inequality.
    """
    tol = tolerance(mu.exact and v.exact, eps)
    masks = subset_masks(mu.points)
    sums = subset_sums(mu.weights)
    scan = _scan_core(mu.points, mu.weights, masks, sums, [v.table[m] for m in masks], lower, tol)
    return CoreCheck(*scan, len(sums))


def in_lower_core(
    mu: AtomicMeasure, v: SetFunction, carrier: int | None = None, eps: float | None = None
) -> bool:
    """Membership in the lower core of v on the carrier, exhaustively."""
    if carrier is not None and carrier != mu.carrier:
        raise ValueError("measure carrier does not match the requested carrier")
    return core_check(mu, v, lower=True, eps=eps).ok


def in_upper_core(
    mu: AtomicMeasure, v: SetFunction, carrier: int | None = None, eps: float | None = None
) -> bool:
    """Membership in the upper core of v on the carrier, exhaustively."""
    if carrier is not None and carrier != mu.carrier:
        raise ValueError("measure carrier does not match the requested carrier")
    return core_check(mu, v, lower=False, eps=eps).ok


# -- verification reports ------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One verified statement: lhs/rhs values and whether it held."""

    claim: str
    category: str  # precondition | chain | core | attainment | consistency
    subsets: tuple[int, ...] = ()
    lhs: object = None
    rhs: object = None
    passed: bool = True

    def to_json_dict(self) -> dict:
        def fmt(x: object) -> object:
            if isinstance(x, (Fraction, float)):
                return format_scalar(x)
            return x

        return {
            "claim": self.claim,
            "category": self.category,
            "subsets": list(self.subsets),
            "lhs": fmt(self.lhs),
            "rhs": fmt(self.rhs),
            "passed": self.passed,
        }


@dataclass
class VerificationReport:
    """Bundle of claims with the witness measure and reproducibility context."""

    kind: str
    context: dict = field(default_factory=dict)
    witness: AtomicMeasure | None = None
    claims: list[Claim] = field(default_factory=list)
    dual: "VerificationReport | None" = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    @property
    def construction_passed(self) -> bool:
        """All claims except the structural preconditions on v."""
        return all(c.passed for c in self.claims if c.category != "precondition")

    def failures(self) -> list[Claim]:
        return [c for c in self.claims if not c.passed]

    def to_json_dict(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "passed": self.passed,
            "context": self.context,
            "witness": self.witness.to_json_dict() if self.witness is not None else None,
            "claims": [c.to_json_dict() for c in self.claims],
        }
        if self.dual is not None:
            out["dual_route"] = self.dual.to_json_dict()
        return out


def _resolve_base(v: SetFunction, base: Chain | Sequence[int] | None) -> tuple[Chain, tuple]:
    """The maximal base chain on v's ground set and its point order; the default is memoised."""
    if base is None:
        return v._cached(("base chain",), lambda: _resolve_base(v, range(v.ground.n)))
    if isinstance(base, Chain):
        if base.carrier != v.ground.full or not base.is_maximal:
            raise ValueError("base chain must be maximal on the full ground set")
        return base, base.point_order()
    order = tuple(base)
    return maximal_chain(v.ground, order), order


def _precondition_claims(v: SetFunction, submodular: bool, tol: Scalar) -> list[Claim]:
    kind = "submodular" if submodular else "supermodular"
    structural = v.is_submodular(tol) if submodular else v.is_supermodular(tol)
    return [
        Claim("v(empty) = 0", "precondition", (0,), v.table[0], 0, v.is_grounded(tol)),
        Claim("v non-decreasing", "precondition", passed=v.is_monotone(tol)),
        Claim(f"v {kind}", "precondition", passed=structural),
    ]


class Verdict(NamedTuple):
    """The construction checks of one (A, B) pair, in the units of v's
    scaled table: what a sweep reads, and what a report is built from."""

    weights: tuple  # atoms at A's points, ascending
    chain: Chain  # the insertion of B into A
    sums: list  # mu on every subset of A, in local-mask order
    chain_bad: tuple[int, ...]  # chain members where mu and v disagree
    mass_ok: bool
    negative_points: tuple[int, ...]
    violations: tuple[int, ...]  # subsets of A where the core inequality fails
    attained: bool

    @property
    def passed(self) -> bool:
        return (self.mass_ok and self.attained and not self.chain_bad
                and not self.negative_points and not self.violations)


def _carrier(v: SetFunction, a: int) -> tuple[tuple[int, ...], list[int], dict, list]:
    """A's points, every subset of A in local-mask order, the map from each
    subset to its local mask, and v's scaled values in local-mask order;
    memoised on v per A, since they do not depend on B."""

    def compute() -> tuple[tuple[int, ...], list[int], dict, list]:
        values, _ = v.scaled_table()
        points = members(a)
        masks = subset_masks(points)
        return points, masks, {m: i for i, m in enumerate(masks)}, [values[m] for m in masks]

    return v._cached(("carrier", a), compute)


def _kernel(v: SetFunction, a: int, b: int, base: Chain, lower: bool, tol: Scalar) -> Verdict:
    """Telescope v along the insertion of B into A and check the
    construction on v's scaled table (:meth:`SetFunction.scaled_table`):
    chain agreement, lower (or upper) core membership exhaustively over all
    subsets of A, and attainment at B, with ``tol`` as the slack (0 in
    exact mode).  Builds no Fraction and no report."""
    chain = insert_chain(base, a, b)
    values, _ = v.scaled_table()
    points, masks, local, vloc = _carrier(v, a)
    weights = _telescope(values, chain)
    sums = subset_sums(weights)
    mass_ok, negative, violations = _scan_core(points, weights, masks, sums, vloc, lower, tol)
    chain_bad = tuple(s for s in chain.sets if abs(sums[local[s]] - vloc[local[s]]) > tol)
    attained = abs(sums[local[b]] - vloc[local[b]]) <= tol
    return Verdict(weights, chain, sums, chain_bad, mass_ok, negative, violations, attained)


def _report(
    v: SetFunction, a: int, b: int, base_order: tuple, verdict: Verdict, lower: bool
) -> VerificationReport:
    """The construction-only report of one pair, assembled from its
    verdict; values go back to v's units, as Fractions, only here."""
    _, scale = v.scaled_table()
    unscale = (lambda x: Fraction(x, scale)) if v.exact else (lambda x: x)
    points, _, local, _ = _carrier(v, a)
    sums = verdict.sums

    def mu_of(m: int) -> Scalar:
        return unscale(sums[local[m]])

    mu = AtomicMeasure(a, points, tuple(map(unscale, verdict.weights)))
    vt = v.table
    claims = [
        Claim("mu agrees with v on every chain member", "chain",
              (a, b), len(verdict.chain_bad), 0, not verdict.chain_bad)
    ]
    claims.extend(
        Claim("mu(I) = v(I)", "chain", (s,), mu_of(s), vt[s], False) for s in verdict.chain_bad
    )
    claims.append(Claim("mu(A) = v(A)", "core", (a,), mu_of(a), vt[a], verdict.mass_ok))
    negative = verdict.negative_points
    claims.append(
        Claim("all weights nonnegative", "core", (a,), len(negative), 0, not negative)
    )
    claims.extend(Claim("weight >= 0", "core", (1 << p,), mu.weight(p), 0, False) for p in negative)
    rel = "<=" if lower else ">="
    violations = verdict.violations
    claims.append(
        Claim(f"mu(E) {rel} v(E) for all E in A", "core", (a,),
              len(violations), 0, not violations)
    )
    claims.extend(
        Claim(f"mu(E) {rel} v(E)", "core", (m,), mu_of(m), vt[m], False) for m in violations
    )
    claims.append(Claim("mu(B) = v(B)", "attainment", (b,), mu_of(b), vt[b], verdict.attained))

    return VerificationReport(
        kind="sup-attainment" if lower else "inf-attainment",
        context={
            "A": a,
            "B": b,
            "base_order": list(base_order),
            "chain": list(verdict.chain.sets),
            "core_violations": list(violations),
            "negative_points": list(negative),
        },
        witness=mu,
        claims=claims,
    )


def _direct_route(
    v: SetFunction,
    a: int,
    b: int,
    base: Chain | Sequence[int] | None,
    lower: bool,
    tol: Scalar,
) -> tuple[VerificationReport, tuple[int, ...], Verdict]:
    """The kernel's verdict on (A, B) and the construction-only report
    built from it, with the base chain's point order."""
    v.ground.check_subset(a)
    if b & ~a:
        raise ValueError("b must lie within a")
    base_chain, base_order = _resolve_base(v, base)
    verdict = _kernel(v, a, b, base_chain, lower, tol)
    return _report(v, a, b, base_order, verdict, lower), base_order, verdict


def verify_sup_representation(
    v: SetFunction,
    a: int,
    b: int,
    base: Chain | Sequence[int] | None = None,
    eps: float | None = None,
) -> VerificationReport:
    """Check that the chain measure on the insertion of B into A witnesses
    v(B) as the attained supremum of the lower core of v on A.

    Claims: v's structural preconditions; mu = v on every member of the
    inserted chain; lower-core membership exhaustively over all subsets of
    A; and mu(B) = v(B).  Every core element is dominated by v on B by
    definition, so the attainment claim closes the supremum argument.
    Precondition failures are reported, never raised, so the same routine
    doubles as the counterexample probe for non-submodular input.
    """
    tol = tolerance(v.exact, eps)
    report, *_ = _direct_route(v, a, b, base, lower=True, tol=tol)
    report.claims[:0] = _precondition_claims(v, submodular=True, tol=tol)
    return report


def verify_uniqueness(
    v: SetFunction,
    a: int,
    b: int,
    base: Chain | Sequence[int] | None = None,
) -> bool:
    """Whether the measure agreeing with v on every member of the
    insertion of B into A is unique: it is exactly when the inserted chain
    generates the power set of A, so that consecutive members differ by
    one point and pin each atom to the increment of v across that step."""
    return chain_generates(insert_chain(_resolve_base(v, base)[0], a, b))


def _restricted_dual(v: SetFunction, a: int) -> tuple[SetFunction, tuple[int, ...]]:
    """The complement dual of v restricted to A and the map from local point
    index to point; memoised on v per A, since they do not depend on B."""

    def compute() -> tuple[SetFunction, tuple[int, ...]]:
        restricted, pts = v.restrict(a)
        return dual_transform(restricted), pts

    return v._cached(("restricted dual", a), compute)


def _dual_base(v: SetFunction, a: int, base_order: tuple) -> tuple[Chain, tuple]:
    """The dual route's base chain and its order: A's points in the reverse
    of the base order as local indices, the complemented restriction of the
    base; memoised on v per (A, base order), since they do not depend on B."""

    def compute() -> tuple[Chain, tuple]:
        w, pts = _restricted_dual(v, a)
        return _resolve_base(w, [pts.index(p) for p in reversed(base_order) if a >> p & 1])

    return v._cached(("dual base", a, base_order), compute)


def _dual_route(
    v: SetFunction, a: int, b: int, base_order: tuple, tol: Scalar
) -> tuple[SetFunction, int, tuple, Verdict]:
    """The sup construction for the complement of B in A on w, the
    complement dual of v restricted to A, under the complemented base: its
    own kernel run on w's own table, reading nothing of the direct route.
    The dual's preconditions are equivalent to v's, so only the
    construction is checked.  Returns w, the complement of B as a local
    mask, the dual base order and the verdict."""
    w, _ = _restricted_dual(v, a)
    _, _, local, _ = _carrier(v, a)
    local_b = w.ground.full ^ local[b]
    dual_chain, dual_order = _dual_base(v, a, base_order)
    return w, local_b, dual_order, _kernel(w, w.ground.full, local_b, dual_chain, True, tol)


def _consistency(
    v: SetFunction, w: SetFunction, a: int, b: int, direct: Verdict, dual: Verdict, tol: Scalar
) -> list[tuple[str, tuple[int, ...], object, object, bool]]:
    """The five agreements between the direct and the dual verdict, as
    (claim, subsets, lhs, rhs, passed).  Exact weights are compared across
    the two tables' scales, ``x * L_w == y * L_v``."""
    _, _, local, _ = _carrier(v, a)
    full = w.ground.full
    if v.exact:
        l_v, l_w = v.scaled_table()[1], w.scaled_table()[1]
        weights_match = all(x * l_w == y * l_v for x, y in zip(direct.weights, dual.weights))
    else:
        weights_match = all(scalar_eq(x, y, tol) for x, y in zip(direct.weights, dual.weights))
    chains_match = dual.chain.sets == tuple(full ^ local[s] for s in reversed(direct.chain.sets))
    direct_viol = {full ^ local[m] for m in direct.violations}
    dual_viol = set(dual.violations)
    return [
        ("dual witness has identical weights", (a, b), None, None, weights_match),
        ("dual chain is the complemented chain", (a, b), None, None, chains_match),
        ("core violations correspond under complement", (a, b),
         len(dual_viol ^ direct_viol), 0, dual_viol == direct_viol),
        ("attainment agrees across routes", (b,),
         direct.attained, dual.attained, direct.attained == dual.attained),
        ("overall verdicts agree across routes", (a, b), None, None,
         direct.passed == dual.passed),
    ]


def verify_inf_representation(
    v: SetFunction,
    a: int,
    b: int,
    base: Chain | Sequence[int] | None = None,
    eps: float | None = None,
) -> VerificationReport:
    """Mirror of :func:`verify_sup_representation` for supermodular v and
    the upper core, checked through two independent routes.

    Direct route: telescope v along the insertion of B into A and check
    upper-core membership and attainment exhaustively.  Dual route:
    restrict v to A, apply the complement dual (which is submodular), and
    check the sup construction on the complemented chain and complemented B.
    The two witnesses are the same measure and the reports must agree claim
    for claim under the complement correspondence; the agreement is itself
    recorded as consistency claims.
    """
    tol = tolerance(v.exact, eps)
    report, base_order, direct = _direct_route(v, a, b, base, lower=False, tol=tol)
    report.claims[:0] = _precondition_claims(v, submodular=False, tol=tol)

    if a == 0:
        report.claims.append(
            Claim("dual route skipped (empty carrier)", "consistency", (0,), None, None, True)
        )
        return report

    w, local_b, dual_order, dual = _dual_route(v, a, b, base_order, tol)
    report.dual = _report(w, w.ground.full, local_b, dual_order, dual, lower=True)
    report.claims.extend(
        Claim(claim, "consistency", subsets, lhs, rhs, passed)
        for claim, subsets, lhs, rhs, passed in _consistency(v, w, a, b, direct, dual, tol)
    )
    return report


def preconditions_hold(v: SetFunction, submodular: bool, tol: Scalar) -> bool:
    """Whether every precondition claim of the sup (or inf) check holds."""
    return all(c.passed for c in _precondition_claims(v, submodular, tol))


def construction_verdict(
    v: SetFunction, a: int, b: int, lower: bool, tol: Scalar
) -> tuple[bool, Chain]:
    """``construction_passed`` of :func:`verify_sup_representation`
    (``lower``) or :func:`verify_inf_representation` on (A, B) with the
    default base, and the inserted chain, without building a report.  On
    the inf check the dual route runs its own kernel, as in the report."""
    base_chain, base_order = _resolve_base(v, None)
    direct = _kernel(v, a, b, base_chain, lower, tol)
    if lower or a == 0:
        return direct.passed, direct.chain
    w, _, _, dual = _dual_route(v, a, b, base_order, tol)
    agree = all(row[-1] for row in _consistency(v, w, a, b, direct, dual, tol))
    return direct.passed and agree, direct.chain


def sample_core(
    v: SetFunction, a: int, count: int, seed: int
) -> list[AtomicMeasure]:
    """Chain measures of ``count`` seeded random maximal chains on ``a``.

    For submodular monotone grounded v each sample lies in the lower core
    of v on ``a``; the sample with B's points first attains v(B)."""
    v.ground.check_subset(a)
    rng = Random(seed)
    pts = list(members(a))
    out = []
    for _ in range(count):
        perm = pts[:]
        rng.shuffle(perm)
        out.append(chain_measure(v, chain_from_order(perm, a)))
    return out


def find_sup_counterexample(
    v: SetFunction,
    base: Chain | Sequence[int] | None = None,
    eps: float | None = None,
) -> tuple[int, int] | None:
    """First pair (A, B) whose sup-attainment construction fails, or None.

    If every pair passes, v must be submodular (the attained-supremum
    formula forces the submodular inequality), so for non-submodular
    monotone grounded input this always finds a witness pair.
    """
    tol = tolerance(v.exact, eps)
    base_chain, _ = _resolve_base(v, base)
    for a in v.ground.subsets():
        for sub in iter_submasks(a):
            if not _kernel(v, a, sub, base_chain, True, tol).passed:
                return a, sub
    return None

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

from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Mapping, Sequence

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
    by_point: dict[int, Scalar] = {}
    for prev, cur, added in chain.steps():
        by_point[added.bit_length() - 1] = values[cur] - values[prev]
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
    tbl: dict[int, Scalar],
    points: Sequence[int],
    weights: Sequence[Scalar],
    values: Sequence[Scalar],
    carrier: int,
    lower: bool,
    tol: Scalar,
) -> CoreCheck:
    """Core scan of the measure with subset values ``tbl`` and atoms
    ``weights`` at ``points`` against the set function values ``values``,
    on ``carrier``, slack by ``tol`` (0 in exact mode)."""
    negative = tuple(p for p, w in zip(points, weights) if w + tol < 0)
    # scalar_eq also rejects a float measure checked against an exact v
    mass_ok = scalar_eq(tbl[carrier], values[carrier], tol)
    if lower:
        violations = tuple(m for m, x in tbl.items() if x > values[m] + tol)
    else:
        violations = tuple(m for m, x in tbl.items() if x + tol < values[m])
    return CoreCheck(mass_ok, negative, violations, len(tbl))


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
    return _scan_core(mu.table(), mu.points, mu.weights, v.table, mu.carrier, lower, tol)


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


def _direct_route(
    v: SetFunction,
    a: int,
    b: int,
    base: Chain | Sequence[int] | None,
    lower: bool,
    tol: Scalar,
) -> tuple[VerificationReport, tuple[int, ...], Chain, CoreCheck]:
    """Telescope v along the insertion of B into A and check the
    construction: chain agreement, lower (or upper) core membership
    exhaustively over all subsets of A, and attainment at B.

    The checks run on v's scaled table (:meth:`SetFunction.scaled_table`),
    with ``tol`` as the slack (0 in exact mode); values go back to v's
    units, as Fractions, only in the witness and the claims.  Returns the
    construction-only report together with the base chain's point order,
    the inserted chain and the core scan.
    """
    v.ground.check_subset(a)
    if b & ~a:
        raise ValueError("b must lie within a")
    base_chain, base_order = _resolve_base(v, base)
    chain = insert_chain(base_chain, a, b)
    values, scale = v.scaled_table()
    unscale = (lambda x: Fraction(x, scale)) if v.exact else (lambda x: x)
    points = members(a)
    weights = _telescope(values, chain)
    tbl = dict(zip(subset_masks(points), subset_sums(weights)))
    check = _scan_core(tbl, points, weights, values, a, lower, tol)
    mu = AtomicMeasure(a, points, tuple(map(unscale, weights)))
    vt = v.table

    chain_bad = [s for s in chain.sets if abs(tbl[s] - values[s]) > tol]
    claims = [
        Claim("mu agrees with v on every chain member", "chain",
              (a, b), len(chain_bad), 0, not chain_bad)
    ]
    claims.extend(
        Claim("mu(I) = v(I)", "chain", (s,), unscale(tbl[s]), vt[s], False) for s in chain_bad
    )
    claims.append(Claim("mu(A) = v(A)", "core", (a,), unscale(tbl[a]), vt[a], check.mass_ok))
    claims.append(
        Claim("all weights nonnegative", "core", (a,),
              len(check.negative_points), 0, not check.negative_points)
    )
    claims.extend(
        Claim("weight >= 0", "core", (1 << p,), mu.weight(p), 0, False)
        for p in check.negative_points
    )
    rel = "<=" if lower else ">="
    claims.append(
        Claim(f"mu(E) {rel} v(E) for all E in A", "core", (a,),
              len(check.violations), 0, not check.violations)
    )
    claims.extend(
        Claim(f"mu(E) {rel} v(E)", "core", (m,), unscale(tbl[m]), vt[m], False)
        for m in check.violations
    )
    attained = abs(tbl[b] - values[b]) <= tol
    claims.append(Claim("mu(B) = v(B)", "attainment", (b,), unscale(tbl[b]), vt[b], attained))

    report = VerificationReport(
        kind="sup-attainment" if lower else "inf-attainment",
        context={
            "A": a,
            "B": b,
            "base_order": list(base_order),
            "chain": list(chain.sets),
            "core_violations": list(check.violations),
            "negative_points": list(check.negative_points),
        },
        witness=mu,
        claims=claims,
    )
    return report, base_order, chain, check


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


def _restricted_dual(v: SetFunction, a: int) -> tuple[SetFunction, tuple[int, ...], dict]:
    """The complement dual of v restricted to A, the map from local point
    index to point, and the map from each subset of A to its local mask;
    memoised on v per A, since they do not depend on B."""

    def compute() -> tuple[SetFunction, tuple[int, ...], dict]:
        restricted, pts = v.restrict(a)
        local = {m: i for i, m in enumerate(subset_masks(pts))}
        return dual_transform(restricted), pts, local

    return v._cached(("restricted dual", a), compute)


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
    report, base_order, chain, check = _direct_route(v, a, b, base, lower=False, tol=tol)
    report.claims[:0] = _precondition_claims(v, submodular=False, tol=tol)
    mu = report.witness
    assert mu is not None

    if a == 0:
        report.claims.append(
            Claim("dual route skipped (empty carrier)", "consistency", (0,), None, None, True)
        )
        return report

    # Dual route on the restriction of v to A.  Its base adds A's points in
    # the reverse of the base order: the complemented restriction of the base.
    w, pts, local = _restricted_dual(v, a)
    local_full = w.ground.full
    local_order = [pts.index(p) for p in reversed(base_order) if a >> p & 1]
    local_b = local_full ^ local[b]
    # The dual's preconditions are equivalent to v's (already claimed above),
    # so the inner run checks only the construction.
    dual_report, *_ = _direct_route(w, local_full, local_b, local_order, lower=True, tol=tol)
    report.dual = dual_report

    dual_mu = dual_report.witness
    assert dual_mu is not None
    weights_match = all(scalar_eq(x, y, tol) for x, y in zip(mu.weights, dual_mu.weights))
    chains_match = dual_report.context["chain"] == [
        local_full ^ local[s] for s in reversed(chain.sets)
    ]
    direct_viol = {local_full ^ local[m] for m in check.violations}
    dual_viol = set(dual_report.context["core_violations"])
    direct_attained = scalar_eq(mu(b), v.table[b], tol)
    dual_attained = scalar_eq(dual_mu(local_b), w.table[local_b], tol)

    report.claims.extend(
        [
            Claim("dual witness has identical weights", "consistency",
                  (a, b), None, None, weights_match),
            Claim("dual chain is the complemented chain", "consistency",
                  (a, b), None, None, chains_match),
            Claim("core violations correspond under complement", "consistency",
                  (a, b), len(dual_viol ^ direct_viol), 0, dual_viol == direct_viol),
            Claim("attainment agrees across routes", "consistency",
                  (b,), direct_attained, dual_attained, direct_attained == dual_attained),
            Claim("overall verdicts agree across routes", "consistency",
                  (a, b), None, None,
                  report.construction_passed == dual_report.construction_passed),
        ]
    )
    return report


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
    for a in v.ground.subsets():
        for sub in iter_submasks(a):
            if not verify_sup_representation(v, a, sub, base=base, eps=tol).construction_passed:
                return a, sub
    return None

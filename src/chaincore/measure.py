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
from functools import partial
from itertools import count
from random import Random
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .chains import Chain, chain_from_order, chain_generates, insert_chain, maximal_chain
from .scalar import Scalar, format_scalar, scalar_eq, scalar_ge, tolerance
from .setfun import SetFunction, members, subset_masks, subset_sums


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
    except (KeyError, IndexError):
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


_CoreScan = Callable[[Sequence[Scalar], Sequence[Scalar], Sequence[Scalar]],
                    tuple[bool, tuple[int, ...], tuple[int, ...]]]


def _core_scanner(lower: bool, tol: Scalar) -> _CoreScan:
    """The core scan, its compare chosen once for the arithmetic mode.

    ``scan(weights, sums, values)`` checks the measure with atoms
    ``weights`` (in local index order), whose value on each subset is
    ``sums`` in local-mask order, against the set function ``values`` in
    the same order (the carrier last), slack by ``tol``.  It returns
    mass_ok, the local indices of the negative atoms and the local masks
    of the violating subsets.  In exact mode (``tol`` is the int 0 of
    :func:`tolerance`) the compare is a plain ``operator.gt`` or ``lt``;
    float mode keeps the tolerant expressions.  One ``map`` compares the
    two lists, and the violations are listed only when there are some."""
    if isinstance(tol, float):
        violated = (lambda x, y: x > y + tol) if lower else (lambda x, y: x + tol < y)
        # scalar_eq also rejects a float measure checked against an exact v
        same = partial(scalar_eq, eps=tol)
    else:
        violated = operator.gt if lower else operator.lt
        same = operator.eq

    def scan(weights, sums, values):
        negative = tuple(i for i, w in enumerate(weights) if w + tol < 0)
        violations: tuple[int, ...] = ()
        if any(map(violated, sums, values)):
            violations = tuple(m for m, x, y in zip(count(), sums, values) if violated(x, y))
        return same(sums[-1], values[-1]), negative, violations

    return scan


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
    v.ground.check_subset(mu.carrier)
    scan = _core_scanner(lower, tolerance(mu.exact and v.exact, eps))
    masks = subset_masks(mu.points)
    sums = subset_sums(mu.weights)
    mass_ok, negative, violations = scan(mu.weights, sums, [v.table[m] for m in masks])
    return CoreCheck(mass_ok, tuple(mu.points[i] for i in negative),
                     tuple(masks[m] for m in violations), len(sums))


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


def _resolve_base(v: SetFunction, base: Chain | Sequence[int] | None) -> tuple[int, ...]:
    """The point order of the base chain, which must be maximal on v's
    ground set: given as that chain, as a permutation, or as None for the
    identity."""
    if base is None:
        return tuple(range(v.ground.n))
    if not isinstance(base, Chain):
        base = maximal_chain(v.ground, base)
    if base.carrier != v.ground.full or not base.is_maximal:
        raise ValueError("base chain must be maximal on the full ground set")
    return base.point_order()


def _precondition_claims(v: SetFunction, submodular: bool, tol: Scalar) -> list[Claim]:
    kind = "submodular" if submodular else "supermodular"
    structural = v.is_submodular(tol) if submodular else v.is_supermodular(tol)
    return [
        Claim("v(empty) = 0", "precondition", (0,), v.table[0], 0, v.is_grounded(tol)),
        Claim("v non-decreasing", "precondition", passed=v.is_monotone(tol)),
        Claim(f"v {kind}", "precondition", passed=structural),
    ]


class Verdict(NamedTuple):
    """The construction checks of one (A, B) pair in A's local coordinates
    (local index i is A's i-th point, ascending; a local mask picks local
    indices) and in the carrier's scaled units: what a sweep reads, and
    what a report is built from."""

    weights: list  # atoms at A's points, in local index order
    chain: tuple[int, ...]  # the insertion of B into A, as local masks
    sums: list  # mu on every subset of A, in local-mask order
    chain_bad: tuple[int, ...]  # local masks of the chain members where mu and v disagree
    mass_ok: bool
    negative_points: tuple[int, ...]  # local indices
    violations: tuple[int, ...]  # local masks of the subsets where the core inequality fails
    attained: bool

    @property
    def passed(self) -> bool:
        return (self.mass_ok and self.attained and not self.chain_bad
                and not self.negative_points and not self.violations)


class Carrier(NamedTuple):
    """A carrier set A in its local coordinates (local index i is A's i-th
    point, ascending; a local mask picks local indices), with a set
    function's values on every subset of A in scaled units: what the
    kernel checks and a report is built from."""

    points: tuple[int, ...]  # the reported point of each local index
    masks: list[int]  # the reported mask of each local mask
    values: list  # the scaled values in local-mask order, the carrier last
    scale: int  # the values are the set function's times this (1 in float mode)
    exact: bool


def _carrier(v: SetFunction, a: int) -> Carrier:
    """A's points, every subset of A in local-mask order (the global mask
    at the index of its local mask), and v's scaled values
    (:meth:`SetFunction.scaled_table`) in local-mask order; memoised on v
    per A, since they do not depend on B."""

    def compute() -> Carrier:
        values, scale = v.scaled_table()
        points = members(a)
        masks = subset_masks(points)
        return Carrier(points, masks, [values[m] for m in masks], scale, v.exact)

    return v._cached(("carrier", a), compute)


def _dual(
    c: Carrier, bs: Iterable[int], base_order: Sequence[int], tol: Scalar
) -> tuple[Carrier, list[int], Iterator[Verdict]]:
    """The dual route on the carrier A: the record of the complement dual
    of its values on A's local coordinates, ``w[E] = v[A] - v[A ^ E] +
    v[empty]`` in the same units (:func:`~chaincore.setfun.dual_transform`
    of v restricted to A, times the carrier's scale); its base order, the
    base order cut to A and reversed, as local indices; and the sup-mode
    kernel verdict on w of the complement of each B in ``bs``.  w's
    preconditions are equivalent to v's, so only the construction is run."""
    values, full = c.values, len(c.values) - 1
    w = Carrier(tuple(range(len(c.points))), list(range(full + 1)),
                [values[full] - values[full ^ m] + values[0] for m in range(full + 1)],
                c.scale, c.exact)
    order = _local_order(c.points, base_order)[::-1]
    return w, order, _kernel(w, (full ^ b for b in bs), order, True, tol)


def _local_order(points: Sequence[int], base_order: Sequence[int]) -> list[int]:
    """The base order cut to ``points``, as local indices."""
    index = {p: i for i, p in enumerate(points)}
    return [index[p] for p in base_order if p in index]


def _inserted_order(order: list[int], b: int) -> list[int]:
    """B's bits in base order, then the other bits of A in base order: the
    order in which the insertion of B into A adds A's points, which for a
    maximal base is :func:`insert_chain`."""
    return [bit for bit in order if bit & b] + [bit for bit in order if not bit & b]


def _kernel(
    c: Carrier, bs: Iterable[int], base_order: Sequence[int], lower: bool, tol: Scalar
) -> Iterator[Verdict]:
    """The verdict of each B in ``bs``, given as a local mask of A, in turn.

    For each B, telescope the carrier's values along the insertion of B
    into A and check the construction on them: chain agreement, lower (or
    upper) core membership exhaustively over all subsets of A, and
    attainment at B, with ``tol`` as the slack (0 in exact mode).  The
    base order cut to A and the core compare are set up once per call;
    everything runs in A's local coordinates, and no Fraction and no
    report is built."""
    points, vloc = c.points, c.values
    order = [1 << i for i in _local_order(points, base_order)]
    scan = _core_scanner(lower, tol)
    for b in bs:
        chain = [0]
        weights: list = [None] * len(points)
        prev = 0
        for bit in _inserted_order(order, b):
            cur = prev | bit
            chain.append(cur)
            weights[bit.bit_length() - 1] = vloc[cur] - vloc[prev]
            prev = cur
        sums = subset_sums(weights)
        mass_ok, negative, violations = scan(weights, sums, vloc)
        chain_bad = tuple(s for s in chain if abs(sums[s] - vloc[s]) > tol)
        attained = abs(sums[b] - vloc[b]) <= tol
        yield Verdict(weights, tuple(chain), sums, chain_bad, mass_ok, negative, violations,
                      attained)


def _report(
    c: Carrier, b: int, base_order: Sequence[int], verdict: Verdict, lower: bool
) -> VerificationReport:
    """The construction-only report of the pair (A, B), B a local mask of
    the carrier A, assembled from its verdict; masks go back to the
    carrier's reported masks, and values to the set function's units, as
    Fractions in exact mode, only here."""
    points, masks, values = c.points, c.masks, c.values
    unscale = (lambda x: Fraction(x, c.scale)) if c.exact else (lambda x: x)
    a, sums = masks[-1], verdict.sums

    def claim(name: str, category: str, local: int, passed: bool) -> Claim:
        """mu against v on the subset with local mask ``local``."""
        return Claim(name, category, (masks[local],), unscale(sums[local]),
                     unscale(values[local]), passed)

    mu = AtomicMeasure(a, points, tuple(map(unscale, verdict.weights)))
    claims = [
        Claim("mu agrees with v on every chain member", "chain",
              (a, masks[b]), len(verdict.chain_bad), 0, not verdict.chain_bad)
    ]
    claims.extend(claim("mu(I) = v(I)", "chain", s, False) for s in verdict.chain_bad)
    claims.append(claim("mu(A) = v(A)", "core", len(masks) - 1, verdict.mass_ok))
    negative = tuple(points[i] for i in verdict.negative_points)
    claims.append(
        Claim("all weights nonnegative", "core", (a,), len(negative), 0, not negative)
    )
    claims.extend(Claim("weight >= 0", "core", (1 << p,), mu.weight(p), 0, False) for p in negative)
    rel = "<=" if lower else ">="
    claims.append(
        Claim(f"mu(E) {rel} v(E) for all E in A", "core", (a,),
              len(verdict.violations), 0, not verdict.violations)
    )
    claims.extend(claim(f"mu(E) {rel} v(E)", "core", m, False) for m in verdict.violations)
    claims.append(claim("mu(B) = v(B)", "attainment", b, verdict.attained))

    return VerificationReport(
        kind="sup-attainment" if lower else "inf-attainment",
        context={
            "A": a,
            "B": masks[b],
            "base_order": list(base_order),
            "chain": [masks[s] for s in verdict.chain],
            "core_violations": [masks[m] for m in verdict.violations],
            "negative_points": list(negative),
        },
        witness=mu,
        claims=claims,
    )


class Agreement(NamedTuple):
    """The five consistency checks of a direct verdict on (A, B) against
    the dual verdict on the complement of B, each as pass/fail."""

    weights: bool  # the dual witness has identical weights
    chain: bool  # the dual chain is the complemented chain
    violations: bool  # the core violations correspond under complement
    attained: bool  # attainment agrees across routes
    verdicts: bool  # the overall verdicts agree across routes
    unmatched: int  # core violations with no complemented counterpart

    @property
    def passed(self) -> bool:
        return self.weights and self.chain and self.violations and self.attained and self.verdicts


def _agree(direct: Verdict, dual: Verdict, full: int, tol: Scalar) -> Agreement:
    """The comparison of a direct verdict with its dual verdict.  Both are
    in A's local coordinates, where a local mask corresponds to its
    complement in ``full``, and in the carrier's units, where the weights
    agree up to ``tol`` (0 in exact mode)."""
    # most pairs have no violations on either side: no sets to build
    unmatched = (len({full ^ m for m in direct.violations} ^ set(dual.violations))
                 if direct.violations or dual.violations else 0)
    return Agreement(all(abs(x - y) <= tol for x, y in zip(direct.weights, dual.weights)),
                     dual.chain == tuple([full ^ s for s in reversed(direct.chain)]),
                     not unmatched,
                     direct.attained == dual.attained,
                     direct.passed == dual.passed,
                     unmatched)


def _verify(
    v: SetFunction,
    a: int,
    b: int,
    base: Chain | Sequence[int] | None,
    eps: float | None,
    lower: bool,
) -> VerificationReport:
    """The report of :func:`verify_sup_representation` (``lower``) or
    :func:`verify_inf_representation`: v's preconditions, the kernel's
    verdict on (A, B) and, on the inf check, the dual route's verdict and
    the consistency claims comparing the two."""
    tol = tolerance(v.exact, eps)
    v.ground.check_subset(a)
    if b & ~a:
        raise ValueError("b must lie within a")
    base_order = _resolve_base(v, base)
    c = _carrier(v, a)
    local_b = c.masks.index(b)
    direct = next(_kernel(c, (local_b,), base_order, lower, tol))
    report = _report(c, local_b, base_order, direct, lower)
    report.claims[:0] = _precondition_claims(v, submodular=lower, tol=tol)
    if lower:
        return report
    if a == 0:
        report.claims.append(
            Claim("dual route skipped (empty carrier)", "consistency", (0,), None, None, True)
        )
        return report

    w, dual_order, duals = _dual(c, (local_b,), base_order, tol)
    dual, full = next(duals), len(c.masks) - 1
    report.dual = _report(w, full ^ local_b, dual_order, dual, lower=True)
    agreement = _agree(direct, dual, full, tol)
    report.claims += [
        Claim("dual witness has identical weights", "consistency", (a, b), None, None,
              agreement.weights),
        Claim("dual chain is the complemented chain", "consistency", (a, b), None, None,
              agreement.chain),
        Claim("core violations correspond under complement", "consistency", (a, b),
              agreement.unmatched, 0, agreement.violations),
        Claim("attainment agrees across routes", "consistency", (b,),
              direct.attained, dual.attained, agreement.attained),
        Claim("overall verdicts agree across routes", "consistency", (a, b), None, None,
              agreement.verdicts),
    ]
    return report


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
    return _verify(v, a, b, base, eps, lower=True)


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
    upper-core membership and attainment exhaustively.  Dual route: take
    the complement dual of v restricted to A (which is submodular) and
    check the sup construction on it, under the reversed base, for the
    complement of B.
    The two witnesses are the same measure and the reports must agree claim
    for claim under the complement correspondence; the agreement is itself
    recorded as consistency claims.
    """
    return _verify(v, a, b, base, eps, lower=False)


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
    base_chain = maximal_chain(v.ground, _resolve_base(v, base))
    return chain_generates(insert_chain(base_chain, a, b))


def preconditions_hold(v: SetFunction, submodular: bool, tol: Scalar) -> bool:
    """Whether every precondition claim of the sup (or inf) check holds."""
    return all(c.passed for c in _precondition_claims(v, submodular, tol))


def construction_verdicts(
    v: SetFunction,
    a: int,
    lower: bool,
    tol: Scalar,
    base: Chain | Sequence[int] | None = None,
) -> list[tuple[bool, tuple[int, ...]]]:
    """For every B inside A, at the index of B's local mask:
    ``construction_passed`` of :func:`verify_sup_representation`
    (``lower``) or :func:`verify_inf_representation` on (A, B) with the
    same base, and the inserted chain as local masks of A, without
    building a report.  One kernel call checks every B; on the inf check
    the dual route runs its own kernel once for the carrier, as in the
    report, and each B is compared with its complement's dual verdict."""
    base_order = _resolve_base(v, base)
    c = _carrier(v, a)
    bs = range(len(c.masks))
    direct = _kernel(c, bs, base_order, lower, tol)
    if lower or a == 0:
        return [(d.passed, d.chain) for d in direct]
    _, _, duals = _dual(c, bs, base_order, tol)
    return [(d.passed and _agree(d, e, bs[-1], tol).passed, d.chain)
            for d, e in zip(direct, duals)]


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
    base_order = _resolve_base(v, base)
    for a in v.ground.subsets():
        # descending local masks: the order of iter_submasks(a)
        c = _carrier(v, a)
        bs = range(len(c.masks) - 1, -1, -1)
        for b, verdict in zip(bs, _kernel(c, bs, base_order, True, tol)):
            if not verdict.passed:
                return a, c.masks[b]
    return None

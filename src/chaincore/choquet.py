"""Discrete Choquet integration against a capacity.

The integral of f against a set function v is the piecewise-constant
integral of z -> v({f > z}), anchored at any level below min f:

    v(f) = y1 * v(full) + sum_j (y_j - y_{j-1}) * v({f >= y_j})

over the distinct sorted values y1 < ... < ym of f.  The level sets of f
form a chain; telescoping v along (a maximal completion of) that chain
yields a measure that integrates f to exactly v(f), which for submodular
v is the attained supremum of the integral over the lower core.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chains import Chain
from .measure import (
    AtomicMeasure,
    Claim,
    VerificationReport,
    _precondition_claims,
    chain_measure,
    sample_core,
)
from .scalar import Scalar, is_finite, format_scalar, scalar_eq, scalar_le, tolerance
from .setfun import GroundSet, SetFunction


@dataclass(frozen=True)
class PointFunction:
    """A real value per ground-set point (a measurable function on a
    finite space)."""

    ground: GroundSet
    values: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.ground.n:
            raise ValueError(f"expected {self.ground.n} values, got {len(self.values)}")
        has_float = any(isinstance(x, float) for x in self.values)
        if has_float and any(isinstance(x, Fraction) for x in self.values):
            raise ValueError("values mix exact and float scalars")
        if not all(is_finite(x) for x in self.values):
            raise ValueError("values must be finite")

    @classmethod
    def indicator(cls, ground: GroundSet, mask: int, exact: bool = True) -> "PointFunction":
        ground.check_subset(mask)
        one: Scalar = Fraction(1) if exact else 1.0
        zero: Scalar = Fraction(0) if exact else 0.0
        return cls(ground, tuple(one if mask >> i & 1 else zero for i in range(ground.n)))

    def __call__(self, point: int) -> Scalar:
        return self.values[point]

    def level_set(self, z: Scalar) -> int:
        """The strict upper level set {f > z} as a bitmask."""
        mask = 0
        for i, x in enumerate(self.values):
            if x > z:
                mask |= 1 << i
        return mask

    def negate(self) -> "PointFunction":
        return PointFunction(self.ground, tuple(-x for x in self.values))

    def scale(self, c: Scalar) -> "PointFunction":
        return PointFunction(self.ground, tuple(c * x for x in self.values))

    def shift(self, c: Scalar) -> "PointFunction":
        return PointFunction(self.ground, tuple(x + c for x in self.values))

    def to_json(self) -> list:
        return [format_scalar(x) for x in self.values]


def choquet_integral(v: SetFunction, f: PointFunction) -> Scalar:
    """The asymmetric integral of f against v, computed in closed form.

    Anchoring below min f is exact here: any lower anchor gives the same
    value because {f > z} is the full set for every z below min f.
    """
    if f.ground.n != v.ground.n:
        raise ValueError("f and v live on different ground sets")
    levels = sorted(set(f.values))
    total: Scalar = levels[0] * v.table[v.ground.full]
    for prev, y in zip(levels, levels[1:]):
        # {f >= y} is {f > prev}: no value of f lies strictly between them
        total += (y - prev) * v.table[f.level_set(prev)]
    return total


def integrate(f: PointFunction, mu: AtomicMeasure) -> Scalar:
    """Integral of f against an atomic measure: sum of f * weight over the
    carrier points."""
    total: Scalar = 0
    for p, w in zip(mu.points, mu.weights):
        total += f.values[p] * w
    return total


def level_set_chain(f: PointFunction) -> Chain:
    """The distinct strict upper level sets of f, ordered by inclusion from
    the empty set to the full set; maximal exactly when f is injective."""
    levels = sorted(set(f.values), reverse=True)
    # {f >= y_k} is {f > y_(k+1)} below the lowest level, the full set at it
    sets = (0, *(f.level_set(z) for z in levels[1:]), f.ground.full)
    return Chain(f.ground.full, sets)


def brute_force_sup(v: SetFunction, f: PointFunction) -> tuple[Scalar, list[tuple[int, ...]]]:
    """Maximum of the integral of f over the chain measures of all n!
    maximal chains, with the attaining point orders.  Exponential; a test
    oracle for small n."""
    from itertools import permutations

    from .chains import maximal_chain

    best: Scalar | None = None
    argmax: list[tuple[int, ...]] = []
    for perm in permutations(range(v.ground.n)):
        mu = chain_measure(v, maximal_chain(v.ground, perm))
        val = integrate(f, mu)
        if best is None or val > best:
            best, argmax = val, [perm]
        elif val == best:
            argmax.append(perm)
    assert best is not None
    return best, argmax


def verify_choquet_sup(
    v: SetFunction,
    f: PointFunction,
    samples: int = 32,
    seed: int = 0,
    eps: float | None = None,
) -> VerificationReport:
    """Check that the level-set-chain measure attains the Choquet integral.

    Builds the level-set chain of f, completes it to a maximal chain when f
    has ties (refining each tie group in ascending point index), telescopes
    v along it, and claims: the measure agrees with v on every level set;
    its integral of f equals the closed-form Choquet integral; and every
    sampled core measure is dominated, integrating f to at most v(f).
    ``samples`` must be at least 1, so the domination claim is never vacuous.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    tol = tolerance(v.exact and not any(isinstance(x, float) for x in f.values), eps)
    levels = level_set_chain(f)
    completed = levels.refined()
    mu = chain_measure(v, completed)
    vf = choquet_integral(v, f)

    claims = _precondition_claims(v, submodular=True, tol=tol)

    level_bad = [s for s in levels.sets if not scalar_eq(mu(s), v.table[s], tol)]
    claims.append(
        Claim("mu agrees with v on every level set", "chain",
              tuple(levels.sets), len(level_bad), 0, not level_bad)
    )
    claims.extend(
        Claim("mu(L) = v(L)", "chain", (s,), mu(s), v.table[s], False) for s in level_bad
    )

    attained = integrate(f, mu)
    claims.append(
        Claim("integral of f against mu equals v(f)", "attainment",
              (), attained, vf, scalar_eq(attained, vf, tol))
    )

    dominated_bad: list[tuple[int, Scalar]] = []
    for idx, sample in enumerate(sample_core(v, v.ground.full, samples, seed)):
        val = integrate(f, sample)
        if not scalar_le(val, vf, tol):
            dominated_bad.append((idx, val))
    claims.append(
        Claim("sampled core measures are dominated by v(f)", "core",
              (), len(dominated_bad), 0, not dominated_bad)
    )
    claims.extend(
        Claim(f"integral against core sample {idx} <= v(f)", "core", (), val, vf, False)
        for idx, val in dominated_bad
    )

    return VerificationReport(
        kind="choquet-attainment",
        context={
            "f": f.to_json(),
            "choquet_integral": format_scalar(vf),
            "level_chain": list(levels.sets),
            "completed_chain": list(completed.sets),
            "samples": samples,
            "seed": seed,
        },
        witness=mu,
        claims=claims,
    )

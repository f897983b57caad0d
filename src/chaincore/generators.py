"""Instance generators: structured capacities for tests and the CLI.

Distortions of probability weights (concave distortions give submodular
capacities, convex ones supermodular), coverage capacities, the ordered
two-block chain construction with its telescoped measure, prefix-chain
discretizations of distorted length on the unit interval, and seeded
random submodular / non-submodular instances.  Structure claims such as
"concave distortion implies submodular" are asserted through the
predicates, never assumed: the random generators self-check and resample,
and the deterministic ones leave the predicates to the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

from .chains import Chain, chain_from_order
from .measure import AtomicMeasure, chain_measure
from .scalar import Scalar, parse_scalar, scalar_eq, scalar_ge
from .setfun import GroundSet, SetFunction, members, subset_sums, subset_unions


class GeneratorError(ValueError):
    """Invalid generator parameters, or a generator self-check failure."""


@dataclass(frozen=True)
class PolynomialDistortion:
    """g(x) = sum c_k x**k with g(0) = 0, g(1) = 1, non-decreasing on [0, 1].

    Monotonicity is checked numerically on a uniform grid, not assumed.
    """

    coeffs: tuple[Fraction, ...]

    GRID = 64

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(Fraction(c) for c in self.coeffs))
        _check_distortion(self)

    def __call__(self, x: Scalar) -> Scalar:
        total: Scalar = 0
        power: Scalar = 1 if isinstance(x, float) else Fraction(1)
        for c in self.coeffs:
            total += c * power
            power = power * x
        return total

    def grid(self) -> list[Fraction]:
        return [Fraction(k, self.GRID) for k in range(self.GRID + 1)]


@dataclass(frozen=True)
class PiecewiseLinearDistortion:
    """Piecewise-linear g through knots (x, y), same constraints as above;
    monotonicity (and any convexity claim) is read off the knots."""

    knots: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        knots = tuple((Fraction(x), Fraction(y)) for x, y in self.knots)
        object.__setattr__(self, "knots", knots)
        if len(knots) < 2 or knots[0][0] != 0 or knots[-1][0] != 1:
            raise GeneratorError("knots must run from x=0 to x=1")
        if any(b[0] <= a[0] for a, b in zip(knots, knots[1:])):
            raise GeneratorError("knot x-coordinates must strictly increase")
        _check_distortion(self)

    def __call__(self, x: Scalar) -> Scalar:
        knots = self.knots
        if x <= 0:
            return knots[0][1] * (1.0 if isinstance(x, float) else 1)
        for (x0, y0), (x1, y1) in zip(knots, knots[1:]):
            if x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return knots[-1][1] * (1.0 if isinstance(x, float) else 1)

    def grid(self) -> list[Fraction]:
        return [x for x, _ in self.knots]


def _check_distortion(g) -> None:
    if g(Fraction(0)) != 0 or g(Fraction(1)) != 1:
        raise GeneratorError("distortion must satisfy g(0)=0 and g(1)=1")
    values = [g(x) for x in g.grid()]
    if any(b < a for a, b in zip(values, values[1:])):
        raise GeneratorError("distortion must be non-decreasing on its grid")


def _slopes(g) -> list:
    """Slopes of g between consecutive points of its own grid."""
    pts = g.grid()
    return [(g(b) - g(a)) / (b - a) for a, b in zip(pts, pts[1:])]


def concave_on_grid(g) -> bool:
    """Second differences nonpositive on the distortion's own grid."""
    slopes = _slopes(g)
    return all(t <= s for s, t in zip(slopes, slopes[1:]))


def convex_on_grid(g) -> bool:
    slopes = _slopes(g)
    return all(t >= s for s, t in zip(slopes, slopes[1:]))


def distortion_from_spec(obj: dict) -> PolynomialDistortion | PiecewiseLinearDistortion:
    kind = obj.get("kind")
    if kind == "poly":
        return PolynomialDistortion(tuple(parse_scalar(c) for c in obj["coeffs"]))
    if kind == "pwl":
        return PiecewiseLinearDistortion(
            tuple((parse_scalar(x), parse_scalar(y)) for x, y in obj["knots"])
        )
    raise GeneratorError(f"unknown distortion kind {kind!r}")


def distortion_capacity(
    g,
    p: Sequence[Scalar],
    labels: Sequence[str] | None = None,
) -> SetFunction:
    """v(S) = g(sum of p over S) for probability weights p.

    Concave g yields a submodular capacity and convex g a supermodular one;
    callers assert that through the predicates rather than trusting it.
    g is called once per distinct value of p(S).
    """
    weights = list(p)
    if any(not scalar_ge(w, 0) for w in weights):
        raise GeneratorError("probability weights must be nonnegative")
    total = sum(weights, 0)
    if not scalar_eq(total, 1):
        raise GeneratorError(f"probability weights must sum to 1, got {total}")
    ground = GroundSet(len(weights), labels)
    sums = subset_sums(weights)
    g_of = {x: g(x) for x in set(sums)}
    if any(isinstance(w, float) for w in weights):
        # g keeps exact coefficients, so empty-sum evaluations come back
        # rational; float-mode weights make the whole table float.
        g_of = {x: float(y) for x, y in g_of.items()}
    return SetFunction(ground, tuple(map(g_of.__getitem__, sums)))


def coverage_capacity(
    covers: Sequence[int],
    item_weights: Sequence[Scalar],
    labels: Sequence[str] | None = None,
) -> SetFunction:
    """v(S) = total weight of the items covered by the points of S.

    ``covers[i]`` is a bitmask over the item space; item weights must be
    nonnegative.  Always grounded, monotone and submodular.  The weight of
    the covered items is summed once per distinct covered mask.
    """
    if any(not scalar_ge(w, 0) for w in item_weights):
        raise GeneratorError("item weights must be nonnegative")
    limit = 1 << len(item_weights)
    if any(not 0 <= c < limit for c in covers):
        raise GeneratorError("cover bitmask outside the item space")
    ground = GroundSet(len(covers), labels)
    covered = subset_unions(covers)
    weight_of = {c: sum((item_weights[k] for k in members(c)), 0) for c in set(covered)}
    return SetFunction(ground, tuple(map(weight_of.__getitem__, covered)))


def shapley_example(
    b: Sequence[int], c: Sequence[int], v: SetFunction
) -> tuple[Chain, AtomicMeasure]:
    """The two-block chain through the points of b then the points of c,
    with its telescoped measure.

    The measure's atoms reproduce the marginal increments of v along the
    blocks: for the i-th point of b the increment over the previous b's,
    and for the j-th point of c the increment over b's union with the
    previous c's.  A mismatch would be a construction bug and raises.
    """
    b, c = tuple(b), tuple(c)
    if set(b) & set(c):
        raise GeneratorError("b and c must be disjoint")
    chain = chain_from_order(b + c)
    v.ground.check_subset(chain.carrier)
    mu = chain_measure(v, chain)

    prefix = 0
    for point in b + c:
        expected = v.table[prefix | 1 << point] - v.table[prefix]
        if mu.weight(point) != expected:
            raise GeneratorError(f"marginal increment mismatch at point {point}")
        prefix |= 1 << point
    return chain, mu


def interval_discretization(cells: int, g) -> tuple[SetFunction, Chain]:
    """Grid capacity on [0, 1): cells of equal length, v(S) = g(length of S),
    plus the left-to-right prefix chain (the discrete sublevel family).
    g is called once per cell count."""
    if not 1 <= cells <= 24:
        raise GeneratorError("cells must be in 1..24")
    labels = tuple(f"{k}/{cells}" for k in range(cells))
    ground = GroundSet(cells, labels)
    by_count = [g(Fraction(k, cells)) for k in range(cells + 1)]
    table = tuple(by_count[m.bit_count()] for m in ground.subsets())
    chain = chain_from_order(range(cells), ground.full)
    return SetFunction(ground, table), chain


# -- seeded random instances ---------------------------------------------------


def _random_probability(rng: Random, n: int) -> list[Fraction]:
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return [Fraction(r, total) for r in raw]


def _random_concave_distortion(rng: Random) -> PiecewiseLinearDistortion:
    segments = rng.randint(1, 4)
    slopes = sorted((rng.randint(1, 12) for _ in range(segments)), reverse=True)
    rise = sum(slopes)
    knots = [(Fraction(0), Fraction(0))]
    acc = 0
    for k, s in enumerate(slopes, start=1):
        acc += s
        knots.append((Fraction(k, segments), Fraction(acc, rise)))
    return PiecewiseLinearDistortion(tuple(knots))


def _random_coverage(rng: Random, n: int) -> SetFunction:
    items = n + rng.randint(1, 3)
    covers = [rng.randrange(1, 1 << items) for _ in range(n)]
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(items)]
    return coverage_capacity(covers, weights)


def random_submodular(n: int, seed: int) -> SetFunction:
    """Seeded monotone grounded submodular instance; the output is verified
    by the predicates and resampled on failure, so it always passes."""
    if not 1 <= n <= 12:
        raise GeneratorError("random instances support n in 1..12")
    rng = Random(seed)
    for _ in range(64):
        if rng.random() < 0.5:
            v = distortion_capacity(_random_concave_distortion(rng), _random_probability(rng, n))
        else:
            v = _random_coverage(rng, n)
        if v.is_grounded() and v.is_monotone() and v.is_submodular():
            return v
    raise GeneratorError("random submodular generator failed its self-check")


def random_supermodular(n: int, seed: int) -> SetFunction:
    """Complement dual of a random submodular instance."""
    return random_submodular(n, seed).dual()


def random_monotone_nonsubmodular(n: int, seed: int) -> SetFunction:
    """Seeded monotone grounded instance that fails submodularity.

    Built by accumulating random nonnegative increments over the subset
    lattice (monotone by construction) and resampling the rare draws that
    happen to be submodular.
    """
    if n < 2:
        raise GeneratorError("need at least 2 points to break submodularity")
    rng = Random(seed)
    size = 1 << n
    for _ in range(256):
        table: list[Fraction] = [Fraction(0)] * size
        for mask in range(1, size):
            floor = max(table[mask & ~(1 << i)] for i in members(mask))
            table[mask] = floor + Fraction(rng.randint(0, 6), 3)
        v = SetFunction(GroundSet(n), tuple(table))
        if not v.is_submodular():
            return v
    raise GeneratorError("failed to sample a non-submodular instance")


def set_function_from_spec(obj: dict, exact: bool = True) -> SetFunction:
    """Build a capacity from a generator spec in the instance JSON format."""
    name = obj.get("generator")
    labels = obj.get("labels")
    if name == "distortion":
        g = distortion_from_spec(obj["g"])
        p = [parse_scalar(x, exact) for x in obj["p"]]
        return distortion_capacity(g, p, labels)
    if name == "coverage":
        covers = [int(c) for c in obj["covers"]]
        weights = [parse_scalar(x, exact) for x in obj["weights"]]
        return coverage_capacity(covers, weights, labels)
    if name == "interval":
        v, _ = interval_discretization(int(obj["cells"]), distortion_from_spec(obj["g"]))
        return v
    raise GeneratorError(f"unknown generator {obj.get('generator')!r}")

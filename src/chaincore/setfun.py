"""Finite ground sets, bitmask subsets, and set functions.

A subset of an n-point ground set is a plain int used as a characteristic
bit-vector: bit i set means point i belongs to the subset.  A set function
is a dense table of 2**n scalars indexed by bitmask, which keeps every
structural predicate an explicit finite enumeration.

The monotone-sequence continuity axioms are vacuous on a finite lattice:
every increasing or decreasing sequence of subsets is eventually constant,
so no operation here represents them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .scalar import (
    Scalar,
    is_finite,
    parse_scalar,
    format_scalar,
    scalar_eq,
    tolerance,
)

#: Hard cap on ground-set size; dense tables are 2**n entries.
MAX_POINTS = 24


def members(mask: int) -> tuple[int, ...]:
    """Points of a subset, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def iter_submasks(mask: int) -> Iterator[int]:
    """All submasks of ``mask``, including 0 and ``mask`` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def subset_unions(masks: Sequence[int]) -> list[int]:
    """The union of every subset of ``masks`` at the index of its local mask
    (bit j picks ``masks[j]``), built by doubling: one ``|`` per subset."""
    unions = [0]
    for m in masks:
        unions += [u | m for u in unions]
    return unions


def subset_masks(points: Sequence[int]) -> list[int]:
    """Every subset of ``points`` at the index of its local mask (bit j picks ``points[j]``)."""
    return subset_unions([1 << p for p in points])


def subset_sums(weights: Sequence[Scalar]) -> list[Scalar]:
    """The sum of every subset of ``weights`` at the index of its local mask,
    one ``+`` per subset, adding from 0 in ascending position order (so
    float sums round the same way wherever they are built)."""
    sums: list[Scalar] = [0]
    for w in weights:
        sums += [x + w for x in sums]
    return sums


@dataclass(frozen=True)
class GroundSet:
    """A finite universe of ``n`` points with optional display labels."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_POINTS:
            raise ValueError(f"ground set size must be in [1, {MAX_POINTS}], got {self.n}")
        if self.labels is not None:
            if not isinstance(self.labels, (list, tuple)) or not all(
                    isinstance(x, str) for x in self.labels):
                raise ValueError(f"labels must be a list of strings, got {self.labels!r}")
            labels = tuple(self.labels)
            object.__setattr__(self, "labels", labels)
            if len(labels) != self.n:
                raise ValueError(f"expected {self.n} labels, got {len(labels)}")
            if len(set(labels)) != self.n:
                raise ValueError("labels must be unique")

    @classmethod
    def from_json_dict(cls, obj: dict) -> "GroundSet":
        """Read ``{"n": int, "labels"?: [str, ...]}``; ``n`` must be a JSON
        integer, so a bool, a number string or a decimal is rejected, not
        read as a number of points."""
        n = obj["n"]
        if type(n) is not int:
            raise ValueError(f"ground set size must be an integer, got {n!r}")
        return cls(n, obj.get("labels"))

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def subsets(self) -> range:
        return range(1 << self.n)

    def check_subset(self, mask: int) -> int:
        if not 0 <= mask <= self.full:
            raise ValueError(f"subset bitmask {mask} outside ground set of {self.n} points")
        return mask

    def label(self, point: int) -> str:
        if self.labels is not None:
            return self.labels[point]
        return str(point)

    def format_subset(self, mask: int) -> str:
        self.check_subset(mask)
        return "{" + ",".join(self.label(i) for i in members(mask)) + "}"

    def parse_subset(self, spec: object) -> int:
        """Read a subset given as a bitmask int, a digits-only bitmask string,
        a comma-separated list of labels/indices, or a sequence of them."""
        if isinstance(spec, bool):
            raise ValueError(f"not a subset: {spec!r}")
        if isinstance(spec, int):
            return self.check_subset(spec)
        if isinstance(spec, str):
            text = spec.strip()
            if text in ("", "{}"):
                return 0
            if text.isdigit():
                return self.check_subset(int(text))
            tokens = [t.strip() for t in text.strip("{}").split(",") if t.strip()]
            return self._mask_from_tokens(tokens)
        if isinstance(spec, Sequence):
            return self._mask_from_tokens(list(spec))
        raise ValueError(f"not a subset: {spec!r}")

    def _mask_from_tokens(self, tokens: Iterable[object]) -> int:
        mask = 0
        for tok in tokens:
            if isinstance(tok, int) and not isinstance(tok, bool):
                idx = tok
            elif isinstance(tok, str) and self.labels is not None and tok in self.labels:
                idx = self.labels.index(tok)
            elif isinstance(tok, str) and tok.isdigit():
                idx = int(tok)
            else:
                raise ValueError(f"unknown point {tok!r}")
            if not 0 <= idx < self.n:
                raise ValueError(f"point index {idx} outside ground set of {self.n} points")
            mask |= 1 << idx
        return mask


@dataclass(frozen=True)
class SetFunction:
    """A total map from subsets of a ground set to scalars."""

    ground: GroundSet
    table: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", tuple(self.table))
        size = 1 << self.ground.n
        if len(self.table) != size:
            raise ValueError(f"table must have {size} entries, got {len(self.table)}")
        has_float = any(isinstance(x, float) for x in self.table)
        has_exact = any(isinstance(x, Fraction) for x in self.table)
        if has_float and has_exact:
            raise ValueError("table mixes exact and float scalars")
        for mask, x in enumerate(self.table):
            if not is_finite(x):
                raise ValueError(f"non-finite value at bitmask {mask}")
        # The table is immutable, so its mode and predicate results are
        # computed once; predicates are keyed by the tolerance in effect.
        object.__setattr__(self, "_exact", not has_float)
        object.__setattr__(self, "_memo", {})

    @property
    def exact(self) -> bool:
        return self._exact  # type: ignore[attr-defined]

    def __call__(self, mask: int) -> Scalar:
        self.ground.check_subset(mask)
        return self.table[mask]

    @classmethod
    def from_callable(
        cls,
        ground: GroundSet,
        fn: Callable[[int], object],
        exact: bool = True,
    ) -> "SetFunction":
        return cls(ground, tuple(parse_scalar(fn(m), exact) for m in ground.subsets()))

    @classmethod
    def from_json_dict(cls, obj: dict, exact: bool = True) -> "SetFunction":
        """Build from ``{"n": int, "labels"?: [...], "values": {subset: scalar}}``.

        Every one of the 2**n subsets must be present.
        """
        ground = GroundSet.from_json_dict(obj)
        raw = obj.get("values")
        if not isinstance(raw, dict):
            raise ValueError('instance is missing a "values" table')
        table: list[Scalar | None] = [None] * (1 << ground.n)
        for key, value in raw.items():
            mask = ground.parse_subset(key)
            if table[mask] is not None:
                raise ValueError(f"duplicate value for subset bitmask {mask}")
            table[mask] = parse_scalar(value, exact)
        for mask, entry in enumerate(table):
            if entry is None:
                raise ValueError(f"missing value for subset bitmask {mask}")
        return cls(ground, tuple(table))  # type: ignore[arg-type]

    def to_json_dict(self) -> dict:
        values = {str(mask): format_scalar(x) for mask, x in enumerate(self.table)}
        out: dict = {"n": self.ground.n, "values": values}
        if self.ground.labels is not None:
            out["labels"] = list(self.ground.labels)
        return out

    def normalized(self) -> "SetFunction":
        """Grounded version: subtract the value at the empty set everywhere."""
        base = self.table[0]
        return SetFunction(self.ground, tuple(x - base for x in self.table))

    # -- per-instance memo and the scaled view -------------------------------

    def _cached(self, key: tuple, compute: Callable[[], object]):
        """Value of ``compute()`` memoised on this instance under ``key``.

        The table is immutable, so anything that depends on it alone (and
        on ``key``) is computed once and dropped together with the instance.
        """
        memo = self._memo  # type: ignore[attr-defined]
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def scaled_table(self) -> tuple[tuple[Scalar, ...], int]:
        """The table times a positive scale ``L``, and ``L``.

        An exact table becomes Python ints, with ``L`` the lcm of its
        denominators.  Every predicate and claim chaincore checks is a
        linear equality or inequality in v, so it holds for ``L * v``
        exactly when it holds for v; checks run on these ints, and a value
        is divided by ``L`` only where it is reported.  A float table is
        returned as it is, with ``L = 1``.
        """
        return self._cached(("scaled",), self._scale)

    def _scale(self) -> tuple[tuple[Scalar, ...], int]:
        if not self.exact:
            return self.table, 1
        scale = math.lcm(*(x.denominator for x in self.table))
        return tuple(x.numerator * (scale // x.denominator) for x in self.table), scale

    # -- structural predicates ------------------------------------------------

    def _memoized(
        self, key: tuple, eps: float | None, compute: Callable[[Scalar], bool]
    ) -> bool:
        """Memoised predicate, computed on the scaled table with tolerance 0
        in exact mode (which never reads the tolerance) and the resolved eps
        in float mode, and keyed by that tolerance (so a changed
        CHAINCORE_EPS is recomputed, never answered from the memo)."""
        tol = tolerance(self.exact, eps)
        return self._cached((key, tol), lambda: compute(tol))

    def is_grounded(self, eps: float | None = None) -> bool:
        return scalar_eq(self.table[0], 0, eps)

    def is_monotone(self, eps: float | None = None) -> bool:
        """Non-decreasing along single-point insertions (sufficient by
        transitivity on the finite subset lattice)."""
        return self._memoized(("monotone",), eps, self._monotone)

    def _monotone(self, tol: Scalar) -> bool:
        values, _ = self.scaled_table()
        full = self.ground.full
        for mask, x in enumerate(values):
            rest = full & ~mask
            while rest:
                bit = rest & -rest
                if not x <= values[mask | bit] + tol:
                    return False
                rest ^= bit
        return True

    def is_submodular(self, eps: float | None = None, exhaustive: bool = False) -> bool:
        """v(A) + v(B) >= v(A|B) + v(A&B) for all pairs.

        The default checks the equivalent pairwise-increment form over
        (S, i, j); ``exhaustive=True`` scans all 4**n ordered pairs.
        """
        return self._memoized(("submodular", exhaustive), eps,
                              lambda tol: self._modularity(False, tol, exhaustive))

    def is_supermodular(self, eps: float | None = None, exhaustive: bool = False) -> bool:
        """Mirror of :meth:`is_submodular` with the inequality reversed."""
        return self._memoized(("supermodular", exhaustive), eps,
                              lambda tol: self._modularity(True, tol, exhaustive))

    def _modularity(self, lower: bool, tol: Scalar, exhaustive: bool) -> bool:
        """v(X) + v(Y) against v(X|Y) + v(X&Y): at most it (``lower``,
        supermodular) or at least it (submodular), up to ``tol``."""
        values, _ = self.scaled_table()
        quads = self._pairs(exhaustive)
        if lower:
            return all(values[x] + values[y] <= values[u] + values[m] + tol
                       for x, y, u, m in quads)
        return all(values[x] + values[y] + tol >= values[u] + values[m]
                   for x, y, u, m in quads)

    def _pairs(self, exhaustive: bool) -> Iterator[tuple[int, int, int, int]]:
        """(X, Y, X|Y, X&Y) over all ordered pairs, or over the pairwise
        increments (S+i, S+j, S+i+j, S) with i < j outside S."""
        if exhaustive:
            for a in self.ground.subsets():
                for b in self.ground.subsets():
                    yield a, b, a | b, a & b
            return
        full = self.ground.full
        for mask in self.ground.subsets():
            outside = [1 << i for i in members(full & ~mask)]
            for x, i in enumerate(outside):
                for j in outside[x + 1 :]:
                    yield mask | i, mask | j, mask | i | j, mask

    def is_additive(self, eps: float | None = None) -> bool:
        """Modular: both submodular and supermodular (equality throughout)."""
        return self.is_submodular(eps) and self.is_supermodular(eps)

    # -- transforms -----------------------------------------------------------

    def dual(self) -> "SetFunction":
        return dual_transform(self)

    def restrict(self, carrier: int) -> tuple["SetFunction", tuple[int, ...]]:
        """Restriction to a nonempty carrier as a set function on its own
        ground set.  Returns the restricted function and the tuple mapping
        local point index to original point."""
        self.ground.check_subset(carrier)
        pts = members(carrier)
        if not pts:
            raise ValueError("cannot restrict to the empty carrier")
        labels = None
        if self.ground.labels is not None:
            labels = tuple(self.ground.labels[p] for p in pts)
        sub_ground = GroundSet(len(pts), labels)
        table = tuple(self.table[m] for m in subset_masks(pts))
        return SetFunction(sub_ground, table), pts


def dual_transform(v: SetFunction) -> SetFunction:
    """Complement dual: w(A) = v(full) - v(full minus A) + v(empty).

    An involution that swaps submodularity and supermodularity while
    preserving monotonicity and the values at the empty and full sets.
    """
    full = v.ground.full
    top, bottom = v.table[full], v.table[0]
    return SetFunction(v.ground, tuple(top - v.table[full ^ m] + bottom for m in v.ground.subsets()))

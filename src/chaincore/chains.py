"""Totally ordered families of subsets (chains) over a carrier set.

A chain runs from the empty set up to its carrier, strictly increasing
under inclusion.  A maximal chain adds one point per step; on a finite
carrier that is exactly the condition under which the chain's sets
generate the full power set of the carrier, which is what makes the
telescoped measure of a set function along the chain well defined per
point.

Includes the insertion construction (force a subset B to be a member of
a chain on A) and the generated-algebra closure used as an oracle for the
maximality shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .setfun import GroundSet, members


def one_point_steps(sets: Sequence[int]) -> bool:
    """Whether each step of an increasing sequence of sets adds exactly one
    point: for a chain, maximality."""
    return all((cur ^ prev).bit_count() == 1 for prev, cur in zip(sets, sets[1:]))


@dataclass(frozen=True)
class Chain:
    """Strictly increasing subsets from the empty set to ``carrier``."""

    carrier: int
    sets: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(self.sets))
        if not self.sets or self.sets[0] != 0 or self.sets[-1] != self.carrier:
            raise ValueError("chain must run from the empty set to its carrier")
        prev = self.sets[0]
        for cur in self.sets[1:]:
            if cur & ~self.carrier:
                raise ValueError(f"chain member {cur} is not within carrier {self.carrier}")
            if prev & ~cur or prev == cur:
                raise ValueError("chain members must strictly increase under inclusion")
            prev = cur

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sets)

    def __contains__(self, mask: int) -> bool:
        return mask in self.sets

    @property
    def is_maximal(self) -> bool:
        """Every step adds exactly one point."""
        return one_point_steps(self.sets)

    def steps(self) -> Iterator[tuple[int, int, int]]:
        """Consecutive (previous, current, added) triples."""
        for prev, cur in zip(self.sets, self.sets[1:]):
            yield prev, cur, cur ^ prev

    def point_order(self) -> tuple[int, ...]:
        """Points in the order the chain adds them (maximal chains only)."""
        if not self.is_maximal:
            raise ValueError("point order is defined only for maximal chains")
        return tuple((cur ^ prev).bit_length() - 1 for prev, cur, _ in self.steps())

    def restrict(self, carrier: int) -> "Chain":
        """Intersect every member with ``carrier`` and deduplicate."""
        if carrier & ~self.carrier:
            raise ValueError("restriction carrier must lie within the chain carrier")
        seen: list[int] = []
        for s in self.sets:
            cut = s & carrier
            if not seen or cut != seen[-1]:
                seen.append(cut)
        return Chain(carrier, tuple(seen))

    def refined(self) -> "Chain":
        """Maximal completion: multi-point steps are split one point at a
        time in ascending point index."""
        out = [0]
        for _, cur, added in self.steps():
            acc = out[-1]
            for p in members(added):
                acc |= 1 << p
                out.append(acc)
            assert acc == cur
        return Chain(self.carrier, tuple(out))


def chain_from_order(order: Sequence[int], carrier: int | None = None) -> Chain:
    """Cumulative chain adding the given points one at a time."""
    mask = 0
    sets = [0]
    for p in order:
        if mask >> p & 1:
            raise ValueError(f"duplicate point {p} in order")
        mask |= 1 << p
        sets.append(mask)
    if carrier is None:
        carrier = mask
    elif carrier != mask:
        raise ValueError("order does not enumerate the carrier")
    return Chain(carrier, tuple(sets))


def maximal_chain(ground: GroundSet, order: Sequence[int]) -> Chain:
    """The maximal chain on the whole ground set following a permutation."""
    order = tuple(order)
    if sorted(order) != list(range(ground.n)):
        raise ValueError(f"order {order} is not a permutation of {ground.n} points")
    return chain_from_order(order, ground.full)


def insert_chain(base: Chain, a: int, b: int) -> Chain:
    """Chain on carrier ``a`` containing ``b`` as a member.

    The union of the chains ``b & r`` (up to ``b``) and ``b | r`` (up from
    ``b``) over the base chain's members ``r`` cut to ``a``, listed in one
    walk.  Always contains the empty set, ``b`` and ``a``; it is maximal
    in ``a`` whenever the base chain is maximal.
    """
    if a & ~base.carrier:
        raise ValueError("a must lie within the base chain carrier")
    if b & ~a:
        raise ValueError("b must lie within a")
    lower, upper = [0], [b]
    for s in base.sets:
        r = s & a
        if r & b != lower[-1]:
            lower.append(r & b)
        if r | b != upper[-1]:
            upper.append(r | b)
    return Chain(a, tuple(lower + upper[1:]))


def generated_algebra(sets: Iterable[int], carrier: int) -> frozenset[int]:
    """Closure of a family under complement-within-carrier and union.

    The oracle behind :func:`chain_generates`; exponential in the carrier
    size, intended for small carriers.
    """
    family = {s & carrier for s in sets}
    family.update((0, carrier))
    while True:
        fresh = {carrier ^ s for s in family} - family
        for s in family:
            for t in family:
                u = s | t
                if u not in family:
                    fresh.add(u)
        if not fresh:
            return frozenset(family)
        family.update(fresh)


def chain_generates(chain: Chain, method: str = "maximal") -> bool:
    """Whether the chain's sets generate the full power set of the carrier.

    ``method="maximal"`` is the O(length) shortcut (on a finite carrier,
    generation is equivalent to the chain being maximal); ``"closure"``
    computes the generated algebra outright.
    """
    if method == "maximal":
        return chain.is_maximal
    if method == "closure":
        return len(generated_algebra(chain.sets, chain.carrier)) == 1 << chain.carrier.bit_count()
    raise ValueError(f"unknown method {method!r}")

"""Encoding a countable generating family as one totally ordered class.

Membership of a point in the k-th family member becomes the k-th ternary
digit of an embedding function f = sum_k 3**-k * indicator(J_k); because
every digit is 0 or 1, each member can be recovered from f alone by a
union of half-open value intervals, and the sublevel sets of f form a
chain generating the same algebra as the family.  All arithmetic here is
exact rational by construction: powers of 3 are not float-representable
and digit recovery tests half-open interval membership, where rounding
would flip digits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .chains import Chain
from .choquet import PointFunction, level_set_chain
from .setfun import GroundSet

#: Largest supported family; member k contributes digit k of the embedding.
MAX_MEMBERS = 24


@dataclass(frozen=True)
class GeneratingFamily:
    """An ordered list of subsets intended to generate the full power set.

    Families that do not separate points are accepted; they generate only
    the coarser algebra of unions of :meth:`point_classes`, and
    :attr:`separates_points` carries that validity flag.
    """

    ground: GroundSet
    subsets: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subsets", tuple(self.subsets))
        if len(self.subsets) > MAX_MEMBERS:
            raise ValueError(f"at most {MAX_MEMBERS} family members supported")
        for s in self.subsets:
            self.ground.check_subset(s)

    def __len__(self) -> int:
        return len(self.subsets)

    @property
    def separates_points(self) -> bool:
        """Equivalent, on a finite ground set, to the generated algebra
        being the full power set."""
        return len(self.point_classes()) == self.ground.n

    def point_classes(self) -> tuple[int, ...]:
        """Atoms of the generated algebra: classes of points with identical
        membership signatures, as bitmasks ordered by smallest point."""
        by_sig: dict[tuple[bool, ...], int] = {}
        for p in range(self.ground.n):
            sig = tuple(bool(s >> p & 1) for s in self.subsets)
            by_sig[sig] = by_sig.get(sig, 0) | 1 << p
        return tuple(sorted(by_sig.values(), key=lambda m: (m & -m).bit_length()))


def ternary_embed(family: GeneratingFamily) -> PointFunction:
    """f(p) = sum over members containing p of 3**-(k+1), exactly."""
    values = []
    for p in range(family.ground.n):
        x = Fraction(0)
        for k, s in enumerate(family.subsets, start=1):
            if s >> p & 1:
                x += Fraction(1, 3**k)
        values.append(x)
    return PointFunction(family.ground, tuple(values))


def sublevel_set(f: PointFunction, a: Fraction) -> int:
    """The strict sublevel set {f < a} as a bitmask."""
    return f.negate().level_set(-a)


def embed_chain(family: GeneratingFamily) -> Chain:
    """The distinct sublevel sets of the embedding, ordered by inclusion.

    Maximal (hence power-set generating) exactly when the family separates
    points; otherwise the chain generates the point-class quotient algebra.
    """
    return level_set_chain(ternary_embed(family).negate())


def ternary_digit(x: Fraction, index: int) -> int:
    """Digit ``index`` (1-based) of the ternary expansion of x in [0, 1)."""
    if index < 1:
        raise ValueError("digit index must be >= 1")
    return int(x * 3**index) % 3


def recover_generator(f: PointFunction, member_count: int, index: int) -> int:
    """Recover family member ``index`` from the embedding alone.

    Uses the interval form: a point belongs to member N exactly when f
    falls in one of the 2**(N-1) half-open intervals obtained by fixing
    the earlier binary digits and requiring digit N to be 1.  Interval i
    has the bits of i, most significant first, as those earlier digits, so
    the intervals ascend with i and each point bisects them, O(N**2) per
    point, without listing them.  Direct ternary-digit extraction
    (:func:`ternary_digit`) is the independent oracle this must agree with.
    """
    if not 1 <= index <= member_count:
        raise ValueError(f"member index {index} outside 1..{member_count}")
    # Values in units of 3**-member_count, where every embedding is whole.
    scale = 3**member_count
    ticks = []
    for x in f.values:
        frac = Fraction(x) * scale
        if not 0 <= frac < scale or frac.denominator != 1:
            raise ValueError("f is not a ternary embedding of the stated size")
        ticks.append(int(frac))

    width = 3 ** (member_count - index)  # the length 3**-index of each interval

    def lower_end(i: int) -> int:
        lo = width
        for k in range(1, index):
            if i >> (index - 1 - k) & 1:
                lo += 3 ** (member_count - k)
        return lo

    intervals = range(2 ** (index - 1))
    mask = 0
    for p, t in enumerate(ticks):
        i = bisect_right(intervals, t, key=lower_end) - 1
        if i >= 0 and t < lower_end(i) + width:
            mask |= 1 << p
    return mask

"""Dual-mode scalar arithmetic shared by every module.

Two modes coexist:

* exact mode: values are `fractions.Fraction` (arbitrary precision), so
  every identity downstream is checked with literal equality;
* float mode: values are `float`, and equality means ``|a - b| <= eps``.

The runtime type is the mode tag.  Plain ``int`` embeds losslessly in
either mode and is accepted everywhere (it is how literal zeros enter
comparisons); mixing a ``Fraction`` with a ``float`` in one comparison
is a usage error and raises :class:`ScalarModeError`.
"""

from __future__ import annotations

import math
import os
from decimal import Decimal
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float, int]

#: Tolerance used by float-mode comparisons unless overridden.
DEFAULT_EPS = 1e-9

#: Environment variable consulted for a float-mode tolerance override.
EPS_ENV_VAR = "CHAINCORE_EPS"


class ScalarModeError(TypeError):
    """An exact rational and a float met in one comparison."""


def resolve_eps(eps: float | None = None) -> float:
    """Effective float-mode tolerance: explicit arg, env override, or default.

    Raises ValueError unless the tolerance is finite and at least 0.
    """
    if eps is None:
        eps = os.environ.get(EPS_ENV_VAR) or DEFAULT_EPS
    value = float(eps)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"tolerance must be finite and >= 0, got {eps!r}")
    return value


def tolerance(exact: bool, eps: float | None = None) -> Scalar:
    """The one tolerance a check uses throughout: 0 in exact mode, which
    never reads it, else the resolved float (read once per call)."""
    return 0 if exact else resolve_eps(eps)


def is_finite(x: Scalar) -> bool:
    return not isinstance(x, float) or math.isfinite(x)


def _tolerant(a: Scalar, b: Scalar) -> bool:
    """True when the pair compares with tolerance; raises on a mode mix."""
    a_float = isinstance(a, float)
    b_float = isinstance(b, float)
    if (a_float and isinstance(b, Fraction)) or (b_float and isinstance(a, Fraction)):
        raise ScalarModeError(f"cannot compare exact and float scalars: {a!r} vs {b!r}")
    return a_float or b_float


def scalar_eq(a: Scalar, b: Scalar, eps: float | None = None) -> bool:
    """Equality in the operands' mode: literal, or within eps for floats."""
    if _tolerant(a, b):
        return abs(a - b) <= resolve_eps(eps)
    return a == b


def scalar_le(a: Scalar, b: Scalar, eps: float | None = None) -> bool:
    """a <= b, slack by eps in float mode."""
    if _tolerant(a, b):
        return a <= b + resolve_eps(eps)
    return a <= b


def scalar_ge(a: Scalar, b: Scalar, eps: float | None = None) -> bool:
    """a >= b, slack by eps in float mode."""
    if _tolerant(a, b):
        return a + resolve_eps(eps) >= b
    return a >= b


def parse_scalar(raw: object, exact: bool = True) -> Scalar:
    """Parse a serialized scalar: a number, a decimal string, or "p/q".

    In exact mode everything becomes a Fraction (floats go through their
    decimal repr, so 0.1 reads as 1/10); in float mode everything becomes
    a float.
    """
    if isinstance(raw, bool):
        raise ValueError(f"not a scalar: {raw!r}")
    if isinstance(raw, Fraction):
        return raw if exact else float(raw)
    if isinstance(raw, int):
        return Fraction(raw) if exact else float(raw)
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise ValueError(f"non-finite scalar: {raw!r}")
        return Fraction(Decimal(str(raw))) if exact else raw
    if isinstance(raw, str):
        text = raw.strip()
        try:
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a scalar: {raw!r}") from exc
        return value if exact else float(value)
    raise ValueError(f"not a scalar: {raw!r}")


def format_scalar(x: Scalar) -> object:
    """JSON-friendly form: Fractions as "p/q" (or a bare integer), floats as-is."""
    if isinstance(x, float):
        return x
    frac = Fraction(x)
    if frac.denominator == 1:
        return int(frac)
    return str(frac)

from fractions import Fraction

import pytest

from chaincore import scalar_eq, scalar_ge, scalar_le, parse_scalar, format_scalar
from chaincore.scalar import ScalarModeError, resolve_eps, EPS_ENV_VAR


def test_exact_identity():
    assert scalar_eq(Fraction(1, 3), Fraction(1, 3))


def test_exact_canonical_reduction():
    assert scalar_eq(Fraction(5, 9), Fraction(10, 18))


def test_float_tolerance_computed_from_oracle():
    # |0.333333333 - 1/3| = 3.33e-10, inside the default 1e-9 tolerance
    # and outside a 1e-10 one.
    assert abs(0.333333333 - 1.0 / 3.0) == pytest.approx(3.333e-10, rel=1e-3)
    assert scalar_eq(0.333333333, 1.0 / 3.0, eps=1e-9)
    assert not scalar_eq(0.333333333, 1.0 / 3.0, eps=1e-10)


def test_float_eq_symmetric():
    pairs = [(0.1, 0.1 + 5e-10), (2.5, 2.5 - 1e-12), (1.0, 1.0000001)]
    for a, b in pairs:
        assert scalar_eq(a, b) == scalar_eq(b, a)


def test_mode_mismatch_raises():
    with pytest.raises(ScalarModeError):
        scalar_eq(Fraction(1, 2), 0.5)
    with pytest.raises(ScalarModeError):
        scalar_le(0.5, Fraction(1, 2))


def test_int_embeds_in_both_modes():
    assert scalar_eq(0, Fraction(0))
    assert scalar_eq(0, 0.0)
    assert scalar_le(0, Fraction(1, 9))
    assert scalar_ge(1.0, 1)


def test_inequalities():
    assert scalar_le(Fraction(1, 3), Fraction(1, 2))
    assert not scalar_le(Fraction(1, 2), Fraction(1, 3))
    assert scalar_le(0.5 + 1e-12, 0.5)  # within tolerance
    assert scalar_ge(Fraction(1, 2), Fraction(1, 3))


def test_parse_scalar_forms():
    assert parse_scalar("5/9") == Fraction(5, 9)
    assert parse_scalar("0.25") == Fraction(1, 4)
    assert parse_scalar(3) == Fraction(3)
    assert parse_scalar(0.1) == Fraction(1, 10)
    assert parse_scalar("2e-3") == Fraction(1, 500)
    assert parse_scalar("5/9", exact=False) == pytest.approx(5 / 9)
    assert parse_scalar("0.25", exact=False) == 0.25


def test_parse_scalar_rejects_junk():
    for bad in ("abc", None, True, [1], float("inf")):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_format_scalar_roundtrip():
    assert format_scalar(Fraction(5, 9)) == "5/9"
    assert format_scalar(Fraction(4, 2)) == 2
    assert format_scalar(0.25) == 0.25
    assert parse_scalar(format_scalar(Fraction(22, 9))) == Fraction(22, 9)


def test_eps_env_override(monkeypatch):
    monkeypatch.setenv(EPS_ENV_VAR, "1e-3")
    assert resolve_eps() == 1e-3
    assert scalar_eq(1.0, 1.0005)
    monkeypatch.delenv(EPS_ENV_VAR)
    assert resolve_eps() == 1e-9
    assert resolve_eps(1e-6) == 1e-6


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1", "-1e-12", "loose"])
def test_eps_rejects_bad_tolerance(monkeypatch, bad):
    with pytest.raises(ValueError):
        resolve_eps(bad)
    monkeypatch.setenv(EPS_ENV_VAR, bad)
    with pytest.raises(ValueError):
        resolve_eps()
    with pytest.raises(ValueError):
        scalar_eq(1.0, 1.0)


def test_eps_zero_is_literal_equality():
    assert resolve_eps(0) == 0.0
    assert scalar_eq(0.5, 0.5, eps=0)
    assert not scalar_eq(0.5, 0.5 + 1e-16 * 4, eps=0)

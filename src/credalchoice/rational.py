"""Helpers for exact rational values: text forms, and integer numerators over a common denominator."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import ParseError


def format_fraction(x: Fraction) -> str:
    """Canonical ``p/q`` form, also for integers (``1`` becomes ``1/1``)."""
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Accept ``p/q``, integer, and decimal notations, all read exactly."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {text!r}") from exc


def numerators(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Rational ``values``, such as right-hand sides, as integer numerators over their least common denominator, and that denominator."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den

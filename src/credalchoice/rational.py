"""Helpers for exact rational values: text forms, and integer numerators over a common denominator."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import attrgetter
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


_NUMERATOR, _DENOMINATOR = attrgetter("numerator"), attrgetter("denominator")


def numerators(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """``values`` as integer numerators over their least common denominator, and that denominator."""
    den = lcm(*map(_DENOMINATOR, values))
    if den == 1:  # all integers: the attribute reads run in C for ``int`` values
        return list(map(_NUMERATOR, values)), 1
    return [v.numerator * (den // v.denominator) for v in values], den

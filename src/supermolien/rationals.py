"""Exact rational scalars and their wire format.

Rationals are stdlib fractions.Fraction throughout.  The wire format is the
string "p/q" in lowest terms with the "/q" omitted when the denominator is 1,
which is exactly what str(Fraction) produces.
"""

from __future__ import annotations

from fractions import Fraction

def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string like '3/4', got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {s!r}") from exc

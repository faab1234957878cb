"""Exact rational scalars and their wire format.

An exact coefficient is an int when it is integral and a
fractions.Fraction otherwise; exact() puts any rational into that form, so
integral work stays on ints.  The wire format is the string "p/q" in lowest
terms with the "/q" omitted when the denominator is 1, which is exactly
what str(Fraction) produces, for either form.  Integer fields of the
JSON inputs are read by parse_int, which refuses what int() would truncate.
"""

from __future__ import annotations

from fractions import Fraction


def exact(x) -> int | Fraction:
    """x as an int when integral, else as a Fraction in lowest terms."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_div(x: int | Fraction, d: int) -> int | Fraction:
    """x / d for a nonzero int d, in exact form, by int division when exact."""
    return x // d if type(x) is int and x % d == 0 else Fraction(x, d)


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def parse_rational(s: str) -> Fraction:
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string like '3/4', got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed rational {s!r}") from exc


def parse_int(value, field: str) -> int:
    """value as an int: an int, or a float with an integral value.
    ValueError naming the field for anything else, bools and non-integral
    numbers included."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{field} must be an integer, got {value!r}")

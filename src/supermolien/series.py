"""Truncated trigraded power series with exact rational coefficients.

A TrigradedSeries is an element of Q[[t, q, u]] known up to per-variable
truncation caps.  Coefficients beyond the caps are unknown, not zero; all
arithmetic truncates so that stored coefficients are always exact.

Degree bookkeeping: t tracks the tensor power (number of rows), q the even
(commuting) degree, u the odd (anticommuting) degree.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, NamedTuple

from .errors import ZeroConstantTerm
from .rationals import exact, format_rational, parse_int, parse_rational

Key = tuple[int, int, int]


class Caps(NamedTuple):
    """Inclusive truncation caps for the t, q, u exponents."""

    t: int
    q: int
    u: int

    @staticmethod
    def of(value) -> "Caps":
        c = Caps(*value)
        if any(x < 0 for x in c):
            raise ValueError(f"caps must be nonnegative, got {tuple(c)}")
        return c

    def min_with(self, other: "Caps") -> "Caps":
        return Caps(min(self.t, other.t), min(self.q, other.q), min(self.u, other.u))

    def contains(self, key: Key) -> bool:
        return 0 <= key[0] <= self.t and 0 <= key[1] <= self.q and 0 <= key[2] <= self.u


class TrigradedSeries:
    """Immutable truncated series in Q[[t, q, u]].

    Equality compares coefficients within the componentwise minimum of the
    two operands' caps.  That is the comparison contract used everywhere a
    series computed one way is checked against a series computed another way
    at different depths.  It is not transitive across caps, so series are
    deliberately unhashable.

    Coefficients are exact (rationals.exact): ints where integral,
    Fractions otherwise, never 0.
    """

    __slots__ = ("caps", "_coeffs")

    def __init__(self, caps, coeffs: Mapping[Key, int | Fraction] | None = None):
        caps = Caps.of(caps)
        clean: dict[Key, int | Fraction] = {}
        if coeffs:
            for key, c in coeffs.items():
                key = (int(key[0]), int(key[1]), int(key[2]))
                if not caps.contains(key):
                    raise ValueError(f"exponent {key} outside caps {tuple(caps)}")
                c = exact(c)
                if c:
                    clean[key] = c
        object.__setattr__(self, "caps", caps)
        object.__setattr__(self, "_coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TrigradedSeries is immutable")

    @classmethod
    def _canonical(cls, caps: Caps, coeffs: dict) -> "TrigradedSeries":
        """Trusted constructor for arithmetic results: caps a Caps, coeffs
        mapping int (t, q, u) keys within caps to ints or Fractions.

        Zero coefficients are dropped and integral Fractions become ints;
        nothing else is checked, and the dict is filtered into a new one,
        never kept."""
        series = object.__new__(cls)
        object.__setattr__(series, "caps", caps)
        coeffs = {k: c if type(c) is int else exact(c) for k, c in coeffs.items() if c}
        object.__setattr__(series, "_coeffs", coeffs)
        return series

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(caps) -> "TrigradedSeries":
        return TrigradedSeries(caps)

    @staticmethod
    def one(caps) -> "TrigradedSeries":
        return TrigradedSeries(caps, {(0, 0, 0): 1})

    @staticmethod
    def monomial(caps, key: Key, c=1) -> "TrigradedSeries":
        return TrigradedSeries(caps, {tuple(key): c})

    # -- access -----------------------------------------------------------

    def coefficient(self, key: Key) -> int | Fraction:
        key = tuple(key)
        if not self.caps.contains(key):
            raise ValueError(f"coefficient at {key} is unknown beyond caps {tuple(self.caps)}")
        return self._coeffs.get(key, 0)

    def items(self) -> list[tuple[Key, int | Fraction]]:
        """Nonzero coefficients, ordered lexicographically by (t, q, u)."""
        return sorted(self._coeffs.items())

    def support(self) -> set[Key]:
        return set(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrigradedSeries):
            return NotImplemented
        caps = self.caps.min_with(other.caps)
        for key in self._coeffs.keys() | other._coeffs.keys():
            if caps.contains(key):
                if self._coeffs.get(key, 0) != other._coeffs.get(key, 0):
                    return False
        return True

    __hash__ = None  # min-cap equality is not transitive across caps

    def __repr__(self) -> str:
        terms = []
        for (dt, dq, du), c in self.items()[:8]:
            mono = "".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in (("t", dt), ("q", dq), ("u", du))
                if e > 0
            )
            terms.append(f"{format_rational(c)}*{mono}" if mono else format_rational(c))
        body = " + ".join(terms) if terms else "0"
        if len(self._coeffs) > 8:
            body += " + ..."
        return f"<series caps={tuple(self.caps)}: {body}>"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return series_add(self, other)

    def __sub__(self, other):
        return series_sub(self, other)

    def __mul__(self, other):
        return series_mul(self, other)

    def __neg__(self):
        return series_scale(self, -1)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "caps": {"t": self.caps.t, "q": self.caps.q, "u": self.caps.u},
            "coeffs": [
                {"t": k[0], "q": k[1], "u": k[2], "c": format_rational(c)}
                for k, c in self.items()
            ],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "TrigradedSeries":
        caps = Caps(*(parse_int(data["caps"][k], f"caps {k}") for k in "tqu"))
        coeffs: dict[Key, Fraction] = {}
        for entry in data["coeffs"]:
            key = tuple(parse_int(entry[k], f"coefficient {k}") for k in "tqu")
            if key in coeffs:
                raise ValueError(f"duplicate coefficient entry at {key}")
            coeffs[key] = parse_rational(entry["c"])
        return TrigradedSeries(caps, coeffs)


def _shared_caps(a: TrigradedSeries, b: TrigradedSeries) -> Caps:
    return a.caps.min_with(b.caps)


def series_add(a: TrigradedSeries, b: TrigradedSeries) -> TrigradedSeries:
    caps = _shared_caps(a, b)
    out: dict[Key, int | Fraction] = {}
    for key in a._coeffs.keys() | b._coeffs.keys():
        if caps.contains(key):
            out[key] = a._coeffs.get(key, 0) + b._coeffs.get(key, 0)
    return TrigradedSeries._canonical(caps, out)


def series_sub(a: TrigradedSeries, b: TrigradedSeries) -> TrigradedSeries:
    return series_add(a, series_scale(b, -1))


def series_scale(a: TrigradedSeries, c) -> TrigradedSeries:
    c = exact(c)
    return TrigradedSeries._canonical(a.caps, {k: c * v for k, v in a._coeffs.items()})


def series_mul(a: TrigradedSeries, b: TrigradedSeries) -> TrigradedSeries:
    """Cauchy product truncated to the shared caps.

    Each operand's terms beyond the shared caps are dropped once, before
    the product; a pair is kept when each exponent of the second term fits
    in what the first term leaves of its cap."""
    caps = _shared_caps(a, b)
    ct, cq, cu = caps
    right = [(k, c) for k, c in b._coeffs.items() if k[0] <= ct and k[1] <= cq and k[2] <= cu]
    out: dict[Key, int | Fraction] = {}
    for (t1, q1, u1), c1 in a._coeffs.items():
        lt, lq, lu = ct - t1, cq - q1, cu - u1
        if lt < 0 or lq < 0 or lu < 0:
            continue
        for (t2, q2, u2), c2 in right:
            if t2 <= lt and q2 <= lq and u2 <= lu:
                key = (t1 + t2, q1 + q2, u1 + u2)
                out[key] = out.get(key, 0) + c1 * c2
    return TrigradedSeries._canonical(caps, out)


def series_inv(a: TrigradedSeries) -> TrigradedSeries:
    """Multiplicative inverse within a's caps.

    Solves the triangular system b[0] = 1/a[0],
    b[k] = -(1/a[0]) * sum_{0 < m <= k} a[m] b[k-m] over the cap box.
    """
    a0 = a._coeffs.get((0, 0, 0), 0)
    if a0 == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    caps = a.caps
    higher = {k: v for k, v in a._coeffs.items() if k != (0, 0, 0)}
    inv0 = exact(Fraction(1) / a0)
    out: dict[Key, int | Fraction] = {}
    box = itertools.product(range(caps.t + 1), range(caps.q + 1), range(caps.u + 1))
    for key in sorted(box, key=lambda k: (sum(k), k)):
        if key == (0, 0, 0):
            out[key] = inv0
            continue
        acc = 0
        kt, kq, ku = key
        for (mt, mq, mu), am in higher.items():
            if mt <= kt and mq <= kq and mu <= ku:
                prev = out.get((kt - mt, kq - mq, ku - mu))
                if prev:
                    acc += am * prev
        if acc:
            out[key] = -inv0 * acc
    return TrigradedSeries._canonical(caps, out)


def series_pow_int(a: TrigradedSeries, e: int) -> TrigradedSeries:
    """a**e for any integer e, negative exponents via series_inv."""
    if e < 0:
        return series_pow_int(series_inv(a), -e)
    result = TrigradedSeries.one(a.caps)
    base = a
    while e:
        if e & 1:
            result = series_mul(result, base)
        base_needed = e > 1
        if base_needed:
            base = series_mul(base, base)
        e >>= 1
    return result


def series_flip_u(a: TrigradedSeries) -> TrigradedSeries:
    """Substitute u -> -u: negate coefficients in odd u-degree."""
    return TrigradedSeries._canonical(a.caps, {k: (-c if k[2] % 2 else c) for k, c in a._coeffs.items()})


def scale_exponents(a: TrigradedSeries, r: int) -> TrigradedSeries:
    """Substitute (t, q, u) -> (t^r, q^r, u^r), dropping terms past a's caps.

    Callers comparing at caps C must supply an input whose caps are already C,
    since scaling only raises degrees.
    """
    if r < 1:
        raise ValueError(f"exponent scale must be >= 1, got {r}")
    out: dict[Key, int | Fraction] = {}
    for (dt, dq, du), c in a._coeffs.items():
        key = (r * dt, r * dq, r * du)
        if a.caps.contains(key):
            out[key] = out.get(key, 0) + c
    return TrigradedSeries._canonical(a.caps, out)


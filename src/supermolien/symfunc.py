"""Symmetric functions in the power-sum basis: cycle indices and plethysm.

A SymFuncPoly is a finite Q-linear combination of p_lambda over integer
partitions; multiplication concatenates partitions.  A cycle index is
weighted by a linear character of its group, given as the +-1 tuple of
groups.py, or by 1, and counted in ints, divided by the order once.
Plethysm comes in two forms: substitution of a concrete trigraded series
into every p_r (scaling all three exponents by r), which multiplies each
distinct partition prefix once and divides by one common denominator,
and composition inside the ring (p_r applied to another symmetric
function scales every part by r).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .groups import PermGroup, cycle_type, sign_character
from .rationals import exact_div, format_rational, parse_rational
from .series import Key, TrigradedSeries, scale_exponents, series_mul

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    lam = tuple(int(p) for p in parts)
    if any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def _sort_desc(parts: Iterable[int]) -> Partition:
    return tuple(sorted(parts, reverse=True))


class SymFuncPoly:
    """Finite Q-linear combination of power sums p_lambda."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Partition, Fraction] | None = None):
        clean: dict[Partition, Fraction] = {}
        if terms:
            for lam, c in terms.items():
                lam = as_partition(lam)
                c = Fraction(c)
                if c != 0:
                    clean[lam] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SymFuncPoly is immutable")

    @staticmethod
    def zero() -> "SymFuncPoly":
        return SymFuncPoly()

    @staticmethod
    def one() -> "SymFuncPoly":
        return SymFuncPoly({(): Fraction(1)})

    @staticmethod
    def p(r: int) -> "SymFuncPoly":
        return SymFuncPoly({(r,): Fraction(1)})

    def __add__(self, other: "SymFuncPoly") -> "SymFuncPoly":
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, Fraction(0)) + c
        return SymFuncPoly(out)

    def __sub__(self, other: "SymFuncPoly") -> "SymFuncPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "SymFuncPoly":
        c = Fraction(c)
        return SymFuncPoly({lam: c * v for lam, v in self.terms.items()})

    def __neg__(self) -> "SymFuncPoly":
        return self.scale(-1)

    def __mul__(self, other: "SymFuncPoly") -> "SymFuncPoly":
        out: dict[Partition, Fraction] = {}
        for lam, c1 in self.terms.items():
            for mu, c2 in other.terms.items():
                key = _sort_desc(lam + mu)
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return SymFuncPoly(out)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SymFuncPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def sorted_items(self) -> list[tuple[Partition, Fraction]]:
        """Terms ordered by degree descending, then lex descending."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __repr__(self):
        body = " + ".join(
            f"{format_rational(c)}*p{list(lam)}" for lam, c in self.sorted_items()
        )
        return f"SymFuncPoly({body or '0'})"

    def to_json_dict(self) -> dict:
        return {
            "terms": [
                {"lambda": list(lam), "c": format_rational(c)} for lam, c in self.sorted_items()
            ]
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "SymFuncPoly":
        terms: dict[Partition, Fraction] = {}
        for entry in data["terms"]:
            lam = as_partition(entry["lambda"])
            if lam in terms:
                raise ValueError(f"duplicate partition {lam}")
            terms[lam] = parse_rational(entry["c"])
        return SymFuncPoly(terms)


def cycle_index(P: PermGroup, character: Sequence[int] | None = None) -> SymFuncPoly:
    """(1/|P|) sum over sigma of chi(sigma) p_{cycle type of sigma}.

    character is a linear character of P as +-1 values aligned with P's
    element order (groups.validate_character, groups.sign_character), so
    chi(sigma^{-1}) = chi(sigma); None weights every sigma by 1.
    """
    if character is not None and len(character) != P.order:
        raise ValueError(f"character has {len(character)} values for a group of order {P.order}")
    acc: dict[Partition, int] = {}
    for idx, sigma in enumerate(P.elements):
        lam = cycle_type(sigma)
        acc[lam] = acc.get(lam, 0) + (1 if character is None else character[idx])
    return SymFuncPoly({lam: Fraction(c, P.order) for lam, c in acc.items()})


def omega(f: SymFuncPoly) -> SymFuncPoly:
    """The standard involution: p_r -> (-1)^{r-1} p_r, extended multiplicatively."""
    out: dict[Partition, Fraction] = {}
    for lam, c in f.terms.items():
        sign = (-1) ** (sum(lam) - len(lam))
        out[lam] = sign * c
    return SymFuncPoly(out)


def plethystic_substitute(f: SymFuncPoly, s: TrigradedSeries) -> TrigradedSeries:
    """Substitute a concrete series for the underlying alphabet:
    p_r evaluates to s with all three exponents (t, q, u) scaled by r.

    The output caps are s's caps; supply s at the caps the comparison needs.
    s is scaled once per distinct part size r, and every part of that size
    reads the one scaled series.  A partition's product is its prefix's
    (parts largest first) times its last part's scaled series, so each
    distinct prefix of two or more parts is multiplied once.  The products
    are summed with f's coefficients over their common denominator as int
    weights, and divided by it once.
    """
    scaled = {r: scale_exponents(s, r) for r in {r for lam in f.terms for r in lam}}
    prods = {(): TrigradedSeries.one(s.caps)} | {(r,): series for r, series in scaled.items()}
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    total: dict[Key, int | Fraction] = {}
    for lam, c in f.terms.items():
        for k in range(2, len(lam) + 1):
            if lam[:k] not in prods:
                prods[lam[:k]] = series_mul(prods[lam[: k - 1]], scaled[lam[k - 1]])
        weight = c.numerator * (den // c.denominator)
        for key, v in prods[lam].items():
            total[key] = total.get(key, 0) + weight * v
    return TrigradedSeries._canonical(s.caps, {key: exact_div(v, den) for key, v in total.items()})


def plethystic_compose(f: SymFuncPoly, g: SymFuncPoly) -> SymFuncPoly:
    """f[g] inside the ring: p_r[g] multiplies every part of g by r,
    extended multiplicatively over f's parts and linearly over f's terms."""
    total = SymFuncPoly.zero()
    for lam, c in f.terms.items():
        prod = SymFuncPoly.one()
        for r in lam:
            scaled = SymFuncPoly({tuple(r * part for part in mu): cg for mu, cg in g.terms.items()})
            prod = prod * scaled
        total = total + prod.scale(c)
    return total


def hn_en(n: int, kind: str) -> SymFuncPoly:
    """Complete homogeneous h_n (kind "h") or elementary e_n (kind "e"),
    realized as the plain or sign-character cycle index of the full
    symmetric group."""
    if kind not in ("h", "e"):
        raise ValueError(f"kind must be 'h' or 'e', got {kind!r}")
    P = PermGroup.symmetric(n)
    return cycle_index(P, None if kind == "h" else sign_character(P))

"""Supercommutative polynomial algebra on n rows of (r0 even, r1 odd) variables.

Monomials are x-exponent maps times a strictly increasing product of odd
(theta) variables; reordering odd factors costs the sign of the permutation
and a repeated odd factor kills the term.  Variables are indexed (row, col),
1-based, ordered lexicographically.

A wreath label (sigma, (g_1..g_n)) acts by one linear substitution: each
variable is replaced by its column of the label's matrix,
WreathElement.columns, the same matrix the Molien route reads.  Within a
row the block g_i substitutes on columns, and rows move contravariantly,
x_i -> x_{sigma^{-1}(i)}, so apply_wreath(wreath_mul(w1, w2), f) equals
apply_wreath(w1, apply_wreath(w2, f)).  apply_row_permutation is the
relabeling alone, used to symmetrize shuffle products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Iterable, Mapping

from .errors import DegreeMismatch, DimensionMismatch, SignatureMismatch
from .groups import Permutation, WreathElement, _inversion_sign
from .rationals import format_rational, parse_rational

XKey = tuple[int, int]  # (row, col)


@dataclass(frozen=True)
class AlgebraSignature:
    """Shape of the algebra: n rows of r0 commuting and r1 anticommuting variables."""

    r0: int
    r1: int
    n: int = 1

    def __post_init__(self):
        # n = 0 is the scalar algebra, the unit for row-shifted products
        if self.r0 < 0 or self.r1 < 0 or self.n < 0:
            raise ValueError(f"bad signature {self}")

    @property
    def num_odd(self) -> int:
        return self.n * self.r1

    def even_vars(self) -> list[XKey]:
        return [(row, col) for row in range(1, self.n + 1) for col in range(1, self.r0 + 1)]

    def odd_vars(self) -> list[XKey]:
        return [(row, col) for row in range(1, self.n + 1) for col in range(1, self.r1 + 1)]


def normalize_theta(pairs: Iterable[XKey]) -> tuple[tuple[XKey, ...], int]:
    """Sort odd factors into increasing order.

    Returns (sorted_factors, sign) where sign is the sign of the sorting
    permutation and 0 if a factor repeats.
    """
    seq = [tuple(p) for p in pairs]
    ordered = tuple(sorted(seq))
    if len(set(seq)) != len(seq):
        return ordered, 0
    return ordered, _inversion_sign(seq)


class SuperMonomial:
    """Canonical monomial: sorted x-exponents and strictly increasing thetas."""

    __slots__ = ("xpart", "theta")

    def __init__(self, xpart, theta: Iterable[XKey] = ()):
        if isinstance(xpart, Mapping):
            items = [(int(r), int(c), int(e)) for (r, c), e in xpart.items()]
        else:
            items = [(int(r), int(c), int(e)) for (r, c, e) in xpart]
        merged: dict[XKey, int] = {}
        for r, c, e in items:
            if e < 0:
                raise ValueError(f"negative exponent on x[{r},{c}]")
            if e:
                merged[(r, c)] = merged.get((r, c), 0) + e
        theta = tuple(tuple(p) for p in theta)
        if any(theta[i] >= theta[i + 1] for i in range(len(theta) - 1)):
            raise ValueError(f"theta factors not strictly increasing: {theta}")
        object.__setattr__(
            self, "xpart", tuple((r, c, e) for (r, c), e in sorted(merged.items()))
        )
        object.__setattr__(self, "theta", theta)

    def __setattr__(self, name, value):
        raise AttributeError("SuperMonomial is immutable")

    @classmethod
    def _canonical(cls, xpart: tuple, theta: tuple) -> "SuperMonomial":
        """Trusted constructor for parts already in canonical form: xpart a
        sorted tuple of (row, col, exponent) with positive exponents and
        distinct keys, theta a strictly increasing tuple of pairs."""
        mono = object.__new__(cls)
        object.__setattr__(mono, "xpart", xpart)
        object.__setattr__(mono, "theta", theta)
        return mono

    @staticmethod
    def one() -> "SuperMonomial":
        return SuperMonomial({})

    def degrees(self) -> tuple[int, int]:
        return sum(e for _, _, e in self.xpart), len(self.theta)

    def sort_key(self):
        i, j = self.degrees()
        return (i + j, i, self.xpart, self.theta)

    def __eq__(self, other):
        if not isinstance(other, SuperMonomial):
            return NotImplemented
        return self.xpart == other.xpart and self.theta == other.theta

    def __hash__(self):
        return hash((self.xpart, self.theta))

    def __repr__(self):
        xs = "".join(
            f"x[{r},{c}]" + (f"^{e}" if e > 1 else "") for r, c, e in self.xpart
        )
        ts = "".join(f"th[{r},{c}]" for r, c in self.theta)
        return (xs + ts) or "1"


class SuperPolynomial:
    """Finite Q-linear combination of SuperMonomials over a fixed signature."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: AlgebraSignature, terms: Mapping[SuperMonomial, Fraction] | None = None):
        clean: dict[SuperMonomial, Fraction] = {}
        if terms:
            for mono, c in terms.items():
                c = Fraction(c)
                if c == 0:
                    continue
                for r, col, _ in mono.xpart:
                    if not (1 <= r <= sig.n and 1 <= col <= sig.r0):
                        raise ValueError(f"x[{r},{col}] outside signature {sig}")
                for r, col in mono.theta:
                    if not (1 <= r <= sig.n and 1 <= col <= sig.r1):
                        raise ValueError(f"theta[{r},{col}] outside signature {sig}")
                clean[mono] = c
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SuperPolynomial is immutable")

    @classmethod
    def _canonical(cls, sig: AlgebraSignature, terms: dict) -> "SuperPolynomial":
        """Trusted constructor: terms maps monomials inside sig to Fractions.

        Zero coefficients are dropped; nothing else is checked or coerced,
        and the dict is filtered into a new one, never kept."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "sig", sig)
        object.__setattr__(poly, "terms", {m: c for m, c in terms.items() if c})
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(sig: AlgebraSignature) -> "SuperPolynomial":
        return SuperPolynomial(sig)

    @staticmethod
    def one(sig: AlgebraSignature) -> "SuperPolynomial":
        return SuperPolynomial(sig, {SuperMonomial.one(): Fraction(1)})

    @staticmethod
    def x_var(sig: AlgebraSignature, row: int, col: int) -> "SuperPolynomial":
        return SuperPolynomial(sig, {SuperMonomial({(row, col): 1}): Fraction(1)})

    @staticmethod
    def theta_var(sig: AlgebraSignature, row: int, col: int) -> "SuperPolynomial":
        return SuperPolynomial(sig, {SuperMonomial({}, ((row, col),)): Fraction(1)})

    @staticmethod
    def monomial(sig: AlgebraSignature, mono: SuperMonomial, c=1) -> "SuperPolynomial":
        return SuperPolynomial(sig, {mono: Fraction(c)})

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        _require_same_sig(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return SuperPolynomial(self.sig, out)

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "SuperPolynomial":
        c = Fraction(c)
        return SuperPolynomial(self.sig, {m: c * v for m, v in self.terms.items()})

    def __neg__(self) -> "SuperPolynomial":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.sig == other.sig and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        body = " + ".join(f"{format_rational(c)}*{m!r}" for m, c in items[:6]) or "0"
        if len(items) > 6:
            body += " + ..."
        return f"<superpoly {self.sig.r0},{self.sig.r1};n={self.sig.n}: {body}>"

    def bidegree_support(self) -> set[tuple[int, int]]:
        return {m.degrees() for m in self.terms}

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())
        return {
            "sig": {"r0": self.sig.r0, "r1": self.sig.r1, "n": self.sig.n},
            "terms": [
                {
                    "x": [[r, c, e] for r, c, e in m.xpart],
                    "theta": [[r, c] for r, c in m.theta],
                    "c": format_rational(coeff),
                }
                for m, coeff in items
            ],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "SuperPolynomial":
        s = data["sig"]
        sig = AlgebraSignature(int(s["r0"]), int(s["r1"]), int(s["n"]))
        terms: dict[SuperMonomial, Fraction] = {}
        for entry in data["terms"]:
            theta, sign = normalize_theta(tuple(p) for p in entry["theta"])
            if sign == 0:
                raise ValueError(f"repeated odd variable in term {entry}")
            mono = SuperMonomial([(r, c, e) for r, c, e in entry["x"]], theta)
            c = sign * parse_rational(entry["c"])
            terms[mono] = terms.get(mono, Fraction(0)) + c
        return SuperPolynomial(sig, terms)


def _require_same_sig(a: SuperPolynomial, b: SuperPolynomial):
    if a.sig != b.sig:
        raise SignatureMismatch(f"{a.sig} != {b.sig}")


def _merge_xpart(a: tuple, b: tuple) -> tuple:
    """Canonical x-part of the product of two canonical x-parts."""
    if not a:
        return b
    if not b or a[-1][:2] < b[0][:2]:
        return a + b
    merged = {(r, c): e for r, c, e in a}
    for r, c, e in b:
        merged[(r, c)] = merged.get((r, c), 0) + e
    return tuple((r, c, e) for (r, c), e in sorted(merged.items()))


def mul_monomials(m1: SuperMonomial, m2: SuperMonomial) -> tuple[SuperMonomial, int]:
    """Product of canonical monomials: merged x-part, m1's thetas before m2's."""
    a, b = m1.theta, m2.theta
    if not a or not b or a[-1] < b[0]:
        theta, sign = a + b, 1
    else:
        theta, sign = normalize_theta(a + b)
    if sign == 0:
        return SuperMonomial.one(), 0
    return SuperMonomial._canonical(_merge_xpart(m1.xpart, m2.xpart), theta), sign


def _mul_terms(a: Mapping[SuperMonomial, Fraction], b: Mapping[SuperMonomial, Fraction]) -> dict:
    """Product of two term maps; cancelled terms stay in as zeros."""
    out: dict[SuperMonomial, Fraction] = {}
    b_items = list(b.items())
    for m1, c1 in a.items():
        if not c1:
            continue
        for m2, c2 in b_items:
            mono, sign = mul_monomials(m1, m2)
            if sign == 0:
                continue
            c = c1 * c2 if sign > 0 else -(c1 * c2)
            out[mono] = out[mono] + c if mono in out else c
    return out


def super_mul(f: SuperPolynomial, g: SuperPolynomial) -> SuperPolynomial:
    _require_same_sig(f, g)
    return SuperPolynomial._canonical(f.sig, _mul_terms(f.terms, g.terms))


def apply_row_permutation(sigma: Permutation, f: SuperPolynomial) -> SuperPolynomial:
    """Relabel rows: a variable in row i moves to row sigma^{-1}(i).

    Composition is contravariant:
    apply(sigma, apply(tau, f)) == apply(tau.compose(sigma), f).
    """
    if sigma.n != f.sig.n:
        raise DegreeMismatch(f"permutation degree {sigma.n} != {f.sig.n} rows")
    # inv[r] = sigma^{-1}(r), read off the images as WreathElement.columns does
    inv = [0] * (sigma.n + 1)
    for i, r in enumerate(sigma.images, start=1):
        inv[r] = i
    out: dict[SuperMonomial, Fraction] = {}
    for mono, c in f.terms.items():
        xpart = tuple(sorted((inv[r], col, e) for r, col, e in mono.xpart))
        # relabeling is a bijection on monomials and never repeats a factor
        theta, sign = normalize_theta((inv[r], col) for r, col in mono.theta)
        out[SuperMonomial._canonical(xpart, theta)] = c if sign > 0 else -c
    return SuperPolynomial._canonical(f.sig, out)


@cache
def _variable_names(n: int, r: int) -> tuple[XKey, ...]:
    """The (row, col) key of each flat variable index (row-1)*r + col-1."""
    return tuple((row, col) for row in range(1, n + 1) for col in range(1, r + 1))


def apply_wreath(w: WreathElement, f: SuperPolynomial) -> SuperPolynomial:
    """Linear substitution by a wreath label's matrix, in one pass per
    monomial: x[i,c] -> sum_{c'} g_i[c',c] x[sigma^{-1}(i),c'], and theta
    likewise via the odd blocks, each variable replaced by its column of
    WreathElement.columns.

    When every column has one term, as for every label of P[G] with G a
    group of signed permutation matrices, each monomial maps to one
    monomial, found by one sort; otherwise the images of a monomial's
    factors are multiplied out one by one."""
    sig = f.sig
    if w.sigma.n != sig.n:
        raise DegreeMismatch(f"wreath degree {w.sigma.n} != {sig.n} rows")
    for g in w.gs:
        if (g.g0.nrows, g.g0.ncols, g.g1.nrows, g.g1.ncols) != (sig.r0, sig.r0, sig.r1, sig.r1):
            raise DimensionMismatch(
                f"element blocks {g.g0.nrows}/{g.g1.nrows} do not match signature ({sig.r0}, {sig.r1})"
            )
    even, odd = w.columns
    one_term = all(len(col) == 1 for col in even) and all(len(col) == 1 for col in odd)
    xnames, tnames = _variable_names(sig.n, sig.r0), _variable_names(sig.n, sig.r1)
    total: dict[SuperMonomial, Fraction] = {}
    for mono, coeff in f.terms.items():
        xcols = [(even[(r - 1) * sig.r0 + c - 1], e) for r, c, e in mono.xpart]
        tcols = [odd[(r - 1) * sig.r1 + c - 1] for r, c in mono.theta]
        if one_term:
            scale, xpart, theta = 1, [], []
            for ((idx, a),), e in xcols:
                xpart.append((*xnames[idx], e))
                scale *= a**e
            for ((idx, a),) in tcols:
                theta.append(tnames[idx])
                scale *= a
            theta, sign = normalize_theta(theta)
            xpart.sort()
            terms = ((SuperMonomial._canonical(tuple(xpart), theta), scale * sign),)
        else:
            image = {SuperMonomial._canonical((), ()): 1}
            for col, e in xcols:
                form = {SuperMonomial._canonical(((*xnames[idx], 1),), ()): a for idx, a in col}
                for _ in range(e):
                    image = _mul_terms(image, form)
            for col in tcols:
                image = _mul_terms(image, {SuperMonomial._canonical((), (tnames[idx],)): a for idx, a in col})
            terms = image.items()
        for m, scale in terms:
            v = coeff if scale == 1 else -coeff if scale == -1 else coeff * scale
            total[m] = total[m] + v if m in total else v
    return SuperPolynomial._canonical(sig, total)


def _compositions_desc_lex(total: int, nvars: int):
    """Exponent vectors summing to total, in descending lexicographic order."""
    if nvars == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc_lex(total - first, nvars - 1):
            yield (first,) + rest


def bidegree_basis(sig: AlgebraSignature, i: int, j: int) -> list[SuperMonomial]:
    """Monomial basis of the (i, j) bidegree component, deterministically
    ordered: x-exponent vectors in descending lex (major), theta subsets in
    ascending lex (minor)."""
    import itertools

    if i < 0 or j < 0:
        raise ValueError("bidegrees must be nonnegative")
    evars = sig.even_vars()
    ovars = sig.odd_vars()
    if j > len(ovars):
        return []
    out = []
    for xvec in _compositions_desc_lex(i, len(evars)):
        xpart = {v: e for v, e in zip(evars, xvec) if e}
        for tsel in itertools.combinations(ovars, j):
            out.append(SuperMonomial(xpart, tsel))
    return out


def coefficient_vector(f: SuperPolynomial, index: Mapping[SuperMonomial, int]) -> list[tuple[int, Fraction]]:
    """Coordinates of f in a monomial basis, as the sorted (position,
    coefficient) pairs of its nonzero coordinates; index maps each basis
    monomial to its position, built once per basis.  Raises if f has
    support outside the basis."""
    row = []
    for mono, c in f.terms.items():
        k = index.get(mono)
        if k is None:
            raise ValueError(f"term {mono!r} outside the given basis")
        row.append((k, c))
    row.sort()
    return row

"""Supercommutative polynomial algebra on n rows of (r0 even, r1 odd) variables.

Monomials are x-exponent maps times a strictly increasing product of odd
(theta) variables; reordering odd factors costs the sign of the permutation
and a repeated odd factor kills the term.  Variables are indexed (row, col),
1-based, ordered lexicographically.

Row permutations act by the relabeling x_i -> x_{sigma^{-1}(i)} (rows move
contravariantly), so apply(sigma, apply(tau, f)) == apply(tau . sigma, f).
Graded matrix elements act within a single row by linear substitution on
columns.  The wreath action is the composite of the two primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import DegreeMismatch, DimensionMismatch, SignatureMismatch
from .groups import GradedGroupElement, Permutation, WreathElement, _inversion_sign
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
    inv = (0,) + sigma.inverse().images
    out: dict[SuperMonomial, Fraction] = {}
    for mono, c in f.terms.items():
        xpart = tuple(sorted((inv[r], col, e) for r, col, e in mono.xpart))
        # relabeling is a bijection on monomials and never repeats a factor
        theta, sign = normalize_theta((inv[r], col) for r, col in mono.theta)
        out[SuperMonomial._canonical(xpart, theta)] = c if sign > 0 else -c
    return SuperPolynomial._canonical(f.sig, out)


def _require_blocks(g: GradedGroupElement, sig: AlgebraSignature) -> None:
    if g.g0.nrows != sig.r0 or g.g0.ncols != sig.r0 or g.g1.nrows != sig.r1 or g.g1.ncols != sig.r1:
        raise DimensionMismatch(
            f"element blocks {g.g0.nrows}/{g.g1.nrows} do not match signature ({sig.r0}, {sig.r1})"
        )


def apply_graded_element(g: GradedGroupElement, row: int, f: SuperPolynomial) -> SuperPolynomial:
    """Linear substitution within one row:
    x[row,c] -> sum_{c'} g0[c',c] x[row,c'] and likewise theta via g1."""
    sig = f.sig
    _require_blocks(g, sig)
    if not (1 <= row <= sig.n):
        raise ValueError(f"row {row} outside 1..{sig.n}")

    # images of x[row,c] and theta[row,c], indexed by c - 1
    x_images = [
        {
            SuperMonomial._canonical(((row, cp + 1, 1),), ()): g.g0.get(cp, c)
            for cp in range(sig.r0)
            if g.g0.get(cp, c)
        }
        for c in range(sig.r0)
    ]
    theta_images = [
        {
            SuperMonomial._canonical((), ((row, cp + 1),)): g.g1.get(cp, c)
            for cp in range(sig.r1)
            if g.g1.get(cp, c)
        }
        for c in range(sig.r1)
    ]

    total: dict[SuperMonomial, Fraction] = {}
    for mono, coeff in f.terms.items():
        # multiply substituted factors in canonical order; untouched factors
        # pass through as a single monomial so signs stay exact
        passive_x = tuple(t for t in mono.xpart if t[0] != row)
        active_x = [(c, e) for r, c, e in mono.xpart if r == row]
        passive_pre = tuple(p for p in mono.theta if p[0] < row)
        active_t = [c for r, c in mono.theta if r == row]
        passive_post = tuple(p for p in mono.theta if p[0] > row)
        acc = {SuperMonomial._canonical(passive_x, passive_pre): coeff}
        for c, e in active_x:
            for _ in range(e):
                acc = _mul_terms(acc, x_images[c - 1])
        for c in active_t:
            acc = _mul_terms(acc, theta_images[c - 1])
        if passive_post:
            acc = _mul_terms(acc, {SuperMonomial._canonical((), passive_post): Fraction(1)})
        for m, c in acc.items():
            total[m] = total[m] + c if m in total else c
    return SuperPolynomial._canonical(sig, total)


def apply_wreath(w: WreathElement, f: SuperPolynomial) -> SuperPolynomial:
    """Composite action of a wreath label: per-row substitutions, then the
    row relabeling.  Identity rows and an identity relabeling are skipped,
    so the identity label returns f itself."""
    sig = f.sig
    if w.sigma.n != sig.n:
        raise DegreeMismatch(f"wreath degree {w.sigma.n} != {sig.n} rows")
    out = f
    for row, g in enumerate(w.gs, start=1):
        _require_blocks(g, sig)
        if not g.is_identity:
            out = apply_graded_element(g, row, out)
    if not w.sigma.is_identity:
        out = apply_row_permutation(w.sigma, out)
    return out


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


def coefficient_vector(f: SuperPolynomial, basis: Sequence[SuperMonomial]) -> list[Fraction]:
    """Coordinates of f in the given monomial basis; raises if f has support
    outside the basis."""
    index = {m: k for k, m in enumerate(basis)}
    vec = [Fraction(0)] * len(basis)
    for mono, c in f.terms.items():
        if mono not in index:
            raise ValueError(f"term {mono!r} outside the given basis")
        vec[index[mono]] = c
    return vec

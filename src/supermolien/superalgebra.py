"""Supercommutative polynomial algebra on n rows of (r0 even, r1 odd) variables.

Monomials are x-exponent maps times a strictly increasing product of odd
(theta) variables; reordering odd factors costs the sign of the permutation
that sorts them, counted by its inversions (_inversion_sign, which only
this module reads: a Permutation reads its sign off its cycles), and a
repeated odd factor kills the term.  Variables are indexed (row, col),
1-based, ordered lexicographically.  A monomial is the plain pair
(xpart, theta) of tuples, xpart the sorted (row, col, exponent) triples
with positive exponents and distinct keys and theta the strictly
increasing odd factors, so hashing and equality run in C.  It is no
instance of a class: the kernels make one per term image, and a pair
costs about 30 ns to make against about 200 ns for a tuple subclass
instance (Python 3.11.7).  SuperMonomial is the one validating
constructor of a pair, for outside input, and the validating
SuperPolynomial passes every key through it; the kernels build canonical
pairs themselves.  Readers take a pair apart by m[0] and m[1].

A wreath label (sigma, (g_1..g_n)) acts by one linear substitution: each
variable (i, c) is replaced by column c of g_i (GradedGroupElement.columns)
moved to row sigma^{-1}(i), the column of the label's matrix whose
char-poly the Molien route takes.  Within a row the block g_i substitutes
on columns, and rows move contravariantly, x_i -> x_{sigma^{-1}(i)}.
Each label compiles its substitution once (WreathElement.substitution).
One private kernel, the weighted label sum _label_sum, maps a whole term
map through (weight, label) pairs whose labels fit the terms' signature:
a molien.GroupAction checks its factors when it is made, and the shuffle
labels are built on the signature they sum over, so the sum checks no
label.  It holds the one map of a term through a one-term label, the
label of a (scaled) signed permutation group, in its own loop over
(label, term); a label that is not one-term goes to _multi_term_image,
which multiplies each term's factors out.  The Reynolds projector is its character-weighted sum
over a group, the shuffle product its signed sum over coset
representatives, and the shuffle battery's invariance test its term map
compared with f's.  The sum keeps cancelled terms as zeros, so over one
monomial and the one-term labels of a group its keys are the monomial's
orbit, which molien._orbit_sums reads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import SignatureMismatch
from .groups import Substitution, once
from .rationals import exact, format_rational, parse_int, parse_rational

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

    @once
    def _variables(self) -> tuple[tuple[XKey, ...], tuple[XKey, ...]]:
        """The even and the odd variables, each in (row, col) order, built
        once per signature object."""
        rows = range(1, self.n + 1)
        return tuple(
            tuple((row, col) for row in rows for col in range(1, r + 1)) for r in (self.r0, self.r1)
        )

    def even_vars(self) -> tuple[XKey, ...]:
        """The even variables in (row, col) order: the one tuple of this
        signature object, for callers to read, never to change."""
        return self._variables[0]

    def odd_vars(self) -> tuple[XKey, ...]:
        """The odd variables in (row, col) order, as even_vars."""
        return self._variables[1]


def _inversion_sign(seq: Sequence) -> int:
    """(-1) to the number of inversions of seq, a sequence of distinct
    comparable items: the sign of the permutation that sorts it."""
    if len(seq) <= 1:
        return 1
    odd = False
    for i in range(1, len(seq)):
        a = seq[i]
        for b in seq[:i]:
            if b > a:
                odd = not odd
    return -1 if odd else 1


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


Monomial = tuple[tuple[tuple[int, int, int], ...], tuple[XKey, ...]]


def SuperMonomial(xpart, theta: Iterable[XKey] = ()) -> Monomial:
    """The canonical pair (xpart, theta) of outside input: xpart a
    {(row, col): exponent} map or (row, col, exponent) triples, repeated
    variables summed, zero exponents dropped and the rest sorted; theta
    strictly increasing (row, col) odd factors.  ValueError on a negative
    exponent, a theta not strictly increasing, or an entry that is not an
    integer (rationals.parse_int)."""
    items = xpart.items() if isinstance(xpart, Mapping) else (((r, c), e) for r, c, e in xpart)
    merged: dict[XKey, int] = {}
    for (r, c), e in items:
        key, e = (parse_int(r, "x row"), parse_int(c, "x column")), parse_int(e, "x exponent")
        if e < 0:
            raise ValueError(f"negative exponent on x[{r},{c}]")
        if e:
            merged[key] = merged.get(key, 0) + e
    theta = tuple((parse_int(r, "theta row"), parse_int(c, "theta column")) for r, c in theta)
    if any(theta[i] >= theta[i + 1] for i in range(len(theta) - 1)):
        raise ValueError(f"theta factors not strictly increasing: {theta}")
    return tuple([(r, c, e) for (r, c), e in sorted(merged.items())]), theta


def _bidegree(m: Monomial) -> tuple[int, int]:
    return sum(e for _, _, e in m[0]), len(m[1])


def _sort_key(m: Monomial) -> tuple:
    """Total degree, then x-degree, then the parts."""
    i, j = _bidegree(m)
    return (i + j, i, m[0], m[1])


def _format_monomial(m: Monomial) -> str:
    xs = "".join(f"x[{r},{c}]" + (f"^{e}" if e > 1 else "") for r, c, e in m[0])
    ts = "".join(f"th[{r},{c}]" for r, c in m[1])
    return (xs + ts) or "1"


class SuperPolynomial:
    """Finite Q-linear combination of monomials over a fixed signature.

    Coefficients are exact (rationals.exact): ints where integral,
    Fractions otherwise, never 0.  The validating constructor refuses a
    key that SuperMonomial does not give back unchanged, or that names a
    variable outside the signature."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig: AlgebraSignature, terms: Mapping[Monomial, int | Fraction] | None = None):
        clean: dict[Monomial, int | Fraction] = {}
        if terms:
            for mono, c in terms.items():
                canon = SuperMonomial(*mono)
                if canon != mono:
                    raise ValueError(f"monomial {mono} is not canonical; {canon} is")
                c = exact(c)
                if not c:
                    continue
                for r, col, _ in canon[0]:
                    if not (1 <= r <= sig.n and 1 <= col <= sig.r0):
                        raise ValueError(f"x[{r},{col}] outside signature {sig}")
                for r, col in canon[1]:
                    if not (1 <= r <= sig.n and 1 <= col <= sig.r1):
                        raise ValueError(f"theta[{r},{col}] outside signature {sig}")
                clean[canon] = c
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SuperPolynomial is immutable")

    @classmethod
    def _canonical(cls, sig: AlgebraSignature, terms: dict) -> "SuperPolynomial":
        """Trusted constructor: terms maps monomials inside sig to ints or
        Fractions.

        Zero coefficients are dropped and integral Fractions become ints;
        nothing else is checked, and the dict is filtered into a new one,
        never kept."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "sig", sig)
        terms = {m: c if type(c) is int else exact(c) for m, c in terms.items() if c}
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(sig: AlgebraSignature) -> "SuperPolynomial":
        return SuperPolynomial(sig)

    @staticmethod
    def one(sig: AlgebraSignature) -> "SuperPolynomial":
        return SuperPolynomial(sig, {SuperMonomial({}): 1})

    @staticmethod
    def x_var(sig: AlgebraSignature, row: int, col: int) -> "SuperPolynomial":
        return SuperPolynomial(sig, {SuperMonomial({(row, col): 1}): 1})

    @staticmethod
    def theta_var(sig: AlgebraSignature, row: int, col: int) -> "SuperPolynomial":
        return SuperPolynomial(sig, {SuperMonomial({}, ((row, col),)): 1})

    @staticmethod
    def monomial(sig: AlgebraSignature, mono: Monomial, c=1) -> "SuperPolynomial":
        return SuperPolynomial(sig, {mono: c})

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        _require_same_sig(self, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return SuperPolynomial._canonical(self.sig, out)

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self + other.scale(-1)

    def scale(self, c) -> "SuperPolynomial":
        c = exact(c)
        return SuperPolynomial._canonical(self.sig, {m: c * v for m, v in self.terms.items()})

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
        items = sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))
        body = " + ".join(f"{format_rational(c)}*{_format_monomial(m)}" for m, c in items[:6]) or "0"
        if len(items) > 6:
            body += " + ..."
        return f"<superpoly {self.sig.r0},{self.sig.r1};n={self.sig.n}: {body}>"

    def bidegree_support(self) -> set[tuple[int, int]]:
        return {_bidegree(m) for m in self.terms}

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        items = sorted(self.terms.items(), key=lambda kv: _sort_key(kv[0]))
        return {
            "sig": {"r0": self.sig.r0, "r1": self.sig.r1, "n": self.sig.n},
            "terms": [
                {
                    "x": [[r, c, e] for r, c, e in xpart],
                    "theta": [[r, c] for r, c in theta],
                    "c": format_rational(coeff),
                }
                for (xpart, theta), coeff in items
            ],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "SuperPolynomial":
        s = data["sig"]
        sig = AlgebraSignature(*(parse_int(s[k], f"sig {k}") for k in ("r0", "r1", "n")))
        terms: dict[Monomial, int | Fraction] = {}
        for entry in data["terms"]:
            theta, sign = normalize_theta(tuple(p) for p in entry["theta"])
            if sign == 0:
                raise ValueError(f"repeated odd variable in term {entry}")
            mono = SuperMonomial([(r, c, e) for r, c, e in entry["x"]], theta)
            c = sign * parse_rational(entry["c"])
            terms[mono] = terms.get(mono, 0) + c
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


def mul_monomials(m1: Monomial, m2: Monomial) -> tuple[Monomial, int]:
    """Product of canonical monomials: merged x-part, m1's thetas before m2's."""
    (x1, a), (x2, b) = m1, m2
    if not a or not b or a[-1] < b[0]:
        theta, sign = a + b, 1
    else:
        theta, sign = normalize_theta(a + b)
    if sign == 0:
        return ((), ()), 0
    return (_merge_xpart(x1, x2), theta), sign


def _mul_terms(a: Mapping[Monomial, Fraction], b: Mapping[Monomial, Fraction]) -> dict:
    """Product of two term maps; cancelled terms stay in as zeros."""
    out: dict[Monomial, Fraction] = {}
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


def _multi_term_image(sub: Substitution, terms: Mapping) -> dict:
    """The image of a term map under a compiled label that is not one-term
    and fits the terms' signature: each term's factors are multiplied out one
    by one and the terms summed, as a term map without zeros, ints where
    the coefficients and the label's entries are."""
    even, odd = sub.even, sub.odd
    acc: dict[Monomial, int | Fraction] = {}
    for (xpart, theta), coeff in terms.items():
        image = {((), ()): 1}
        for r, c, e in xpart:
            form = {(((*v, 1),), ()): a for v, a in even[r, c]}
            for _ in range(e):
                image = _mul_terms(image, form)
        for p in theta:
            image = _mul_terms(image, {((), (v,)): a for v, a in odd[p]})
        for m, a in image.items():
            v = coeff if a == 1 else -coeff if a == -1 else coeff * a
            acc[m] = acc[m] + v if m in acc else v
    return {m: a for m, a in acc.items() if a}


def _label_sum(pairs: Iterable, terms: Mapping) -> dict:
    """sum over (weight, label) pairs of weight * w.f, f given by its terms
    and each weight +-1: the summed term map, zeros kept, ints where f's
    coefficients and the labels' entries are ints.  The labels are trusted
    to fit f.

    This is the one map of a term through a one-term label: the label sends
    each monomial to one monomial, and distinct monomials to distinct ones,
    each variable to its image times a coefficient, so a term's image is
    found by one sort of the x-part and the sign of the odd factors'
    reordering (one compare for two, the inversion count for more).  A
    label that is not one-term maps f through _multi_term_image."""
    acc: dict[Monomial, int | Fraction] = {}
    items = terms.items()
    for weight, w in pairs:
        sub = w.substitution
        if not sub.one_term:
            for m, c in _multi_term_image(sub, terms).items():
                if weight < 0:
                    c = -c
                acc[m] = acc[m] + c if m in acc else c
            continue
        even, odd = sub.even, sub.odd
        for (xpart, theta), c in items:
            if weight < 0:
                c = -c
            xs = []
            for r, col, e in xpart:
                ((v, a),) = even[r, col]
                xs.append(v + (e,))
                if a != 1:
                    c *= a**e
            ts = theta
            if len(theta) == 1:
                ((v, a),) = odd[theta[0]]
                ts = (v,)
                if a != 1:
                    c *= a
            elif len(theta) == 2:
                ((v, a),), ((u, b),) = odd[theta[0]], odd[theta[1]]
                if v > u:
                    v, u = u, v
                    c = -c
                ts = (v, u)
                if a != 1 or b != 1:
                    c *= a * b
            elif theta:
                vs = []
                for p in theta:
                    ((v, a),) = odd[p]
                    vs.append(v)
                    if a != 1:
                        c *= a
                if _inversion_sign(vs) < 0:
                    c = -c
                vs.sort()
                ts = tuple(vs)
            xs.sort()
            m = (tuple(xs), ts)
            acc[m] = acc[m] + c if m in acc else c
    return acc


def _require_bidegree(i: int, j: int) -> None:
    if i < 0 or j < 0:
        raise ValueError("bidegrees must be nonnegative")


def bidegree_basis_size(sig: AlgebraSignature, i: int, j: int) -> int:
    """len(bidegree_basis(sig, i, j)), counted without building the basis:
    the multisets of i of the n*r0 even variables times the j-subsets of
    the n*r1 odd ones.  Negative bidegrees raise ValueError."""
    _require_bidegree(i, j)
    even = sig.n * sig.r0
    # math.comb(-1, 0) raises, and no even variables leave only the empty x-part
    xparts = math.comb(even + i - 1, i) if even else int(i == 0)
    return xparts * math.comb(sig.num_odd, j)


def bidegree_basis(sig: AlgebraSignature, i: int, j: int) -> list[Monomial]:
    """Monomial basis of the (i, j) bidegree component, deterministically
    ordered: x-exponent vectors in descending lex (major), theta subsets in
    ascending lex (minor).  Its length is bidegree_basis_size, which the
    caller checks against a work bound; negative bidegrees raise ValueError.

    The x-parts come from a recursion over exponent vectors that places the
    first positive exponent: on each even variable in turn, largest first,
    with the rest of the degree on the later variables, and last all of it
    on the last variable, which is descending lex.  Each x-part is built
    once, its factors in variable order, and then paired with each theta
    subset of itertools.combinations, ascending lex, so both parts come out
    canonical.  The recursion is at most i + 1 calls deep, however many
    variables there are."""
    _require_bidegree(i, j)
    evars = sig.even_vars()
    thetas = list(itertools.combinations(sig.odd_vars(), j))
    if not thetas or (i and not evars):
        return []
    last = len(evars) - 1
    xparts: list[tuple] = []

    def extend(k: int, left: int, xpart: tuple) -> None:
        # xpart followed by each x-part of degree left on evars[k:]
        if left:
            for v in range(k, last):
                r, c = evars[v]
                for e in range(left, 0, -1):
                    extend(v + 1, left - e, xpart + ((r, c, e),))
            xpart += (evars[last] + (left,),)
        xparts.append(xpart)

    extend(0, i, ())
    return [(x, t) for x in xparts for t in thetas]


def coefficient_vector(f: SuperPolynomial, index: Mapping[Monomial, int]) -> dict[int, int | Fraction]:
    """Coordinates of f in a monomial basis, as the {position: coefficient}
    dict of its nonzero coordinates; index maps each basis monomial to its
    position, built once per basis.  Raises if f has support outside the
    basis."""
    row = {}
    for mono, c in f.terms.items():
        k = index.get(mono)
        if k is None:
            raise ValueError(f"term {_format_monomial(mono)} outside the given basis")
        row[k] = c
    return row

"""Exact bigraded Hilbert series of invariants, two independent ways.

A GroupAction, the one format of every weighted label set, is its labels
as (chi(w), w) pairs, chi the +-1 linear character selecting the isotypic
component: from_matrix_group takes chi as a +-1 tuple, or None for the
trivial one, and of_labels weights by sgn(sigma).  Every label w acts by
one matrix per graded part, M0(w) on the even and M1(w) on the odd
variables, compiled once per label into WreathElement.substitution, which
both routes read and whose shape the action checks once, when it is made.
The Molien route averages det(I + u*M1)/det(I - q*M0) over the pairs with
weights chi(w^{-1}) = chi(w).  The summand depends on w only through its
two char-polys, so the sum is keyed by char-poly pair: each label's pair
is computed from its substitution's two maps (by a cycle walk when the
matrix is monomial, by Berkowitz's recurrence otherwise), the weights
are summed per distinct pair, and each pair is expanded into a series
once.  The oracle route never looks at Molien: it takes the exact rank of
the Reynolds operator, the average of the substitutions by the same
matrices, on the monomial basis of each bidegree.  Since R(w.f) = chi(w) R(f), a label
mapping m to a single term c*m' gives R(m') = chi(w)/c R(m), a multiple of
R(m), so the rank is taken over one row per orbit of monomials, not one per
monomial.  Each row is one call of the weighted label sum of superalgebra
over the action's pairs: it maps the orbit's first monomial, with
coefficient 1, through every label's compiled substitution, one-term
labels inside the sum's own loop, builds no polynomial per label, and
sums chi(w)*c as ints (Fractions only for non-integral c).  That
undivided sum is |W| R(m), which spans the same line as R(m), so only the
public reynolds_project divides by |W|.  The rows go to the integer
Bareiss kernel as sparse (position, value) pairs.
molien_vs_oracle compares the two routes coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BasisTooLarge, SignatureMismatch
from .groups import (
    MatrixGroup,
    PermGroup,
    Permutation,
    WreathElement,
    build_wreath,
    perm_sign,
    validate_character,
)
from .linalg import _charpoly_rows, _rank_rows
from .series import Caps, Key, TrigradedSeries
from .superalgebra import (
    AlgebraSignature,
    SuperMonomial,
    SuperPolynomial,
    _label_sum,
    _require_shape,
    bidegree_basis,
    bidegree_basis_size,
)

DEFAULT_BASIS_LIMIT = 5000

# "invariant" counts S_n[G]-invariants; "antiinvariant" weights each wreath
# label by the sign of its row permutation.
FLAVORS = ("invariant", "antiinvariant")


def require_flavor(flavor: str) -> bool:
    """Whether the flavor is signed, weighting each label by sgn(sigma): the
    one place a flavor name is read."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    return flavor == "antiinvariant"


@dataclass(frozen=True)
class GroupAction:
    """Wreath labels acting on n rows of (r0, r1) variables, as (chi(w), w)
    pairs: each label w weighted by +-1, for a group the value of the
    linear character selecting the isotypic component to count.

    The Molien average and the label sum take any set of pairs.  The
    Reynolds route needs labels that form a group, each element listed
    once, with the character a homomorphism on it: the projector and its
    orbit sharing rest on R(w.f) = chi(w) R(f).

    Every label must act on the signature's rows and blocks; a label that
    does not is refused, once, when the action is made, from the shape of
    its substitution, with the errors of the Reynolds route."""

    signature: AlgebraSignature
    pairs: tuple[tuple[int, WreathElement], ...]

    def __post_init__(self):
        for _, w in self.pairs:
            _require_shape(w.substitution, self.signature)

    @property
    def order(self) -> int:
        return len(self.pairs)

    @staticmethod
    def from_matrix_group(G: MatrixGroup, character: Sequence[int] | None = None) -> "GroupAction":
        """Single-row action of a matrix group (n = 1).

        character is None for the trivial character, or +-1 values aligned
        with G's element order (such as groups.sign_character(G)), which
        are validated against the group's generators.
        """
        sig = AlgebraSignature(G.r0, G.r1, 1)
        ident = Permutation.identity(1)
        chi = (1,) * G.order if character is None else validate_character(character, G)
        return GroupAction(sig, tuple((c, WreathElement(ident, (g,))) for c, g in zip(chi, G.elements)))

    @staticmethod
    def of_labels(signature: AlgebraSignature, labels: Iterable[WreathElement], signed: bool) -> "GroupAction":
        """The labels, each weighted by sgn(sigma) when signed, else by 1.
        The sign is computed once per distinct sigma, which P[G] shares
        among |G|^n labels."""
        if not signed:
            return GroupAction(signature, tuple((1, w) for w in labels))
        signs: dict[Permutation, int] = {}
        pairs = []
        for w in labels:
            sign = signs.get(w.sigma)
            if sign is None:
                sign = signs[w.sigma] = perm_sign(w.sigma)
            pairs.append((sign, w))
        return GroupAction(signature, tuple(pairs))

    @staticmethod
    def from_wreath(P: PermGroup, G: MatrixGroup, n: int, flavor: str = "invariant") -> "GroupAction":
        """Action of P[G] on n rows; flavor "invariant" weights every label 1,
        flavor "antiinvariant" weights by sgn(sigma)."""
        signed = require_flavor(flavor)
        return GroupAction.of_labels(AlgebraSignature(G.r0, G.r1, n), build_wreath(P, G, n), signed)


def _pair_table(den: tuple, num: tuple, dq: int) -> dict[Key, int | Fraction]:
    """Coefficients of det(I + u*M1) / det(I - q*M0) at (0, i, j), i <= dq,
    given den = det(I - z*M0) and num = det(I - z*M1), truncated at the u
    cap, as coefficient tuples in z.

    The q-only denominator 1 + c_1 q + c_2 q^2 + ... is inverted by the
    linear recurrence b_0 = 1, b_k = -sum_m c_m b_{k-m}.
    """
    inv = [1]
    for k in range(1, dq + 1):
        inv.append(-sum(den[m] * inv[k - m] for m in range(1, min(k, len(den) - 1) + 1)))
    return {
        (0, i, j): (-a if j % 2 else a) * b
        for j, a in enumerate(num)
        if a
        for i, b in enumerate(inv)
        if b
    }


def super_molien(action: GroupAction, dq: int, du: int | None = None) -> TrigradedSeries:
    """Character-weighted Molien average, exact within caps (0, dq, du).

    du defaults to the full odd dimension n*r1, where the numerator
    det(I + u*g1) is a polynomial of exactly that degree.  A label's term
    depends only on its pair of char-polys, det(I - z*M0) and det(I - z*M1)
    truncated at du, so each label's two char-polys are computed from the
    even and odd maps of its substitution and chi(w) is summed per
    distinct pair; each pair of nonzero weight is expanded once, scaled by
    its weight, and the sum is divided by |W| once.  The char-poly kernel
    reads a label matrix whose variables each map to one term, on
    distinct variables (every label of P[G] with G of signed permutation
    matrices), off the cycles of that map, and any other by Berkowitz's
    recurrence; it picks from the maps alone.  Labels are grouped by value only, never
    by cycle type or conjugacy class, and nothing outlives the call.
    """
    caps = Caps.of((0, dq, action.signature.num_odd if du is None else du))
    weights: dict[tuple[tuple, tuple], int] = {}
    for chi, w in action.pairs:
        sub = w.substitution
        pair = (_charpoly_rows(sub.even), _charpoly_rows(sub.odd)[: caps.u + 1])
        weights[pair] = weights.get(pair, 0) + chi
    total: dict[Key, int | Fraction] = {}
    for (den, num), weight in weights.items():
        if weight:
            for key, c in _pair_table(den, num, dq).items():
                total[key] = total.get(key, 0) + weight * c
    order = action.order
    return TrigradedSeries._canonical(caps, {k: Fraction(c) / order for k, c in total.items()})


def reynolds_project(action: GroupAction, f: SuperPolynomial) -> SuperPolynomial:
    """(1/|W|) sum over w of chi(w^{-1}) w.f, the projector onto the
    chi-isotypic component; chi(w^{-1}) = chi(w) = +-1.  The label sum is
    divided by |W| once."""
    if f.sig != action.signature:
        raise SignatureMismatch(f"{f.sig} != {action.signature}")
    order = action.order
    acc = _label_sum(action.pairs, f.terms)
    return SuperPolynomial._canonical(f.sig, {m: Fraction(c) / order for m, c in acc.items() if c})


def _orbit_sums(action: GroupAction, basis: Sequence[SuperMonomial]) -> list[tuple[SuperMonomial, dict]]:
    """One undivided label sum sum_w chi(w) w.m = |W| R(m) per orbit, as
    (m, term map without zeros) in basis order of its first monomial m.

    A monomial that no earlier sum reached is mapped through every label,
    with coefficient 1; each label mapping it to a single term c*m' marks
    m' reached, R(m') = chi(w)/c R(m) being a multiple of R(m).  For a group
    of signed permutation matrices that covers the whole orbit, and a dead
    orbit (R(m) = 0) gives one empty sum; under other groups fewer
    monomials are reached and the rest are summed themselves."""
    reached: set[SuperMonomial] = set()
    sums = []
    for m in basis:
        if m not in reached:
            acc = _label_sum(action.pairs, {m: 1}, reached)
            sums.append((m, {k: c for k, c in acc.items() if c}))
    return sums


def _projector_rows(
    action: GroupAction, i: int, j: int
) -> tuple[list[SuperMonomial], list[dict], list[list[tuple[int, int | Fraction]]]]:
    """(basis, sums, rows) for bidegree (i, j): the basis monomials, the
    orbit sums of _orbit_sums over that basis, and each sum's coefficient
    row over the basis as (position, value) pairs of its nonzero entries.
    One row per orbit, so there are no more rows than columns; the rows
    span the image of the Reynolds operator.  A basis over
    DEFAULT_BASIS_LIMIT monomials is refused, from its counted size,
    before any monomial is built."""
    size = bidegree_basis_size(action.signature, i, j)
    if size > DEFAULT_BASIS_LIMIT:
        raise BasisTooLarge(
            f"bidegree ({i}, {j}) basis has {size} monomials, limit {DEFAULT_BASIS_LIMIT}"
        )
    basis = bidegree_basis(action.signature, i, j)
    index = {m: k for k, m in enumerate(basis)}
    sums = [acc for _, acc in _orbit_sums(action, basis)]
    return basis, sums, [[(index[m], c) for m, c in acc.items()] for acc in sums]


def invariant_dimension_bruteforce(action: GroupAction, i: int, j: int) -> int:
    """Exact dimension of the chi-isotypic component in bidegree (i, j),
    computed as the rank of the Reynolds operator on the monomial basis,
    over one integer row per orbit.  Never consults the Molien series."""
    return _rank_rows(_projector_rows(action, i, j)[2])


def molien_vs_oracle(action: GroupAction, dq: int, du: int | None = None) -> dict:
    """Compare Molien coefficients against brute-force ranks on the full
    bidegree grid i <= dq, j <= du, the caps of the Molien series, which
    refuses negative ones before any rank is taken.  Returns a JSON-ready
    report."""
    series = super_molien(action, dq, du)
    agreements = 0
    mismatches = []
    for i in range(series.caps.q + 1):
        for j in range(series.caps.u + 1):
            molien_c = series.coefficient((0, i, j))
            oracle = invariant_dimension_bruteforce(action, i, j)
            if molien_c == oracle:
                agreements += 1
            else:
                mismatches.append(
                    {"i": i, "j": j, "molien": str(molien_c), "oracle": oracle}
                )
    return {"agreements": agreements, "mismatches": mismatches}

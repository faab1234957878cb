"""Exact bigraded Hilbert series of invariants, two independent ways.

A GroupAction, the one action of the package, is P[G] on n rows kept as
its factors: top, the (chi(sigma), sigma) pairs of a permutation group P
on the rows, and rows, the (psi(g), g) pairs of G's elements, chi and psi
the +-1 linear characters selecting the isotypic component.  Its labels
(sigma, (g_1..g_n)), weighted chi(sigma) psi(g_1)..psi(g_n), are never
listed.  A single matrix group is P = 1 on one row (from_matrix_group,
psi its character); from_wreath weights the top by sgn(sigma) or 1.
Every label w acts by one matrix per graded part, M0(w) on the even and
M1(w) on the odd variables.  The Molien route averages
det(I + u*M1)/det(I - q*M0) with weights chi(w^{-1}) = chi(w) in one sum,
fed sigma by sigma.  A label's matrices are block-diagonal over the
cycles of sigma, so its two char-polys are the products of its blocks',
whatever G is.  A block depends on the g-sequence along its cycle alone,
so each sequence's block has its char-polys taken once per call, by the
one char-poly kernel, and the sum counts the labels by convolving one
table of block numbers over G^m per cycle length m, each sequence
weighted by its psi values' product.  The weights are summed per sorted
tuple of block numbers, each such key's blocks are multiplied once, and
the weighted numerators are summed per denominator, each denominator
expanded once into a series, since distinct keys can share one.  Each
block's char-polys come from its own matrices, no sigma is grouped by
cycle type, and no cycle index or block determinant lemma is used: those
stay with the plethysm route, which keeps the routes independent.  The oracle route never looks at Molien:
it takes the exact rank of the Reynolds operator, the average of the
substitutions by the same matrices, on the monomial basis of each
bidegree.  Since R(w.f) = chi(w) R(f), a label mapping m to a single
term c*m' gives R(m') = chi(w)/c R(m), a multiple of R(m), so the rank is
taken over one row per orbit of monomials, not one per monomial.  Each
row is one weighted sum of the action: it maps the orbit's first
monomial, with coefficient 1, through the compiled substitutions
(WreathElement.substitution) by the label sum of superalgebra, builds no
polynomial per label, and sums chi(w)*c as ints (Fractions only for
non-integral c).  The labels of P and of G are compiled on the
route's first use, never by the Molien route, and the sum goes in two
stages, as P[G]'s Reynolds operator factors through G^n's: each row's
content is mapped through G's labels, once per distinct content and
action, the row images are multiplied, and the product is mapped through
P's labels.  A trivial G leaves the row stage out, and a trivial P on one
row the top stage.  That undivided sum is |W| R(m), which spans the same line as
R(m), so only the public reynolds_project divides by |W|.  The rows go to
the integer Bareiss kernel as sparse {position: value} dicts.
molien_vs_oracle compares the two routes coefficient by coefficient.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import BasisTooLarge, CapExceeded, DimensionMismatch, SignatureMismatch
from .groups import (
    WREATH_CAP,
    GradedGroupElement,
    MatrixGroup,
    PermGroup,
    Permutation,
    WreathElement,
    once,
    perm_sign,
    require_degree,
    require_wreath,
    validate_character,
)
from .linalg import _charpoly_rows, _poly_mul, _rank_rows
from .rationals import exact_div
from .series import Caps, Key, TrigradedSeries
from .superalgebra import (
    AlgebraSignature,
    Monomial,
    SuperPolynomial,
    _label_sum,
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
    """P[G] on n rows of (r0, r1) variables, kept as its factors: top, the
    (chi(sigma), sigma) pairs of P's row permutations, and rows, the
    (psi(g), g) pairs of G's elements.  Its |P| * |G|^n labels (sigma,
    (g_1..g_n)), each weighted chi(sigma) psi(g_1)..psi(g_n), are not
    listed: its repr, == and hash read the factors.

    The Molien average takes any top, such as one fixed cycle's coset.
    The Reynolds route needs labels that form a group, with chi and psi
    linear characters: the projector and its orbit sharing rest on
    R(w.f) = chi(w) R(f).

    Every sigma must act on the signature's n rows (DegreeMismatch) and
    every g have square blocks of its (r0, r1) (DimensionMismatch), and
    every weight be +1 or -1, and +1 on the identity sigma and g
    (ValueError): checked once, when the action is made, never in a sum."""

    signature: AlgebraSignature
    top: tuple[tuple[int, Permutation], ...]
    rows: tuple[tuple[int, GradedGroupElement], ...]

    def __post_init__(self):
        sig = self.signature
        for _, sigma in self.top:
            require_degree(sigma, sig.n)
        for _, g in self.rows:
            if g.shape != (sig.r0, sig.r0, sig.r1, sig.r1):
                raise DimensionMismatch(
                    "element blocks {}x{}/{}x{} do not match (r0, r1) = ({}, {})".format(*g.shape, sig.r0, sig.r1)
                )
        # sigma is the identity iff it has n cycles; g is compared only when psi is -1
        for name, pairs, is_identity in (
            ("top", self.top, lambda sigma: len(sigma.cycles) == sig.n),
            ("row", self.rows, lambda g: g == self._identity),
        ):
            for weight, e in pairs:
                if weight not in (1, -1):
                    raise ValueError(f"{name} character values must be +1 or -1, got {weight!r}")
                if weight == -1 and is_identity(e):
                    raise ValueError(f"{name} character must send the identity to 1")

    @property
    def order(self) -> int:
        return len(self.top) * len(self.rows) ** self.signature.n

    @staticmethod
    def from_matrix_group(G: MatrixGroup, character: Sequence[int] | None = None) -> "GroupAction":
        """A matrix group on one row: P = 1 on n = 1, the rows weighted by
        the character.

        character is None for the trivial character, or +-1 values aligned
        with G's element order (such as groups.sign_character(G)), which
        are validated against the group's generators.
        """
        psi = (1,) * G.order if character is None else validate_character(character, G)
        sig = AlgebraSignature(G.r0, G.r1, 1)
        return GroupAction(sig, ((1, Permutation.identity(1)),), tuple(zip(psi, G.elements)))

    @staticmethod
    def from_wreath(P: PermGroup, G: MatrixGroup, n: int, flavor: str = "invariant") -> "GroupAction":
        """P[G] on n rows; flavor "invariant" weights every sigma 1, flavor
        "antiinvariant" by sgn(sigma), and every g by 1."""
        signed = require_flavor(flavor)
        top = tuple([(perm_sign(sigma) if signed else 1, sigma) for sigma in P.elements])
        return GroupAction(AlgebraSignature(G.r0, G.r1, n), top, tuple([(1, g) for g in G.elements]))

    @once
    def _identity(self) -> GradedGroupElement:
        """The identity g, G's own element when rows hold it, so the top labels
        share its moved columns (GradedGroupElement.moves) with every action of G."""
        identity = GradedGroupElement.identity(self.signature.r0, self.signature.r1)
        return next((g for _, g in self.rows if g == identity), identity)

    @once
    def _top_labels(self) -> tuple:
        """top as labels (sigma, identity rows), built on first use."""
        gs = (self._identity,) * self.signature.n
        return tuple([(chi, WreathElement._of(sigma, gs)) for chi, sigma in self.top])

    @once
    def _row_labels(self) -> tuple:
        """rows as one-row labels (1, (g,)), built on first use."""
        ident = Permutation.identity(1)
        return tuple([(psi, WreathElement._of(ident, (g,))) for psi, g in self.rows])

    @once
    def _stages(self) -> tuple:
        """(top labels, row labels, whether every g is monomial, row images)
        of the two-stage sum, after |P| * |G|^n is checked against
        WREATH_CAP (require_wreath), so a refused action builds no label.
        The row images, which every weighted sum of the action fills, map a
        row part (x-part, theta) on its row r to its (image terms,
        single-term images) on row r; an empty row's is the sum of psi."""
        require_wreath(len(self.top), len(self.rows), self.signature.n)
        monomial = all(g.monomial for _, g in self.rows)
        constant = sum(psi for psi, _ in self.rows)
        images = {((), ()): ([((), (), constant)] if constant else [], [((), ())])}
        return self._top_labels, self._row_labels, monomial, images

    def _weighted_sum(self) -> Callable[..., dict]:
        """sum over the labels of chi(w) w.f, as a function of (terms,
        reached=None) under _label_sum's contract, for one caller's run of
        calls.  A trivial G (psi(1) = 1) sums over top alone, and a trivial
        P on one row over rows alone.  Otherwise (_stages) each term of f
        is split into its rows, each distinct row content mapped once per
        action through rows by _label_sum, the row images multiplied in row
        order (concatenated: already canonical, with sign +1), and the
        product summed over top.

        With reached, f one monomial m, a label sends m to a single term
        iff every g_i sends row i's content to a single term, so reached
        gets the top images of the products of single-term row images.
        For a monomial G whose row images are all nonzero, those products
        are the product's support, each row image's support being the
        content's whole G-orbit, so reached gets the sum's keys, zeros
        kept."""
        if len(self.rows) == 1:
            return functools.partial(_label_sum, self._top_labels)
        if len(self.top) == 1 and self.signature.n == 1:
            return functools.partial(_label_sum, self._row_labels)
        n = self.signature.n
        top, rows, monomial, images = self._stages

        def image(part: tuple) -> tuple[list, list]:
            xs, ts = part
            r = (xs or ts)[0][0]
            single = None if monomial else set()
            moved = _label_sum(rows, {_on_row(xs, ts, 1): 1}, single)
            # a monomial G's single-term images are all its images, zero or not
            return (
                [_on_row(x, t, r) + (a,) for (x, t), a in moved.items() if a],
                [_on_row(x, t, r) for x, t in (moved if monomial else single)],
            )

        def weighted_sum(terms: Mapping, reached: set | None = None) -> dict:
            product: dict = {}
            for (xpart, theta), c in terms.items():
                out = [((), (), c)]
                parts = []
                i = k = 0
                for r in range(1, n + 1):
                    # the row-r factors, xpart and theta being sorted by row
                    i0, k0 = i, k
                    while i < len(xpart) and xpart[i][0] == r:
                        i += 1
                    while k < len(theta) and theta[k][0] == r:
                        k += 1
                    part = (xpart[i0:i], theta[k0:k])
                    found = images.get(part)
                    if found is None:
                        found = images[part] = image(part)
                    parts.append(found)
                    out = [(x + mx, t + mt, a * b) for x, t, a in out for mx, mt, b in found[0]]
                for x, t, a in out:
                    m = (x, t)
                    product[m] = product[m] + a if m in product else a
            acc = _label_sum(top, product)
            if reached is not None:
                if monomial and product:
                    reached.update(acc)
                else:
                    heads = [((), ())]
                    for _, found in parts:
                        heads = [(x + hx, t + ht) for x, t in heads for hx, ht in found]
                    reached.update(_label_sum(top, dict.fromkeys(heads, 1)))
            return acc

        return weighted_sum


def _on_row(xpart: tuple, theta: tuple, r: int) -> tuple[tuple, tuple]:
    """A one-row x-part and theta moved to row r."""
    return tuple([(r, c, e) for _, c, e in xpart]), tuple([(r, c) for _, c in theta])


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


def _block_pair(gseq: Sequence, dq: int, du: int) -> tuple[tuple, tuple]:
    """det(I - z*M0) and det(I - z*M1), cut after z^dq and z^du, of the
    block that the g-sequence (g_1..g_m) along one m-cycle of sigma, in
    cycle order, gives a label.  Renaming rows keeps the block's
    char-polys, so the block is built on rows 1..m and stands for every
    m-cycle of every sigma."""
    m = len(gseq)
    if m == 1:
        even, odd = gseq[0].moves[1, 1]
    else:
        even, odd = {}, {}
        # the variables of row i land in row i - 1, those of row 1 in row m
        for i, g in enumerate(gseq, 1):
            moved_even, moved_odd = g.moves[i, i - 1 or m]
            even.update(moved_even)
            odd.update(moved_odd)
    return _charpoly_rows(even)[: dq + 1], _charpoly_rows(odd)[: du + 1]


class _MolienSum:
    """One call's sum of chi * det(I + u*M1)/det(I - q*M0) over an
    action's labels (sigma, gs), within caps (0, dq, du), checked first:
    fed sigma by sigma (add_sigmas), and divided by the order once
    (series).  super_molien makes the only one.

    A label's matrices are block-diagonal over the cycles of sigma, so its
    two char-polys are the products of its blocks'.  Each block, the
    g-sequence along one cycle, is numbered by its pair of char-polys, cut
    at the caps (_block_pair), monomial or not.  A label adds its weight
    to its key, the sorted numbers of its blocks."""

    def __init__(self, dq: int, du: int):
        self.caps = Caps.of((0, dq, du))
        self.numbers: dict[tuple[tuple, tuple], int] = {}
        self.keys: dict[tuple[int, ...], int] = {}

    def add_sigmas(self, top: Iterable[tuple[int, Permutation]], rows: Sequence[tuple[int, GradedGroupElement]]) -> None:
        """Every label (sigma, gs) of each (chi, sigma) pair of top, gs in
        G^n with G's (psi, g) pairs given as rows, weighted chi times the
        product of the psi values, without walking the labels: gs
        restricted to each cycle of sigma is a bijection onto the product
        over the cycles of G^m, m the cycle's length.  So one table per
        length m, summing the psi products of the g-sequences in G^m per
        block number, is built once per call, each sequence's block taken
        once, and a sigma's key weights are the convolution of its cycles'
        tables, times chi."""
        tables: dict[int, dict[int, int]] = {}
        keys, numbers, caps = self.keys, self.numbers, self.caps
        for chi, sigma in top:
            weights = {(): chi}
            for cycle in sigma.cycles:
                table = tables.get(len(cycle))
                if table is None:
                    table = tables[len(cycle)] = {}
                    for combo in itertools.product(rows, repeat=len(cycle)):
                        psis, gseq = zip(*combo)
                        k = numbers.setdefault(_block_pair(gseq, caps.q, caps.u), len(numbers))
                        table[k] = table.get(k, 0) + math.prod(psis)
                step: dict[tuple[int, ...], int] = {}
                for key, w in weights.items():
                    for k, count in table.items():
                        longer = tuple(sorted((*key, k)))
                        step[longer] = step.get(longer, 0) + w * count
                weights = step
            for key, w in weights.items():
                keys[key] = keys.get(key, 0) + w

    def series(self, order: int) -> TrigradedSeries:
        """The sum divided by order.  Each key with a nonzero weight has its
        blocks' char-polys multiplied once, cut at the caps, and its
        weighted numerator added to its denominator's, since distinct keys
        can share a denominator.  Each denominator is expanded once, with
        the summed numerator, into a series: _pair_table is linear in num."""
        caps = self.caps
        blocks_of = list(self.numbers)
        nums: dict[tuple, list] = {}
        for blocks, weight in self.keys.items():
            if weight:
                den, num = blocks_of[blocks[0]] if blocks else ((1,), (1,))
                for k in blocks[1:]:
                    block_den, block_num = blocks_of[k]
                    # a block's char-poly, often sparse, goes first: _poly_mul skips its zeros
                    den = _poly_mul(block_den, den, caps.q)
                    num = _poly_mul(block_num, num, caps.u)
                summed = nums.setdefault(tuple(den), [0] * (caps.u + 1))
                for j, a in enumerate(num):
                    summed[j] += weight * a
        total: dict[Key, int | Fraction] = {}
        for den, num in nums.items():
            if any(num):
                for key, c in _pair_table(den, num, caps.q).items():
                    total[key] = total.get(key, 0) + c
        return TrigradedSeries._canonical(caps, {k: exact_div(c, order) for k, c in total.items()})


def super_molien(action: GroupAction, dq: int, du: int | None = None) -> TrigradedSeries:
    """Character-weighted Molien average, exact within caps (0, dq, du), by
    the one Molien sum, fed sigma by sigma, after |G|^n, the size of the
    largest block table a sigma on n rows can need, is checked against
    WREATH_CAP.  No label is walked or built.

    du defaults to the full odd dimension n*r1, where the numerator
    det(I + u*g1) is a polynomial of exactly that degree.
    """
    sig = action.signature
    sequences = len(action.rows) ** sig.n
    if sequences > WREATH_CAP:
        raise CapExceeded(
            f"direct route needs up to {sequences} g-sequences, cap is {WREATH_CAP} (|G| = {len(action.rows)}, n = {sig.n})"
        )
    total = _MolienSum(dq, sig.num_odd if du is None else du)
    total.add_sigmas(action.top, action.rows)
    return total.series(action.order)


def reynolds_project(action: GroupAction, f: SuperPolynomial) -> SuperPolynomial:
    """(1/|W|) sum over w of chi(w^{-1}) w.f, the projector onto the
    chi-isotypic component; chi(w^{-1}) = chi(w) = +-1.  The action's
    weighted sum is divided by |W| once."""
    if f.sig != action.signature:
        raise SignatureMismatch(f"{f.sig} != {action.signature}")
    order = action.order
    acc = action._weighted_sum()(f.terms)
    return SuperPolynomial._canonical(f.sig, {m: Fraction(c) / order for m, c in acc.items() if c})


def _orbit_sums(action: GroupAction, basis: Sequence[Monomial]) -> list[tuple[Monomial, dict]]:
    """One undivided weighted sum sum_w chi(w) w.m = |W| R(m) per orbit, as
    (m, term map without zeros) in basis order of its first monomial m.

    A monomial that no earlier sum reached is summed, with coefficient 1,
    by one weighted sum of the action for the whole basis; each label
    mapping it to a single term c*m' marks m' reached, R(m') = chi(w)/c R(m)
    being a multiple of R(m).  For a group
    of signed permutation matrices that covers the whole orbit, and a dead
    orbit (R(m) = 0) gives one empty sum; under other groups fewer
    monomials are reached and the rest are summed themselves."""
    if not basis:
        return []
    reached: set[Monomial] = set()
    sums = []
    weighted_sum = action._weighted_sum()
    for m in basis:
        if m not in reached:
            acc = weighted_sum({m: 1}, reached)
            sums.append((m, {k: c for k, c in acc.items() if c}))
    return sums


def _projector_rows(
    action: GroupAction, i: int, j: int
) -> tuple[list[Monomial], list[dict], list[dict[int, int | Fraction]]]:
    """(basis, sums, rows) for bidegree (i, j): the basis monomials, the
    orbit sums of _orbit_sums over that basis, and each sum's coefficient
    row over the basis as the {position: value} dict of its nonzero entries.
    One row per orbit, so there are no more rows than columns; the rows
    span the image of the Reynolds operator.  A basis over
    DEFAULT_BASIS_LIMIT monomials is refused, from its counted size,
    before any monomial is built."""
    size = bidegree_basis_size(action.signature, i, j)
    if size > DEFAULT_BASIS_LIMIT:
        sig = action.signature
        raise BasisTooLarge(
            f"bidegree ({i}, {j}) basis on {sig.n} row{'s' * (sig.n != 1)} of ({sig.r0}, {sig.r1}) "
            f"has {size} monomials, limit {DEFAULT_BASIS_LIMIT}"
        )
    basis = bidegree_basis(action.signature, i, j)
    index = {m: k for k, m in enumerate(basis)}
    sums = [acc for _, acc in _orbit_sums(action, basis)]
    return basis, sums, [{index[m]: c for m, c in acc.items()} for acc in sums]


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

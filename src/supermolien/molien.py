"""Exact bigraded Hilbert series of invariants, two independent ways.

A GroupAction, the one format of every weighted label set, is its labels
as (chi(w), w) pairs, chi the +-1 linear character selecting the isotypic
component: from_matrix_group takes chi as a +-1 tuple, or None for the
trivial one, and of_labels weights by sgn(sigma).  Every label w acts by
one matrix per graded part, M0(w) on the even and M1(w) on the odd
variables, compiled once per label into WreathElement.substitution, whose
shape the action checks once, when it is made.  The Molien route averages
det(I + u*M1)/det(I - q*M0) with weights chi(w^{-1}) = chi(w) in one sum,
fed an action's pairs label by label, or P[G] sigma by sigma.  A label's
matrices are block-diagonal over the cycles of sigma, so its two
char-polys are the products of its blocks', whatever G is.  A block
depends on the g-sequence along its cycle alone, so each sequence's block
has its char-polys taken once per call, by the one char-poly kernel, and
the sigma-by-sigma feed counts P[G]'s labels by convolving one table of
block numbers over G^m per cycle length m.  The weights are summed per
sorted tuple of block numbers, each such key's blocks are multiplied
once, and each distinct char-poly pair is expanded once into a series,
since distinct keys can share one.  Each block's char-polys come from its
own matrices, no sigma is grouped by cycle type, and no cycle index or
block determinant lemma is used: those stay with the plethysm route,
which keeps the routes independent.  The oracle route never looks at
Molien: it takes the exact rank of the Reynolds operator, the average of
the substitutions by the same matrices, on the monomial basis of each
bidegree.  Since R(w.f) = chi(w) R(f), a label mapping m to a single
term c*m' gives R(m') = chi(w)/c R(m), a multiple of R(m), so the rank is
taken over one row per orbit of monomials, not one per monomial.  Each
row is one weighted sum of the action: it maps the orbit's first
monomial, with coefficient 1, through the compiled substitutions by the
label sum of superalgebra, builds no polynomial per label, and sums
chi(w)*c as ints (Fractions only for non-integral c).  A P[G] action
(WreathAction) keeps P's and G's labels, not its |P|*|G|^n own, and sums
in two stages, as its Reynolds operator factors through G^n's: each row's
content is mapped through G's labels, once per distinct content, the row
images are multiplied, and the product is mapped through P's labels.
That undivided sum is |W| R(m), which spans the same line as R(m), so
only the public reynolds_project divides by |W|.  The rows go to the
integer Bareiss kernel as sparse {position: value} dicts.
molien_vs_oracle compares the two routes coefficient by coefficient.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .errors import BasisTooLarge, SignatureMismatch
from .groups import (
    MatrixGroup,
    PermGroup,
    Permutation,
    WreathElement,
    _cycles,
    once,
    perm_sign,
    require_wreath,
    validate_character,
)
from .linalg import _charpoly_rows, _poly_mul, _rank_rows
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
    linear character selecting the isotypic component to count.  P[G]
    keeps its factors instead (WreathAction, made by from_wreath).

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
        """The labels, each weighted by sgn(sigma) when signed, else by 1."""
        return GroupAction(signature, tuple((perm_sign(w.sigma) if signed else 1, w) for w in labels))

    @staticmethod
    def from_wreath(P: PermGroup, G: MatrixGroup, n: int, flavor: str = "invariant") -> "WreathAction":
        """Action of P[G] on n rows; flavor "invariant" weights every label 1,
        flavor "antiinvariant" weights by sgn(sigma).  Its |P| * |G|^n labels
        are checked (require_wreath), not built: the action keeps its
        factors (WreathAction)."""
        signed = require_flavor(flavor)
        require_wreath(P.elements, G, n)
        sig = AlgebraSignature(G.r0, G.r1, n)
        ident = (G.elements[G.identity_index],) * n
        top = GroupAction.of_labels(sig, (WreathElement._of(sigma, ident) for sigma in P.elements), signed)
        return WreathAction(sig, top, GroupAction.from_matrix_group(G))

    def _weighted_sum(self) -> Callable[..., dict]:
        """The sum over the labels of chi(w) w.f, as a function of (terms,
        reached=None) under _label_sum's contract, for one caller's run of
        calls: here _label_sum over the pairs."""
        return functools.partial(_label_sum, self.pairs)

    def _feed(self, total: "_MolienSum") -> None:
        """Add the labels to a Molien sum, label by label."""
        total.add_labels((chi, w.sigma, w.gs) for chi, w in self.pairs)


@dataclass(frozen=True)
class WreathAction:
    """P[G] on n rows, kept as its factors, not its labels: top, P's labels
    (sigma, identity rows) weighted chi(sigma), and rows, G's one-row labels
    weighted 1, each compiled and checked once.  A label (sigma, gs) acts
    as (1, gs) followed by (sigma, 1), and (1, gs) acts row by row, g_i on
    row i, so the sum over P[G] is the sum over top of the product, row by
    row, of the sums over rows.  It serves the routes as a GroupAction
    does, by signature, order, _feed and _weighted_sum, and has no label
    list of its own: its repr, == and hash read the factors."""

    signature: AlgebraSignature
    top: GroupAction
    rows: GroupAction

    @property
    def order(self) -> int:
        return self.top.order * self.rows.order**self.signature.n

    @property
    def _elements(self) -> list:
        """G's elements, in element order."""
        return [w.gs[0] for _, w in self.rows.pairs]

    @once
    def _monomial(self) -> bool:
        """Whether every element of G is monomial, each label one-term."""
        return all(w.substitution.one_term for _, w in self.rows.pairs)

    def _feed(self, total: "_MolienSum") -> None:
        """Add every label to a Molien sum sigma by sigma (add_sigmas)."""
        total.add_sigmas(((chi, w.sigma) for chi, w in self.top.pairs), self._elements)

    def _weighted_sum(self) -> Callable[..., dict]:
        """sum over P[G] of chi(w) w.f: each term of f is split into its
        rows, each distinct row content mapped once per returned function
        through rows by _label_sum, the row images multiplied in row order
        (concatenated: already canonical, with sign +1), and the product
        summed over top.  A trivial G leaves the row stage out.

        With reached, f one monomial m, a label sends m to a single term
        iff every g_i sends row i's content to a single term, so reached
        gets the top images of the products of single-term row images.
        For a monomial G whose row images are all nonzero, those products
        are the product's support, each row image's support being the
        content's whole G-orbit, so reached gets the sum's keys, zeros
        kept."""
        top = self.top.pairs
        if self.rows.order == 1:
            return functools.partial(_label_sum, top)
        rows, n, monomial = self.rows.pairs, self.signature.n, self._monomial
        # row part (x-part, theta) on its row r -> (image terms, single-term images), on row r;
        # an empty row's image is the constant |G|
        images: dict[tuple, tuple[list, list]] = {((), ()): ([((), (), self.rows.order)], [((), ())])}
        new = tuple.__new__

        def image(part: tuple) -> tuple[list, list]:
            xs, ts = part
            r = (xs or ts)[0][0]
            single = None if monomial else set()
            moved = _label_sum(rows, {new(SuperMonomial, _on_row(xs, ts, 1)): 1}, single)
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
                    m = new(SuperMonomial, (x, t))
                    product[m] = product[m] + a if m in product else a
            acc = _label_sum(top, product)
            if reached is not None:
                if monomial and product:
                    reached.update(acc)
                else:
                    heads = [((), ())]
                    for _, found in parts:
                        heads = [(x + hx, t + ht) for x, t in heads for hx, ht in found]
                    reached.update(_label_sum(top, {new(SuperMonomial, head): 1 for head in heads}))
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
    """One call's sum of chi * det(I + u*M1)/det(I - q*M0) over labels
    (sigma, gs), within caps (0, dq, du), checked first: fed label by label
    (add_labels) or sigma by sigma (add_sigmas), and divided by the order
    once (series).

    A label's matrices are block-diagonal over the cycles of sigma, so its
    two char-polys are the products of its blocks'.  Each block, the
    g-sequence along one cycle, is numbered by its pair of char-polys, cut
    at the caps (_block_pair), monomial or not.  The pair depends on the
    sequence alone, so the numbers are memoized by the ids of its elements,
    each sequence walked once per call, the caller holding every element.
    A label adds its weight to its key, the sorted numbers of its
    blocks."""

    def __init__(self, dq: int, du: int):
        self.caps = Caps.of((0, dq, du))
        self.walked: dict[tuple[int, ...], int] = {}
        self.numbers: dict[tuple[tuple, tuple], int] = {}
        self.keys: dict[tuple[int, ...], int] = {}

    def _number(self, ids: tuple[int, ...], gseq: Sequence) -> int:
        """The number of the block of gseq, whose elements' ids are ids."""
        k = self.walked.get(ids)
        if k is None:
            numbers = self.numbers
            pair = _block_pair(gseq, self.caps.q, self.caps.u)
            k = self.walked[ids] = numbers.setdefault(pair, len(numbers))
        return k

    def add_labels(self, triples: Iterable[tuple]) -> None:
        """Each label (sigma, gs) of the (chi, sigma, gs) triples, read
        once, weighted chi; sigmas' cycles are memoized by identity."""
        cycles_of: dict[int, list] = {}
        walked, keys = self.walked, self.keys
        for chi, sigma, gs in triples:
            sigma_cycles = cycles_of.get(id(sigma))
            if sigma_cycles is None:
                sigma_cycles = cycles_of[id(sigma)] = _cycles(sigma)
            blocks = []
            for rows in sigma_cycles:
                ids = tuple([id(gs[i - 1]) for i in rows])
                k = walked.get(ids)
                if k is None:
                    k = self._number(ids, [gs[i - 1] for i in rows])
                blocks.append(k)
            blocks.sort()
            key = tuple(blocks)
            keys[key] = keys.get(key, 0) + chi

    def add_sigmas(self, sigmas: Iterable[tuple[int, Permutation]], elements: Sequence) -> None:
        """Every label (sigma, gs), gs in G^n, G's elements given in order, of each
        (chi, sigma) pair, weighted chi, without walking the labels: gs
        restricted to each cycle of sigma is a bijection onto the product
        over the cycles of G^m, m the cycle's length.  So one table per
        length m, counting each block number over G^m, is built once per
        call, and a sigma's key weights are the convolution of its cycles'
        tables, times chi."""
        tables: dict[int, dict[int, int]] = {}
        keys = self.keys
        for chi, sigma in sigmas:
            weights = {(): chi}
            for rows in _cycles(sigma):
                table = tables.get(len(rows))
                if table is None:
                    table = tables[len(rows)] = {}
                    for gseq in itertools.product(elements, repeat=len(rows)):
                        k = self._number(tuple([id(g) for g in gseq]), gseq)
                        table[k] = table.get(k, 0) + 1
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
        blocks' char-polys multiplied once, cut at the caps, and each
        distinct char-poly pair is expanded once into a series, since
        distinct keys can share one."""
        caps = self.caps
        blocks_of = list(self.numbers)
        pairs: dict[tuple[tuple, tuple], int] = {}
        for blocks, weight in self.keys.items():
            if weight:
                den, num = blocks_of[blocks[0]] if blocks else ((1,), (1,))
                for k in blocks[1:]:
                    block_den, block_num = blocks_of[k]
                    # a block's char-poly, often sparse, goes first: _poly_mul skips its zeros
                    den = _poly_mul(block_den, den, caps.q)
                    num = _poly_mul(block_num, num, caps.u)
                pair = (tuple(den), tuple(num))
                pairs[pair] = pairs.get(pair, 0) + weight
        total: dict[Key, int | Fraction] = {}
        for (den, num), weight in pairs.items():
            if weight:
                for key, c in _pair_table(den, num, caps.q).items():
                    total[key] = total.get(key, 0) + weight * c
        return TrigradedSeries._canonical(
            caps, {k: c // order if type(c) is int and c % order == 0 else Fraction(c, order) for k, c in total.items()}
        )


def super_molien(action: GroupAction | WreathAction, dq: int, du: int | None = None) -> TrigradedSeries:
    """Character-weighted Molien average, exact within caps (0, dq, du), by
    the one Molien sum, fed label by label, or sigma by sigma for P[G].

    du defaults to the full odd dimension n*r1, where the numerator
    det(I + u*g1) is a polynomial of exactly that degree.
    """
    total = _MolienSum(dq, action.signature.num_odd if du is None else du)
    action._feed(total)
    return total.series(action.order)


def reynolds_project(action: GroupAction | WreathAction, f: SuperPolynomial) -> SuperPolynomial:
    """(1/|W|) sum over w of chi(w^{-1}) w.f, the projector onto the
    chi-isotypic component; chi(w^{-1}) = chi(w) = +-1.  The action's
    weighted sum is divided by |W| once."""
    if f.sig != action.signature:
        raise SignatureMismatch(f"{f.sig} != {action.signature}")
    order = action.order
    acc = action._weighted_sum()(f.terms)
    return SuperPolynomial._canonical(f.sig, {m: Fraction(c) / order for m, c in acc.items() if c})


def _orbit_sums(action: GroupAction | WreathAction, basis: Sequence[SuperMonomial]) -> list[tuple[SuperMonomial, dict]]:
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
    reached: set[SuperMonomial] = set()
    sums = []
    weighted_sum = action._weighted_sum()
    for m in basis:
        if m not in reached:
            acc = weighted_sum({m: 1}, reached)
            sums.append((m, {k: c for k, c in acc.items() if c}))
    return sums


def _projector_rows(
    action: GroupAction | WreathAction, i: int, j: int
) -> tuple[list[SuperMonomial], list[dict], list[dict[int, int | Fraction]]]:
    """(basis, sums, rows) for bidegree (i, j): the basis monomials, the
    orbit sums of _orbit_sums over that basis, and each sum's coefficient
    row over the basis as the {position: value} dict of its nonzero entries.
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
    return basis, sums, [{index[m]: c for m, c in acc.items()} for acc in sums]


def invariant_dimension_bruteforce(action: GroupAction | WreathAction, i: int, j: int) -> int:
    """Exact dimension of the chi-isotypic component in bidegree (i, j),
    computed as the rank of the Reynolds operator on the monomial basis,
    over one integer row per orbit.  Never consults the Molien series."""
    return _rank_rows(_projector_rows(action, i, j)[2])


def molien_vs_oracle(action: GroupAction | WreathAction, dq: int, du: int | None = None) -> dict:
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

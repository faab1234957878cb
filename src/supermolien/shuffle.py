"""Shuffle and signed-shuffle products on spaces of wreath invariants.

An invariant on a rows times an invariant on b rows is multiplied after
shifting the second factor's rows past the first, then symmetrized over the
minimal coset representatives of the two row blocks.  The shifted factors
sit on disjoint rows, so their product is the concatenation of their
terms, with nothing to merge or reorder.  Each representative is a label
whose row blocks are all the identity, so the symmetrization is the
weighted label sum of superalgebra over (weight, label) pairs, which maps
the product's whole term map through each label at once, weighted by
sign for the signed product; the pairs are built and compiled once per
block sizes, (r0, r1) and sign.  The (anti)invariance checks use the same
sum: f is fixed by a generator pair when the term map of weight * (w.f)
equals f's terms, the generators of S_n[G] being (weight, label) pairs
weighted as from_wreath weights sigma; f's signature is compared with
theirs once, and no polynomial is built per generator.  Neither label set
is a group, so neither is a GroupAction.  An invariant basis is a greedy
independent subset of the Reynolds orbit sums of molien, kept undivided
(|W| R(m), ints for an integral group), so the products of the battery run
on ints; the subset is chosen by linalg's fraction-free echelon and its
size checked against the Bareiss rank.  The resulting product closes on
the (anti)invariant spaces, is associative, supercommutes on degree-one
elements with signs governed by theta-degree parity, and generates
everything in sight from degree one: generation compares, per cell, the
Bareiss rank of the degree-one products' coefficient rows with that of the
cell's orbit sums, the one rank kernel of linalg.
Each of those claims has a verifier here; none of them consults the Hilbert
series machinery.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cache

from .errors import CapExceeded, NotHomogeneous, SignatureMismatch, SuperMolienError
from .groups import (
    WREATH_CAP,
    GradedGroupElement,
    MatrixGroup,
    PermGroup,
    Permutation,
    WreathElement,
    shuffle_count,
    shuffle_reps,
    symmetric_generators,
)
from .linalg import EchelonSelector, _rank_rows
from .molien import GroupAction, _projector_rows, require_flavor
from .superalgebra import (
    AlgebraSignature,
    SuperMonomial,
    SuperPolynomial,
    _label_sum,
    coefficient_vector,
)

__all__ = [
    "InvariantSpaceBasis",
    "invariant_basis",
    "shuffle_product",
    "verify_associativity",
    "verify_supercommutation",
    "degree_one_generation_rank",
    "generation_sweep",
    "closure_battery",
    "random_super_polynomial",
]


def _shifted(terms: dict, offset: int) -> list[tuple]:
    """(xpart, theta, coefficient) of each term with every row index
    increased by offset; a shift keeps every monomial canonical and
    distinct."""
    return [
        (tuple((r + offset, col, e) for r, col, e in xpart), tuple((r + offset, col) for r, col in theta), c)
        for (xpart, theta), c in terms.items()
    ]


@cache
def _coset_labels(
    blocks: tuple[int, ...], r0: int, r1: int, signed: bool
) -> tuple[AlgebraSignature, tuple[tuple[int, WreathElement], ...]]:
    """The signature of the rows of the blocks, and the minimal coset
    representatives of the row blocks on it as (weight, label) pairs,
    labels whose row blocks are all the identity, weighted by sign when
    signed: built once per (blocks, r0, r1), after their count times the
    rows is checked against WREATH_CAP; the signed pairs reweight the
    unsigned ones' labels, so each label compiles once."""
    if signed:
        sig, unsigned = _coset_labels(blocks, r0, r1, False)
        return sig, tuple([(w.sigma.sign, w) for _, w in unsigned])
    n = sum(blocks)
    count = shuffle_count(blocks)
    if count * n > WREATH_CAP:
        raise CapExceeded(f"shuffle of {blocks} rows needs {count} labels of {n} rows, cap is {WREATH_CAP}")
    ident = (GradedGroupElement.identity(r0, r1),) * n
    return AlgebraSignature(r0, r1, n), tuple([(1, WreathElement(sigma, ident)) for sigma in shuffle_reps(*blocks)])


def _shuffle(factors: tuple[SuperPolynomial, ...], signed: bool) -> SuperPolynomial:
    """Shift each factor's rows past the previous ones, multiply, and sum
    the product over the coset labels of the row blocks.

    The shifted factors sit on disjoint, increasing row ranges, so the
    product of one term from each is the concatenation of their x-parts
    and of their thetas, already canonical with sign +1, and distinct
    choices of terms give distinct monomials: the core term map is built
    by concatenation, with nothing to merge, reorder or cancel."""
    sig = factors[0].sig
    blocks = []
    for f in factors:
        if f.sig.r0 != sig.r0 or f.sig.r1 != sig.r1:
            raise SignatureMismatch(f"factor signatures {' and '.join(str(f.sig) for f in factors)} disagree")
        blocks.append(f.sig.n)
    core = factors[0].terms
    for f, offset in zip(factors[1:], itertools.accumulate(blocks)):
        shifted = _shifted(f.terms, offset)
        core = {(x + fx, t + ft): c * fc for (x, t), c in core.items() for fx, ft, fc in shifted}
    out, labels = _coset_labels(tuple(blocks), sig.r0, sig.r1, signed)
    return SuperPolynomial._canonical(out, _label_sum(labels, core))


def shuffle_product(A: SuperPolynomial, B: SuperPolynomial, signed: bool = False) -> SuperPolynomial:
    """Shuffle product of an a-row and a b-row element, on a+b rows.

    B's rows are shifted past A's, the two are multiplied, and the result is
    summed over the minimal representatives of the (a, b) row blocks; the
    signed variant weights each representative by its sign.
    """
    return _shuffle((A, B), signed)


@dataclass(frozen=True)
class InvariantSpaceBasis:
    """Exact basis of one bidegree slice of an (anti)invariant space."""

    action: GroupAction
    i: int
    j: int
    elements: tuple[SuperPolynomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.elements)


def invariant_basis(action: GroupAction, i: int, j: int) -> InvariantSpaceBasis:
    """Basis of the chi-isotypic component in bidegree (i, j).

    Sums the monomials of the bidegree over the labels, one undivided
    orbit sum |W| R(m) per orbit (ints for an integral group), and keeps a
    greedy maximal independent subset of those sums by the fraction-free
    echelon of EchelonSelector; the count is cross-checked against the
    integer Bareiss rank of the same rows, an elimination of its own.
    """
    basis, sums, rows = _projector_rows(action, i, j)
    sel = EchelonSelector(len(basis))
    sig = action.signature
    kept = [SuperPolynomial._canonical(sig, acc) for acc, row in zip(sums, rows) if sel.offer(row.items())]
    oracle = _rank_rows(rows)
    if len(kept) != oracle:
        raise SuperMolienError(
            f"greedy basis size {len(kept)} disagrees with projector rank {oracle}"
        )
    return InvariantSpaceBasis(action, i, j, tuple(kept))


def _wreath_generator_labels(n: int, G: MatrixGroup, signed: bool) -> tuple[tuple[int, WreathElement], ...]:
    """Generators of S_n[G] on n rows as (weight, label) pairs, weighted by
    the sign of their row permutation when signed, as from_wreath weights
    sigma: for _fixed_by, not a group.  They are S_n's generators over
    identity rows and G's generators in row 1 only: S_n is transitive, so
    conjugating by its elements moves them into every row."""
    ident = G.elements[G.identity_index]
    labels = [WreathElement(sigma, (ident,) * n) for sigma in symmetric_generators(n)]
    if n:
        labels += [WreathElement(Permutation.identity(n), (g,) + (ident,) * (n - 1)) for g in G.generators]
    return tuple([(w.sigma.sign if signed else 1, w) for w in labels])


def _fixed_by(f: SuperPolynomial, generators: tuple, signature: AlgebraSignature) -> bool:
    """True iff weight * (w.f) == f for every (weight, label) pair of the
    generators, labels on the given signature, tested pair by pair up to
    the first that fails: the pair's label-sum term map, which holds no
    zeros for one label, equals f's terms, so no polynomial is built.
    SignatureMismatch when f's signature is not that one."""
    if f.sig != signature:
        raise SignatureMismatch(f"{f.sig} != {signature}")
    terms = f.terms
    for pair in generators:
        if _label_sum((pair,), terms) != terms:
            return False
    return True


def verify_associativity(
    A: SuperPolynomial, B: SuperPolynomial, C: SuperPolynomial, signed: bool = False
) -> bool:
    """Exact equality of the two bracketings of a three-fold shuffle."""
    left = shuffle_product(shuffle_product(A, B, signed), C, signed)
    right = shuffle_product(A, shuffle_product(B, C, signed), signed)
    return left == right


def _theta_degree(f: SuperPolynomial) -> int:
    degs = {j for _, j in f.bidegree_support()}
    if len(degs) > 1:
        raise NotHomogeneous(f"mixed theta-degrees {sorted(degs)}")
    return degs.pop() if degs else 0


def verify_supercommutation(A: SuperPolynomial, B: SuperPolynomial, signed: bool = False) -> bool:
    """Sign rule for one-row elements: swapping the factors costs
    (-1)^(jA*jB) for the plain shuffle and an extra global -1 for the
    signed one, where j is the theta-degree."""
    if A.sig.n != 1 or B.sig.n != 1:
        raise ValueError("supercommutation is a statement about one-row elements")
    sign = (-1) ** (_theta_degree(A) * _theta_degree(B))
    if signed:
        sign = -sign
    return shuffle_product(A, B, signed) == shuffle_product(B, A, signed).scale(sign)


def degree_one_pool(G: MatrixGroup, i_max: int) -> list[tuple[tuple[int, int], SuperPolynomial]]:
    """All one-row invariant basis elements with x-degree at most i_max,
    tagged by bidegree.  The constants are included at bidegree (0, 0).

    The pool for a smaller i_max is a prefix of this one."""
    action = GroupAction.from_matrix_group(G)
    pool = []
    for i in range(i_max + 1):
        for j in range(G.r1 + 1):
            for f in invariant_basis(action, i, j).elements:
                pool.append(((i, j), f))
    return pool


def _generation_rank(
    pool: list[tuple[tuple[int, int], SuperPolynomial]],
    waction: GroupAction,
    signed: bool,
    i: int,
    j: int,
) -> tuple[int, int]:
    """(spanned, full) in bidegree (i, j) on the rows of waction, the
    S_n[G] action of the flavor, signed or not: both are Bareiss ranks,
    spanned of the products' coefficient rows (a zero product an empty
    row) and full of the cell's orbit sums.  Pool elements of x-degree
    above i never enter a product of total degree (i, j), so any pool
    reaching x-degree i gives the same rank, and only the pool entries
    inside (i, j) are combined, their bidegrees read once per call."""
    n = waction.signature.n
    # the one basis of the cell, refused first if oversized
    target, _, rows = _projector_rows(waction, i, j)
    index = {m: k for k, m in enumerate(target)}
    # each entry's bidegree is read once; an entry above (i, j) is in no product
    usable = [(d, f) for d, f in pool if d[0] <= i and d[1] <= j]
    xdeg = [d[0] for d, _ in usable]
    odeg = [d[1] for d, _ in usable]
    products = []
    for combo in itertools.combinations_with_replacement(range(len(usable)), n):
        if sum(map(xdeg.__getitem__, combo)) != i or sum(map(odeg.__getitem__, combo)) != j:
            continue
        prod = usable[combo[0]][1]
        for k in combo[1:]:
            prod = shuffle_product(prod, usable[k][1], signed)
        products.append(coefficient_vector(prod, index))
    return _rank_rows(products), _rank_rows(rows)


def degree_one_generation_rank(G: MatrixGroup, flavor: str, n: int, i: int, j: int) -> tuple[int, int]:
    """Rank of the span of n-fold shuffles of one-row invariants in bidegree
    (i, j), against the blunt dimension of the target space.

    Returns (spanned, full); generation in degree one predicts equality.
    """
    signed = require_flavor(flavor)
    if n < 1:
        raise ValueError("need at least one row")
    waction = GroupAction.from_wreath(PermGroup.symmetric(n), G, n, flavor=flavor)
    return _generation_rank(degree_one_pool(G, i), waction, signed, i, j)


def generation_sweep(
    G: MatrixGroup, flavor: str, n_max: int, i_max: int
) -> list[tuple[int, int, int, int, int]]:
    """(n, i, j, spanned, full) of degree_one_generation_rank for every
    n <= n_max, i <= i_max and j <= n * r1, building the one-row pool once
    and each S_n[G] action once."""
    signed = require_flavor(flavor)
    pool = degree_one_pool(G, i_max)
    out = []
    for n in range(1, n_max + 1):
        waction = GroupAction.from_wreath(PermGroup.symmetric(n), G, n, flavor=flavor)
        for i in range(i_max + 1):
            for j in range(n * G.r1 + 1):
                out.append((n, i, j) + _generation_rank(pool, waction, signed, i, j))
    return out


def closure_battery(G: MatrixGroup, flavor: str, max_rows: int, max_i: int) -> tuple[int, int]:
    """Exhaustive closure sweep over invariant-basis pairs.

    Covers every row split a + b <= max_rows and every pair of factor
    bidegrees with total x-degree at most max_i.  Each row count's
    S_rows[G] action and generator labels are built once, so the labels
    keep their compiled substitutions across bidegrees.  Each basis element
    is checked for (anti)invariance once, when its basis is computed, and
    every shuffle product is checked.  Returns (checked, failed).
    """
    signed = require_flavor(flavor)
    labels = {rows: _wreath_generator_labels(rows, G, signed) for rows in range(1, max_rows + 1)}
    sigs = {rows: AlgebraSignature(G.r0, G.r1, rows) for rows in labels}
    actions: dict[int, GroupAction] = {}
    bases: dict[tuple[int, int, int], tuple[SuperPolynomial, ...]] = {}

    def basis_for(rows: int, bi: int, bj: int) -> tuple[SuperPolynomial, ...]:
        key = (rows, bi, bj)
        if key not in bases:
            if rows not in actions:
                actions[rows] = GroupAction.from_wreath(PermGroup.symmetric(rows), G, rows, flavor=flavor)
            elements = invariant_basis(actions[rows], bi, bj).elements
            if not all(_fixed_by(f, labels[rows], sigs[rows]) for f in elements):
                raise ValueError(f"basis element in bidegree ({bi},{bj}) on {rows} rows is not {flavor}")
            bases[key] = elements
        return bases[key]

    checked = 0
    failed = 0
    for a in range(1, max_rows):
        for b in range(1, max_rows - a + 1):
            for ia in range(max_i + 1):
                for ib in range(max_i - ia + 1):
                    for ja in range(a * G.r1 + 1):
                        for jb in range(b * G.r1 + 1):
                            for A in basis_for(a, ia, ja):
                                for B in basis_for(b, ib, jb):
                                    checked += 1
                                    prod = shuffle_product(A, B, signed)
                                    if not _fixed_by(prod, labels[a + b], sigs[a + b]):
                                        failed += 1
    return checked, failed


def random_super_polynomial(rng: random.Random, sig: AlgebraSignature) -> SuperPolynomial:
    """Sum of two random terms with x-exponents at most 2 and coefficients
    in {-2, -1, 1, 2}, for seeded batteries."""
    out = SuperPolynomial.zero(sig)
    for _ in range(2):
        xpart = {}
        for v in sig.even_vars():
            e = rng.randint(0, 2)
            if e:
                xpart[v] = e
        theta = sorted(v for v in sig.odd_vars() if rng.random() < 0.5)
        c = rng.choice([-2, -1, 1, 2])
        out = out + SuperPolynomial.monomial(sig, SuperMonomial(xpart, theta), c)
    return out

"""Hilbert series of wreath product actions, two ways, and their collation.

The direct route is the Molien average over every label (sigma, gs) of
P[G] acting on n rows of variables, super_molien of its GroupAction,
which feeds the one Molien sum sigma by sigma: gs restricted to each
cycle of sigma ranges over G^m independently, so each sigma's labels are
counted by convolving one table of block numbers over G^m per cycle
length m, and no label is walked or built, for any G, monomial or not.
So WREATH_CAP bounds |G|^n, its largest table, not the |P| * |G|^n
labels it counts.  The plethystic route never enumerates
P[G]: it substitutes the one-row series of G into the cycle index of P,
with a u -> -u flip on the way in and out to account for anticommuting
variables.  Matching the two is the main consistency check of the
package.

Collation packages all symmetric-group wreath series into a single series
in t whose product form is controlled by the graded invariant dimensions
a_ij of G alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .groups import MatrixGroup, PermGroup, Permutation, require_degree, sign_character
from .linalg import QMatrix, _charpoly_rows, _columns, _compose
# FLAVORS is re-exported: the wreath routes take one of these flavor names
from .molien import FLAVORS as FLAVORS, GroupAction, require_flavor, super_molien
from .series import (
    Caps,
    TrigradedSeries,
    scale_exponents,
    series_add,
    series_flip_u,
    series_inv,
    series_mul,
    series_sub,
)
from .superalgebra import AlgebraSignature
from .symfunc import cycle_index, plethystic_substitute


def wreath_hilbert_direct(
    P: PermGroup, G: MatrixGroup, n: int, flavor: str, dq: int, du: int | None = None
) -> TrigradedSeries:
    """Hilbert series of the (anti)invariants of P[G] by the Molien average
    over all |P| * |G|^n labels: super_molien of its action, which counts
    them sigma by sigma through one table of block numbers per cycle
    length, none of them built."""
    return super_molien(GroupAction.from_wreath(P, G, n, flavor), dq, du)


def wreath_hilbert_plethysm(
    P: PermGroup, G: MatrixGroup, n: int, flavor: str, dq: int, du: int | None = None
) -> TrigradedSeries:
    """Same series via cycle index plethysm; never touches P[G] itself.

    Invariants use the plain cycle index of P, antiinvariants the one
    weighted by sign_character(P).  The inner series is the one-row series
    of G with u negated; the outer negation undoes the flip.
    """
    signed = require_flavor(flavor)
    require_degree(P, n)
    if du is None:
        du = n * G.r1
    inner = super_molien(GroupAction.from_matrix_group(G), dq, du)
    z = cycle_index(P, sign_character(P) if signed else None)
    return series_flip_u(plethystic_substitute(z, series_flip_u(inner)))


def check_wreath_routes(
    P: PermGroup, G: MatrixGroup, n: int, flavor: str, dq: int, du: int | None = None
) -> dict:
    """Compare the direct and plethystic routes; report shaped for the CLI."""
    if du is None:
        du = n * G.r1
    direct = wreath_hilbert_direct(P, G, n, flavor, dq, du)
    pleth = wreath_hilbert_plethysm(P, G, n, flavor, dq, du)
    return {
        "theorem": "1.1",
        "flavor": flavor,
        "match": direct == pleth,
        "caps": {"t": 0, "q": dq, "u": du},
    }


@dataclass(frozen=True)
class CollationSpec:
    """Parameters for collating the S_n[G] series over all n <= n_max.

    The collated series lives at caps (n_max, dq, du): exact coefficients of
    t^n q^i u^j for n <= n_max, i <= dq, j <= du.
    """

    group: MatrixGroup
    n_max: int
    dq: int
    du: int
    flavor: str = "invariant"

    def __post_init__(self):
        require_flavor(self.flavor)
        if self.n_max < 0 or self.dq < 0 or self.du < 0:
            raise ValueError("collation caps must be nonnegative")

    @property
    def caps(self) -> Caps:
        return Caps(self.n_max, self.dq, self.du)


def collated_sum_series(spec: CollationSpec) -> TrigradedSeries:
    """Sum side of the collation: sum of t^n * H(S_n[G]) with 1 at n = 0."""
    coeffs: dict[tuple[int, int, int], Fraction] = {(0, 0, 0): Fraction(1)}
    for n in range(1, spec.n_max + 1):
        du_n = min(spec.du, n * spec.group.r1)
        h = wreath_hilbert_direct(
            PermGroup.symmetric(n), spec.group, n, spec.flavor, spec.dq, du_n
        )
        for (_, i, j), c in h.items():
            coeffs[(n, i, j)] = c
    return TrigradedSeries(spec.caps, coeffs)


def _product_form(
    caps: Caps, multiplicities: dict[tuple[int, int], int], signed: bool
) -> TrigradedSeries:
    """Product over (i, j) of (1 + t q^i u^j)^a or (1 - t q^i u^j)^-a, a the
    table entry.  The invariant flavor puts odd j in the numerator, the
    signed (antiinvariant) flavor even j.

    Each factor is written down by the binomial theorem as an exact int
    series in m = t q^i u^j, its powers m^k cut at the caps:
    (1 + m)^a = sum_k C(a, k) m^k and (1 - m)^-a = sum_k C(a+k-1, k) m^k.
    A factor with a = 0, or whose m lies outside the caps, is 1 there and
    is skipped, so the product takes one series_mul per other factor.
    """
    numerator_parity = 0 if signed else 1
    result = TrigradedSeries.one(caps)
    for (i, j), a in multiplicities.items():
        if not a:
            continue
        # the largest k with m^k inside the caps; 0 when m itself is outside
        top = min(caps.t, caps.q // i if i else caps.t, caps.u // j if j else caps.t)
        if not top:
            continue
        if j % 2 == numerator_parity:
            coeffs = {(k, k * i, k * j): math.comb(a, k) for k in range(min(top, a) + 1)}
        else:
            coeffs = {(k, k * i, k * j): math.comb(a + k - 1, k) for k in range(top + 1)}
        result = series_mul(result, TrigradedSeries._canonical(caps, coeffs))
    return result


def collated_product_series(spec: CollationSpec) -> TrigradedSeries:
    """Product side of the collation, driven by the graded dimensions of G.

    Writing a_ij for the dimension of the G-invariants in bidegree (i, j),
    the invariant flavor takes (1 + t q^i u^j)^a_ij over odd j and
    (1 - t q^i u^j)^-a_ij over even j; the antiinvariant flavor swaps the
    parity roles.  Either way the a_ij come from the plain invariants of G.
    Each factor is written down by the binomial theorem (_product_form), so
    the product inverts and raises no series.
    """
    hg = super_molien(GroupAction.from_matrix_group(spec.group), spec.dq)
    multiplicities = {}
    for (_, i, j), a in hg.items():
        if a.denominator != 1 or a < 0:
            raise ValueError(f"graded multiplicity a[{i},{j}] = {a} is not a nonnegative integer")
        multiplicities[(i, j)] = int(a)
    return _product_form(spec.caps, multiplicities, require_flavor(spec.flavor))


def check_collation(spec: CollationSpec) -> dict:
    """Compare the sum and product sides; report shaped for the CLI."""
    s = collated_sum_series(spec)
    p = collated_product_series(spec)
    return {
        "theorem": "1.2",
        "flavor": spec.flavor,
        "match": s == p,
        "caps": {"t": spec.n_max, "q": spec.dq, "u": spec.du},
    }


def young_exterior_product(ell: int, n_max: int, du: int) -> TrigradedSeries:
    """Closed collated form for a Young subgroup with ell blocks acting on
    anticommuting variables only: binomial(ell, j) copies of the (1 + t u^j)
    or (1 - t u^j)^-1 factor by parity of j.

    Depends only on the number of blocks, not their sizes.
    """
    multiplicities = {(0, j): math.comb(ell, j) for j in range(ell + 1)}
    return _product_form(Caps(n_max, 0, du), multiplicities, False)


def verify_block_determinant_lemma(blocks: list[QMatrix]) -> bool:
    """det(I - M) == det(I - A_m ... A_2 A_1) for the cyclic block layout.

    M is the rm x rm matrix with A_1 in block position (1, m) and A_i in
    block position (i, i-1) for i >= 2; all other blocks are zero.  Each
    side is the char-poly det(I - z*X) at z = 1, the sum of its
    coefficients, with X's columns passed as rows.
    """
    m = len(blocks)
    if m == 0:
        raise ValueError("need at least one block")
    r = blocks[0].nrows
    for b in blocks:
        if b.nrows != r or b.ncols != r:
            raise ValueError("blocks must be square and equally sized")
    cols = [_columns(b) for b in blocks]
    big = []
    for b in range(m):
        # block column b holds A_{t+1} at block row t
        t = (b + 1) % m
        big += [[(t * r + i, x) for i, x in col] for col in cols[t]]
    prod = cols[m - 1]
    for i in range(m - 2, -1, -1):
        prod = _compose(prod, cols[i])
    return sum(_charpoly_rows(dict(enumerate(big)))) == sum(_charpoly_rows(dict(enumerate(prod))))


def verify_m_cycle_identity(G: MatrixGroup, m: int, dq: int, du: int | None = None) -> bool:
    """Average of the Molien summand over one fixed m-cycle's labels.

    Summing det(I + u M1)/det(I - q M0) over all (sigma, g_1..g_m) with
    sigma a fixed m-cycle and dividing by |G|^m reproduces the one-row
    series of G with q -> q^m and u -> u^m, except that u picks up an extra
    sign flip when m is even.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if du is None:
        du = m * G.r1
    cyc = Permutation.from_cycles(m, [tuple(range(1, m + 1))])
    one_row = GroupAction.from_matrix_group(G)
    # one fixed cycle times G^m is a coset, not a group: the Molien average
    # only, never the Reynolds route
    lhs = super_molien(GroupAction(AlgebraSignature(G.r0, G.r1, m), ((1, cyc),), one_row.rows), dq, du)
    hg = super_molien(one_row, dq, du)
    if m % 2 == 0:
        hg = series_flip_u(hg)
    rhs = scale_exponents(hg, m)
    return lhs == rhs


def _mono_or_zero(caps: Caps, key: tuple[int, int, int]) -> TrigradedSeries:
    if caps.contains(key):
        return TrigradedSeries.monomial(caps, key)
    return TrigradedSeries.zero(caps)


def _superspace_factor_product(n: int, caps: Caps, signed: bool) -> TrigradedSeries:
    """Product over k = 1..n of the superspace factors at t = 0.

    Invariants: (1 + q^(k-1) u)/(1 - q^k).  Antiinvariants (signed): the
    numerator becomes (u + q^(k-1)).
    """
    one = TrigradedSeries.one(caps)
    result = one
    for k in range(1, n + 1):
        if signed:
            num = series_add(_mono_or_zero(caps, (0, 0, 1)), _mono_or_zero(caps, (0, k - 1, 0)))
        else:
            num = series_add(one, _mono_or_zero(caps, (0, k - 1, 1)))
        den = series_sub(one, _mono_or_zero(caps, (0, k, 0)))
        result = series_mul(result, series_mul(num, series_inv(den)))
    return result


def superspace_single_n_product(n: int, dq: int, flavor: str = "invariant") -> TrigradedSeries:
    """Closed form for the rank-n superspace series, at caps (0, dq, n)."""
    return _superspace_factor_product(n, Caps(0, dq, n), require_flavor(flavor))


def superspace_product_series(n_max: int, dq: int, flavor: str = "invariant") -> TrigradedSeries:
    """Collated superspace product: (1 + t u q^i) over (1 - t q^i) factors.

    The antiinvariant flavor swaps u between numerator and denominator.
    These are the collation factors of the trivial group on one even and one
    odd variable, whose invariants have a_i0 = a_i1 = 1.
    """
    multiplicities = {(i, j): 1 for i in range(dq + 1) for j in (0, 1)}
    return _product_form(Caps(n_max, dq, n_max), multiplicities, require_flavor(flavor))


def superspace_qbinomial_series(n_max: int, dq: int, flavor: str = "invariant") -> TrigradedSeries:
    """Collated superspace series assembled n by n from the closed forms."""
    signed = require_flavor(flavor)
    caps = Caps(n_max, dq, n_max)
    total = TrigradedSeries.one(caps)
    for n in range(1, n_max + 1):
        layer = _superspace_factor_product(n, caps, signed)
        total = series_add(total, series_mul(layer, TrigradedSeries.monomial(caps, (n, 0, 0))))
    return total


def check_superspace(n_max: int, dq: int, flavor: str = "invariant") -> dict:
    """Three-route superspace consistency: collated sum, product, q-binomial."""
    spec = CollationSpec(
        group=MatrixGroup.trivial(1, 1), n_max=n_max, dq=dq, du=n_max, flavor=flavor
    )
    s = collated_sum_series(spec)
    p = superspace_product_series(n_max, dq, flavor)
    b = superspace_qbinomial_series(n_max, dq, flavor)
    return {
        "flavor": flavor,
        "match": s == p and p == b,
        "caps": {"t": n_max, "q": dq, "u": n_max},
    }

"""The Molien average label by label, the one reference of super_molien
and of the direct wreath route: Berkowitz's recurrence on each whole
label's compiled matrices, never the block char-polys the Molien sum
multiplies.  And the flat label sets that no route builds: P[G] as its
|P|*|G|^n labels, and any action's labels listed one by one, each
label's shape checked against the signature; their product law, a
one-label apply, the Reynolds orbit sums and projection over every
label, the references of the factored sums of an action.  Row shifts and
the three-block shuffle are the references of the shuffle tests."""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from supermolien import molien, shuffle
from supermolien.errors import DegreeMismatch, DimensionMismatch
from supermolien.groups import WreathElement, _wreath_labels, perm_sign
from supermolien.linalg import _berkowitz
from supermolien.molien import GroupAction, require_flavor
from supermolien.series import Caps, TrigradedSeries
from supermolien.superalgebra import AlgebraSignature, SuperPolynomial, _label_sum


def require_shape(w, sig):
    """One label's compiled shape against a signature: its rows first
    (DegreeMismatch), then its blocks, vacuous on zero rows
    (DimensionMismatch).  A label whose row blocks are not square and
    alike does not compile (DimensionMismatch)."""
    n, r0, r1 = w.substitution.shape
    if n != sig.n:
        raise DegreeMismatch(f"wreath degree {n} != {sig.n} rows")
    if sig.n and (r0, r1) != (sig.r0, sig.r1):
        raise DimensionMismatch(f"label blocks {(r0, r1)} do not match signature ({sig.r0}, {sig.r1})")


@dataclass(frozen=True)
class FlatLabels:
    """A weighted label set as its (weight, label) pairs, every label built
    and its shape checked when the set is made."""

    signature: AlgebraSignature
    pairs: tuple

    def __post_init__(self):
        for _, w in self.pairs:
            require_shape(w, self.signature)

    @property
    def order(self):
        return len(self.pairs)


def flat_labels(action):
    """Every label (sigma, gs) of a GroupAction, sigma-major and gs in
    G^n in element order, weighted chi(sigma) psi(g_1)..psi(g_n)."""
    sig = action.signature
    pairs = []
    for chi, sigma in action.top:
        for combo in itertools.product(action.rows, repeat=sig.n):
            weight = chi * math.prod(psi for psi, _ in combo)
            pairs.append((weight, WreathElement(sigma, tuple(g for _, g in combo))))
    return FlatLabels(sig, tuple(pairs))


def reference_super_molien(labels, dq, du=None):
    """Both char-polys of every label's own substitution, by Berkowitz's
    recurrence, the weights summed per distinct pair, each pair of nonzero
    weight expanded once, and the sum divided by |W| as Fractions.  A
    GroupAction is listed first (flat_labels)."""
    if isinstance(labels, GroupAction):
        labels = flat_labels(labels)
    caps = Caps.of((0, dq, labels.signature.num_odd if du is None else du))
    weights = {}
    for chi, w in labels.pairs:
        sub = w.substitution
        pair = (_berkowitz(sub.even), _berkowitz(sub.odd)[: caps.u + 1])
        weights[pair] = weights.get(pair, 0) + chi
    total = {}
    for (den, num), weight in weights.items():
        if weight:
            for key, c in molien._pair_table(den, num, dq).items():
                total[key] = total.get(key, 0) + weight * c
    return TrigradedSeries(caps, {k: Fraction(c) / labels.order for k, c in total.items()})


def reference_direct(P, G, n, flavor, dq):
    """The direct route's series of P[G] on n rows, every label built."""
    return reference_super_molien(flat_action(P, G, n, flavor), dq)


def build_wreath(P, G, n):
    """All |P| * |G|^n labels of P[G], sigma-major in element order, each
    made by the trusted WreathElement._of after _wreath_labels has checked
    every sigma's degree and the cap."""
    return [WreathElement._of(sigma, gs) for sigma, gs in _wreath_labels(P.elements, G, n)]


def flat_action(P, G, n, flavor):
    """P[G] on n rows as its |P| * |G|^n built labels, each weighted by
    sgn(sigma) when the flavor is signed, else by 1."""
    signed = require_flavor(flavor)
    pairs = tuple((perm_sign(w.sigma) if signed else 1, w) for w in build_wreath(P, G, n))
    return FlatLabels(AlgebraSignature(G.r0, G.r1, n), pairs)


def flat_orbit_sums(labels, basis):
    """The flat orbit-sum loop: for each monomial of the basis that no
    earlier sum reached, one _label_sum over every pair, as (m, term map
    without zeros)."""
    reached = set()
    sums = []
    for m in basis:
        if m not in reached:
            acc = _label_sum(labels.pairs, {m: 1}, reached)
            sums.append((m, {k: c for k, c in acc.items() if c}))
    return sums


def flat_project(labels, f):
    """(1/|W|) times the sum of weight * (w.f) over every pair."""
    acc = _label_sum(labels.pairs, f.terms)
    return SuperPolynomial._canonical(f.sig, {m: Fraction(c) / labels.order for m, c in acc.items() if c})


def wreath_mul(w1, w2):
    """Product law matching action composition: applying the result equals
    applying w2's substitution and then w1's."""
    tau = w2.sigma
    tau_inv = tau.inverse()
    gs = tuple(w1.gs[tau_inv(i) - 1] * w2.gs[i - 1] for i in range(1, tau.n + 1))
    return WreathElement(tau.compose(w1.sigma), gs)


def apply_wreath(w, f):
    """Linear substitution by one label's matrix, its shape checked against
    f's: the label sum of the one label with weight 1."""
    require_shape(w, f.sig)
    return SuperPolynomial._canonical(f.sig, _label_sum(((1, w),), f.terms))


def shift_rows(f, offset, n_out):
    """f reembedded into n_out rows with every row index increased by offset."""
    sig = AlgebraSignature(f.sig.r0, f.sig.r1, n_out)
    return SuperPolynomial._canonical(
        sig, {(xpart, theta): c for xpart, theta, c in shuffle._shifted(f.terms, offset)}
    )


def triple_shuffle(A, B, C, signed=False):
    """The one-shot three-block shuffle, over its own representatives."""
    return shuffle._shuffle((A, B, C), signed)


def assert_same_series(got, expected):
    """Equal caps, coefficients and coefficient types."""
    assert got.caps == expected.caps
    assert got.items() == expected.items()
    assert [type(c) for _, c in got.items()] == [type(c) for _, c in expected.items()]

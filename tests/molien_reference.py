"""The Molien average label by label, the one reference of both Molien
entry points (super_molien and the direct wreath route): Berkowitz's
recurrence on each whole label's compiled matrices, never the block
char-polys the Molien sum multiplies.  And P[G] as its |P|*|G|^n flat
labels, which no route builds: the labels, their product law, a one-label
apply, and the Reynolds orbit sums over every label, the references of the
factored sum of a wreath action.  Row shifts and the three-block shuffle
are the references of the shuffle tests."""

from fractions import Fraction

from supermolien import molien, shuffle
from supermolien.groups import WreathElement, _wreath_labels
from supermolien.linalg import _berkowitz
from supermolien.molien import GroupAction, require_flavor
from supermolien.series import Caps, TrigradedSeries
from supermolien.superalgebra import AlgebraSignature, SuperMonomial, SuperPolynomial, _label_sum, _require_shape


def reference_super_molien(action, dq, du=None):
    """Both char-polys of every label's own substitution, by Berkowitz's
    recurrence, chi summed per distinct pair, each pair of nonzero weight
    expanded once, and the sum divided by |W| as Fractions."""
    caps = Caps.of((0, dq, action.signature.num_odd if du is None else du))
    weights = {}
    for chi, w in action.pairs:
        sub = w.substitution
        pair = (_berkowitz(sub.even), _berkowitz(sub.odd)[: caps.u + 1])
        weights[pair] = weights.get(pair, 0) + chi
    total = {}
    for (den, num), weight in weights.items():
        if weight:
            for key, c in molien._pair_table(den, num, dq).items():
                total[key] = total.get(key, 0) + weight * c
    return TrigradedSeries(caps, {k: Fraction(c) / action.order for k, c in total.items()})


def reference_direct(P, G, n, flavor, dq):
    """The direct route's series of P[G] on n rows, every label built."""
    return reference_super_molien(flat_action(P, G, n, flavor), dq)


def build_wreath(P, G, n):
    """All |P| * |G|^n labels of P[G], sigma-major in element order, each
    made by the trusted WreathElement._of after _wreath_labels has checked
    every sigma's degree and the cap."""
    return [WreathElement._of(sigma, gs) for sigma, gs in _wreath_labels(P.elements, G, n)]


def flat_action(P, G, n, flavor):
    """P[G] on n rows as a plain action of its |P| * |G|^n built labels."""
    return GroupAction.of_labels(AlgebraSignature(G.r0, G.r1, n), build_wreath(P, G, n), require_flavor(flavor))


def reference_orbit_sums(P, G, n, flavor, basis):
    """The orbit sums of the flat loop: one _label_sum over every label of
    P[G] per orbit, as molien._orbit_sums takes them on a plain action."""
    return molien._orbit_sums(flat_action(P, G, n, flavor), basis)


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
    _require_shape(w.substitution, f.sig)
    return SuperPolynomial._canonical(f.sig, _label_sum(((1, w),), f.terms))


def shift_rows(f, offset, n_out):
    """f reembedded into n_out rows with every row index increased by offset."""
    sig = AlgebraSignature(f.sig.r0, f.sig.r1, n_out)
    return SuperPolynomial._canonical(
        sig, {SuperMonomial._canonical(xpart, theta): c for xpart, theta, c in shuffle._shifted(f.terms, offset)}
    )


def triple_shuffle(A, B, C, signed=False):
    """The one-shot three-block shuffle, over its own representatives."""
    return shuffle._shuffle((A, B, C), signed)


def assert_same_series(got, expected):
    """Equal caps, coefficients and coefficient types."""
    assert got.caps == expected.caps
    assert got.items() == expected.items()
    assert [type(c) for _, c in got.items()] == [type(c) for _, c in expected.items()]

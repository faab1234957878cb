"""The Molien average label by label, the one reference of both Molien
entry points (super_molien and the direct wreath route): Berkowitz's
recurrence on each whole label's compiled matrices, never the block
char-polys the Molien sum multiplies.  And the Reynolds orbit sums over
every label of P[G], the reference of the factored sum of a wreath
action."""

from fractions import Fraction

from supermolien import molien
from supermolien.groups import build_wreath
from supermolien.linalg import _berkowitz
from supermolien.molien import GroupAction, require_flavor
from supermolien.series import Caps, TrigradedSeries
from supermolien.superalgebra import AlgebraSignature


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
    return reference_super_molien(GroupAction.from_wreath(P, G, n, flavor), dq)


def flat_action(P, G, n, flavor):
    """P[G] on n rows as a plain action of its |P| * |G|^n built labels."""
    return GroupAction.of_labels(AlgebraSignature(G.r0, G.r1, n), build_wreath(P, G, n), require_flavor(flavor))


def reference_orbit_sums(P, G, n, flavor, basis):
    """The orbit sums of the flat loop: one _label_sum over every label of
    P[G] per orbit, as molien._orbit_sums takes them on a plain action."""
    return molien._orbit_sums(flat_action(P, G, n, flavor), basis)


def assert_same_series(got, expected):
    """Equal caps, coefficients and coefficient types."""
    assert got.caps == expected.caps
    assert got.items() == expected.items()
    assert [type(c) for _, c in got.items()] == [type(c) for _, c in expected.items()]

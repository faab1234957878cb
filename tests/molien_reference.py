"""The Molien average label by label, the one reference of both Molien
entry points (super_molien and the direct wreath route): Berkowitz's
recurrence on each whole label's compiled matrices, never the block
char-polys the Molien sum multiplies."""

from fractions import Fraction

from supermolien import molien
from supermolien.linalg import _berkowitz
from supermolien.molien import GroupAction
from supermolien.series import Caps, TrigradedSeries


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


def assert_same_series(got, expected):
    """Equal caps, coefficients and coefficient types."""
    assert got.caps == expected.caps
    assert got.items() == expected.items()
    assert [type(c) for _, c in got.items()] == [type(c) for _, c in expected.items()]

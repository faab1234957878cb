"""Matrix groups with non-integral entries, shared by the test tables.

rational-s3 is S_3 on x conjugated by a rational matrix, so every label's
substitution has several terms per variable; scaled-swap is monomial but
with entries 2 and 1/2, so orbit members differ by non-unit factors.
Together they reach both branches of the substitution kernel with
coefficients other than +-1.  is_exact is the one form of an exact
coefficient that kernel outputs are checked against."""

import json
import pathlib
from fractions import Fraction

from supermolien.fixtures import matrix_group_fixture
from supermolien.groups import GradedGroupElement, MatrixGroup
from supermolien.linalg import QMatrix

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def conjugated_s3():
    """S_3 on x (s3_x.json) and its conjugate H by a 3x3 rational matrix
    with denominators 2, 3 and 5: the same group with non-integral entries."""
    G = MatrixGroup.from_json_dict(json.loads((FIXTURES / "s3_x.json").read_text(encoding="utf-8")))
    P = QMatrix.from_rows([[Fraction(1, 2), 1, 0], [Fraction(1, 3), 0, 2], [0, Fraction(1, 5), 1]])
    P_inv = QMatrix.from_rows(
        [
            [Fraction(3, 4), Fraction(15, 8), Fraction(-15, 4)],
            [Fraction(5, 8), Fraction(-15, 16), Fraction(15, 8)],
            [Fraction(-1, 8), Fraction(3, 16), Fraction(5, 8)],
        ]
    )
    ident = QMatrix.identity(G.r1)
    conj, conj_inv = GradedGroupElement(P, ident), GradedGroupElement(P_inv, ident)
    assert conj * conj_inv == GradedGroupElement.identity(G.r0, G.r1)
    H = MatrixGroup.close(G.r0, G.r1, [conj * g * conj_inv for g in G.generators])
    return G, H


def scaled_swap_group():
    """Order 2, generated by the monomial matrix [[0, 1/2], [2, 0]] on the
    even and on the odd variables: orbit members differ by factors 2^k."""
    m = QMatrix.from_rows([[0, Fraction(1, 2)], [2, 0]])
    return MatrixGroup.close(2, 2, [GradedGroupElement(m, m)])


# the last two have non-integral entries: the multi-term branch of the
# substitution kernel, and the one-term branch with non-unit coefficients
KERNEL_GROUPS = (
    "trivial-1-1",
    "trivial-2-2",
    "sign-scalar",
    "s2-x",
    "s3-x",
    "s2-theta",
    "young-2-1-theta",
    "rational-s3",
    "scaled-swap",
)


def named_group(name):
    """A fixture group by name, or one of the two groups above."""
    if name == "rational-s3":
        return conjugated_s3()[1]
    if name == "scaled-swap":
        return scaled_swap_group()
    return matrix_group_fixture(name)


def is_exact(c):
    """The one coefficient form: a nonzero int, or a Fraction that is not
    integral."""
    return type(c) is int and c != 0 or type(c) is Fraction and c.denominator > 1

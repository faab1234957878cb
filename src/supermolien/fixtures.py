"""Named example groups used by the verification suites, tests, and CLI docs.

Every matrix-group fixture but the sign scalar is the trivial group
(MatrixGroup.trivial) or a group of permutation matrices: the one builder,
permutation_matrices, closes the matrices of the given permutations on the
even part, the odd part or both.  Permutation fixtures wrap the PermGroup
constructors.  Builders are thin so callers can ask for fresh instances.
"""

from __future__ import annotations

from typing import Sequence

from .groups import GradedGroupElement, MatrixGroup, PermGroup, Permutation, symmetric_generators
from .linalg import QMatrix


def sign_scalar_group() -> MatrixGroup:
    """{+1, -1} acting on one commuting variable."""
    minus = GradedGroupElement(QMatrix.from_rows([[-1]]), QMatrix.identity(0))
    return MatrixGroup.close(1, 0, [minus])


def permutation_matrices(gens: Sequence[Permutation], n: int, even: bool, odd: bool) -> MatrixGroup:
    """The group generated by the permutations gens of n points, each
    acting by its permutation matrix on n commuting variables when even,
    on n anticommuting ones when odd, and on both at once when both."""
    empty = QMatrix.identity(0)
    elements = [GradedGroupElement(p.matrix() if even else empty, p.matrix() if odd else empty) for p in gens]
    return MatrixGroup.close(n * even, n * odd, elements)


MATRIX_GROUP_FIXTURES = {
    "trivial-1-0": lambda: MatrixGroup.trivial(1, 0),
    "trivial-0-1": lambda: MatrixGroup.trivial(0, 1),
    "trivial-1-1": lambda: MatrixGroup.trivial(1, 1),
    "trivial-2-2": lambda: MatrixGroup.trivial(2, 2),
    "trivial-3-2": lambda: MatrixGroup.trivial(3, 2),
    "sign-scalar": sign_scalar_group,
    "s2-x": lambda: permutation_matrices(symmetric_generators(2), 2, True, False),
    "s3-x": lambda: permutation_matrices(symmetric_generators(3), 3, True, False),
    "s2-theta": lambda: permutation_matrices(symmetric_generators(2), 2, False, True),
    "s3-theta": lambda: permutation_matrices(symmetric_generators(3), 3, False, True),
    "young-2-1-theta": lambda: permutation_matrices(PermGroup.young((2, 1)).generators, 3, False, True),
    "young-1-2-theta": lambda: permutation_matrices(PermGroup.young((1, 2)).generators, 3, False, True),
    "young-3-theta": lambda: permutation_matrices(PermGroup.young((3,)).generators, 3, False, True),
    "young-1-1-1-theta": lambda: permutation_matrices(PermGroup.young((1, 1, 1)).generators, 3, False, True),
    "s1-diag": lambda: permutation_matrices(symmetric_generators(1), 1, True, True),
    "s2-diag": lambda: permutation_matrices(symmetric_generators(2), 2, True, True),
    "s3-diag": lambda: permutation_matrices(symmetric_generators(3), 3, True, True),
}

PERM_GROUP_FIXTURES = {
    "s2": lambda: PermGroup.symmetric(2),
    "s3": lambda: PermGroup.symmetric(3),
    "s4": lambda: PermGroup.symmetric(4),
    "s5": lambda: PermGroup.symmetric(5),
    "c3": lambda: PermGroup.cyclic(3),
    "young-2-1": lambda: PermGroup.young([2, 1]),
    "trivial-1": lambda: PermGroup.trivial(1),
    "trivial-2": lambda: PermGroup.trivial(2),
    "trivial-3": lambda: PermGroup.trivial(3),
}


def matrix_group_fixture(name: str) -> MatrixGroup:
    try:
        return MATRIX_GROUP_FIXTURES[name]()
    except KeyError:
        raise KeyError(f"unknown matrix group fixture {name!r}") from None


def perm_group_fixture(name: str) -> PermGroup:
    try:
        return PERM_GROUP_FIXTURES[name]()
    except KeyError:
        raise KeyError(f"unknown permutation group fixture {name!r}") from None

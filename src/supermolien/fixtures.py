"""Named example groups used by the verification suites, tests, and CLI docs.

Matrix-group fixtures are built from generators and closed; permutation
fixtures wrap the PermGroup constructors.  Builders are thin so callers can
ask for fresh instances.
"""

from __future__ import annotations

from .groups import GradedGroupElement, MatrixGroup, PermGroup, symmetric_generators
from .linalg import QMatrix


def trivial_group(r0: int, r1: int) -> MatrixGroup:
    return MatrixGroup.trivial(r0, r1)


def sign_scalar_group() -> MatrixGroup:
    """{+1, -1} acting on one commuting variable."""
    minus = GradedGroupElement(QMatrix.from_rows([[-1]]), QMatrix.identity(0))
    return MatrixGroup.close(1, 0, [minus])


def perm_matrix_group(n: int, part: str) -> MatrixGroup:
    """S_n by permutation matrices on n commuting ("even") or n
    anticommuting ("odd") variables."""
    if part == "even":
        gens = [GradedGroupElement(p.matrix(), QMatrix.identity(0)) for p in symmetric_generators(n)]
        return MatrixGroup.close(n, 0, gens)
    gens = [GradedGroupElement(QMatrix.identity(0), p.matrix()) for p in symmetric_generators(n)]
    return MatrixGroup.close(0, n, gens)


def young_theta_group(alpha: tuple[int, ...]) -> MatrixGroup:
    """Young subgroup S_alpha permuting n = sum(alpha) anticommuting variables."""
    n = sum(alpha)
    young = PermGroup.young(alpha)
    gens = [GradedGroupElement(QMatrix.identity(0), p.matrix()) for p in young.generators]
    return MatrixGroup.close(0, n, gens)


def diagonal_perm_group(n: int) -> MatrixGroup:
    """S_n acting simultaneously on n commuting and n anticommuting variables."""
    gens = [GradedGroupElement(p.matrix(), p.matrix()) for p in symmetric_generators(n)]
    return MatrixGroup.close(n, n, gens)


MATRIX_GROUP_FIXTURES = {
    "trivial-1-0": lambda: trivial_group(1, 0),
    "trivial-0-1": lambda: trivial_group(0, 1),
    "trivial-1-1": lambda: trivial_group(1, 1),
    "trivial-2-2": lambda: trivial_group(2, 2),
    "trivial-3-2": lambda: trivial_group(3, 2),
    "sign-scalar": sign_scalar_group,
    "s2-x": lambda: perm_matrix_group(2, "even"),
    "s3-x": lambda: perm_matrix_group(3, "even"),
    "s2-theta": lambda: perm_matrix_group(2, "odd"),
    "s3-theta": lambda: perm_matrix_group(3, "odd"),
    "young-2-1-theta": lambda: young_theta_group((2, 1)),
    "young-1-2-theta": lambda: young_theta_group((1, 2)),
    "young-3-theta": lambda: young_theta_group((3,)),
    "young-1-1-1-theta": lambda: young_theta_group((1, 1, 1)),
    "s1-diag": lambda: diagonal_perm_group(1),
    "s2-diag": lambda: diagonal_perm_group(2),
    "s3-diag": lambda: diagonal_perm_group(3),
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

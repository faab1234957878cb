"""Shared exception types.

Every error the library raises deliberately derives from SuperMolienError,
so the CLI boundary can map "bad input or undefined operation" to a single
exit code.
"""


class SuperMolienError(Exception):
    """Base class for all library errors."""


class ZeroConstantTerm(SuperMolienError):
    """Series inversion requires a nonzero constant term."""


class NotSquare(SuperMolienError):
    """Operation defined for square matrices only."""


class SignatureMismatch(SuperMolienError):
    """Operands live over different algebra signatures."""


class DimensionMismatch(SuperMolienError):
    """Matrix block sizes do not match the signature."""


class DegreeMismatch(DimensionMismatch):
    """Permutation degree does not match the number of tensor rows."""


class CapExceeded(SuperMolienError):
    """Group closure or wreath enumeration grew past the safety cap."""


class NotInvertible(SuperMolienError):
    """Generator matrix is singular, so it generates no group."""


class BasisTooLarge(SuperMolienError):
    """Brute-force bidegree basis exceeds the configured size limit."""


class NotAPermutationGroup(SuperMolienError):
    """Matrix group is not realized by permutation matrices."""


class NotHomogeneous(SuperMolienError):
    """Operand must be homogeneous in the odd degree."""

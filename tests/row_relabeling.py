"""Row relabeling for the tests: a label with identity row blocks, and a
reference for its action that never goes through the substitution kernel."""

from supermolien.groups import GradedGroupElement, WreathElement
from supermolien.superalgebra import SuperMonomial, SuperPolynomial, normalize_theta


def relabeling(sigma, sig):
    """The label (sigma, (1, .., 1)) on the rows of sig: a pure row relabeling."""
    return WreathElement(sigma, (GradedGroupElement.identity(sig.r0, sig.r1),) * sigma.n)


def relabel_rows(sigma, f):
    """Reference relabeling: each variable in row i moves to row
    sigma^{-1}(i), term by term through the validating constructors, the
    odd factors reordered by normalize_theta, which gives the sign."""
    assert sigma.n == f.sig.n
    inv = sigma.inverse()
    out = SuperPolynomial.zero(f.sig)
    for (xpart, theta), c in f.terms.items():
        theta, sign = normalize_theta((inv(r), col) for r, col in theta)
        moved = SuperMonomial({(inv(r), col): e for r, col, e in xpart}, theta)
        out = out + SuperPolynomial.monomial(f.sig, moved, sign * c)
    return out

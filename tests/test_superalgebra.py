"""Supercommutative multiplication, sign normalization, group actions, bases."""

import itertools
import json
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supermolien.errors import DegreeMismatch, DimensionMismatch, SignatureMismatch
from supermolien.groups import (
    GradedGroupElement,
    Permutation,
    WreathElement,
    _inversion_sign,
    MatrixGroup,
    PermGroup,
)
from supermolien.linalg import QMatrix, charpoly_det
from supermolien.molien import FLAVORS, GroupAction, _orbit_sums, reynolds_project
from supermolien.shuffle import shuffle_product
from supermolien.superalgebra import (
    AlgebraSignature,
    SuperMonomial,
    SuperPolynomial,
    _bidegree,
    _label_sum,
    _mul_terms,
    bidegree_basis,
    bidegree_basis_size,
    coefficient_vector,
    normalize_theta,
    super_mul,
)

from rational_groups import KERNEL_GROUPS, is_exact, named_group
from dense_reference import dense_columns, dense_label_matrices
from molien_reference import apply_wreath, build_wreath, wreath_mul
from row_relabeling import relabel_rows, relabeling


def bubble_sign(seq):
    """Independent sign oracle: bubble sort with explicit swap counting."""
    seq = list(seq)
    if len(set(seq)) != len(seq):
        return 0
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


pairs_st = st.lists(
    st.tuples(st.integers(1, 3), st.integers(1, 2)), min_size=0, max_size=6
)


@given(pairs_st)
@example([])
@example([(2, 1)])
@example([(2, 1), (1, 2), (2, 1)])
def test_normalize_theta_matches_bubble_oracle(pairs):
    ordered, sign = normalize_theta(pairs)
    assert sign == bubble_sign(pairs)
    if len(set(pairs)) == len(pairs):
        assert _inversion_sign(pairs) == sign
    assert ordered == tuple(sorted(pairs))
    if sign != 0:
        assert all(ordered[i] < ordered[i + 1] for i in range(len(ordered) - 1))


def test_monomial_canonicalization():
    m = SuperMonomial([(1, 2, 1), (1, 1, 2), (1, 2, 1)])
    assert m[0] == ((1, 1, 2), (1, 2, 2))
    assert SuperMonomial({(1, 1): 0}) == SuperMonomial({}) == ((), ())
    with pytest.raises(ValueError):
        SuperMonomial({}, (((1, 2)), ((1, 1))))  # not increasing
    with pytest.raises(ValueError):
        SuperMonomial({(1, 1): -1})


def test_validated_and_trusted_monomials_are_equal_and_hash_equal():
    # a monomial is the plain pair: the validated one equals the literal
    validated = SuperMonomial({(2, 1): 1, (1, 2): 3}, [(1, 1), (2, 2)])
    trusted = (((1, 2, 3), (2, 1, 1)), ((1, 1), (2, 2)))
    assert validated == trusted and hash(validated) == hash(trusted)
    assert {validated: 1} == {trusted: 1}
    assert (validated[0], validated[1]) == validated and type(validated) is tuple
    assert SuperMonomial({}) == ((), ())
    assert validated != (((1, 2, 3),), ((1, 1), (2, 2)))
    with pytest.raises(TypeError):
        validated[0] = ()


# (what is wrong, the pair, what SuperMonomial makes of its parts or None
# when it refuses them)
NON_CANONICAL_PAIRS = [
    ("unsorted x-part", (((1, 2, 1), (1, 1, 1)), ()), (((1, 1, 1), (1, 2, 1)), ())),
    ("zero exponent", (((1, 1, 0),), ()), ((), ())),
    ("negative exponent", (((1, 1, -1),), ()), None),
    ("repeated variable", (((1, 1, 1), (1, 1, 2)), ()), (((1, 1, 3),), ())),
    ("decreasing theta", ((), ((1, 2), (1, 1))), None),
    ("repeated theta", ((), ((1, 1), (1, 1))), None),
]


@pytest.mark.parametrize("what, pair, canon", NON_CANONICAL_PAIRS, ids=[c[0] for c in NON_CANONICAL_PAIRS])
def test_validating_constructors_refuse_non_canonical_pairs(what, pair, canon):
    # a plain pair gets in as a key only in canonical form: the validating
    # SuperPolynomial refuses the pair, whatever its coefficient, and
    # SuperMonomial refuses its parts or gives back another, canonical pair
    sig = AlgebraSignature(2, 2, 1)
    for c in (1, 0):
        with pytest.raises(ValueError):
            SuperPolynomial(sig, {pair: c})
    if canon is None:
        with pytest.raises(ValueError):
            SuperMonomial(*pair)
    else:
        assert SuperMonomial(*pair) == canon != pair
        assert SuperPolynomial(sig, {canon: 1}).terms == {canon: 1}


SIG = AlgebraSignature(2, 2, 2)


def x(row, col, sig=SIG):
    return SuperPolynomial.x_var(sig, row, col)

def th(row, col, sig=SIG):
    return SuperPolynomial.theta_var(sig, row, col)


def test_theta_square_is_zero():
    assert super_mul(th(1, 1), th(1, 1)).is_zero()


def test_theta_anticommute():
    ab = super_mul(th(1, 1), th(1, 2))
    ba = super_mul(th(1, 2), th(1, 1))
    assert ba == -ab
    assert not ab.is_zero()


def test_x_commute_with_everything():
    f = super_mul(x(1, 1), th(2, 1))
    g = super_mul(th(2, 1), x(1, 1))
    assert f == g


def test_signature_mismatch():
    other = AlgebraSignature(2, 2, 1)
    with pytest.raises(SignatureMismatch):
        super_mul(x(1, 1), SuperPolynomial.x_var(other, 1, 1))


def small_poly_st(sig=SIG):
    mono = st.tuples(
        st.lists(st.tuples(st.integers(1, sig.n), st.integers(1, sig.r0), st.integers(1, 2)), max_size=2),
        st.lists(st.tuples(st.integers(1, sig.n), st.integers(1, sig.r1)), max_size=2, unique=True).map(sorted),
    ).map(lambda t: SuperMonomial(t[0], tuple(t[1])))
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(mono, coeff, max_size=3).map(lambda d: SuperPolynomial(sig, d))


@given(small_poly_st(), small_poly_st(), small_poly_st())
@settings(max_examples=40)
def test_super_mul_associative_and_distributive(f, g, h):
    assert super_mul(super_mul(f, g), h) == super_mul(f, super_mul(g, h))
    assert super_mul(f, g + h) == super_mul(f, g) + super_mul(f, h)


@given(small_poly_st())
def test_one_is_neutral(f):
    assert super_mul(SuperPolynomial.one(SIG), f) == f
    assert super_mul(f, SuperPolynomial.one(SIG)) == f


def test_monomials_supercommute_with_koszul_sign():
    # m1 m2 = (-1)^{j1 j2} m2 m1 for theta-degrees j1, j2
    for t1 in [(), ((1, 1),), ((1, 1), (2, 2))]:
        for t2 in [(), ((1, 2),), ((2, 1), (2, 2))]:
            m1 = SuperMonomial({(1, 1): 1}, t1)
            m2 = SuperMonomial({(2, 1): 2}, t2)
            p12 = super_mul(SuperPolynomial.monomial(SIG, m1), SuperPolynomial.monomial(SIG, m2))
            p21 = super_mul(SuperPolynomial.monomial(SIG, m2), SuperPolynomial.monomial(SIG, m1))
            sign = (-1) ** (len(t1) * len(t2))
            assert p12 == p21.scale(sign)


# -- row permutation action ------------------------------------------------------


def test_row_swap_on_theta_pair_picks_up_sign():
    # swap rows of theta[1,1] theta[2,1]: reordering the product costs a sign
    sig = AlgebraSignature(0, 1, 2)
    f = super_mul(SuperPolynomial.theta_var(sig, 1, 1), SuperPolynomial.theta_var(sig, 2, 1))
    swapped = apply_wreath(relabeling(Permutation([2, 1]), sig), f)
    assert swapped == -f


def test_row_relabel_moves_row_i_to_sigma_inverse_i():
    sig = AlgebraSignature(1, 0, 3)
    sigma = Permutation.from_cycles(3, [(1, 2, 3)])  # sigma(1) = 2
    f = SuperPolynomial.x_var(sig, 1, 1)
    moved = apply_wreath(relabeling(sigma, sig), f)
    assert moved == SuperPolynomial.x_var(sig, 3, 1)


def test_degree_mismatch_on_wrong_sized_permutation():
    with pytest.raises(DegreeMismatch):
        apply_wreath(relabeling(Permutation([1, 2, 3]), SIG), x(1, 1))


@given(small_poly_st())
@settings(max_examples=30)
def test_row_action_composes_contravariantly(f):
    rng = random.Random(11)
    for _ in range(5):
        # random sigma, tau on 2 rows
        sigma = Permutation(rng.sample([1, 2], 2))
        tau = Permutation(rng.sample([1, 2], 2))
        lhs = apply_wreath(relabeling(sigma, SIG), apply_wreath(relabeling(tau, SIG), f))
        rhs = apply_wreath(relabeling(tau.compose(sigma), SIG), f)
        assert lhs == rhs


def test_row_action_is_ring_homomorphism():
    sig = AlgebraSignature(1, 2, 2)
    f = super_mul(SuperPolynomial.theta_var(sig, 1, 1), SuperPolynomial.theta_var(sig, 1, 2))
    g = SuperPolynomial.theta_var(sig, 2, 1)
    w = relabeling(Permutation([2, 1]), sig)
    assert apply_wreath(w, super_mul(f, g)) == super_mul(apply_wreath(w, f), apply_wreath(w, g))


# -- graded element action ----------------------------------------------------------


def one_row(g):
    """The label that applies g to the single row of a one-row algebra."""
    return WreathElement(Permutation.identity(1), (g,))


def test_scalar_action_on_x():
    sig = AlgebraSignature(1, 0, 1)
    g = GradedGroupElement(QMatrix.from_rows([[-1]]), QMatrix.identity(0))
    f = SuperPolynomial.x_var(sig, 1, 1)
    assert apply_wreath(one_row(g), f) == -f
    sq = super_mul(f, f)
    assert apply_wreath(one_row(g), sq) == sq


def test_general_linear_substitution_on_x():
    sig = AlgebraSignature(2, 0, 1)
    g = GradedGroupElement(QMatrix.from_rows([[1, 2], [3, 4]]), QMatrix.identity(0))
    f = SuperPolynomial.x_var(sig, 1, 1)
    # column 1 of g0 gives the image of x[1,1]
    expected = SuperPolynomial.x_var(sig, 1, 1) + SuperPolynomial.x_var(sig, 1, 2).scale(3)
    assert apply_wreath(one_row(g), f) == expected


def test_substitution_only_touches_named_row():
    sig = AlgebraSignature(1, 1, 2)
    g = GradedGroupElement(QMatrix.from_rows([[2]]), QMatrix.from_rows([[-1]]))
    f = super_mul(
        super_mul(SuperPolynomial.x_var(sig, 1, 1), SuperPolynomial.theta_var(sig, 1, 1)),
        SuperPolynomial.theta_var(sig, 2, 1),
    )
    w = WreathElement(Permutation.identity(2), (GradedGroupElement.identity(1, 1), g))
    out = apply_wreath(w, f)
    assert out == -f  # only theta[2,1] flips


def test_top_wedge_scales_by_determinant_seeded():
    # the sign bookkeeping must reproduce det(g1) on the top exterior power
    rng = random.Random(23)
    sig = AlgebraSignature(0, 3, 1)
    top = SuperPolynomial(
        AlgebraSignature(0, 3, 1), {SuperMonomial({}, ((1, 1), (1, 2), (1, 3))): Fraction(1)}
    )
    for _ in range(12):
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        m = QMatrix.from_rows(rows)
        # det of the 3 x 3 is -1 times coefficient 3 of det(I - z*m)
        p = charpoly_det(m)
        d = -p[3] if len(p) > 3 else 0
        if d == 0:
            continue
        g = GradedGroupElement(QMatrix.identity(0), m)
        assert apply_wreath(one_row(g), top) == top.scale(d)


def test_graded_action_is_ring_homomorphism():
    sig = AlgebraSignature(1, 2, 1)
    g = GradedGroupElement(QMatrix.from_rows([[2]]), QMatrix.from_rows([[1, 1], [0, 1]]))
    f = SuperPolynomial.theta_var(sig, 1, 1) + SuperPolynomial.x_var(sig, 1, 1)
    h = SuperPolynomial.theta_var(sig, 1, 2)
    w = one_row(g)
    assert apply_wreath(w, super_mul(f, h)) == super_mul(apply_wreath(w, f), apply_wreath(w, h))


def test_dimension_mismatch_on_wrong_block_sizes():
    g = GradedGroupElement(QMatrix.identity(3), QMatrix.identity(0))
    with pytest.raises(DimensionMismatch):
        apply_wreath(one_row(g), SuperPolynomial.x_var(AlgebraSignature(2, 2, 1), 1, 1))


# -- wreath action -------------------------------------------------------------------


def test_apply_wreath_matches_label_product_seeded():
    # op(w1 * w2) == op(w1) . op(w2) on random polynomials
    sig = AlgebraSignature(1, 1, 2)
    swap = GradedGroupElement(QMatrix.from_rows([[-1]]), QMatrix.identity(1))
    G = MatrixGroup.close(1, 1, [swap])
    labels = build_wreath(PermGroup.symmetric(2), G, 2)
    rng = random.Random(37)
    basis_pool = [
        SuperPolynomial.x_var(sig, 1, 1),
        SuperPolynomial.theta_var(sig, 1, 1),
        SuperPolynomial.x_var(sig, 2, 1),
        SuperPolynomial.theta_var(sig, 2, 1),
    ]
    for _ in range(25):
        f = super_mul(rng.choice(basis_pool), rng.choice(basis_pool))
        w1, w2 = rng.choice(labels), rng.choice(labels)
        lhs = apply_wreath(wreath_mul(w1, w2), f)
        rhs = apply_wreath(w1, apply_wreath(w2, f))
        assert lhs == rhs


# -- bidegree bases -------------------------------------------------------------------


def test_signature_variables_are_built_once_per_signature():
    # each call returns the one tuple of its signature object, equal to the
    # list the signature used to build on every call
    for r0, r1, n in [(0, 0, 0), (1, 1, 2), (2, 3, 3), (3, 0, 1), (0, 2, 4)]:
        sig = AlgebraSignature(r0, r1, n)
        even, odd = sig.even_vars(), sig.odd_vars()
        assert type(even) is tuple and type(odd) is tuple
        assert sig.even_vars() is even and sig.odd_vars() is odd
        assert list(even) == [(row, col) for row in range(1, n + 1) for col in range(1, r0 + 1)]
        assert list(odd) == [(row, col) for row in range(1, n + 1) for col in range(1, r1 + 1)]
        # the stored tuples leave the signature's value alone
        assert sig == AlgebraSignature(r0, r1, n) and hash(sig) == hash(AlgebraSignature(r0, r1, n))
        assert repr(sig) == f"AlgebraSignature(r0={r0}, r1={r1}, n={n})"


def test_bidegree_basis_spec_order_for_pure_x():
    sig = AlgebraSignature(2, 0, 1)
    basis = bidegree_basis(sig, 2, 0)
    assert basis == [
        SuperMonomial({(1, 1): 2}),
        SuperMonomial({(1, 1): 1, (1, 2): 1}),
        SuperMonomial({(1, 2): 2}),
    ]


def test_bidegree_basis_counts():
    for r0, r1, n in [(1, 1, 2), (2, 2, 1), (0, 3, 2), (3, 0, 1)]:
        sig = AlgebraSignature(r0, r1, n)
        for i in range(4):
            for j in range(n * r1 + 2):
                basis = bidegree_basis(sig, i, j)
                expected = math.comb(n * r0 + i - 1, i) * math.comb(n * r1, j) if n * r0 + i > 0 else (1 if i == 0 else 0) * math.comb(n * r1, j)
                assert len(basis) == expected
                assert len(set(basis)) == len(basis)
                assert all(_bidegree(m) == (i, j) for m in basis)


def test_bidegree_basis_size_counts_the_basis():
    # zero-variable parts included: n = 0, r0 = 0 or r1 = 0
    for n, r0, r1 in itertools.product(range(3), range(4), range(4)):
        sig = AlgebraSignature(r0, r1, n)
        for i, j in itertools.product(range(5), range(8)):
            assert bidegree_basis_size(sig, i, j) == len(bidegree_basis(sig, i, j))
    for i, j in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="^bidegrees must be nonnegative$"):
            bidegree_basis_size(AlgebraSignature(1, 1, 1), i, j)


def compositions_desc_lex(total, nvars):
    """Reference: exponent vectors summing to total, in descending lex order."""
    if nvars == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in compositions_desc_lex(total - first, nvars - 1):
            yield (first,) + rest


def test_bidegree_basis_order_matches_descending_lex_reference():
    # x-parts from exponent vectors in descending lex (major), theta subsets
    # in ascending lex (minor), with r0, r1 <= 2, at most 4 rows and
    # x-degree at most 5; the theta degrees 0, 1 and n*r1 keep it fast
    for r0, r1, n in itertools.product(range(3), range(3), range(5)):
        sig = AlgebraSignature(r0, r1, n)
        evars = sig.even_vars()
        for i in range(6):
            for j in sorted({0, min(1, n * r1), n * r1}):
                thetas = list(itertools.combinations(sig.odd_vars(), j))
                expected = [
                    SuperMonomial(dict(zip(evars, vec)), theta)
                    for vec in compositions_desc_lex(i, len(evars))
                    for theta in thetas
                ]
                assert bidegree_basis(sig, i, j) == expected


def groupby_bidegree_basis(sig, i, j):
    """Reference enumerator: the package's bidegree basis as it was built
    before the direct recursion, the multisets of itertools'
    combinations_with_replacement grouped into exponents, each paired with
    the theta subsets of itertools.combinations."""
    thetas = list(itertools.combinations(sig.odd_vars(), j))
    out = []
    for factors in itertools.combinations_with_replacement(sig.even_vars(), i):
        xpart = tuple((r, c, len(list(run))) for (r, c), run in itertools.groupby(factors))
        out.extend((xpart, t) for t in thetas)
    return out


def test_bidegree_basis_equals_the_groupby_reference():
    # the same monomials in the same order, and as many as the counted
    # size, on every signature with r0 <= 3, r1 <= 2, n <= 3 (no rows or no
    # even variables included), x-degree up to 6 and every theta degree
    for r0, r1, n in itertools.product(range(4), range(3), range(4)):
        sig = AlgebraSignature(r0, r1, n)
        for i in range(7):
            for j in range(n * r1 + 1):
                basis = bidegree_basis(sig, i, j)
                assert basis == groupby_bidegree_basis(sig, i, j)
                assert len(basis) == bidegree_basis_size(sig, i, j)
    for i, j in ((-1, 0), (0, -1), (-2, 3)):
        with pytest.raises(ValueError, match="^bidegrees must be nonnegative$"):
            bidegree_basis(AlgebraSignature(1, 1, 1), i, j)


def test_bidegree_basis_recursion_depth_is_bounded_by_the_degree():
    # more even variables than the interpreter's recursion limit: the
    # recursion is as deep as the degree, not as the variables are many
    nvars = sys.getrecursionlimit() + 10
    sig = AlgebraSignature(nvars, 1, 1)
    basis = bidegree_basis(sig, 1, 1)
    assert len(basis) == nvars == bidegree_basis_size(sig, 1, 1)
    assert basis[0] == SuperMonomial({(1, 1): 1}, ((1, 1),))
    assert basis[-1] == SuperMonomial({(1, nvars): 1}, ((1, 1),))


def test_coefficient_vector_round_trip():
    sig = AlgebraSignature(1, 1, 2)
    basis = bidegree_basis(sig, 1, 1)
    f = SuperPolynomial(
        sig,
        {basis[0]: Fraction(2), basis[-1]: Fraction(-1, 3)},
    )
    index = {m: k for k, m in enumerate(basis)}
    vec = coefficient_vector(f, index)
    assert vec == {0: 2, len(basis) - 1: Fraction(-1, 3)}
    with pytest.raises(ValueError):
        coefficient_vector(SuperPolynomial.one(sig), index)


# -- serialization ----------------------------------------------------------------------


def test_superpoly_json_round_trip():
    f = super_mul(x(1, 1), th(2, 2)) + th(1, 1).scale(Fraction(-2, 3))
    data = f.to_json_dict()
    assert data["sig"] == {"r0": 2, "r1": 2, "n": 2}
    back = SuperPolynomial.from_json_dict(data)
    assert back == f


def test_superpoly_json_folds_unsorted_theta_sign():
    data = {
        "sig": {"r0": 0, "r1": 2, "n": 1},
        "terms": [{"x": [], "theta": [[1, 2], [1, 1]], "c": "1"}],
    }
    f = SuperPolynomial.from_json_dict(data)
    sig = AlgebraSignature(0, 2, 1)
    assert f == -super_mul(SuperPolynomial.theta_var(sig, 1, 1), SuperPolynomial.theta_var(sig, 1, 2))


def pinned_element():
    """One fixed element: x powers, three thetas, a constant and a
    fractional coefficient."""
    sig = AlgebraSignature(2, 3, 2)
    return SuperPolynomial(
        sig,
        {
            SuperMonomial({(1, 1): 3, (2, 2): 1}, [(1, 1), (1, 3), (2, 2)]): Fraction(-5, 2),
            SuperMonomial({(1, 2): 2}, [(2, 1)]): 4,
            SuperMonomial({}): 1,
        },
    )


def test_repr_and_json_of_a_fixed_element_are_pinned():
    # the readers of a monomial's parts print exactly what they printed
    # when a monomial was a tuple subclass with its own repr
    f = pinned_element()
    assert repr(f) == (
        "<superpoly 2,3;n=2: 1*1 + 4*x[1,2]^2th[2,1] + -5/2*x[1,1]^3x[2,2]th[1,1]th[1,3]th[2,2]>"
    )
    assert f.to_json_dict() == {
        "sig": {"r0": 2, "r1": 3, "n": 2},
        "terms": [
            {"x": [], "theta": [], "c": "1"},
            {"x": [[1, 2, 2]], "theta": [[2, 1]], "c": "4"},
            {"x": [[1, 1, 3], [2, 2, 1]], "theta": [[1, 1], [1, 3], [2, 2]], "c": "-5/2"},
        ],
    }
    assert json.dumps(f.to_json_dict()) == (
        '{"sig": {"r0": 2, "r1": 3, "n": 2}, "terms": [{"x": [], "theta": [], "c": "1"}, '
        '{"x": [[1, 2, 2]], "theta": [[2, 1]], "c": "4"}, '
        '{"x": [[1, 1, 3], [2, 2, 1]], "theta": [[1, 1], [1, 3], [2, 2]], "c": "-5/2"}]}'
    )
    assert f.bidegree_support() == {(0, 0), (2, 1), (4, 3)}


def test_superpoly_json_rejects_repeated_theta():
    data = {
        "sig": {"r0": 0, "r1": 2, "n": 1},
        "terms": [{"x": [], "theta": [[1, 1], [1, 1]], "c": "1"}],
    }
    with pytest.raises(ValueError):
        SuperPolynomial.from_json_dict(data)


def test_superpoly_json_refuses_non_integral_entries():
    # int() would read the exponent 2.7 as 2, and the theta (1.5, 1) would
    # pass the signature's range check
    def poly(x=(), theta=(), sig=None):
        return {"sig": sig or {"r0": 1, "r1": 1, "n": 2}, "terms": [{"x": list(x), "theta": list(theta), "c": "1"}]}

    for data, message in (
        (poly(x=[[1, 1, 2.7]]), "x exponent must be an integer, got 2.7"),
        (poly(x=[[1, True, 1]]), "x column must be an integer, got True"),
        (poly(theta=[[1.5, 1], [1, 1]]), "theta row must be an integer, got 1.5"),
        (poly(sig={"r0": 1, "r1": 1, "n": 2.5}), "sig n must be an integer, got 2.5"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SuperPolynomial.from_json_dict(data)
    exact_float = SuperPolynomial.from_json_dict(poly(x=[[1, 1, 2.0]]))
    assert exact_float == SuperPolynomial(AlgebraSignature(1, 1, 2), {(((1, 1, 2),), ()): 1})


# -- kernel outputs: equivalence and canonical form ---------------------------------

def random_poly(rng, sig, terms=4):
    """Random element with fractional coefficients; repeated monomials fold."""
    out = SuperPolynomial.zero(sig)
    for _ in range(terms):
        xpart = {v: rng.randint(1, 2) for v in sig.even_vars() if rng.random() < 0.4}
        theta = sorted(v for v in sig.odd_vars() if rng.random() < 0.4)
        c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
        out = out + SuperPolynomial.monomial(sig, SuperMonomial(xpart, theta), c)
    return out


def random_label(rng, G, n):
    """Wreath label on n rows; rows and sigma are often the identity."""
    ident = GradedGroupElement.identity(G.r0, G.r1)
    gs = tuple(ident if rng.random() < 0.5 else rng.choice(G.elements) for _ in range(n))
    images = list(range(1, n + 1))
    if rng.random() < 0.6:
        rng.shuffle(images)
    return WreathElement(Permutation(images), gs)


def assert_plain(monomials):
    """Each monomial is the plain pair of plain tuples, no subclass
    instance anywhere in it."""
    for m in monomials:
        assert type(m) is tuple and len(m) == 2
        assert type(m[0]) is tuple and type(m[1]) is tuple
        assert all(type(part) is tuple for part in m[0] + m[1])


def assert_canonical(p):
    assert all(is_exact(c) for c in p.terms.values())
    assert_plain(p.terms)
    for m in p.terms:
        rebuilt = SuperMonomial(m[0], m[1])
        assert (rebuilt[0], rebuilt[1]) == (m[0], m[1])
    again = SuperPolynomial(p.sig, p.terms)
    assert again == p and list(again.terms.items()) == list(p.terms.items())


def substitute_row(g, row, f):
    """Reference substitution within one row, factor by factor:
    x[row,c] -> sum_{c'} g0[c',c] x[row,c'] and likewise theta via g1."""
    sig = f.sig
    x_images = [
        {SuperMonomial({(row, cp + 1): 1}): g.g0.get(cp, c) for cp in range(sig.r0) if g.g0.get(cp, c)}
        for c in range(sig.r0)
    ]
    theta_images = [
        {SuperMonomial({}, ((row, cp + 1),)): g.g1.get(cp, c) for cp in range(sig.r1) if g.g1.get(cp, c)}
        for c in range(sig.r1)
    ]
    total = SuperPolynomial.zero(sig)
    for mono, coeff in f.terms.items():
        # substituted factors are multiplied in canonical order; the rest of
        # the monomial passes through as two blocks, so signs stay exact
        xpart, theta = mono
        pre = SuperMonomial([t for t in xpart if t[0] != row], [p for p in theta if p[0] < row])
        acc = {pre: coeff}
        for r, c, e in xpart:
            for _ in range(e if r == row else 0):
                acc = _mul_terms(acc, x_images[c - 1])
        for r, c in theta:
            if r == row:
                acc = _mul_terms(acc, theta_images[c - 1])
        post = tuple(p for p in theta if p[0] > row)
        acc = _mul_terms(acc, {SuperMonomial({}, post): Fraction(1)})
        total = total + SuperPolynomial(sig, acc)
    return total


def explicit_wreath(w, f):
    """Row-by-row reference for apply_wreath: each row's substitution, then
    the reference row relabeling."""
    out = f
    for row in range(1, f.sig.n + 1):
        out = substitute_row(w.gs[row - 1], row, out)
    return relabel_rows(w.sigma, out)


@pytest.mark.parametrize("gname", KERNEL_GROUPS)
def test_apply_wreath_equals_explicit_composition(gname):
    G = named_group(gname)
    rng = random.Random(f"kernel-{gname}")
    for n in (1, 2, 3):
        sig = AlgebraSignature(G.r0, G.r1, n)
        ident = WreathElement(Permutation.identity(n), (GradedGroupElement.identity(G.r0, G.r1),) * n)
        labels = [ident] + [random_label(rng, G, n) for _ in range(12)]
        for w in labels:
            f = random_poly(rng, sig)
            got = apply_wreath(w, f)
            assert got == explicit_wreath(w, f)
            assert_canonical(got)
        assert apply_wreath(ident, f) == f


def test_apply_wreath_equals_explicit_composition_general_matrices():
    # non-monomial substitutions, where products of images cancel, and
    # monomial ones with coefficients other than +-1
    shear = GradedGroupElement(
        QMatrix.from_rows([[1, 1], [0, 1]]), QMatrix.from_rows([[1, Fraction(1, 2)], [-1, 1]])
    )
    scaled = GradedGroupElement(
        QMatrix.from_rows([[0, 2], [Fraction(1, 2), 0]]), QMatrix.from_rows([[Fraction(-1, 3), 0], [0, 3]])
    )
    ident = GradedGroupElement.identity(2, 2)
    sig = AlgebraSignature(2, 2, 2)
    rng = random.Random(3)
    for gs in ((shear, ident), (ident, shear), (shear, shear), (scaled, ident), (shear, scaled)):
        for images in ((1, 2), (2, 1)):
            w = WreathElement(Permutation(images), gs)
            f = random_poly(rng, sig, terms=5)
            got = apply_wreath(w, f)
            assert got == explicit_wreath(w, f)
            assert_canonical(got)


@pytest.mark.parametrize("sigma", PermGroup.symmetric(3).elements)
def test_relabeling_label_equals_row_permutation(sigma):
    # a label with identity rows is a pure row relabeling: the substitution
    # by its matrix and the reference relabeling agree on the row convention
    rng = random.Random(f"relabel-{sigma.images}")
    for r0, r1 in ((1, 1), (2, 2), (0, 2)):
        sig = AlgebraSignature(r0, r1, 3)
        w = relabeling(sigma, sig)
        for _ in range(4):
            f = random_poly(rng, sig, terms=5)
            assert apply_wreath(w, f) == relabel_rows(sigma, f)


def test_wreath_apply_rejects_wrong_rows_and_block_shapes():
    ident = GradedGroupElement.identity(1, 1)
    two_rows = AlgebraSignature(1, 1, 2)
    f = SuperPolynomial.x_var(two_rows, 1, 1)
    with pytest.raises(DegreeMismatch):
        apply_wreath(WreathElement(Permutation.identity(1), (ident,)), f)
    # rows whose blocks differ from each other match no signature
    mixed = WreathElement(Permutation.identity(2), (ident, GradedGroupElement.identity(2, 1)))
    with pytest.raises(DimensionMismatch):
        apply_wreath(mixed, f)
    # non-square blocks
    wide = WreathElement(
        Permutation.identity(1), (GradedGroupElement(QMatrix.from_rows([[1, 0]]), QMatrix.identity(1)),)
    )
    with pytest.raises(DimensionMismatch):
        apply_wreath(wide, SuperPolynomial.x_var(AlgebraSignature(1, 1, 1), 1, 1))
    # an action checks its factors, when it is made: an element whose
    # blocks are not (1, 1) is refused on two rows of (1, 1)
    with pytest.raises(DimensionMismatch):
        action = GroupAction(two_rows, ((1, Permutation.identity(2)),), ((1, GradedGroupElement.identity(2, 1)),))
        reynolds_project(action, f)


def test_wreath_apply_on_zero_rows():
    # the zero-row label acts on the scalars of any (r0, r1), and only there
    empty = WreathElement(Permutation.identity(0), ())
    for r0, r1 in ((0, 0), (1, 2)):
        scalars = SuperPolynomial.one(AlgebraSignature(r0, r1, 0)).scale(Fraction(-2, 3))
        assert apply_wreath(empty, scalars) == scalars
    with pytest.raises(DegreeMismatch):
        apply_wreath(empty, SuperPolynomial.one(AlgebraSignature(1, 1, 1)))
    one_row = WreathElement(Permutation.identity(1), (GradedGroupElement.identity(1, 1),))
    with pytest.raises(DegreeMismatch):
        apply_wreath(one_row, SuperPolynomial.one(AlgebraSignature(1, 1, 0)))


def test_wreath_apply_rejects_identity_rows_of_the_wrong_shape():
    w = WreathElement(Permutation.identity(1), (GradedGroupElement.identity(2, 0),))
    with pytest.raises(DimensionMismatch):
        apply_wreath(w, SuperPolynomial.x_var(AlgebraSignature(1, 0, 1), 1, 1))


@pytest.mark.parametrize("gname", KERNEL_GROUPS)
def test_kernel_outputs_are_canonical(gname):
    G = named_group(gname)
    rng = random.Random(f"canonical-{gname}")
    for n in (1, 2):
        sig = AlgebraSignature(G.r0, G.r1, n)
        for _ in range(6):
            f, g = random_poly(rng, sig), random_poly(rng, sig)
            assert_canonical(super_mul(f, g))
            assert_canonical(super_mul(f, f))
            sigma = Permutation(rng.sample(range(1, n + 1), n))
            assert_canonical(apply_wreath(relabeling(sigma, sig), f))
            assert_canonical(apply_wreath(random_label(rng, G, n), f))
            w = random_label(rng, G, n)
            assert_plain(_label_sum(((1, w), (-1, relabeling(sigma, sig))), f.terms))
            assert_plain(_mul_terms(f.terms, g.terms))
            for j in range(sig.num_odd + 1):
                assert_plain(bidegree_basis(sig, 2, j))
        for flavor in FLAVORS:
            action = GroupAction.from_wreath(PermGroup.symmetric(n), G, n, flavor=flavor)
            # a projection under the non-monomial group has ~100 terms from
            # four; projecting it again costs seconds per flavor
            proj = reynolds_project(action, random_poly(rng, sig, terms=2 if gname == "rational-s3" else 4))
            assert_canonical(proj)
            assert reynolds_project(action, proj) == proj
            basis = bidegree_basis(sig, 1, min(1, sig.num_odd))
            for m, acc in _orbit_sums(action, basis):
                assert_plain([m, *acc])
            one_row = AlgebraSignature(G.r0, G.r1, 1)
            f, g = random_poly(rng, one_row, terms=2), random_poly(rng, one_row, terms=2)
            assert_canonical(shuffle_product(f, g, signed=flavor != "invariant"))


def small_term_map(rng, sig, terms=3):
    """Seeded term map of a few monomials of x-degree at most 2 and at
    most two odd factors, coefficients ints and Fractions; repeats fold."""
    out = SuperPolynomial.zero(sig)
    evars, ovars = sig.even_vars(), sig.odd_vars()
    for _ in range(terms):
        xpart = {}
        for _ in range(rng.randint(0, 2) if evars else 0):
            v = rng.choice(evars)
            xpart[v] = xpart.get(v, 0) + 1
        theta = sorted(rng.sample(ovars, rng.randint(0, min(2, len(ovars)))))
        c = rng.choice([-2, 3, Fraction(-1, 2), Fraction(5, 3)])
        out = out + SuperPolynomial.monomial(sig, SuperMonomial(xpart, theta), c)
    return out.terms


@pytest.mark.parametrize("gname", KERNEL_GROUPS)
def test_term_map_substitution_equals_monomial_by_monomial(gname):
    # one label sum of one label on a whole term map equals the images of
    # its monomials mapped one by one, scaled and summed, on every label of
    # S_2[G] and S_3[G]; a one-term label maps distinct monomials to
    # distinct ones, and no image has a zero coefficient
    G = named_group(gname)
    rng = random.Random(f"term-map-{gname}")
    for n in (2, 3):
        sig = AlgebraSignature(G.r0, G.r1, n)
        for w in build_wreath(PermGroup.symmetric(n), G, n):
            terms = small_term_map(rng, sig)
            got = list(_label_sum(((1, w),), terms).items())
            expected = {}
            for m, c in terms.items():
                for image, a in _label_sum(((1, w),), {m: 1}).items():
                    expected[image] = expected.get(image, 0) + c * a
            assert len(got) == len(terms) or not w.substitution.one_term
            assert all(c for _, c in got)
            assert dict(got) == {m: c for m, c in expected.items() if c}


def dense_image(w, sig, mono):
    """Reference image of one monomial under a label: each variable's image
    read off the label's densely assembled matrices (dense_reference), and
    the images multiplied out factor by factor with super_mul."""
    even, odd = (dense_columns(m, r) for m, r in zip(dense_label_matrices(w), (sig.r0, sig.r1)))
    out = SuperPolynomial.one(sig)
    xpart, theta = mono
    for r, c, e in xpart:
        form = SuperPolynomial(sig, {SuperMonomial({v: 1}): a for v, a in even[r, c]})
        for _ in range(e):
            out = super_mul(out, form)
    for p in theta:
        out = super_mul(out, SuperPolynomial(sig, {SuperMonomial({}, (v,)): a for v, a in odd[p]}))
    return out


def odd_count_monomials(rng, sig):
    """Seeded monomials with 0, 1, 2, 3 and 4 odd factors, as many as the
    odd variables allow, each with an x-part of at most two variables,
    exponents up to 2."""
    out = []
    for k in range(min(4, sig.num_odd) + 1):
        for _ in range(2):
            evars = rng.sample(sig.even_vars(), min(2, sig.n * sig.r0))
            xpart = {v: rng.randint(1, 2) for v in evars if rng.random() < 0.7}
            out.append(SuperMonomial(xpart, sorted(rng.sample(sig.odd_vars(), k))))
    return out


@pytest.mark.parametrize("gname", KERNEL_GROUPS)
def test_label_sum_equals_dense_and_relabeling_images(gname):
    # the label sum against references that never go through it: each
    # label of S_2[G] and S_3[G] (a seeded sample of S_3[G] when it is
    # large) with weight +-1 on monomials of every odd count up to 4, the
    # images read off dense matrices; the pure relabelings also against
    # row_relabeling; and one sum over many labels, weighted both ways
    G = named_group(gname)
    rng = random.Random(f"label-sum-{gname}")
    for n in (2, 3):
        sig = AlgebraSignature(G.r0, G.r1, n)
        labels = build_wreath(PermGroup.symmetric(n), G, n)
        if len(labels) > 200:
            labels = rng.sample(labels, 200)
        monos = odd_count_monomials(rng, sig)
        assert {len(m[1]) for m in monos} == set(range(min(4, sig.num_odd) + 1))
        total = []
        for w in labels:
            mono = rng.choice(monos)
            c = rng.choice([1, -2, Fraction(3, 5)])
            image = dense_image(w, sig, mono).scale(c)
            for weight in (1, -1):
                got = _label_sum(((weight, w),), {mono: c})
                assert SuperPolynomial(sig, got) == image.scale(weight)
            total.append((rng.choice([1, -1]), w))
        f = SuperPolynomial(sig, {m: rng.choice([1, -3, Fraction(1, 2)]) for m in monos})
        for sigma in PermGroup.symmetric(n).elements:
            for weight in (1, -1):
                got = _label_sum(((weight, relabeling(sigma, sig)),), f.terms)
                assert SuperPolynomial(sig, got) == relabel_rows(sigma, f).scale(weight)
        # one monomial through many labels: the sum of the weighted images
        mono = monos[-1]
        assert SuperPolynomial(sig, _label_sum(total, {mono: 1})) == sum(
            (dense_image(w, sig, mono).scale(weight) for weight, w in total), SuperPolynomial.zero(sig)
        )

"""Permutations, group closure, wreath labels, shuffle representatives."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from supermolien import groups
from supermolien.errors import (
    CapExceeded,
    DegreeMismatch,
    DimensionMismatch,
    NotAPermutationGroup,
    NotInvertible,
)
from supermolien.groups import (
    GradedGroupElement,
    _inversion_sign,
    MatrixGroup,
    PermGroup,
    Permutation,
    Substitution,
    WreathElement,
    build_wreath,
    cycle_type,
    matrix_group_to_perm_group,
    perm_group_of_wreath,
    perm_sign,
    shuffle_reps,
    symmetric_generators,
    validate_character,
    wreath_generators,
    wreath_identity,
    wreath_mul,
    wreath_sign,
)
from supermolien.fixtures import MATRIX_GROUP_FIXTURES, matrix_group_fixture, perm_group_fixture
from supermolien.linalg import QMatrix
from supermolien.superalgebra import AlgebraSignature, SuperPolynomial, apply_wreath

from rational_groups import named_group


def perms_st(n):
    return st.permutations(list(range(1, n + 1))).map(Permutation)


# -- permutations -------------------------------------------------------------


def test_permutation_basics():
    p = Permutation([2, 3, 1])
    assert p(1) == 2 and p(3) == 1
    assert p.inverse().images == (3, 1, 2)
    assert p.compose(p).images == (3, 1, 2)
    with pytest.raises(ValueError):
        Permutation([1, 1, 2])


def test_from_cycles():
    assert Permutation.from_cycles(4, [(1, 2)]).images == (2, 1, 3, 4)
    assert Permutation.from_cycles(3, [(1, 2, 3)]).images == (2, 3, 1)
    assert Permutation.from_cycles(4, [(1, 2), (3, 4)]).images == (2, 1, 4, 3)


def test_cycle_type_hand_values():
    assert cycle_type(Permutation.identity(4)) == (1, 1, 1, 1)
    assert cycle_type(Permutation.from_cycles(4, [(1, 2, 3)])) == (3, 1)
    assert cycle_type(Permutation.from_cycles(6, [(1, 2), (3, 4, 5)])) == (3, 2, 1)


@given(st.integers(0, 6).flatmap(perms_st))
@example(Permutation([]))
@example(Permutation([1]))
def test_sign_matches_cycle_count_formula(p):
    # independent oracle: sgn = (-1)^(n - number of cycles)
    expected = (-1) ** (p.n - len(cycle_type(p)))
    assert perm_sign(p) == _inversion_sign(p.images) == expected


@given(perms_st(4), perms_st(4))
def test_sign_is_multiplicative(p, q):
    assert perm_sign(p.compose(q)) == perm_sign(p) * perm_sign(q)


@given(perms_st(5))
def test_inverse_composes_to_identity(p):
    assert p.compose(p.inverse()) == Permutation.identity(5)
    assert p.inverse().compose(p) == Permutation.identity(5)


def test_permutation_matrix_convention():
    p = Permutation([2, 3, 1])
    m = p.matrix()
    assert m.as_permutation_images() == [2, 3, 1]
    # column j has its single 1 in row p(j)
    assert m.get(1, 0) == 1 and m.get(2, 1) == 1 and m.get(0, 2) == 1


# -- group closure -------------------------------------------------------------


def v(*xs):
    return [Fraction(x) for x in xs]


def graded(g0_rows, g1_rows):
    return GradedGroupElement(QMatrix.from_rows(g0_rows), QMatrix.from_rows(g1_rows))


def test_sign_group_closure():
    minus = graded([[-1]], [])
    G = MatrixGroup.close(1, 0, [minus])
    assert G.order == 2
    assert G.elements[0] == GradedGroupElement.identity(1, 0)


def test_trivial_group():
    G = MatrixGroup.trivial(2, 1)
    assert G.order == 1


def test_closure_is_deterministic():
    gens = [
        graded([[0, 1], [1, 0]], []),
        graded([[0, -1], [1, 0]], []),
    ]
    a = MatrixGroup.close(2, 0, gens)
    b = MatrixGroup.close(2, 0, list(reversed(gens)))
    assert a.elements == b.elements  # generator sorting fixes discovery order
    assert a.order == 8  # dihedral


def test_closure_cap():
    rot = graded([[0, -1], [1, 0]], [])
    with pytest.raises(CapExceeded):
        MatrixGroup.close(2, 0, [rot], cap=3)


def test_singular_generator_rejected():
    with pytest.raises(NotInvertible):
        MatrixGroup.close(1, 0, [graded([[0]], [])])


def test_wrong_shape_generator_rejected():
    with pytest.raises(DimensionMismatch):
        MatrixGroup.close(2, 0, [graded([[1]], [])])


def test_product_and_inverse_indices():
    minus = graded([[-1]], [])
    G = MatrixGroup.close(1, 0, [minus])
    i_id = G.identity_index
    i_m = 1 - i_id
    assert G.product_index(i_m, i_m) == i_id


def test_matrix_group_json_round_trip():
    G = MatrixGroup.close(2, 0, [graded([[0, 1], [1, 0]], [])])
    G2 = MatrixGroup.from_json_dict(G.to_json_dict())
    assert G2.elements == G.elements


def test_perm_group_constructors():
    assert PermGroup.symmetric(1).order == 1
    assert PermGroup.symmetric(2).order == 2
    assert PermGroup.symmetric(4).order == 24
    assert PermGroup.symmetric(5).order == 120
    assert PermGroup.cyclic(3).order == 3
    assert PermGroup.young([2, 1]).order == 2
    assert PermGroup.young([1, 2]).order == 2
    assert PermGroup.young([2, 2]).order == 4
    assert PermGroup.trivial(3).order == 1


def test_perm_group_json_round_trip():
    P = PermGroup.symmetric(3)
    P2 = PermGroup.from_json_dict(P.to_json_dict())
    assert set(P2.elements) == set(P.elements)


def test_matrix_group_to_perm_group():
    s2 = MatrixGroup.close(2, 0, [graded([[0, 1], [1, 0]], [])])
    P = matrix_group_to_perm_group(s2, part="even")
    assert P.order == 2
    with pytest.raises(NotAPermutationGroup):
        matrix_group_to_perm_group(MatrixGroup.close(1, 0, [graded([[-1]], [])]), part="even")


def test_matrix_group_to_perm_group_odd_part():
    swap_theta = graded([], [[0, 1], [1, 0]])
    G = MatrixGroup.close(0, 2, [swap_theta])
    P = matrix_group_to_perm_group(G, part="odd")
    assert P.order == 2 and P.n == 2


# -- wreath labels --------------------------------------------------------------


def sign_group():
    return MatrixGroup.close(1, 0, [graded([[-1]], [])])


def test_build_wreath_count_and_order():
    G = sign_group()
    labels = build_wreath(PermGroup.symmetric(2), G, 2)
    assert len(labels) == 2 * 2 * 2
    assert labels[0] == wreath_identity(2, 1, 0)


def test_build_wreath_cap(monkeypatch):
    # |S_3[+-1]| = 48; both realizations of P[G] go through the one check
    monkeypatch.setattr(groups, "WREATH_CAP", 47)
    with pytest.raises(CapExceeded, match="wreath product has 48 elements, cap is 47"):
        build_wreath(PermGroup.symmetric(3), sign_group(), 3)
    with pytest.raises(CapExceeded, match="cap is 47"):
        perm_group_of_wreath(PermGroup.symmetric(3), PermGroup.symmetric(2), 3)
    monkeypatch.setattr(groups, "WREATH_CAP", 48)
    assert len(build_wreath(PermGroup.symmetric(3), sign_group(), 3)) == 48


def test_build_wreath_degree_check():
    with pytest.raises(DimensionMismatch):
        build_wreath(PermGroup.symmetric(2), sign_group(), 3)


def test_wreath_sign_ignores_g_part():
    G = sign_group()
    minus = G.elements[1 - G.identity_index]
    w = WreathElement(Permutation([2, 1]), (minus, minus))
    assert wreath_sign(w) == -1
    w2 = WreathElement(Permutation([1, 2]), (minus, minus))
    assert wreath_sign(w2) == 1


def test_wreath_sign_multiplicative_seeded():
    G = sign_group()
    labels = build_wreath(PermGroup.symmetric(3), G, 3)
    rng = random.Random(5)
    for _ in range(60):
        w1, w2 = rng.choice(labels), rng.choice(labels)
        assert wreath_sign(wreath_mul(w1, w2)) == wreath_sign(w1) * wreath_sign(w2)


def test_wreath_mul_group_laws_seeded():
    G = sign_group()
    labels = build_wreath(PermGroup.symmetric(3), G, 3)
    ident = wreath_identity(3, 1, 0)
    rng = random.Random(6)
    for _ in range(40):
        w1, w2, w3 = (rng.choice(labels) for _ in range(3))
        assert wreath_mul(wreath_mul(w1, w2), w3) == wreath_mul(w1, wreath_mul(w2, w3))
        assert wreath_mul(w1, ident) == w1
        assert wreath_mul(ident, w1) == w1
    # products stay inside the label set
    label_set = set(labels)
    for _ in range(40):
        assert wreath_mul(rng.choice(labels), rng.choice(labels)) in label_set


def _wreath_closure(gens, ident):
    """Every product of the generator labels, by breadth-first search."""
    seen = {ident}
    frontier = [ident]
    while frontier:
        frontier = [p for w in frontier for g in gens if (p := wreath_mul(w, g)) not in seen]
        seen.update(frontier)
    return seen


@pytest.mark.parametrize(
    "pname,gname,n", [("s3", "sign-scalar", 3), ("c3", "trivial-1-1", 3), ("s2", "s2-theta", 2)]
)
def test_wreath_generators_close_to_build_wreath(pname, gname, n):
    P = perm_group_fixture(pname)
    G = matrix_group_fixture(gname)
    gens = [WreathElement(s, gs) for s, gs in wreath_generators(P.generators, G, n)]
    assert len(gens) == len(P.generators) + n * len(G.generators)
    assert _wreath_closure(gens, wreath_identity(n, G.r0, G.r1)) == set(build_wreath(P, G, n))


def test_wreath_generators_with_no_rows():
    for G in (sign_group(), matrix_group_fixture("s2-theta")):
        assert wreath_generators(symmetric_generators(0), G, 0) == []


@pytest.mark.parametrize("n", range(5))
def test_symmetric_generators(n):
    gens = symmetric_generators(n)
    assert [p.images for p in gens] == [
        [], [], [(2, 1)], [(2, 1, 3), (2, 3, 1)], [(2, 1, 3, 4), (2, 3, 4, 1)]
    ][n]
    assert PermGroup.close(max(n, 1), gens).order == math.factorial(n)
    assert PermGroup.symmetric(n).generators == tuple(gens)


def _multiplicative_on_full_table(values, group) -> bool:
    """Reference verdict: chi(id) = 1 and chi(a*b) = chi(a)chi(b) for all pairs."""
    order = len(values)
    return values[group.identity_index] == 1 and all(
        values[group.product_index(i, j)] == values[i] * values[j]
        for i in range(order)
        for j in range(order)
    )


def _generator_verdict(values, group) -> bool:
    try:
        chi = validate_character([Fraction(v) for v in values], group)
    except ValueError:
        return False
    assert chi == tuple(values) and all(type(v) is int for v in chi)
    return True


def test_character_generator_check_matches_full_table_seeded():
    # every +-1 table on the small groups, and seeded perturbations of the
    # trivial and sign characters of S_4
    small = [
        PermGroup.symmetric(3),
        PermGroup.cyclic(3),
        PermGroup.young([2, 1]),
        matrix_group_fixture("sign-scalar"),
        matrix_group_fixture("s3-x"),
        MatrixGroup.close(2, 0, [graded([[0, -1], [1, 0]], []), graded([[1, 0], [0, -1]], [])]),
    ]
    verdicts = []
    for group in small:
        for values in itertools.product((1, -1), repeat=group.order):
            verdict = _multiplicative_on_full_table(values, group)
            assert _generator_verdict(values, group) == verdict
            verdicts.append(verdict)
    s4 = PermGroup.symmetric(4)
    rng = random.Random(42)
    for _ in range(60):
        sgn = rng.random() < 0.5
        values = [perm_sign(p) if sgn else 1 for p in s4.elements]
        for k in rng.sample(range(s4.order), rng.randint(0, 2)):
            values[k] = -values[k]
        verdict = _multiplicative_on_full_table(values, s4)
        assert _generator_verdict(values, s4) == verdict
        verdicts.append(verdict)
    assert True in verdicts and False in verdicts


# -- wreath as permutations -------------------------------------------------------


def test_perm_group_of_wreath_orders():
    assert perm_group_of_wreath(PermGroup.symmetric(2), PermGroup.symmetric(2), 2).order == 8
    assert perm_group_of_wreath(PermGroup.symmetric(2), PermGroup.symmetric(3), 2).order == 72
    assert perm_group_of_wreath(PermGroup.symmetric(3), PermGroup.symmetric(2), 3).order == 48


def test_perm_group_of_wreath_is_closed():
    W = perm_group_of_wreath(PermGroup.symmetric(2), PermGroup.symmetric(2), 2)
    elems = set(W.elements)
    for p in W.elements:
        for q in W.elements:
            assert p.compose(q) in elems


def test_perm_group_of_wreath_generators_generate():
    W = perm_group_of_wreath(PermGroup.symmetric(2), PermGroup.cyclic(3), 2)
    regenerated = PermGroup.close(W.n, W.generators)
    assert set(regenerated.elements) == set(W.elements)


# -- shuffle representatives -------------------------------------------------------


def test_shuffle_reps_2_2_frozen_list():
    words = ["".join(map(str, p.images)) for p in shuffle_reps(2, 2)]
    assert words == ["1234", "1324", "1342", "3124", "3142", "3412"]
    assert [perm_sign(p) for p in shuffle_reps(2, 2)] == [1, -1, 1, 1, -1, 1]


def test_shuffle_reps_1_2_frozen_list():
    words = ["".join(map(str, p.images)) for p in shuffle_reps(1, 2)]
    assert words == ["123", "213", "231"]


@given(st.integers(0, 3), st.integers(0, 3), st.one_of(st.none(), st.integers(0, 3)))
@example(3, 3, 3)
def test_shuffle_reps_count_and_block_monotonicity(a, b, c):
    blocks = (a, b) if c is None else (a, b, c)
    n = sum(blocks)
    reps = shuffle_reps(*blocks)
    assert len(reps) == math.factorial(n) // math.prod(math.factorial(k) for k in blocks)
    assert len(set(reps)) == len(reps)
    starts = [sum(blocks[:k]) + 1 for k in range(len(blocks))]
    for p in reps:
        assert p.n == n
        inv = p.inverse()
        # positions of each value block ascend
        for start, size in zip(starts, blocks):
            assert all(inv(v) < inv(v + 1) for v in range(start, start + size - 1))


def test_shuffle_reps_refuses_past_the_cap_before_enumerating():
    with pytest.raises(CapExceeded, match=r"\(12, 12\) rows has 2704156 representatives, cap is 200000"):
        shuffle_reps(12, 12)


def test_shuffle_reps_cover_distinct_cosets():
    # every sigma in S_4 factors as (block permutation) . rep for exactly one rep
    a, b = 2, 2
    reps = shuffle_reps(a, b)
    young = PermGroup.young([a, b])
    seen = set()
    for rep in reps:
        for y in young.elements:
            seen.add(y.compose(rep))
    assert len(seen) == 24


def columns_substitution(w):
    """Reference compile of a label with square blocks of one shape from
    its flat matrix, WreathElement.columns: flat variable index
    (row-1)*r + col-1 named back to (row, col), and one-term read off the
    columns themselves."""
    n = w.sigma.n
    r0, r1 = w.gs[0].g0.nrows, w.gs[0].g1.nrows
    maps = []
    one_term = True
    for cols, r in zip(w.columns, (r0, r1)):
        names = [(row, col) for row in range(1, n + 1) for col in range(1, r + 1)]
        maps.append({names[k]: tuple((names[idx], a) for idx, a in col) for k, col in enumerate(cols)})
        one_term = one_term and all(len(col) == 1 for col in cols) and len({col[0][0] for col in cols}) == len(cols)
    return Substitution((n, r0, r1), *maps, one_term)


@pytest.mark.parametrize("gname", sorted(MATRIX_GROUP_FIXTURES) + ["rational-s3", "scaled-swap"])
def test_direct_substitution_equals_columns_compile(gname):
    # the per-block compile equals the one read from the label's flat
    # matrix on every label of S_1[G], S_2[G] and S_3[G], the one-term
    # flag included
    G = named_group(gname)
    for n in (1, 2, 3):
        for w in build_wreath(PermGroup.symmetric(n), G, n):
            assert w.substitution == columns_substitution(w)
            assert w.substitution.one_term == all(g.monomial for g in w.gs)


def test_monomial_flag():
    ident = GradedGroupElement.identity(2, 1)
    swap = QMatrix.from_rows([[0, Fraction(1, 2)], [2, 0]])
    shear = QMatrix.from_rows([[1, 1], [0, 1]])
    assert ident.monomial
    assert GradedGroupElement(swap, QMatrix.from_rows([[-1]])).monomial
    assert not GradedGroupElement(shear, QMatrix.identity(1)).monomial
    assert not GradedGroupElement(QMatrix.identity(2), QMatrix.from_rows([[1, 1], [1, -1]])).monomial
    assert GradedGroupElement.identity(0, 0).monomial


def test_direct_substitution_of_mismatched_blocks_matches_no_signature():
    # blocks of different shapes, or non-square ones, compile to a shape
    # no signature has, and the substitution then refuses the label
    ident = GradedGroupElement.identity(1, 1)
    mixed = WreathElement(Permutation.identity(2), (ident, GradedGroupElement.identity(2, 1)))
    wide = WreathElement(
        Permutation.identity(1), (GradedGroupElement(QMatrix.from_rows([[1, 0]]), QMatrix.identity(1)),)
    )
    for w in (mixed, wide):
        sub = w.substitution
        assert sub.shape[0] == w.sigma.n and len(sub.shape) == 2
        assert (sub.even, sub.odd, sub.one_term) == (None, None, False)
    with pytest.raises(DimensionMismatch):
        apply_wreath(mixed, SuperPolynomial.x_var(AlgebraSignature(1, 1, 2), 1, 1))
    with pytest.raises(DegreeMismatch):
        apply_wreath(mixed, SuperPolynomial.x_var(AlgebraSignature(1, 1, 1), 1, 1))
    with pytest.raises(DimensionMismatch):
        apply_wreath(wide, SuperPolynomial.x_var(AlgebraSignature(1, 1, 1), 1, 1))
    square = WreathElement(Permutation.identity(1), (GradedGroupElement.identity(2, 2),))
    with pytest.raises(DimensionMismatch):
        apply_wreath(square, SuperPolynomial.x_var(AlgebraSignature(1, 1, 1), 1, 1))
    with pytest.raises(DegreeMismatch):
        apply_wreath(square, SuperPolynomial.x_var(AlgebraSignature(2, 2, 2), 1, 1))

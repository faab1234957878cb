"""Permutations, group closure, wreath labels, shuffle representatives."""

import itertools
import math
import random
from dataclasses import FrozenInstanceError
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
    cycle_type,
    matrix_group_to_perm_group,
    perm_group_of_wreath,
    perm_sign,
    shuffle_reps,
    sign_character,
    symmetric_generators,
    validate_character,
    wreath_generators,
)
from supermolien.fixtures import (
    MATRIX_GROUP_FIXTURES,
    PERM_GROUP_FIXTURES,
    matrix_group_fixture,
    perm_group_fixture,
)
from supermolien.linalg import QMatrix, _columns
from supermolien.superalgebra import AlgebraSignature, SuperPolynomial
from supermolien.wreath_series import FLAVORS, check_wreath_routes

import dense_reference
from molien_reference import apply_wreath, build_wreath, wreath_mul
from rational_groups import is_exact, named_group


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


def test_stored_cycles_and_sign_keep_a_permutation_immutable_and_equal():
    p = Permutation.from_cycles(5, [(1, 3), (2, 5, 4)])
    assert p.cycles == ((1, 3), (2, 5, 4)) and p.sign == -1
    assert p.cycles is p.cycles
    for name, value in (("images", (1, 2, 3, 4, 5)), ("cycles", ()), ("sign", 1), ("other", 0)):
        with pytest.raises(AttributeError, match="^Permutation is immutable$"):
            setattr(p, name, value)
    fresh = Permutation(p.images)
    assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
    assert {p: 1}[fresh] == 1 and p.cycles == fresh.cycles


def test_wreath_routes_walk_each_sigma_once(monkeypatch):
    # a freshly closed S_4, not the cached PermGroup.symmetric(4): two
    # route checks in both flavors walk each sigma's cycles once and count
    # its sign once, though the direct route, the cycle index and the
    # sign character each read them
    P = PermGroup.close(4, symmetric_generators(4))
    walked = {"cycles": [], "sign": []}
    for name, seen in walked.items():
        descriptor = Permutation.__dict__[name]

        def counted(p, method=descriptor.method, seen=seen):
            seen.append(p)
            return method(p)

        monkeypatch.setattr(descriptor, "method", counted)
    for _ in range(2):
        for flavor in FLAVORS:
            assert check_wreath_routes(P, sign_group(), 4, flavor, 6)["match"]
    walked_p = {name: [p for p in seen if p.n == 4] for name, seen in walked.items()}
    assert len(walked_p["cycles"]) == 24 and len(walked_p["sign"]) == 24
    assert all({id(p) for p in seen} == {id(p) for p in P.elements} for seen in walked_p.values())


@given(perms_st(5))
def test_inverse_composes_to_identity(p):
    assert p.compose(p.inverse()) == Permutation.identity(5)
    assert p.inverse().compose(p) == Permutation.identity(5)


def test_permutation_matrix_convention():
    p = Permutation([2, 3, 1])
    m = p.matrix()
    G = MatrixGroup.close(3, 0, [GradedGroupElement(m, QMatrix.identity(0))])
    assert matrix_group_to_perm_group(G).generators == (p,)
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


def hyperoctahedral_generators(n):
    """The signed permutation group B_n on n even variables, of order
    2^n n!: generated by the swap (1 2), the n-cycle and the sign change of
    the first variable."""
    flip = QMatrix.from_rows([[-1 if i == j == 0 else int(i == j) for j in range(n)] for i in range(n)])
    mats = [p.matrix() for p in symmetric_generators(n)] + [flip]
    return [GradedGroupElement(m, QMatrix.identity(0)) for m in mats]


@pytest.mark.parametrize("gname", sorted(MATRIX_GROUP_FIXTURES) + ["rational-s3", "scaled-swap", "B_4"])
def test_sparse_closure_equals_dense_reference(gname):
    # the closure on sparse columns lists the same elements, in the same
    # order, as a dense BFS over the same generators, handed to it reversed:
    # the stored columns are those of the dense elements, and so are the
    # dense views
    if gname == "B_4":
        G = MatrixGroup.close(4, 0, hyperoctahedral_generators(4))
        assert G.order == 384
    else:
        G = named_group(gname)
    dense = dense_reference.close(G.r0, G.r1, [(g.g0, g.g1) for g in reversed(G.generators)])
    assert [e.columns for e in G.elements] == [(_columns(g0), _columns(g1)) for g0, g1 in dense]
    assert [(e.g0, e.g1) for e in G.elements] == dense


def test_hyperoctahedral_b5_closes():
    G = MatrixGroup.close(5, 0, hyperoctahedral_generators(5))
    assert G.order == 2**5 * math.factorial(5) == 3840
    assert all(e.monomial for e in G.elements)


@pytest.mark.parametrize("gname", ["rational-s3", "scaled-swap", "young-2-1-theta"])
def test_element_products_equal_constructed_elements(gname):
    # an element built by the constructor and the same one reached by a
    # product compare and hash equal: each product against the element made
    # from the dense reference product, g * g^-1 against the identity, and
    # each element against the one rebuilt from its dense views
    G = named_group(gname)
    ident = GradedGroupElement.identity(G.r0, G.r1)
    for a in G.elements:
        rebuilt = GradedGroupElement(a.g0, a.g1)
        assert rebuilt == a and hash(rebuilt) == hash(a)
        assert all(is_exact(x) for cols in a.columns for col in cols for _, x in col)
        inverses = [b for b in G.elements if a * b == ident]
        assert len(inverses) == 1 and inverses[0] * a == ident
        assert hash(a * inverses[0]) == hash(ident)
        for b in G.elements[:4]:
            dense = GradedGroupElement(dense_reference.mul(a.g0, b.g0), dense_reference.mul(a.g1, b.g1))
            assert a * b == dense and hash(a * b) == hash(dense)
            assert (a * b).shape == (G.r0, G.r0, G.r1, G.r1)


def test_element_product_shapes():
    empty = GradedGroupElement.identity(0, 0)
    assert empty * empty == empty == GradedGroupElement(QMatrix(0, 0, []), QMatrix(0, 0, []))
    assert empty.columns == ((), ())
    wide = GradedGroupElement(QMatrix.from_rows([[1, 2]]), QMatrix.identity(1))
    tall = GradedGroupElement(QMatrix.from_rows([[3], [4]]), QMatrix.identity(1))
    assert (wide * tall).shape == (1, 1, 1, 1) and (wide * tall).g0 == QMatrix.from_rows([[11]])
    assert (tall * wide).shape == (2, 2, 1, 1)
    with pytest.raises(ValueError, match="cannot multiply"):
        wide * wide


def test_closure_cap(monkeypatch):
    # the refusal names the generators' count and what they act on
    rot = graded([[0, -1], [1, 0]], [])
    with pytest.raises(CapExceeded, match=r"^group closure of 1 generator on \(r0, r1\) = \(2, 0\) exceeded cap 3$"):
        MatrixGroup.close(2, 0, [rot], cap=3)
    monkeypatch.setattr(groups, "CLOSURE_CAP", 5)
    with pytest.raises(CapExceeded, match=r"^group closure of 2 generators of degree 3 exceeded cap 5$"):
        PermGroup.close(3, symmetric_generators(3))


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


def test_matrix_group_json_refuses_non_integral_dimensions():
    # int() would read r0 = 1.5 as 1 and r1 = True as 1
    gen = {"g0": [["1"]], "g1": [["1"]]}
    for field, value in (("r0", 1.5), ("r1", True), ("r1", "1")):
        data = {"r0": 1, "r1": 1, "generators": [gen], field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            MatrixGroup.from_json_dict(data)
    assert MatrixGroup.from_json_dict({"r0": 1.0, "r1": 1, "generators": [gen]}).r0 == 1


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


def test_perm_group_json_refuses_non_integral_entries():
    # int() would read both as S_2: n = 2.6 as 2 and [2.9, 1.2] as [2, 1]
    with pytest.raises(ValueError, match="^generator image must be an integer, got 2.9$"):
        PermGroup.from_json_dict({"n": 2.6, "generators": [[2.9, 1.2]]})
    with pytest.raises(ValueError, match="^n must be an integer, got 2.6$"):
        PermGroup.from_json_dict({"n": 2.6, "generators": [[2, 1]]})
    with pytest.raises(ValueError, match="^generator image must be an integer, got True$"):
        PermGroup.from_json_dict({"n": 2, "generators": [[2, True]]})


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


def test_sign_character_is_perm_sign_on_perm_groups():
    for name in PERM_GROUP_FIXTURES:
        P = perm_group_fixture(name)
        assert sign_character(P) == tuple(perm_sign(p) for p in P.elements)


def test_sign_character_reads_the_even_part_first():
    """Wherever the even part, or for r0 = 0 the odd part, is a faithful
    permutation action, sign_character reads that part."""
    compared = 0
    for name in MATRIX_GROUP_FIXTURES:
        G = matrix_group_fixture(name)
        try:
            P = matrix_group_to_perm_group(G, part="even" if G.r0 > 0 else "odd")
        except NotAPermutationGroup:
            continue
        assert sign_character(G) == tuple(perm_sign(p) for p in P.elements)
        compared += 1
    assert compared == len(MATRIX_GROUP_FIXTURES) - 1  # all but sign-scalar


def test_permutation_image_detection():
    # column j has its 1 in row images[j]-1: e_1 -> e_3, e_2 -> e_1, e_3 -> e_2
    m = QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    G = MatrixGroup.close(3, 0, [GradedGroupElement(m, QMatrix.identity(0))])
    assert matrix_group_to_perm_group(G).generators == (Permutation([3, 1, 2]),)
    # a shear and a scalar 1/2 have infinite order, so they are given as
    # one-element groups, not closed
    for rows in ([[1, 1], [0, 1]], [[Fraction(1, 2)]]):
        g = GradedGroupElement(QMatrix.from_rows(rows), QMatrix.identity(0))
        with pytest.raises(NotAPermutationGroup, match="element 0 is not a permutation matrix"):
            matrix_group_to_perm_group(MatrixGroup(len(rows), 0, [g], [g]))


# -- wreath labels --------------------------------------------------------------


def sign_group():
    return MatrixGroup.close(1, 0, [graded([[-1]], [])])


def test_build_wreath_count_and_order():
    G = sign_group()
    labels = build_wreath(PermGroup.symmetric(2), G, 2)
    assert len(labels) == 2 * 2 * 2
    assert labels[0] == WreathElement(Permutation.identity(2), (GradedGroupElement.identity(1, 0),) * 2)


def test_build_wreath_cap(monkeypatch):
    # |S_3[+-1]| = 48; both realizations of P[G] go through the one check
    monkeypatch.setattr(groups, "WREATH_CAP", 47)
    with pytest.raises(CapExceeded, match="wreath product has 48 elements, cap is 47"):
        build_wreath(PermGroup.symmetric(3), sign_group(), 3)
    # the refusal names its input: |P|, |G| and n
    with pytest.raises(CapExceeded, match=r"cap is 47 \(\|P\| = 6, \|G\| = 2, n = 3\)$"):
        build_wreath(PermGroup.symmetric(3), sign_group(), 3)
    with pytest.raises(CapExceeded, match="cap is 47"):
        perm_group_of_wreath(PermGroup.symmetric(3), PermGroup.symmetric(2), 3)
    monkeypatch.setattr(groups, "WREATH_CAP", 48)
    assert len(build_wreath(PermGroup.symmetric(3), sign_group(), 3)) == 48


def test_build_wreath_degree_check():
    with pytest.raises(DimensionMismatch):
        build_wreath(PermGroup.symmetric(2), sign_group(), 3)


def test_refusals_come_before_any_label_is_built(monkeypatch):
    # the degree check of every sigma and the cap check run once per call,
    # before the trusted constructor makes a single label
    def refuse(sigma, gs):
        raise AssertionError("a label was built")

    monkeypatch.setattr(WreathElement, "_of", staticmethod(refuse))
    with pytest.raises(DegreeMismatch, match=r"^P acts on 2 rows, expected 3$"):
        build_wreath(PermGroup.symmetric(2), sign_group(), 3)
    monkeypatch.setattr(groups, "WREATH_CAP", 47)
    with pytest.raises(CapExceeded, match="wreath product has 48 elements, cap is 47"):
        build_wreath(PermGroup.symmetric(3), sign_group(), 3)


@pytest.mark.parametrize("gname", ["sign-scalar", "s2-theta"])
def test_trusted_labels_equal_validated_labels(gname):
    # S_3[G]: each label of build_wreath equals the validating constructor's
    # label on the same (sigma, gs) in every field, compile, == and hash
    G = matrix_group_fixture(gname)
    P = PermGroup.symmetric(3)
    trusted = build_wreath(P, G, 3)
    validated = [WreathElement(sigma, gs) for sigma, gs in groups._wreath_labels(P.elements, G, 3)]
    assert len(trusted) == len(validated) == 6 * G.order**3
    for t, v in zip(trusted, validated):
        assert type(t) is WreathElement and vars(t) == vars(v)
        assert t.sigma == v.sigma and t.gs == v.gs
        assert t == v and hash(t) == hash(v)
        assert t.substitution == v.substitution
        with pytest.raises(FrozenInstanceError):
            t.sigma = v.sigma
    assert len(set(trusted) | set(validated)) == len(trusted)


def test_substitution_compiles_once_per_label_object(monkeypatch):
    descriptor = WreathElement.__dict__["substitution"]
    compile_label = descriptor.method
    compiled = []

    def counted(w):
        compiled.append(w)
        return compile_label(w)

    monkeypatch.setattr(descriptor, "method", counted)
    labels = build_wreath(PermGroup.symmetric(3), sign_group(), 3)
    for w in labels:
        first = w.substitution
        assert w.substitution is first
    assert compiled == labels
    # an equal label object compiles its own, to an equal value
    again = WreathElement(labels[1].sigma, labels[1].gs)
    assert again.substitution == labels[1].substitution
    assert again.substitution is not labels[1].substitution
    assert len(compiled) == len(labels) + 1
    # a label that does not compile stores nothing and is refused every time
    ident = GradedGroupElement.identity(1, 1)
    mixed = WreathElement(Permutation.identity(2), (ident, GradedGroupElement.identity(2, 1)))
    for _ in range(2):
        with pytest.raises(DimensionMismatch):
            mixed.substitution
    assert "substitution" not in vars(mixed)
    assert len(compiled) == len(labels) + 3


def test_element_moves_and_monomial_are_computed_once():
    g = sign_group().elements[1]
    assert g.moves is g.moves and g.monomial
    assert {"moves", "monomial"} <= vars(g).keys()
    move = g.moves[1, 2]
    assert g.moves[1, 2] is move
    assert all(type(part) is dict for part in move)


def test_wreath_sign_ignores_g_part():
    G = sign_group()
    minus = G.elements[1 - G.identity_index]
    w = WreathElement(Permutation([2, 1]), (minus, minus))
    assert perm_sign(w.sigma) == -1
    w2 = WreathElement(Permutation([1, 2]), (minus, minus))
    assert perm_sign(w2.sigma) == 1


def test_wreath_sign_multiplicative_seeded():
    G = sign_group()
    labels = build_wreath(PermGroup.symmetric(3), G, 3)
    rng = random.Random(5)
    for _ in range(60):
        w1, w2 = rng.choice(labels), rng.choice(labels)
        assert perm_sign(wreath_mul(w1, w2).sigma) == perm_sign(w1.sigma) * perm_sign(w2.sigma)


def test_wreath_mul_group_laws_seeded():
    G = sign_group()
    labels = build_wreath(PermGroup.symmetric(3), G, 3)
    ident = WreathElement(Permutation.identity(3), (GradedGroupElement.identity(1, 0),) * 3)
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
    ident = WreathElement(Permutation.identity(n), (GradedGroupElement.identity(G.r0, G.r1),) * n)
    assert _wreath_closure(gens, ident) == set(build_wreath(P, G, n))


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


@pytest.mark.parametrize("gname", sorted(MATRIX_GROUP_FIXTURES) + ["rational-s3", "scaled-swap"])
def test_direct_substitution_equals_columns_compile(gname):
    # the per-block compile equals the columns of the label's densely
    # built matrices named by variable (dense_reference.dense_columns) on
    # every label of S_1[G], S_2[G] and S_3[G], and is one-term exactly
    # when each of those columns holds one entry, on distinct rows
    G = named_group(gname)
    for n in (1, 2, 3):
        for w in build_wreath(PermGroup.symmetric(n), G, n):
            matrices = dense_reference.dense_label_matrices(w)
            maps = [dense_reference.dense_columns(m, r) for m, r in zip(matrices, (G.r0, G.r1))]
            images = [image for part in maps for image in part.values()]
            one_term = all(len(image) == 1 for image in images) and all(
                len({image[0][0] for image in part.values()}) == len(part) for part in maps
            )
            assert w.substitution == Substitution((n, G.r0, G.r1), *maps, one_term)
            assert w.substitution.one_term == all(g.monomial for g in w.gs)


def test_zero_row_label_compiles_to_empty_maps():
    # a label on no rows has no blocks: no variable to map, and the shape
    # (0, 0, 0), which every zero-row signature admits
    w = WreathElement(Permutation.identity(0), ())
    assert w.substitution == Substitution((0, 0, 0), {}, {}, True)
    one = SuperPolynomial.one(AlgebraSignature(1, 1, 0))
    assert apply_wreath(w, one) == one


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
    # blocks of different shapes, or non-square ones, match no signature:
    # the label does not compile, so it is refused before any row check
    ident = GradedGroupElement.identity(1, 1)
    mixed = WreathElement(Permutation.identity(2), (ident, GradedGroupElement.identity(2, 1)))
    wide = WreathElement(
        Permutation.identity(1), (GradedGroupElement(QMatrix.from_rows([[1, 0]]), QMatrix.identity(1)),)
    )
    for w in (mixed, wide):
        with pytest.raises(DimensionMismatch):
            w.substitution
    with pytest.raises(DimensionMismatch):
        apply_wreath(mixed, SuperPolynomial.x_var(AlgebraSignature(1, 1, 2), 1, 1))
    with pytest.raises(DimensionMismatch):
        apply_wreath(mixed, SuperPolynomial.x_var(AlgebraSignature(1, 1, 1), 1, 1))
    with pytest.raises(DimensionMismatch):
        apply_wreath(wide, SuperPolynomial.x_var(AlgebraSignature(1, 1, 1), 1, 1))
    square = WreathElement(Permutation.identity(1), (GradedGroupElement.identity(2, 2),))
    with pytest.raises(DimensionMismatch):
        apply_wreath(square, SuperPolynomial.x_var(AlgebraSignature(1, 1, 1), 1, 1))
    with pytest.raises(DegreeMismatch):
        apply_wreath(square, SuperPolynomial.x_var(AlgebraSignature(2, 2, 2), 1, 1))

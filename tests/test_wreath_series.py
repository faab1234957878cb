"""Wreath series routes, collation, and the determinant identities."""

import math
import random
import sys
from fractions import Fraction

import pytest

from supermolien import groups, molien
from supermolien import series as series_module
from supermolien import wreath_series
from supermolien.errors import CapExceeded, DegreeMismatch, DimensionMismatch
from supermolien.fixtures import MATRIX_GROUP_FIXTURES, matrix_group_fixture, perm_group_fixture, sign_scalar_group
from supermolien.groups import GradedGroupElement, MatrixGroup, PermGroup, Permutation, WreathElement
from supermolien.linalg import QMatrix, charpoly_det
from supermolien.molien import FLAVORS, GroupAction, super_molien
from supermolien.series import (
    Caps,
    TrigradedSeries,
    scale_exponents,
    series_add,
    series_inv,
    series_mul,
    series_sub,
)
from supermolien.superalgebra import AlgebraSignature
from supermolien.verify import COLLATE_GROUPS, WREATH_ROUTE_CASES
from supermolien.wreath_series import (
    CollationSpec,
    check_collation,
    check_superspace,
    check_wreath_routes,
    collated_product_series,
    collated_sum_series,
    superspace_product_series,
    superspace_qbinomial_series,
    superspace_single_n_product,
    verify_block_determinant_lemma,
    verify_m_cycle_identity,
    wreath_hilbert_direct,
    wreath_hilbert_plethysm,
    young_exterior_product,
)

from molien_reference import FlatLabels, assert_same_series, reference_direct, reference_super_molien
from rational_groups import named_group


# The route cases are the `verify` suite's own; these tests run them
# in-process at a smaller cap than the shared report (dq = 5, not 8).
@pytest.mark.parametrize("pname,gname,n", WREATH_ROUTE_CASES)
@pytest.mark.parametrize("flavor", FLAVORS)
def test_direct_equals_plethysm(pname, gname, n, flavor):
    P = perm_group_fixture(pname)
    G = matrix_group_fixture(gname)
    direct = wreath_hilbert_direct(P, G, n, flavor, 5)
    pleth = wreath_hilbert_plethysm(P, G, n, flavor, 5)
    assert direct == pleth


@pytest.mark.parametrize(
    "n,gname,dq",
    [(5, "sign-scalar", 8), (6, "sign-scalar", 8), (7, "sign-scalar", 8), (4, "s2-theta", 6), (4, "rational-s3", 4)],
)
@pytest.mark.parametrize("flavor", FLAVORS)
def test_direct_equals_plethysm_ladder(n, gname, dq, flavor):
    # S_5[+-1] (3840 labels), S_6[+-1] (46080 labels), S_7[+-1] (645120
    # labels, past WREATH_CAP, which the direct route checks against its
    # largest block table, 2^7 sequences), S_4[S_2 on theta] (384 labels)
    # and S_4 over the rational conjugate of S_3 (31104 labels, every block
    # but the identity ones non-monomial), every label counted
    P = PermGroup.symmetric(n)
    G = named_group(gname)
    assert wreath_hilbert_direct(P, G, n, flavor, dq) == wreath_hilbert_plethysm(P, G, n, flavor, dq)


def test_direct_route_builds_no_label(monkeypatch):
    # S_4[+-1] streams its labels into the Molien sum: with label compiles
    # made to raise, the direct route still equals plethysm (computed first, as its inner action compiles labels)
    P, G = PermGroup.symmetric(4), sign_scalar_group()
    pleth = {flavor: wreath_hilbert_plethysm(P, G, 4, flavor, 8) for flavor in FLAVORS}

    def refuse(*args):
        raise AssertionError("a label was built or compiled")

    monkeypatch.setattr(WreathElement, "substitution", property(refuse))
    for flavor in FLAVORS:
        assert wreath_hilbert_direct(P, G, 4, flavor, 8) == pleth[flavor]


def test_direct_route_builds_no_wreath_element_or_substitution(monkeypatch):
    # monomial G and the non-monomial rational conjugate of S_3: the direct
    # route, and the sum over one 3-cycle's labels that the m-cycle identity
    # takes, count labels through block tables, so no label or compiled
    # substitution is made
    cases = [
        (PermGroup.symmetric(4), sign_scalar_group(), 4, 8),
        (PermGroup.symmetric(3), named_group("rational-s3"), 3, 4),
    ]
    expected = {(P.n, flavor): reference_direct(P, G, n, flavor, dq) for P, G, n, dq in cases for flavor in FLAVORS}
    H = matrix_group_fixture("s2-theta")
    one_row = super_molien(GroupAction.from_matrix_group(H), 5, 3 * H.r1)

    def refuse(*args, **kwargs):
        raise AssertionError("a label or substitution was built")

    monkeypatch.setattr(WreathElement, "__init__", refuse)
    monkeypatch.setattr(groups, "Substitution", refuse)
    for P, G, n, dq in cases:
        for flavor in FLAVORS:
            assert_same_series(wreath_hilbert_direct(P, G, n, flavor, dq), expected[P.n, flavor])
    cycle = Permutation.from_cycles(3, [(1, 2, 3)])
    coset = GroupAction(AlgebraSignature(H.r0, H.r1, 3), ((1, cycle),), tuple((1, g) for g in H.elements))
    assert super_molien(coset, 5, 3 * H.r1) == scale_exponents(one_row, 3)


PERM_GROUP_KINDS = {"symmetric": PermGroup.symmetric, "cyclic": PermGroup.cyclic, "trivial": PermGroup.trivial}


@pytest.mark.parametrize("pkind", sorted(PERM_GROUP_KINDS))
@pytest.mark.parametrize("gname", sorted(MATRIX_GROUP_FIXTURES) + ["rational-s3", "scaled-swap"])
def test_direct_route_equals_the_per_label_reference(gname, pkind):
    # every fixture group and both groups with non-integral entries (the
    # non-monomial rational-s3 has its blocks go to Berkowitz), against
    # Berkowitz on every whole label, in value and coefficient type
    G = named_group(gname)
    for n in (1, 2, 3):
        P = PERM_GROUP_KINDS[pkind](n)
        for flavor in FLAVORS:
            assert_same_series(wreath_hilbert_direct(P, G, n, flavor, 5), reference_direct(P, G, n, flavor, 5))


def test_direct_route_walks_each_block_once_per_call(monkeypatch):
    # S_4[+-1]: a block is the g-sequence along one cycle, the same for
    # every cycle of its length, so the direct route walks the 2^m
    # sequences of each cycle length m <= 4, 30 in all, never a label.
    # Each call takes the char-polys of each sequence's even and odd maps
    # once: 60 walks, whose even maps, which name the sequence's moves and
    # entries, are pairwise distinct.  The next call walks them all again,
    # as nothing outlives a call.
    walk = molien._charpoly_rows
    calls = []

    def counted(rows):
        calls.append(rows)
        return walk(rows)

    monkeypatch.setattr(molien, "_charpoly_rows", counted)
    sequences = sum(2**m for m in range(1, 5))
    for flavor in FLAVORS:
        calls.clear()
        wreath_hilbert_direct(PermGroup.symmetric(4), sign_scalar_group(), 4, flavor, 8)
        assert len(calls) == 2 * sequences == 60
        assert len({frozenset(rows.items()) for rows in calls[::2]}) == sequences


def test_check_wreath_routes_report_shape():
    rep = check_wreath_routes(PermGroup.symmetric(2), MatrixGroup.trivial(1, 1), 2, "invariant", 4)
    assert rep == {
        "theorem": "1.1",
        "flavor": "invariant",
        "match": True,
        "caps": {"t": 0, "q": 4, "u": 2},
    }


def test_plethysm_route_frozen_value():
    # S_2 wreath of one even and one odd variable: (1+u)(1+qu)/((1-q)(1-q^2))
    caps = Caps(0, 6, 2)
    one = TrigradedSeries.one(caps)
    u = TrigradedSeries.monomial(caps, (0, 0, 1))
    q = TrigradedSeries.monomial(caps, (0, 1, 0))
    qu = TrigradedSeries.monomial(caps, (0, 1, 1))
    q2 = TrigradedSeries.monomial(caps, (0, 2, 0))
    expected = series_mul(
        series_mul(series_add(one, u), series_add(one, qu)),
        series_inv(series_mul(series_sub(one, q), series_sub(one, q2))),
    )
    got = wreath_hilbert_plethysm(PermGroup.symmetric(2), MatrixGroup.trivial(1, 1), 2, "invariant", 6)
    assert got == expected


def test_plethysm_route_antiinvariant_frozen_value():
    # same setup, sign weights: (1+u)(q+u)/((1-q)(1-q^2))
    caps = Caps(0, 6, 2)
    one = TrigradedSeries.one(caps)
    u = TrigradedSeries.monomial(caps, (0, 0, 1))
    q = TrigradedSeries.monomial(caps, (0, 1, 0))
    q2 = TrigradedSeries.monomial(caps, (0, 2, 0))
    expected = series_mul(
        series_mul(series_add(one, u), series_add(q, u)),
        series_inv(series_mul(series_sub(one, q), series_sub(one, q2))),
    )
    got = wreath_hilbert_plethysm(
        PermGroup.symmetric(2), MatrixGroup.trivial(1, 1), 2, "antiinvariant", 6
    )
    assert got == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wreath_matches_diagonal_matrix_embedding(n):
    # the same group realized two ways: wreath labels vs permutation matrices
    G = matrix_group_fixture(f"s{n}-diag")
    wreath = wreath_hilbert_direct(PermGroup.symmetric(n), MatrixGroup.trivial(1, 1), n, "invariant", 5)
    flat = super_molien(GroupAction.from_matrix_group(G), 5)
    assert wreath == flat


@pytest.mark.parametrize("gname", ["trivial-1-0", "trivial-0-1"])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_collation_sum_equals_product(gname, flavor):
    # the groups on even-only and odd-only variables, which the `collate-*`
    # checks of the shared report (COLLATE_GROUPS) leave out
    G = matrix_group_fixture(gname)
    spec = CollationSpec(group=G, n_max=3, dq=4, du=4, flavor=flavor)
    assert collated_sum_series(spec) == collated_product_series(spec)


def test_check_collation_report_shape():
    spec = CollationSpec(group=MatrixGroup.trivial(1, 0), n_max=2, dq=3, du=0)
    rep = check_collation(spec)
    assert rep == {
        "theorem": "1.2",
        "flavor": "invariant",
        "match": True,
        "caps": {"t": 2, "q": 3, "u": 0},
    }


def _young_21_expected(n_max, du):
    # (1 + t u)^2 / ((1 - t)(1 - t u^2))
    caps = Caps(n_max, 0, du)
    one = TrigradedSeries.one(caps)
    tu = TrigradedSeries.monomial(caps, (1, 0, 1))
    t = TrigradedSeries.monomial(caps, (1, 0, 0))
    tu2 = TrigradedSeries.monomial(caps, (1, 0, 2))
    one_tu = series_add(one, tu)
    return series_mul(
        series_mul(one_tu, one_tu),
        series_inv(series_mul(series_sub(one, t), series_sub(one, tu2))),
    )


def test_young_collation_two_blocks_frozen():
    spec = CollationSpec(matrix_group_fixture("young-2-1-theta"), 3, 0, 9)
    got = collated_product_series(spec)
    assert got == _young_21_expected(3, 9)
    assert got == young_exterior_product(2, 3, 9)


def test_young_collation_depends_only_on_block_count():
    a = collated_product_series(CollationSpec(matrix_group_fixture("young-2-1-theta"), 3, 0, 9))
    b = collated_product_series(CollationSpec(matrix_group_fixture("young-1-2-theta"), 3, 0, 9))
    assert a == b


def test_young_collation_single_block():
    # one block: (1 + t u)/(1 - t)
    spec = CollationSpec(matrix_group_fixture("young-3-theta"), 3, 0, 9)
    caps = Caps(3, 0, 9)
    one = TrigradedSeries.one(caps)
    tu = TrigradedSeries.monomial(caps, (1, 0, 1))
    t = TrigradedSeries.monomial(caps, (1, 0, 0))
    expected = series_mul(series_add(one, tu), series_inv(series_sub(one, t)))
    assert collated_product_series(spec) == expected
    assert collated_product_series(spec) == young_exterior_product(1, 3, 9)


def test_young_collation_three_blocks_closed_form():
    spec = CollationSpec(matrix_group_fixture("young-1-1-1-theta"), 3, 0, 9)
    assert collated_product_series(spec) == young_exterior_product(3, 3, 9)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_product_forms_with_no_rows(flavor):
    # at t-cap 0 every factor (1 +- t q^i u^j)^a is 1
    for ell in range(4):
        assert young_exterior_product(ell, 0, 3).items() == [((0, 0, 0), 1)]
    spec = CollationSpec(matrix_group_fixture("sign-scalar"), 0, 4, 1, flavor)
    assert collated_product_series(spec).items() == [((0, 0, 0), 1)]
    assert check_superspace(0, 4, flavor)["match"]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_both_routes_on_s0_with_no_rows_give_one(flavor):
    # S_0 acts on no rows, so P[G] has one label and the series is 1
    P, G = PermGroup.symmetric(0), sign_scalar_group()
    for route in (wreath_hilbert_direct, wreath_hilbert_plethysm):
        assert route(P, G, 0, flavor, 6).items() == [((0, 0, 0), 1)]


def reference_product_form(caps, multiplicities, signed):
    """The product form as it was built before the binomial factors: each
    dense (1 +- t q^i u^j), or the series_inv of one for a negative power,
    multiplied in a times by series_mul."""
    numerator_parity = 0 if signed else 1
    one = TrigradedSeries.one(caps)
    result = one
    for (i, j), a in multiplicities.items():
        if not caps.contains((1, i, j)):
            continue
        mono = TrigradedSeries.monomial(caps, (1, i, j))
        if j % 2 == numerator_parity:
            factor = series_add(one, mono)
        else:
            factor = series_inv(series_sub(one, mono))
        for _ in range(a):
            result = series_mul(result, factor)
    return result


def _cutting_caps(i, j, terms):
    """Caps that keep exactly the first `terms` powers of m = t q^i u^j,
    cut in turn by the t cap, the q cap (i > 0) and the u cap (j > 0)."""
    big = 9
    out = [Caps(terms - 1, big, big)]
    if i:
        out.append(Caps(big, i * terms - 1, big))
    if j:
        out.append(Caps(big, big, j * terms - 1))
    return out


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize("i,j", [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (1, 1), (2, 3)])
def test_binomial_factors_equal_the_power_and_inverse_reference(signed, i, j):
    # one factor at a time, a = 0..4, with caps that cut the factor after
    # 1, 2 or 3 terms, and at caps that keep more terms than a (numerator
    # factors stop at k = a); every coefficient is an exact int
    for a in range(5):
        for terms in (1, 2, 3):
            for caps in _cutting_caps(i, j, terms) + [Caps(6, 6, 6)]:
                got = wreath_series._product_form(caps, {(i, j): a}, signed)
                assert got == reference_product_form(caps, {(i, j): a}, signed)
                assert got.caps == caps
                assert all(type(c) is int for _, c in got.items())


@pytest.mark.parametrize("signed", [False, True])
def test_binomial_product_of_many_factors_equals_the_reference(signed):
    # seeded multiplicity tables on the full bidegree grid, zeros included
    rng = random.Random(25)
    for caps in (Caps(3, 4, 3), Caps(4, 2, 5), Caps(2, 0, 4), Caps(0, 3, 3)):
        for _ in range(4):
            table = {(i, j): rng.randint(0, 4) for i in range(caps.q + 2) for j in range(caps.u + 2)}
            got = wreath_series._product_form(caps, table, signed)
            assert got == reference_product_form(caps, table, signed)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_closed_product_forms_are_unchanged(flavor):
    # the two closed forms built on _product_form equal their reference
    signed = flavor == "antiinvariant"
    for ell in range(4):
        for n_max, du in ((3, 9), (4, 5), (2, 1)):
            table = {(0, j): math.comb(ell, j) for j in range(ell + 1)}
            expected = reference_product_form(Caps(n_max, 0, du), table, False)
            assert young_exterior_product(ell, n_max, du) == expected
    for n_max, dq in ((3, 4), (4, 5), (1, 0)):
        table = {(i, j): 1 for i in range(dq + 1) for j in (0, 1)}
        expected = reference_product_form(Caps(n_max, dq, n_max), table, signed)
        assert superspace_product_series(n_max, dq, flavor) == expected


def _count_calls(monkeypatch, names):
    """Count the calls of the named series functions, through every
    supermolien module namespace that binds them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(series_module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("supermolien") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("gname", COLLATE_GROUPS)
@pytest.mark.parametrize("flavor", FLAVORS)
def test_collated_product_inverts_and_powers_nothing(monkeypatch, gname, flavor):
    spec = CollationSpec(matrix_group_fixture(gname), 3, 4, 4, flavor)
    expected = collated_product_series(spec)
    counts = _count_calls(monkeypatch, ("series_inv",))
    assert collated_product_series(spec) == expected
    assert counts == {"series_inv": 0}
    # the counter sees calls made through the package
    series_module.series_inv(TrigradedSeries.one(Caps(1, 1, 1)))
    assert counts == {"series_inv": 1}


def test_young_collation_sum_route_agrees():
    # the sum route goes through actual wreath enumerations; t-degree 2 keeps it quick
    spec = CollationSpec(matrix_group_fixture("young-2-1-theta"), 2, 0, 6)
    assert collated_sum_series(spec) == _young_21_expected(2, 6)


def test_collation_spec_validation():
    with pytest.raises(ValueError):
        CollationSpec(MatrixGroup.trivial(1, 0), 2, 2, 2, flavor="bogus")
    with pytest.raises(ValueError):
        CollationSpec(MatrixGroup.trivial(1, 0), -1, 2, 2)


@pytest.mark.parametrize("field", ["n_max", "dq", "du"])
def test_collation_spec_reads_each_cap_as_an_int(field):
    # an integral float is read as its int when the spec is made, and a
    # non-integral float or a bool is refused there, naming the cap
    caps = {"n_max": 2, "dq": 4, "du": 1}
    G = matrix_group_fixture("sign-scalar")
    spec = CollationSpec(G, **{**caps, field: float(caps[field])})
    assert type(getattr(spec, field)) is int and spec == CollationSpec(G, **caps)
    assert check_collation(spec) == check_collation(CollationSpec(G, **caps))
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=rf"^collation {field} must be an integer, got {bad!r}$"):
            CollationSpec(G, **{**caps, field: bad})


def _random_block(rng, r):
    return QMatrix.from_rows(
        [[Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(r)] for _ in range(r)]
    )


def test_block_determinant_lemma_seeded():
    rng = random.Random(42)
    for _ in range(25):
        r = rng.randint(1, 3)
        m = rng.randint(1, 4)
        blocks = [_random_block(rng, r) for _ in range(m)]
        assert verify_block_determinant_lemma(blocks)


def test_block_determinant_lemma_hand_case():
    # m = 2, r = 1: both sides are 1 - ab
    a = QMatrix.from_rows([[Fraction(2)]])
    b = QMatrix.from_rows([[Fraction(3)]])
    assert verify_block_determinant_lemma([a, b])
    big = QMatrix.from_rows(
        [[Fraction(1), Fraction(-2)], [Fraction(-3), Fraction(1)]]
    )
    # det of the 2 x 2 is coefficient 2 of det(I - z*big)
    assert charpoly_det(big)[2] == Fraction(-5)


def test_block_determinant_lemma_validation():
    with pytest.raises(ValueError):
        verify_block_determinant_lemma([])
    with pytest.raises(ValueError):
        verify_block_determinant_lemma(
            [QMatrix.identity(2), QMatrix.identity(3)]
        )


@pytest.mark.parametrize(
    "gname,m",
    [("sign-scalar", 2), ("sign-scalar", 3), ("s2-theta", 2), ("trivial-1-1", 4)],
)
def test_m_cycle_identity(gname, m):
    assert verify_m_cycle_identity(matrix_group_fixture(gname), m, 5)


def test_m_cycle_labels_are_capped_before_any_is_built(monkeypatch):
    # the 2^18 g-sequences of one 18-cycle over the sign group exceed
    # WREATH_CAP; the direct sum refuses them at the call, before any block
    # is evaluated
    def no_block(*args):
        raise AssertionError("a block was evaluated")

    monkeypatch.setattr(molien, "_block_pair", no_block)
    message = r"^direct route needs up to 262144 g-sequences, cap is 200000 \(\|G\| = 2, n = 18\)$"
    with pytest.raises(CapExceeded, match=message):
        verify_m_cycle_identity(sign_scalar_group(), 18, 2)


def test_m_cycle_sum_frozen_value():
    # S_2 on two anticommuting variables, m = 2: the averaged sum is 1 - u^2,
    # the u -> -u flip of the squared-exponent one-row series 1 + u.
    G = matrix_group_fixture("s2-theta")
    caps = Caps(0, 4, 2)
    cyc = Permutation.from_cycles(2, [(1, 2)])
    fixed_cycle = GroupAction(AlgebraSignature(G.r0, G.r1, 2), ((1, cyc),), tuple((1, g) for g in G.elements))
    lhs = super_molien(fixed_cycle, caps.q, caps.u)
    one = TrigradedSeries.one(caps)
    u2 = TrigradedSeries.monomial(caps, (0, 0, 2))
    assert lhs == series_sub(one, u2)
    # the same average over the four labels (cyc, (g1, g2)), each built
    pairs = tuple((1, WreathElement(cyc, (g1, g2))) for g1 in G.elements for g2 in G.elements)
    assert lhs == reference_super_molien(FlatLabels(fixed_cycle.signature, pairs), caps.q, caps.u)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_superspace_single_n_closed_form(n, flavor):
    direct = wreath_hilbert_direct(
        PermGroup.symmetric(n), MatrixGroup.trivial(1, 1), n, flavor, 6
    )
    assert direct == superspace_single_n_product(n, 6, flavor)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_superspace_three_routes(flavor):
    rep = check_superspace(3, 6, flavor)
    assert rep["match"]


def test_superspace_product_equals_qbinomial():
    assert superspace_product_series(4, 5) == superspace_qbinomial_series(4, 5)
    assert superspace_product_series(4, 5, "antiinvariant") == superspace_qbinomial_series(
        4, 5, "antiinvariant"
    )


@pytest.mark.parametrize("n", [0, 3])
def test_both_routes_share_the_degree_check(n):
    G = matrix_group_fixture("sign-scalar")
    for route in (wreath_hilbert_direct, wreath_hilbert_plethysm):
        with pytest.raises(DimensionMismatch, match=f"^P acts on 2 rows, expected {n}$"):
            route(PermGroup.symmetric(2), G, n, "invariant", 4)


def test_degree_checks_raise_degree_mismatch():
    # a permutation degree that differs from the row count is the documented
    # DegreeMismatch, on both routes and in a label itself
    G = matrix_group_fixture("sign-scalar")
    for route in (wreath_hilbert_direct, wreath_hilbert_plethysm):
        with pytest.raises(DegreeMismatch, match=r"^P acts on 2 rows, expected 3$"):
            route(PermGroup.symmetric(2), G, 3, "invariant", 4)
    blocks = (GradedGroupElement.identity(1, 0),) * 3
    with pytest.raises(DegreeMismatch, match=r"^permutation degree 2 != 3 row factors$"):
        WreathElement(Permutation.identity(2), blocks)


def test_flavor_validation():
    with pytest.raises(ValueError):
        wreath_hilbert_direct(PermGroup.symmetric(2), MatrixGroup.trivial(1, 0), 2, "nope", 3)
    with pytest.raises(ValueError):
        superspace_product_series(2, 2, "nope")

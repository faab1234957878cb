"""Molien averages against hand-computed series and the Reynolds-rank oracle."""

import random
from fractions import Fraction

import pytest

from supermolien import groups, linalg, molien, shuffle, superalgebra, verify, wreath_series
from supermolien.errors import BasisTooLarge, CapExceeded, DegreeMismatch, DimensionMismatch, NotAPermutationGroup
from supermolien.fixtures import (
    diagonal_perm_group,
    matrix_group_fixture,
    perm_group_fixture,
    perm_matrix_group,
    sign_scalar_group,
    trivial_group,
    young_theta_group,
)
from supermolien.groups import (
    GradedGroupElement,
    MatrixGroup,
    PermGroup,
    Permutation,
    WreathElement,
    sign_character,
)
from supermolien.verify import MOLIEN_FIXTURES, WREATH_ROUTE_CASES
from supermolien.linalg import QMatrix, _berkowitz, _charpoly_rows, _nonzeros, _poly_mul, _rank_rows, charpoly_det
from supermolien.molien import (
    FLAVORS,
    GroupAction,
    invariant_dimension_bruteforce,
    molien_vs_oracle,
    require_flavor,
    reynolds_project,
    super_molien,
)
from supermolien.series import Caps, TrigradedSeries, series_add, series_inv, series_mul, series_scale
from supermolien.superalgebra import (
    AlgebraSignature,
    SuperPolynomial,
    bidegree_basis,
    super_mul,
)

from dense_reference import dense_columns, dense_label_matrices
from molien_reference import (
    FlatLabels,
    apply_wreath,
    assert_same_series,
    build_wreath,
    flat_action,
    flat_labels,
    flat_orbit_sums,
    flat_project,
    reference_super_molien,
    wreath_mul,
)
from rational_groups import KERNEL_GROUPS, conjugated_s3, named_group


def q_series(caps, coeff_fn):
    return TrigradedSeries(caps, {(0, i, 0): coeff_fn(i) for i in range(caps[1] + 1)})


def one_minus(caps, key):
    return TrigradedSeries(caps, {(0, 0, 0): 1, key: -1})


def one_plus(caps, key):
    return TrigradedSeries(caps, {(0, 0, 0): 1, key: 1})


def test_trivial_group_full_algebra_series():
    act = GroupAction.from_matrix_group(trivial_group(1, 1))
    H = super_molien(act, 6)
    caps = Caps(0, 6, 1)
    expected = series_mul(series_inv(one_minus(caps, (0, 1, 0))), one_plus(caps, (0, 0, 1)))
    assert H == expected


def test_sign_group_counts_even_degrees():
    act = GroupAction.from_matrix_group(sign_scalar_group())
    H = super_molien(act, 8)
    for i in range(9):
        assert H.coefficient((0, i, 0)) == (1 if i % 2 == 0 else 0)


def test_s2_on_x_matches_partition_count():
    act = GroupAction.from_matrix_group(perm_matrix_group(2, "even"))
    H = super_molien(act, 8)
    for k in range(9):
        expected = sum(1 for b in range(k // 2 + 1) if k - 2 * b >= 0)
        assert H.coefficient((0, k, 0)) == expected


def test_s3_on_x_matches_partition_count():
    act = GroupAction.from_matrix_group(perm_matrix_group(3, "even"))
    H = super_molien(act, 8)
    for k in range(9):
        count = sum(
            1
            for c in range(k // 3 + 1)
            for b in range((k - 3 * c) // 2 + 1)
        )
        assert H.coefficient((0, k, 0)) == count


def test_s2_on_theta_is_one_plus_u():
    # the top wedge is antiinvariant, so the u^2 coefficient vanishes
    act = GroupAction.from_matrix_group(perm_matrix_group(2, "odd"))
    H = super_molien(act, 2)
    assert H == TrigradedSeries(Caps(0, 2, 2), {(0, 0, 0): 1, (0, 0, 1): 1})


def test_young_2_1_on_theta_is_one_plus_u_squared():
    act = GroupAction.from_matrix_group(young_theta_group((2, 1)))
    H = super_molien(act, 0)
    assert H == TrigradedSeries(
        Caps(0, 0, 3), {(0, 0, 0): 1, (0, 0, 1): 2, (0, 0, 2): 1}
    )


def test_s2_diagonal_sgn_series():
    # antiinvariants of superspace at n = 2: (u + 1)(u + q) / ((1-q)(1-q^2))
    G = diagonal_perm_group(2)
    act = GroupAction.from_matrix_group(G, sign_character(G))
    H = super_molien(act, 6)
    caps = Caps(0, 6, 2)
    num = series_mul(
        TrigradedSeries(caps, {(0, 0, 1): 1, (0, 0, 0): 1}),
        TrigradedSeries(caps, {(0, 0, 1): 1, (0, 1, 0): 1}),
    )
    den = series_mul(one_minus(caps, (0, 1, 0)), one_minus(caps, (0, 2, 0)))
    assert H == series_mul(num, series_inv(den))


def test_wreath_action_superspace_n2():
    # S_2 wreath trivial on (1,1): (1+u)(1+qu) / ((1-q)(1-q^2))
    act = GroupAction.from_wreath(PermGroup.symmetric(2), trivial_group(1, 1), 2)
    H = super_molien(act, 6)
    caps = Caps(0, 6, 2)
    num = series_mul(one_plus(caps, (0, 0, 1)), one_plus(caps, (0, 1, 1)))
    den = series_mul(one_minus(caps, (0, 1, 0)), one_minus(caps, (0, 2, 0)))
    assert H == series_mul(num, series_inv(den))


def test_bruteforce_dimensions_by_hand():
    act = GroupAction.from_matrix_group(perm_matrix_group(2, "odd"))
    assert invariant_dimension_bruteforce(act, 0, 0) == 1
    assert invariant_dimension_bruteforce(act, 0, 1) == 1  # theta1 + theta2
    assert invariant_dimension_bruteforce(act, 0, 2) == 0  # top wedge flips sign
    act_x = GroupAction.from_matrix_group(perm_matrix_group(2, "even"))
    assert invariant_dimension_bruteforce(act_x, 3, 0) == 2  # p3, p1 p2 span


def test_bruteforce_respects_basis_limit(monkeypatch):
    act = GroupAction.from_matrix_group(trivial_group(3, 0))
    monkeypatch.setattr(molien, "DEFAULT_BASIS_LIMIT", 5)
    with pytest.raises(BasisTooLarge, match=r"^bidegree \(6, 0\) basis on 1 row of \(3, 0\) has 28 monomials, limit 5$"):
        invariant_dimension_bruteforce(act, 6, 0)


def test_oversized_basis_is_refused_before_it_is_built(monkeypatch):
    # (5, 0) on 30 even variables has 278,256 monomials; none is enumerated
    def never(*args):
        raise AssertionError("bidegree_basis called for an oversized bidegree")

    monkeypatch.setattr(molien, "bidegree_basis", never)
    act = GroupAction.from_matrix_group(trivial_group(30, 0))
    for i, size in ((5, 278256), (8, 38608020)):
        message = rf"^bidegree \({i}, 0\) basis on 1 row of \(30, 0\) has {size} monomials, limit {molien.DEFAULT_BASIS_LIMIT}$"
        with pytest.raises(BasisTooLarge, match=message):
            invariant_dimension_bruteforce(act, i, 0)


def test_each_cell_counts_its_basis_once(monkeypatch):
    # the refusal counts the basis; building it counts nothing again
    counted = []
    size = superalgebra.bidegree_basis_size

    def counting(sig, i, j):
        counted.append((i, j))
        return size(sig, i, j)

    for module in (molien, superalgebra):
        monkeypatch.setattr(module, "bidegree_basis_size", counting)
    act = GroupAction.from_matrix_group(perm_matrix_group(2, "odd"))
    cells = [(i, j) for i in range(3) for j in range(3)]
    for i, j in cells:
        invariant_dimension_bruteforce(act, i, j)
    assert counted == cells


def test_reynolds_is_idempotent_and_invariant():
    act = GroupAction.from_matrix_group(perm_matrix_group(2, "odd"))
    sig = act.signature
    for mono in bidegree_basis(sig, 0, 1) + bidegree_basis(sig, 0, 2):
        f = SuperPolynomial.monomial(sig, mono)
        proj = reynolds_project(act, f)
        assert reynolds_project(act, proj) == proj
        for _, w in flat_labels(act).pairs:
            assert apply_wreath(w, proj) == proj


def test_reynolds_sgn_projects_to_antiinvariants():
    G = diagonal_perm_group(2)
    act = GroupAction.from_matrix_group(G, sign_character(G))
    sig = act.signature
    f = SuperPolynomial.x_var(sig, 1, 1)
    proj = reynolds_project(act, f)
    # x1 projects to (x1 - x2)/2, which each swap negates
    for chi, w in flat_labels(act).pairs:
        assert apply_wreath(w, proj) == proj.scale(chi)


ORBIT_SHARING_CASES = verify.MOLIEN_FIXTURES + (
    "s3-x-sgn",
    "s3[sign-scalar]-invariant",
    "s3[sign-scalar]-antiinvariant",
    "c3[trivial-1-1]",
    "s2[s2-theta]",
    "s2[rational-s3]",
    "s2[scaled-swap]",
)


def orbit_sharing_action(name):
    """(action, x-degree cap) of an orbit-sharing case: a one-row fixture
    action, S_3 on x with sgn, a wreath product of a signed permutation
    group, or S_2[H] with H the scaled swap or the non-monomial conjugate of
    S_3 on x (tests/rational_groups.py)."""
    mg, pg = matrix_group_fixture, perm_group_fixture
    if name in verify.MOLIEN_FIXTURES:
        return GroupAction.from_matrix_group(mg(name)), 4
    if name == "s3-x-sgn":
        G = mg("s3-x")
        return GroupAction.from_matrix_group(G, sign_character(G)), 4
    if name.startswith("s3[sign-scalar]-"):
        return GroupAction.from_wreath(pg("s3"), mg("sign-scalar"), 3, name.split("-", 2)[2]), 4
    if name == "c3[trivial-1-1]":
        return GroupAction.from_wreath(pg("c3"), mg("trivial-1-1"), 3), 3
    if name == "s2[s2-theta]":
        return GroupAction.from_wreath(pg("s2"), mg("s2-theta"), 2), 3
    return GroupAction.from_wreath(pg("s2"), named_group(name[3:-1]), 2), 2


def is_multiple(p, acc):
    """True iff the polynomial p is a scalar multiple (0 included) of the
    term map acc."""
    if p.is_zero():
        return True
    k, c = next(iter(p.terms.items()))
    return k in acc and SuperPolynomial(p.sig, acc).scale(Fraction(c) / acc[k]) == p


@pytest.mark.parametrize("name", ORBIT_SHARING_CASES)
def test_reynolds_images_equal_per_monomial_projections(name):
    # the orbit sums, one label loop per orbit, are |W| times the
    # projections of their first monomials, in basis order, and span every
    # monomial's projection, on every bidegree within the caps and with the
    # basis in either order
    action, dq = orbit_sharing_action(name)
    sig = action.signature
    for i in range(dq + 1):
        for j in range(sig.num_odd + 1):
            basis = bidegree_basis(sig, i, j)
            images = {m: reynolds_project(action, SuperPolynomial.monomial(sig, m)) for m in basis}
            for order in (basis, basis[::-1]):
                sums = molien._orbit_sums(action, order)
                firsts = [order.index(m) for m, _ in sums]
                assert firsts == sorted(set(firsts)) and (not order or firsts[0] == 0)
                for m, acc in sums:
                    assert SuperPolynomial(sig, acc) == images[m].scale(action.order)
                for m in order:
                    assert any(is_multiple(images[m], acc) for _, acc in sums)


def test_reynolds_images_project_once_per_orbit(monkeypatch):
    # S_3[+-1] on 3 rows at (4, 0): the row stage maps each distinct row
    # content once through G's 2 labels, and the P stage maps each orbit's
    # product once through P's 6 labels, and a dead orbit's one monomial
    # once more to mark its orbit: far fewer applications than one per
    # label of P[G] and monomial
    action = GroupAction.from_wreath(PermGroup.symmetric(3), sign_scalar_group(), 3)
    sig = action.signature
    basis = bidegree_basis(sig, 4, 0)
    applied = {"rows": 0, "top": 0}

    def counted(pairs, *args):
        applied["rows" if pairs is action._row_labels else "top"] += len(pairs)
        return label_sum(pairs, *args)

    label_sum = molien._label_sum
    monkeypatch.setattr(molien, "_label_sum", counted)
    sums = molien._orbit_sums(action, basis)
    contents = {(r, e) for (xpart, _), _ in sums for r, _, e in xpart}
    dead = [m for m, acc in sums if not acc]
    assert applied == {"rows": 2 * len(contents), "top": 6 * (len(sums) + len(dead))}
    assert 0 < len(dead) and applied["rows"] + applied["top"] < action.order * len(sums) < action.order * len(basis)
    monkeypatch.undo()
    for m, acc in sums:
        assert SuperPolynomial(sig, acc) == reynolds_project(action, SuperPolynomial.monomial(sig, m)).scale(
            action.order
        )


def test_bruteforce_rank_takes_one_row_per_orbit(monkeypatch):
    # S_3[+-1] on 3 rows at (4, 0): the rank kernel gets one row per orbit
    # sum, fewer rows than basis monomials, with int entries
    action = GroupAction.from_wreath(PermGroup.symmetric(3), sign_scalar_group(), 3)
    basis = bidegree_basis(action.signature, 4, 0)
    seen = []

    def recorded_rank(rows):
        seen.append(rows)
        return rank_rows(rows)

    rank_rows = molien._rank_rows
    monkeypatch.setattr(molien, "_rank_rows", recorded_rank)
    dim = invariant_dimension_bruteforce(action, 4, 0)
    (rows,) = seen
    assert len(rows) == len(molien._orbit_sums(action, basis)) < len(basis)
    assert all(type(c) is int for row in rows for c in row.values())
    monkeypatch.undo()
    assert dim == super_molien(action, 4).coefficient((0, 4, 0))


FACTORED_CASES = tuple((pname, gname, n, 3) for pname, gname, n in WREATH_ROUTE_CASES) + (
    ("s2", "rational-s3", 2, 3),
    ("s3", "rational-s3", 3, 1),
    ("s2", "scaled-swap", 2, 3),
)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("pname, gname, n, dq", FACTORED_CASES)
def test_factored_sums_equal_the_flat_label_loop(pname, gname, n, dq, flavor):
    # the wreath action's factored sum against the loop over every built
    # label: the same first monomials in the same order, rows equal in
    # value and coefficient type, and equal Reynolds projections
    P, G = perm_group_fixture(pname), named_group(gname)
    action = GroupAction.from_wreath(P, G, n, flavor)
    flat = flat_action(P, G, n, flavor)
    sig = action.signature
    for i in range(dq + 1):
        for j in range(sig.num_odd + 1):
            basis = bidegree_basis(sig, i, j)
            got, expected = molien._orbit_sums(action, basis), flat_orbit_sums(flat, basis)
            assert [m for m, _ in got] == [m for m, _ in expected]
            for (_, acc), (_, ref) in zip(got, expected):
                assert acc == ref and {m: type(c) for m, c in acc.items()} == {m: type(c) for m, c in ref.items()}
            if basis:
                f = SuperPolynomial(sig, {basis[0]: 3, basis[-1]: Fraction(-1, 2)})
                assert reynolds_project(action, f) == flat_project(flat, f)


def test_wreath_action_has_no_label_list():
    # from_wreath keeps P's row permutations, weighted by the flavor, and
    # G's elements, weighted 1, and no list of P[G]'s labels
    P, G = PermGroup.symmetric(3), sign_scalar_group()
    for flavor in FLAVORS:
        action = GroupAction.from_wreath(P, G, 3, flavor)
        assert not hasattr(action, "pairs")
        assert (len(action.top), len(action.rows), action.order) == (6, 2, 48)
        assert action.rows == tuple((1, g) for g in G.elements)
        flat = flat_action(P, G, 3, flavor)
        assert set(action.top) == {(chi, w.sigma) for chi, w in flat.pairs}


def counted_labels(monkeypatch):
    """Every label made from here on, by the validating constructor or the
    trusted one, in a list."""
    built = []
    post_init, trusted = WreathElement.__post_init__, WreathElement._of

    def counted_init(self):
        built.append(self)
        post_init(self)

    def counted_of(sigma, gs):
        built.append(sigma)
        return trusted(sigma, gs)

    monkeypatch.setattr(WreathElement, "__post_init__", counted_init)
    monkeypatch.setattr(WreathElement, "_of", staticmethod(counted_of))
    return built


def test_invariant_basis_on_s6_builds_at_most_p_plus_g_labels(monkeypatch):
    # S_6[+-1]: from_wreath and an invariant basis build 720 + 2 labels, not
    # 46,080
    built = counted_labels(monkeypatch)
    action = GroupAction.from_wreath(PermGroup.symmetric(6), sign_scalar_group(), 6)
    basis = shuffle.invariant_basis(action, 4, 0)
    assert len(built) <= 720 + 2
    assert basis.dimension == super_molien(action, 4).coefficient((0, 4, 0))


def test_wreath_action_prints_and_compares_without_labels(monkeypatch):
    # S_6[+-1]: a build makes no label, P's 720 and G's 2 being made on the
    # Reynolds route's first use; repr, == against a second build, and hash
    # read the factors and make none of P[G]'s 46,080
    built = counted_labels(monkeypatch)
    P, G = PermGroup.symmetric(6), sign_scalar_group()
    action = GroupAction.from_wreath(P, G, 6)
    assert built == []
    again, signed = GroupAction.from_wreath(P, G, 6), GroupAction.from_wreath(P, G, 6, "antiinvariant")
    built.clear()
    text = repr(action)
    assert action == again and hash(action) == hash(again) and action != signed
    assert built == []
    assert text.startswith("GroupAction(signature=") and len(text) < 10**6


@pytest.mark.parametrize("flavor", FLAVORS)
def test_s6_sign_scalar_ranks_equal_the_direct_route(flavor):
    # S_6[+-1], 46,080 labels, at (i, 0) for i <= 6: one Reynolds rank per
    # cell, through the factored sum, against the direct route
    P, G = PermGroup.symmetric(6), sign_scalar_group()
    action = GroupAction.from_wreath(P, G, 6, flavor)
    direct = wreath_series.wreath_hilbert_direct(P, G, 6, flavor, 6, 0)
    assert [invariant_dimension_bruteforce(action, i, 0) for i in range(7)] == [
        direct.coefficient((0, i, 0)) for i in range(7)
    ]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_s3_over_rational_s3_molien_equals_oracle(flavor):
    # a non-monomial G on three rows: 1,296 labels, none of them built
    action = GroupAction.from_wreath(PermGroup.symmetric(3), named_group("rational-s3"), 3, flavor)
    report = molien_vs_oracle(action, 3)
    assert report["mismatches"] == [] and report["agreements"] == 4 * (action.signature.num_odd + 1)


def test_s7_sign_scalar_reynolds_is_refused_before_any_label(monkeypatch):
    # S_7[+-1] has 645,120 labels: its action is made, and the Reynolds
    # route refuses it with the cap's message before it makes a label
    def refuse(*args):
        raise AssertionError("a label was made")

    monkeypatch.setattr(WreathElement, "__post_init__", refuse)
    monkeypatch.setattr(WreathElement, "_of", staticmethod(refuse))
    P = PermGroup.symmetric(7)
    message = r"^wreath product has 645120 elements, cap is 200000 \(\|P\| = 5040, \|G\| = 2, n = 7\)$"
    for flavor in FLAVORS:
        action = GroupAction.from_wreath(P, sign_scalar_group(), 7, flavor)
        with pytest.raises(CapExceeded, match=message):
            invariant_dimension_bruteforce(action, 2, 0)
        with pytest.raises(CapExceeded, match=message):
            reynolds_project(action, SuperPolynomial.one(action.signature))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_s7_sign_scalar_molien_equals_direct_and_plethysm(flavor):
    # the Molien route of the S_7[+-1] action checks its 2^7 g-sequences,
    # not its 645,120 labels, against WREATH_CAP, as the direct route does
    P, G = PermGroup.symmetric(7), sign_scalar_group()
    series = super_molien(GroupAction.from_wreath(P, G, 7, flavor), 8)
    assert series == wreath_series.wreath_hilbert_direct(P, G, 7, flavor, 8)
    assert series == wreath_series.wreath_hilbert_plethysm(P, G, 7, flavor, 8)


@pytest.mark.parametrize("gname", KERNEL_GROUPS)
def test_orbit_row_rank_equals_per_monomial_rank(gname):
    # the rank over one row per orbit equals the rank over one projection
    # per monomial, the projector's full matrix, for both flavors on one
    # and two rows
    G = named_group(gname)
    for n, dq in ((1, 3), (2, 2)):
        for flavor in FLAVORS:
            action = GroupAction.from_wreath(PermGroup.symmetric(n), G, n, flavor)
            sig = action.signature
            for i in range(dq + 1):
                for j in range(sig.num_odd + 1):
                    basis = bidegree_basis(sig, i, j)
                    index = {m: k for k, m in enumerate(basis)}
                    dense = [[0] * len(basis) for _ in basis]
                    for row, m in zip(dense, basis):
                        for k, c in reynolds_project(action, SuperPolynomial.monomial(sig, m)).terms.items():
                            row[index[k]] = c
                    expected = _rank_rows(_nonzeros(QMatrix.from_rows(dense))) if dense else 0
                    assert invariant_dimension_bruteforce(action, i, j) == expected


def test_molien_vs_oracle_clean_report():
    act = GroupAction.from_matrix_group(perm_matrix_group(2, "odd"))
    report = molien_vs_oracle(act, 3)
    assert report["mismatches"] == []
    assert report["agreements"] == 4 * 3  # i in 0..3, j in 0..2


def test_molien_vs_oracle_flags_a_wrong_character():
    # a valid character that is not the trivial one changes the counts, so
    # comparing its Molien series against the trivial-flavor oracle disagrees
    act_sgn = GroupAction.from_matrix_group(perm_matrix_group(2, "odd"), character=[1, -1])
    series_sgn = super_molien(act_sgn, 2)
    act_triv = GroupAction.from_matrix_group(perm_matrix_group(2, "odd"))
    assert series_sgn != super_molien(act_triv, 2)


def test_corrupted_character_rejected():
    G = perm_matrix_group(3, "even")
    values = [1] * G.order
    values[3] = -1
    with pytest.raises(ValueError):
        GroupAction.from_matrix_group(G, character=values)


def test_sgn_character_needs_permutation_matrices():
    from supermolien.errors import NotAPermutationGroup

    G = sign_scalar_group()
    with pytest.raises(NotAPermutationGroup):
        GroupAction.from_matrix_group(G, sign_character(G))


def test_sgn_character_read_off_the_odd_part():
    # S_2 swapping two thetas and fixing one x: the even part is not a
    # faithful permutation action, the odd part is
    G = MatrixGroup.from_json_dict(
        {"r0": 1, "r1": 2, "generators": [{"g0": [["1"]], "g1": [["0", "1"], ["1", "0"]]}]}
    )
    assert sign_character(G) == (1, -1)
    report = molien_vs_oracle(GroupAction.from_matrix_group(G, sign_character(G)), 3)
    assert report == {"agreements": 12, "mismatches": []}


@pytest.mark.parametrize("gname", ["sign-scalar", "s2-theta"])
def test_signed_weights_take_one_sign_per_sigma(gname):
    # each sigma of the signed action is weighted by its perm_sign, and by
    # 1 unsigned, in P's element order; listed, every label of P[G] takes
    # its sigma's weight, as the labels built by build_wreath do
    G = matrix_group_fixture(gname)
    P = PermGroup.symmetric(3)
    signed, unsigned = (GroupAction.from_wreath(P, G, 3, flavor) for flavor in ("antiinvariant", "invariant"))
    assert signed.top == tuple((groups.perm_sign(sigma), sigma) for sigma in P.elements)
    assert unsigned.top == tuple((1, sigma) for sigma in P.elements)
    labels = flat_labels(signed)
    assert [chi for chi, _ in labels.pairs] == [groups.perm_sign(w.sigma) for _, w in labels.pairs]
    assert {chi for chi, _ in labels.pairs} == {1, -1}
    assert labels == flat_action(P, G, 3, "antiinvariant")
    assert flat_labels(unsigned) == flat_action(P, G, 3, "invariant")


@pytest.mark.parametrize("gname", ["s2-x", "s3-x"])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_weighted_rows_agree_with_the_oracle_and_the_reference(gname, flavor):
    # S_2[G] with every g weighted by sgn(g): the Molien table sums the
    # psi products, and the Reynolds row stage weights each row image, so
    # both routes count the isotypic component of the character
    # sgn(sigma)^k sgn(g_1) sgn(g_2), and the Molien series equals the
    # label-by-label reference
    G = matrix_group_fixture(gname)
    wreath = GroupAction.from_wreath(PermGroup.symmetric(2), G, 2, flavor)
    action = GroupAction(wreath.signature, wreath.top, GroupAction.from_matrix_group(G, sign_character(G)).rows)
    assert {psi for psi, _ in action.rows} == {1, -1}
    assert molien_vs_oracle(action, 3) == {"agreements": 4 * (action.signature.num_odd + 1), "mismatches": []}
    assert_same_series(super_molien(action, 4), reference_super_molien(action, 4))
    assert super_molien(action, 4) != super_molien(wreath, 4)


def test_zero_row_wreath_has_series_one():
    # P[G] on no rows acts on the scalar algebra: both routes count the
    # constants only
    action = GroupAction.from_wreath(PermGroup.close(0, []), matrix_group_fixture("trivial-1-1"), 0)
    assert super_molien(action, 3) == TrigradedSeries.one(Caps(0, 3, 0))
    assert molien_vs_oracle(action, 3) == {"agreements": 4, "mismatches": []}


def test_block_matrices_layout_for_swap_label():
    act = flat_action(PermGroup.symmetric(2), sign_scalar_group(), 2, "invariant")
    # find the label (swap, (id, -1))
    for _, w in act.pairs:
        if w.sigma == Permutation([2, 1]) and w.gs[0].g0.get(0, 0) == 1 and w.gs[1].g0.get(0, 0) == -1:
            # g_1 = +1 sits at block (sigma^{-1}(1), 1) = (2, 1), g_2 = -1 at (1, 2)
            assert w.substitution.even == {(1, 1): (((2, 1), 1),), (2, 1): (((1, 1), -1),)}
            assert w.substitution.even == dense_columns(dense_label_matrices(w)[0], 1)
            return
    raise AssertionError("label not found")


@pytest.mark.parametrize("gname,n", [("sign-scalar", 3), ("s2-theta", 2)])
def test_label_molien_term_matches_trivariate_inversion(gname, n):
    # One label's Molien term, its block char-polys (label_block_pair)
    # expanded by the Molien sum's _pair_table, against both char-polys of
    # the densely built label matrices read as series and the denominator
    # inverted over the whole (dq+1)(du+1) box, at full and at truncated u
    # caps.
    action = flat_action(PermGroup.symmetric(n), matrix_group_fixture(gname), n, "invariant")
    sig = action.signature
    for caps in (Caps(0, 8, sig.num_odd), Caps(0, 3, 1)):
        for _, w in action.pairs:
            term = TrigradedSeries(caps, molien._pair_table(*label_block_pair(w, caps.q, caps.u), caps.q))
            m0, m1 = dense_label_matrices(w)
            num = TrigradedSeries(
                caps, {(0, 0, j): (-1) ** j * c for j, c in enumerate(charpoly_det(m1)) if j <= caps.u}
            )
            den = TrigradedSeries(caps, {(0, i, 0): c for i, c in enumerate(charpoly_det(m0)) if i <= caps.q})
            assert term == series_mul(num, series_inv(den))


@pytest.mark.parametrize(
    "gname,n",
    [
        ("sign-scalar", 3),
        ("sign-scalar", 4),
        ("s2-theta", 2),
        ("young-2-1-theta", 2),
        ("trivial-2-2", 3),
        ("scaled-swap", 2),
        ("rational-s3", 2),
    ],
)
def test_label_rows_charpoly_matches_dense(gname, n):
    # For every label, the compiled substitution holds the nonzero entries
    # of the densely built matrix column by column, and the char-poly
    # kernel on it equals the Berkowitz recurrence on it and charpoly_det
    # of that matrix, with the same coefficient types as Berkowitz.  The
    # monomial labels take the cycle walk, scaled-swap's with Fraction
    # cycle products (entries 2 and 1/2); the conjugated S_3 gives
    # non-monomial blocks with unlike denominators, which fall through to
    # Berkowitz.
    G = named_group(gname)
    for _, w in flat_action(PermGroup.symmetric(n), G, n, "invariant").pairs:
        sub = w.substitution
        for columns, dense, r in zip((sub.even, sub.odd), dense_label_matrices(w), (G.r0, G.r1)):
            assert columns == dense_columns(dense, r)
            p = _charpoly_rows(columns)
            reference = _berkowitz(columns)
            assert p == reference == charpoly_det(dense)
            assert [type(c) for c in p] == [type(c) for c in reference]


def label_by_label_series(labels, dq, du):
    """(1/|W|) times the sum over the flat labels' pairs of chi(w) times
    the reference series of w alone: the Molien average with no
    grouping."""
    total = TrigradedSeries.zero(Caps(0, dq, du))
    for chi, w in labels.pairs:
        one_label = FlatLabels(labels.signature, ((1, w),))
        total = series_add(total, series_scale(reference_super_molien(one_label, dq, du), chi))
    return series_scale(total, Fraction(1, labels.order))


def label_block_pair(w, dq, du):
    """A label's two char-polys by the Molien sum's kernel: the product
    over sigma's cycles of molien._block_pair of the g-sequence along each
    cycle, cut after z^dq and z^du, trailing zeros stripped."""
    den, num = (1,), (1,)
    for cycle in w.sigma.cycles:
        block_den, block_num = molien._block_pair([w.gs[i - 1] for i in cycle], dq, du)
        den, num = _poly_mul(block_den, den, dq), _poly_mul(block_num, num, du)
    return trimmed(den, dq), trimmed(num, du)


def trimmed(p, cap):
    """The coefficients of p up to z^cap, trailing zeros stripped."""
    p = list(p[: cap + 1])
    while len(p) > 1 and not p[-1]:
        p.pop()
    return tuple(p)


def assert_wreath_sums_match_reference(P, G, n, dq):
    """super_molien of P[G]'s action and the streamed direct route, both
    flavors, against the label-by-label reference."""
    for flavor in FLAVORS:
        expected = reference_super_molien(flat_action(P, G, n, flavor), dq)
        assert_same_series(super_molien(GroupAction.from_wreath(P, G, n, flavor), dq), expected)
        assert_same_series(wreath_series.wreath_hilbert_direct(P, G, n, flavor, dq), expected)


@pytest.mark.parametrize("name", MOLIEN_FIXTURES)
def test_molien_fixture_sums_match_the_label_by_label_reference(name):
    G = matrix_group_fixture(name)
    actions = [GroupAction.from_matrix_group(G)]
    try:
        actions.append(GroupAction.from_matrix_group(G, sign_character(G)))
    except NotAPermutationGroup:
        pass
    for action in actions:
        assert_same_series(super_molien(action, 6), reference_super_molien(action, 6))


@pytest.mark.parametrize(
    "pname,gname,n,dq",
    [(pname, gname, n, 8) for pname, gname, n in WREATH_ROUTE_CASES]
    + [("s4", "sign-scalar", 4, 8), ("s2", "scaled-swap", 2, 6), ("s2", "rational-s3", 2, 5)],
)
def test_wreath_sums_match_the_label_by_label_reference(pname, gname, n, dq):
    # the four wreath-routes cases, S_4[+-1], S_2 over the Fraction-entry
    # scaled swap, and S_2 over the rational conjugate of S_3, whose
    # non-monomial blocks take Berkowitz
    assert_wreath_sums_match_reference(perm_group_fixture(pname), named_group(gname), n, dq)


def test_zero_row_sums_match_the_label_by_label_reference():
    assert_wreath_sums_match_reference(PermGroup.close(0, []), trivial_group(1, 1), 0, 3)


def test_single_label_blocks_match_berkowitz():
    # One seeded label at a time over non-abelian groups on 3 and 4 rows:
    # the product of its cycle blocks' char-polys equals Berkowitz on its
    # whole compiled matrices, cut at the caps.  A block's char-polys
    # depend on the order of the elements along its cycle, which a sum
    # over all of G^m would average away.
    rng = random.Random(1927)
    for gname, n in (("s3-x", 3), ("s3-theta", 4), ("young-2-1-theta", 3), ("rational-s3", 3)):
        G = named_group(gname)
        for _ in range(12):
            sigma = rng.choice(PermGroup.symmetric(n).elements)
            label = WreathElement(sigma, tuple(rng.choice(G.elements) for _ in range(n)))
            sub = label.substitution
            for dq, du in ((5, n * G.r1), (2, 1)):
                expected = trimmed(_berkowitz(sub.even), dq), trimmed(_berkowitz(sub.odd), du)
                assert label_block_pair(label, dq, du) == expected


def test_non_integral_averages_match_the_label_by_label_reference():
    # pairs that are not a group: the average 1/3 (2/(1 - q) + 1/(1 + q))
    # has non-integral coefficients, and the sum divides them exactly
    signs = GroupAction.from_matrix_group(sign_scalar_group())
    identity, minus = sorted(signs.rows, key=lambda pair: pair[1].columns[0][0][0][1], reverse=True)
    action = GroupAction(signs.signature, signs.top, (identity, identity, minus))
    got = super_molien(action, 4)
    assert_same_series(got, reference_super_molien(action, 4))
    assert got.coefficient((0, 1, 0)) == Fraction(1, 3)


def signed_permutation_matrix(rng, r):
    images = list(range(r))
    rng.shuffle(images)
    entries = [0] * (r * r)
    for c, i in enumerate(images):
        entries[i * r + c] = rng.choice((1, -1))
    return QMatrix(r, r, entries)


def seeded_signed_groups(seed, count, max_order=8):
    """count graded signed-permutation groups with r0, r1 <= 2, each of
    order 2..max_order, drawn from a seeded generator."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        r0, r1 = rng.randint(0, 2), rng.randint(0, 2)
        gens = [
            GradedGroupElement(signed_permutation_matrix(rng, r0), signed_permutation_matrix(rng, r1))
            for _ in range(rng.randint(1, 2))
        ]
        try:
            G = MatrixGroup.close(r0, r1, gens, cap=max_order)
        except CapExceeded:
            continue
        if G.order > 1:
            out.append(G)
    return out


def test_seeded_wreath_sums_match_the_label_by_label_reference():
    # 30 seeded groups G: S_2[G] at dq = 4, and S_3[G] for |G| <= 4
    for G in seeded_signed_groups(27, 30):
        assert_wreath_sums_match_reference(PermGroup.symmetric(2), G, 2, 4)
        if G.order <= 4:
            assert_wreath_sums_match_reference(PermGroup.symmetric(3), G, 3, 4)


def m_cycle_action(G, m):
    """One fixed m-cycle over G^m, the coset that verify_m_cycle_identity
    averages over, and its labels listed."""
    cyc = Permutation.from_cycles(m, [tuple(range(1, m + 1))])
    action = GroupAction(AlgebraSignature(G.r0, G.r1, m), ((1, cyc),), GroupAction.from_matrix_group(G).rows)
    return action, flat_labels(action)


def wreath_and_flat(P, G, n, flavor):
    """P[G]'s wreath action and its flat labels as a plain action."""
    return GroupAction.from_wreath(P, G, n, flavor), flat_action(P, G, n, flavor)


@pytest.mark.parametrize(
    "make_action,dq",
    [
        (lambda: wreath_and_flat(PermGroup.symmetric(4), sign_scalar_group(), 4, "invariant"), 8),
        (lambda: wreath_and_flat(PermGroup.symmetric(4), sign_scalar_group(), 4, "antiinvariant"), 8),
        (lambda: wreath_and_flat(PermGroup.symmetric(2), conjugated_s3()[1], 2, "invariant"), 5),
        (lambda: wreath_and_flat(PermGroup.symmetric(2), conjugated_s3()[1], 2, "antiinvariant"), 5),
        (lambda: m_cycle_action(matrix_group_fixture("s2-diag"), 2), 6),
        (lambda: m_cycle_action(matrix_group_fixture("s2-diag"), 3), 6),
    ],
    ids=["s4-sign-scalar-inv", "s4-sign-scalar-anti", "s2-rational-s3-inv", "s2-rational-s3-anti", "m2", "m3"],
)
def test_super_molien_regrouping_matches_label_by_label_sum(make_action, dq):
    # Summing chi(w) per char-poly pair and expanding each pair once gives
    # the plain average of the per-label series, on a group with integral
    # char-polys, on the rational conjugate of S_3, whose pair keys are
    # Fraction tuples, and on the m-cycle cosets, which are not groups.
    action, labels = make_action()
    du = action.signature.num_odd
    assert super_molien(action, dq, du) == label_by_label_series(labels, dq, du)


def test_rational_s3_pair_keys_are_fractions():
    # a label with a non-integral entry gets its even char-poly as
    # Fractions; by value the keys are those of S_2[S_3], whose are ints
    G, H = conjugated_s3()

    def keys(group):
        action = flat_action(PermGroup.symmetric(2), group, 2, "invariant")
        return {_charpoly_rows(w.substitution.even) for _, w in action.pairs}

    assert any(type(c) is Fraction for key in keys(H) for c in key)
    assert all(type(c) is int for key in keys(G) for c in key)
    assert keys(H) == keys(G)


def test_super_molien_expands_once_per_char_poly_pair(monkeypatch):
    # S_4[+-1]: no label's whole matrix is walked.  A block is the
    # g-sequence along one cycle, whatever rows the cycle occupies, so the
    # 2^m sequences of each cycle length m <= 4, 30 in all, each have their
    # even and odd maps walked once by the char-poly kernel; the 384 labels
    # fall into 20 distinct keys of block numbers (the 20 classes of B_4),
    # and only 14 distinct denominators are expanded into series
    # ((1 - z)(1 + z) = 1 - z^2), one per char-poly pair, as r1 = 0 makes
    # every numerator 1.
    action = GroupAction.from_wreath(PermGroup.symmetric(4), sign_scalar_group(), 4)
    calls = {"_block_pair": 0, "_charpoly_rows": 0, "_pair_table": 0}

    def counted(name):
        inner = getattr(molien, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(molien, name, wrapper)

    for name in calls:
        counted(name)
    super_molien(action, 8)
    sequences = sum(2**m for m in range(1, 5))
    assert sequences == 30
    assert calls == {"_block_pair": sequences, "_charpoly_rows": 2 * sequences, "_pair_table": 14}


def test_super_molien_expands_once_per_denominator(monkeypatch):
    # S_3[s2-theta]: G permutes the two odd variables of a row and there
    # is no even one (r0 = 0), so every label's even char-poly is 1: its 8
    # distinct char-poly pairs share one denominator, which is expanded
    # once per flavor with the weighted numerators summed, and the series
    # equals the label-by-label reference
    G = matrix_group_fixture("s2-theta")
    pair_table = molien._pair_table
    calls = []

    def counted(den, num, dq):
        calls.append(den)
        return pair_table(den, num, dq)

    for flavor in FLAVORS:
        action = GroupAction.from_wreath(PermGroup.symmetric(3), G, 3, flavor)
        calls.clear()
        monkeypatch.setattr(molien, "_pair_table", counted)
        got = super_molien(action, 6)
        monkeypatch.undo()
        assert calls == [(1,)]
        assert_same_series(got, reference_super_molien(action, 6))


def berkowitz_calls(monkeypatch):
    """The mappings passed to linalg._berkowitz from now on."""
    calls = []

    def wrapper(rows):
        calls.append(rows)
        return _berkowitz(rows)

    monkeypatch.setattr(linalg, "_berkowitz", wrapper)
    return calls


def molien_entry_points(P, G, n, flavor, dq):
    """The two entry points of the one Molien sum on P[G]: super_molien of
    the action, and the streamed direct route."""
    yield lambda: super_molien(GroupAction.from_wreath(P, G, n, flavor), dq)
    yield lambda: wreath_series.wreath_hilbert_direct(P, G, n, flavor, dq)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_monomial_labels_never_reach_berkowitz(monkeypatch, flavor):
    # Every label of S_4[+-1] is a signed permutation matrix, so every
    # block's char-polys come from the cycle walk, on either entry point.
    calls = berkowitz_calls(monkeypatch)
    for run in molien_entry_points(PermGroup.symmetric(4), sign_scalar_group(), 4, flavor, 8):
        run()
        assert calls == []


@pytest.mark.parametrize("flavor", FLAVORS)
def test_non_monomial_labels_take_berkowitz(monkeypatch, flavor):
    # S_n[H], H the rational conjugate of S_3 on x (no odd variables): the
    # block of every g-sequence of length m <= n, except the one of m
    # identities, has a non-monomial even map, which Berkowitz gets once
    # per call, never a whole label's, on either entry point: 6 + 36 - 2 =
    # 40 blocks on S_2[H] and 6 + 36 + 216 - 3 = 255 on S_3[H].
    H = conjugated_s3()[1]
    calls = berkowitz_calls(monkeypatch)
    for n, count in ((2, 40), (3, 255)):
        assert count == sum(H.order**m for m in range(1, n + 1)) - n
        for run in molien_entry_points(PermGroup.symmetric(n), H, n, flavor, 5):
            calls.clear()
            run()
            assert len(calls) == count
            assert len({frozenset((k, tuple(row)) for k, row in rows.items()) for rows in calls}) == count


def test_apply_wreath_is_an_action_on_a_non_monomial_wreath():
    # op(w1 * w2) == op(w1) . op(w2) on S_2[H], H the rational conjugate of
    # S_3 on x, where every image of a variable has several terms
    H = conjugated_s3()[1]
    labels = build_wreath(PermGroup.symmetric(2), H, 2)
    sig = AlgebraSignature(H.r0, H.r1, 2)
    f = (
        super_mul(SuperPolynomial.x_var(sig, 1, 1), SuperPolynomial.x_var(sig, 2, 3))
        + SuperPolynomial.x_var(sig, 1, 2).scale(Fraction(-2, 3))
        + super_mul(SuperPolynomial.x_var(sig, 2, 2), SuperPolynomial.x_var(sig, 2, 2))
    )
    for w1 in labels[::5]:
        for w2 in labels[::7]:
            assert apply_wreath(wreath_mul(w1, w2), f) == apply_wreath(w1, apply_wreath(w2, f))


def test_rational_change_of_basis_keeps_the_series():
    # S_3 on x conjugated by a rational matrix: same Molien series, and the
    # wreath routes still agree, with non-integral entries in every label.
    G, H = conjugated_s3()
    assert H.order == G.order
    assert max(x.denominator for g in H.generators for x in g.g0.entries) > 1
    assert super_molien(GroupAction.from_matrix_group(H), 8) == super_molien(
        GroupAction.from_matrix_group(G), 8
    )
    for flavor in FLAVORS:
        assert wreath_series.check_wreath_routes(PermGroup.symmetric(2), H, 2, flavor, 6)["match"]


def test_one_flavor_validator():
    assert wreath_series.FLAVORS is FLAVORS == ("invariant", "antiinvariant")
    # the one place a flavor name is read: whether it is signed
    assert [require_flavor(flavor) for flavor in FLAVORS] == [False, True]
    G = MatrixGroup.trivial(1, 0)
    message = r"unknown flavor 'nope'; expected one of \('invariant', 'antiinvariant'\)"
    for call in (
        lambda: require_flavor("nope"),
        lambda: GroupAction.from_wreath(PermGroup.symmetric(2), G, 2, flavor="nope"),
        lambda: wreath_series.wreath_hilbert_direct(PermGroup.symmetric(2), G, 2, "nope", 2),
        lambda: shuffle.closure_battery(G, "nope", 2, 1),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_action_refuses_labels_off_its_signature():
    # sign-scalar's one-row factors declared on two rows refuse the
    # one-point sigma, and trivial-1-1's declared on (2, 1) variables per
    # row refuse G's (1, 1) blocks, when the action is made, before any
    # series is summed or any label built
    sign_scalar = GroupAction.from_matrix_group(sign_scalar_group())
    with pytest.raises(DegreeMismatch, match=r"^P acts on 1 rows, expected 2$"):
        GroupAction(AlgebraSignature(1, 0, 2), sign_scalar.top, sign_scalar.rows)
    trivial = GroupAction.from_matrix_group(trivial_group(1, 1))
    with pytest.raises(DimensionMismatch, match=r"^element blocks 1x1/1x1 do not match \(r0, r1\) = \(2, 1\)$"):
        GroupAction(AlgebraSignature(2, 1, 1), trivial.top, trivial.rows)
    # the same factors on their own signatures are accepted
    assert GroupAction(sign_scalar.signature, sign_scalar.top, sign_scalar.rows) == sign_scalar
    assert GroupAction(trivial.signature, trivial.top, trivial.rows) == trivial


def test_action_refuses_weights_no_linear_character_has():
    # psi = -1 on a trivial G's identity would give super_molien -1 - q - q^2
    # against Reynolds ranks [1, 1, 1], as the two routes read the weights
    # differently; such weights, and any weight but +-1, are refused when
    # the action is made
    identity = MatrixGroup.trivial(1, 0).elements[0]
    one_row = AlgebraSignature(1, 0, 1)
    with pytest.raises(ValueError, match=r"^row character must send the identity to 1$"):
        GroupAction(one_row, ((1, Permutation.identity(1)),), ((-1, identity),))
    with pytest.raises(ValueError, match=r"^top character must send the identity to 1$"):
        GroupAction(one_row, ((-1, Permutation.identity(1)),), ((1, identity),))
    signs = GroupAction.from_matrix_group(sign_scalar_group())
    for top, rows in (((2, Permutation.identity(1)),), signs.rows), (signs.top, ((Fraction(1, 2), identity),)):
        with pytest.raises(ValueError, match=r"^(top|row) character values must be \+1 or -1, got "):
            GroupAction(signs.signature, top, rows)
    # -1 off the identity stays accepted, and so does a top that is not a
    # group, such as the coset of one fixed cycle
    assert GroupAction.from_matrix_group(sign_scalar_group(), (1, -1)).rows[1][0] == -1
    coset = Permutation.from_cycles(2, [(1, 2)])
    assert GroupAction(AlgebraSignature(1, 0, 2), ((-1, coset),), signs.rows).top == ((-1, coset),)


def test_row_images_are_shared_by_every_bidegree_of_an_action(monkeypatch):
    # S_2[s2-theta] over molien_vs_oracle's whole grid: each distinct row
    # part goes through G's one-row labels once per action, where a fresh
    # action per bidegree maps more, and the ranks are those of the fresh
    # actions
    G = matrix_group_fixture("s2-theta")
    label_sum = molien._label_sum
    mapped = []

    def counted(pairs, *args):
        mapped.extend(w.sigma.n == 1 for _, w in pairs[:1])
        return label_sum(pairs, *args)

    monkeypatch.setattr(molien, "_label_sum", counted)
    for flavor in FLAVORS:
        action = GroupAction.from_wreath(PermGroup.symmetric(2), G, 2, flavor)
        mapped.clear()
        report = molien_vs_oracle(action, 6)
        shared = sum(mapped)
        assert report["mismatches"] == [] and report["agreements"] == 7 * 5
        assert shared == len(action._stages[3]) - 1
        mapped.clear()
        for i in range(7):
            for j in range(5):
                fresh = GroupAction.from_wreath(PermGroup.symmetric(2), G, 2, flavor)
                assert invariant_dimension_bruteforce(fresh, i, j) == invariant_dimension_bruteforce(action, i, j)
        assert sum(mapped) > shared


def test_negative_caps_are_refused_before_any_work():
    action = GroupAction.from_matrix_group(trivial_group(1, 1))
    for call in (
        lambda: super_molien(action, -1),
        lambda: super_molien(action, 2, -1),
        lambda: molien_vs_oracle(action, -1),
    ):
        with pytest.raises(ValueError, match=r"^caps must be nonnegative, got \(0, "):
            call()

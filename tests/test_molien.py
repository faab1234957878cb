"""Molien averages against hand-computed series and the Reynolds-rank oracle."""

import math
from fractions import Fraction

import pytest

from supermolien import molien, shuffle, wreath_series
from supermolien.errors import BasisTooLarge
from supermolien.fixtures import (
    diagonal_perm_group,
    matrix_group_fixture,
    perm_matrix_group,
    sign_scalar_group,
    trivial_group,
    young_theta_group,
)
from supermolien.groups import MatrixGroup, PermGroup
from supermolien.molien import (
    FLAVORS,
    GroupAction,
    invariant_dimension_bruteforce,
    label_block_matrices,
    molien_vs_oracle,
    require_flavor,
    reynolds_project,
    super_molien,
)
from supermolien.series import Caps, TrigradedSeries, series_inv, series_mul, series_pow_int
from supermolien.superalgebra import SuperPolynomial, apply_wreath, bidegree_basis


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
    act = GroupAction.from_matrix_group(diagonal_perm_group(2), character="sgn")
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
    with pytest.raises(BasisTooLarge, match=r"^bidegree \(6, 0\) basis has 28 monomials, limit 5$"):
        invariant_dimension_bruteforce(act, 6, 0)


def test_reynolds_is_idempotent_and_invariant():
    act = GroupAction.from_matrix_group(perm_matrix_group(2, "odd"))
    sig = act.signature
    for mono in bidegree_basis(sig, 0, 1) + bidegree_basis(sig, 0, 2):
        f = SuperPolynomial.monomial(sig, mono)
        proj = reynolds_project(act, f)
        assert reynolds_project(act, proj) == proj
        for w in act.labels:
            assert apply_wreath(w, proj) == proj


def test_reynolds_sgn_projects_to_antiinvariants():
    act = GroupAction.from_matrix_group(diagonal_perm_group(2), character="sgn")
    sig = act.signature
    f = SuperPolynomial.x_var(sig, 1, 1)
    proj = reynolds_project(act, f)
    # x1 projects to (x1 - x2)/2, which each swap negates
    for i in range(act.order):
        chi = act.character(i)
        assert apply_wreath(act.labels[i], proj) == proj.scale(chi)


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

    with pytest.raises(NotAPermutationGroup):
        GroupAction.from_matrix_group(sign_scalar_group(), character="sgn")


def test_block_matrices_layout_for_swap_label():
    act = GroupAction.from_wreath(PermGroup.symmetric(2), sign_scalar_group(), 2)
    # find the label (swap, (id, -1))
    from supermolien.groups import Permutation

    for w in act.labels:
        if w.sigma == Permutation([2, 1]) and w.gs[0].g0.get(0, 0) == 1 and w.gs[1].g0.get(0, 0) == -1:
            m0, _ = label_block_matrices(w, act.signature)
            # g_1 = +1 sits at block (sigma^{-1}(1), 1) = (2, 1), g_2 = -1 at (1, 2)
            assert m0.rows() == [(0, -1), (1, 0)]
            return
    raise AssertionError("label not found")


def test_one_flavor_validator():
    assert wreath_series.FLAVORS is FLAVORS == ("invariant", "antiinvariant")
    for flavor in FLAVORS:
        require_flavor(flavor)
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

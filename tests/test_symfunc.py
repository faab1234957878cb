"""Cycle indices, the omega involution, plethysm, h/e identities, composition."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermolien.groups import (
    PermGroup,
    Permutation,
    perm_group_of_wreath,
    sign_character,
    validate_character,
)
from supermolien import symfunc
from supermolien.series import (
    Caps,
    TrigradedSeries,
    scale_exponents,
    series_add,
    series_inv,
    series_mul,
    series_scale,
)
from supermolien.symfunc import (
    SymFuncPoly,
    cycle_index,
    hn_en,
    omega,
    plethystic_compose,
    plethystic_substitute,
)


def brute_cycle_index(n, signed=False):
    """Independent oracle: enumerate one-line words, read cycle types directly."""
    acc = {}
    for word in itertools.permutations(range(1, n + 1)):
        seen = [False] * n
        lengths = []
        for start in range(1, n + 1):
            if seen[start - 1]:
                continue
            ln, i = 0, start
            while not seen[i - 1]:
                seen[i - 1] = True
                i = word[i - 1]
                ln += 1
            lengths.append(ln)
        lam = tuple(sorted(lengths, reverse=True))
        w = 1
        if signed:
            w = (-1) ** (n - len(lam))
        acc[lam] = acc.get(lam, 0) + w
    return SymFuncPoly({lam: Fraction(c, math.factorial(n)) for lam, c in acc.items() if c})


def geom(caps):
    return series_inv(
        TrigradedSeries(caps, {(0, 0, 0): Fraction(1), (0, 1, 0): Fraction(-1)})
    )


def test_partition_validation():
    with pytest.raises(ValueError):
        SymFuncPoly({(1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        SymFuncPoly({(0,): Fraction(1)})


def test_product_concatenates_partitions():
    f = SymFuncPoly.p(2) * SymFuncPoly.p(3)
    assert f == SymFuncPoly({(3, 2): Fraction(1)})
    assert SymFuncPoly.one() * f == f


def test_cycle_index_s3_frozen():
    z = cycle_index(PermGroup.symmetric(3))
    assert z == SymFuncPoly(
        {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(1, 2), (3,): Fraction(1, 3)}
    )


def test_cycle_index_s3_sgn_frozen():
    P = PermGroup.symmetric(3)
    z = cycle_index(P, sign_character(P))
    assert z == SymFuncPoly(
        {(1, 1, 1): Fraction(1, 6), (2, 1): Fraction(-1, 2), (3,): Fraction(1, 3)}
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_cycle_index_matches_brute_enumeration(n):
    assert cycle_index(PermGroup.symmetric(n)) == brute_cycle_index(n)
    P = PermGroup.symmetric(n)
    assert cycle_index(P, sign_character(P)) == brute_cycle_index(n, signed=True)


def test_cycle_index_young_subgroup():
    # S_(2,1): identity and one transposition
    z = cycle_index(PermGroup.young([2, 1]))
    assert z == SymFuncPoly({(1, 1, 1): Fraction(1, 2), (2, 1): Fraction(1, 2)})


def test_cycle_index_with_explicit_character_matches_sgn():
    P = PermGroup.symmetric(3)
    chi = validate_character([Fraction(1) if _is_even(p) else Fraction(-1) for p in P.elements], P)
    assert cycle_index(P, chi) == cycle_index(P, sign_character(P))


def test_cycle_index_rejects_a_character_of_the_wrong_length():
    P = PermGroup.symmetric(3)
    for values in ((1, -1), sign_character(P) + (1,)):
        with pytest.raises(ValueError, match=f"character has {len(values)} values for a group of order 6"):
            cycle_index(P, values)


def _is_even(p: Permutation) -> bool:
    return p.sign == 1


def test_character_validation_rejects_non_homomorphism():
    P = PermGroup.symmetric(3)
    values = [Fraction(1)] * P.order
    values[2] = Fraction(-1)  # corrupt a single value
    corrupted = False
    try:
        validate_character(values, P)
    except ValueError:
        corrupted = True
    assert corrupted


def test_character_validation_rejects_zero_and_bad_identity():
    P = PermGroup.symmetric(2)
    with pytest.raises(ValueError):
        validate_character([Fraction(1), Fraction(0)], P)
    with pytest.raises(ValueError):
        validate_character([Fraction(-1), Fraction(1)], P)


def test_sgn_character_is_valid():
    for P in [PermGroup.symmetric(2), PermGroup.symmetric(3), PermGroup.young([2, 1])]:
        chi = validate_character([p.sign for p in P.elements], P)
        assert chi == tuple(p.sign for p in P.elements) and all(type(v) is int for v in chi)
        assert chi[P.identity_index] == 1


def test_omega_swaps_plain_and_sgn_cycle_index():
    for P in [
        PermGroup.trivial(1),
        PermGroup.symmetric(2),
        PermGroup.symmetric(3),
        PermGroup.symmetric(4),
        PermGroup.symmetric(5),
        PermGroup.cyclic(3),
        PermGroup.young([2, 1]),
        PermGroup.young([2, 2]),
    ]:
        assert omega(cycle_index(P)) == cycle_index(P, sign_character(P))
        assert omega(cycle_index(P, sign_character(P))) == cycle_index(P)


def test_omega_is_an_involution_and_ring_map():
    f = SymFuncPoly({(2, 1): Fraction(3), (4,): Fraction(-1, 2)})
    g = SymFuncPoly({(1, 1): Fraction(1), (3,): Fraction(2)})
    assert omega(omega(f)) == f
    assert omega(f * g) == omega(f) * omega(g)


def test_h_times_e_alternating_sum_vanishes():
    # sum_{k=0}^{n} (-1)^k e_k h_{n-k} == 0 for n >= 1
    for n in range(1, 6):
        total = SymFuncPoly.zero()
        for k in range(n + 1):
            term = hn_en(k, "e") * hn_en(n - k, "h")
            total = total + term.scale((-1) ** k)
        assert total.is_zero(), f"n={n}: {total!r}"


def test_degree_zero_groups_have_cycle_index_one():
    # S_0 and C_0 are the one permutation of no points, of cycle type ():
    # h_0 = e_0 = 1 is S_0's plain and sign cycle index, with no special case
    for kind in ("h", "e"):
        assert hn_en(0, kind) == SymFuncPoly.one()
    assert cycle_index(PermGroup.cyclic(0)) == SymFuncPoly.one()


def test_hn_en_small_values():
    assert hn_en(0, "h") == SymFuncPoly.one()
    assert hn_en(1, "e") == SymFuncPoly.p(1)
    assert hn_en(2, "h") == SymFuncPoly({(1, 1): Fraction(1, 2), (2,): Fraction(1, 2)})
    assert hn_en(2, "e") == SymFuncPoly({(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})


def test_substitute_h2_counts_two_part_partitions():
    # h_2[1/(1-q)] = 1/((1-q)(1-q^2)): q^k counts unordered pairs a <= b, a+b=k
    caps = Caps(0, 8, 0)
    s = plethystic_substitute(hn_en(2, "h"), geom(caps))
    for k in range(9):
        count = sum(1 for a in range(k + 1) if 2 * a <= k)  # a <= b = k - a
        assert s.coefficient((0, k, 0)) == count


def test_substitute_e2_counts_distinct_pairs():
    caps = Caps(0, 8, 0)
    s = plethystic_substitute(hn_en(2, "e"), geom(caps))
    for k in range(9):
        count = sum(1 for a in range(k + 1) if 2 * a < k)  # a < b = k - a
        assert s.coefficient((0, k, 0)) == count


def test_substitute_scales_all_three_exponents():
    caps = Caps(4, 4, 4)
    s = TrigradedSeries(caps, {(1, 1, 1): Fraction(1)})
    out = plethystic_substitute(SymFuncPoly.p(3), s)
    assert out == TrigradedSeries(caps, {(3, 3, 3): Fraction(1)})


def rescaling_substitute(f, s):
    """plethystic_substitute as it was: s rescaled afresh for every part of
    every partition."""
    total = TrigradedSeries.zero(s.caps)
    for lam, c in f.terms.items():
        prod = TrigradedSeries.one(s.caps)
        for r in lam:
            prod = series_mul(prod, scale_exponents(s, r))
        total = series_add(total, series_scale(prod, c))
    return total


def test_substitute_equals_the_per_part_rescaling_reference(monkeypatch):
    # cycle indices with repeated part sizes, plain and signed, on seeded
    # series with Fraction coefficients; each part size is scaled once
    rng = random.Random(7)
    symmetric = [PermGroup.symmetric(n) for n in range(5)]
    polys = [cycle_index(P, chi) for P in symmetric for chi in (None, sign_character(P))]
    polys.append(SymFuncPoly({(2, 2, 2, 1): Fraction(3, 2), (3, 1, 1): Fraction(-1), (): Fraction(2)}))
    calls = []

    def counted(series, r):
        calls.append(r)
        return scale_exponents(series, r)

    for caps in (Caps(2, 4, 2), Caps(4, 6, 3), Caps(0, 8, 0)):
        coeffs = {
            (rng.randint(0, caps.t), rng.randint(0, caps.q), rng.randint(0, caps.u)): Fraction(
                rng.randint(-4, 4), rng.randint(1, 3)
            )
            for _ in range(8)
        }
        coeffs[(0, 0, 0)] = 1
        series = TrigradedSeries(caps, coeffs)
        for f in polys:
            expected = rescaling_substitute(f, series)
            calls.clear()
            monkeypatch.setattr(symfunc, "scale_exponents", counted)
            got = plethystic_substitute(f, series)
            monkeypatch.undo()
            assert got.caps == caps
            assert got.items() == expected.items()
            assert sorted(calls) == sorted({r for lam in f.terms for r in lam})


@pytest.mark.parametrize("n,products", [(3, 3), (4, 7), (5, 13)])
def test_substitute_multiplies_each_partition_prefix_once(monkeypatch, n, products):
    # the cycle index of S_n, plain and signed: one series_mul per distinct
    # prefix of two or more parts (S_4: 11, 111, 1111, 21, 211, 22, 31),
    # against 6, 12 and 20 when each partition is multiplied up from 1
    P = PermGroup.symmetric(n)
    caps = Caps(0, 6, 3)
    s = TrigradedSeries(caps, {(0, 0, 0): 1, (0, 1, 0): Fraction(3, 2), (0, 0, 1): -2, (0, 2, 1): Fraction(1, 3)})
    calls = []

    def counted(a, b):
        calls.append(1)
        return series_mul(a, b)

    for chi in (None, sign_character(P)):
        f = cycle_index(P, chi)
        expected = rescaling_substitute(f, s)
        calls.clear()
        monkeypatch.setattr(symfunc, "series_mul", counted)
        got = plethystic_substitute(f, s)
        monkeypatch.undo()
        assert len(calls) == products
        assert got.items() == expected.items()


def test_compose_on_power_sums():
    # p_r[g] multiplies each part by r
    g = SymFuncPoly({(2, 1): Fraction(5)})
    assert plethystic_compose(SymFuncPoly.p(3), g) == SymFuncPoly({(6, 3): Fraction(5)})
    assert plethystic_compose(SymFuncPoly.p(1), g) == g
    assert plethystic_compose(g, SymFuncPoly.p(1)) == g


symfunc_st = st.dictionaries(
    st.lists(st.integers(1, 3), min_size=0, max_size=2).map(lambda l: tuple(sorted(l, reverse=True))),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    max_size=3,
).map(SymFuncPoly)


@given(symfunc_st, symfunc_st, symfunc_st)
@settings(max_examples=30)
def test_compose_is_associative(f, g, h):
    assert plethystic_compose(plethystic_compose(f, g), h) == plethystic_compose(
        f, plethystic_compose(g, h)
    )


@given(symfunc_st, symfunc_st)
@settings(max_examples=30)
def test_substitute_respects_composition(f, g):
    caps = Caps(2, 4, 2)
    s = TrigradedSeries(caps, {(0, 1, 0): Fraction(1), (1, 0, 1): Fraction(1, 2)})
    lhs = plethystic_substitute(plethystic_compose(f, g), s)
    rhs = plethystic_substitute(f, plethystic_substitute(g, s))
    assert lhs == rhs


def test_polya_composition_rule():
    # cycle index of P[G] on points = Z_P composed with Z_G
    cases = [
        (PermGroup.symmetric(2), PermGroup.symmetric(2), 2),
        (PermGroup.symmetric(2), PermGroup.symmetric(3), 2),
        (PermGroup.symmetric(3), PermGroup.symmetric(2), 3),
    ]
    for P, G, n in cases:
        W = perm_group_of_wreath(P, G, n)
        assert cycle_index(W) == plethystic_compose(cycle_index(P), cycle_index(G))


def test_symfunc_json_round_trip():
    f = SymFuncPoly({(3, 1): Fraction(1, 6), (2,): Fraction(-2)})
    data = f.to_json_dict()
    lams = [tuple(e["lambda"]) for e in data["terms"]]
    assert lams == [(3, 1), (2,)]  # degree-major descending order
    assert SymFuncPoly.from_json_dict(data) == f

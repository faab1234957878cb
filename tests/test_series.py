"""Truncated trigraded series: arithmetic, inversion, caps semantics, JSON."""

import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermolien.errors import ZeroConstantTerm
from supermolien.series import (
    Caps,
    TrigradedSeries,
    scale_exponents,
    series_add,
    series_flip_u,
    series_inv,
    series_mul,
    series_sub,
)

from rational_groups import is_exact

CAPS = Caps(2, 4, 3)


def S(caps, coeffs):
    return TrigradedSeries(caps, {k: Fraction(v) for k, v in coeffs.items()})


def geometric_q(caps):
    """1/(1-q) written out directly."""
    return S(caps, {(0, i, 0): 1 for i in range(caps[1] + 1)})


# -- construction and access -------------------------------------------------


def test_zero_coefficients_are_dropped():
    s = S(CAPS, {(0, 0, 0): 1, (1, 1, 0): 0})
    assert s.support() == {(0, 0, 0)}


def test_out_of_cap_key_rejected():
    with pytest.raises(ValueError):
        S(CAPS, {(0, 5, 0): 1})
    with pytest.raises(ValueError):
        S(CAPS, {(0, -1, 0): 1})


def test_coefficient_beyond_caps_is_an_error_not_zero():
    s = TrigradedSeries.one(CAPS)
    with pytest.raises(ValueError):
        s.coefficient((0, 5, 0))


def test_immutable():
    s = TrigradedSeries.one(CAPS)
    with pytest.raises(AttributeError):
        s.caps = Caps(1, 1, 1)


# -- equality within min caps ------------------------------------------------


def test_equality_compares_within_shared_caps():
    a = S((0, 4, 0), {(0, i, 0): 1 for i in range(5)})
    b = S((0, 2, 0), {(0, i, 0): 1 for i in range(3)})
    assert a == b  # agree up to q^2, the rest is unknown to b
    c = S((0, 2, 0), {(0, 2, 0): 7})
    assert a != c


def test_series_not_hashable():
    with pytest.raises(TypeError):
        hash(TrigradedSeries.one(CAPS))


# -- frozen arithmetic examples ----------------------------------------------


def test_truncated_product_of_geometric_partial_sums():
    # (1 - q) * (1 + q + ... + q^D) == 1 exactly within cap D
    caps = Caps(0, 4, 0)
    one_minus_q = S(caps, {(0, 0, 0): 1, (0, 1, 0): -1})
    assert series_mul(one_minus_q, geometric_q(caps)) == TrigradedSeries.one(caps)


def test_inverse_of_two_part_product_counts_partitions():
    # Oracle: coefficient of q^k in 1/((1-q)(1-q^2)) counts solutions of
    # a + 2b = k, enumerated by brute force.
    D = 9
    caps = Caps(0, D, 0)
    poly = S(caps, {(0, 0, 0): 1, (0, 1, 0): -1, (0, 2, 0): -1, (0, 3, 0): 1})
    inv = series_inv(poly)
    for k in range(D + 1):
        count = sum(1 for b in range(k // 2 + 1) if k - 2 * b >= 0)
        assert inv.coefficient((0, k, 0)) == count


def test_negative_power_binomial():
    caps = Caps(4, 0, 0)
    one_minus_t = S(caps, {(0, 0, 0): 1, (1, 0, 0): -1})
    sq = series_inv(series_mul(one_minus_t, one_minus_t))
    for n in range(5):
        assert sq.coefficient((n, 0, 0)) == n + 1


def test_inverse_requires_unit_constant_term():
    with pytest.raises(ZeroConstantTerm):
        series_inv(S(CAPS, {(1, 0, 0): 1}))


def test_flip_u_negates_odd_u_degrees():
    # (1+u)(1+qu) = 1 + u + qu + qu^2; flipping u gives 1 - u - qu + qu^2
    caps = Caps(0, 1, 2)
    prod = series_mul(S(caps, {(0, 0, 0): 1, (0, 0, 1): 1}), S(caps, {(0, 0, 0): 1, (0, 1, 1): 1}))
    flipped = series_flip_u(prod)
    assert flipped == S(caps, {(0, 0, 0): 1, (0, 0, 1): -1, (0, 1, 1): -1, (0, 1, 2): 1})


def test_scale_exponents_substitutes_powers():
    caps = Caps(0, 6, 4)
    s = S(caps, {(0, 1, 0): 1, (0, 0, 1): 2, (0, 2, 2): 3})
    assert scale_exponents(s, 2) == S(caps, {(0, 2, 0): 1, (0, 0, 2): 2, (0, 4, 4): 3})
    # terms scaled past the caps are dropped, the rest survive
    assert scale_exponents(s, 3).coefficient((0, 3, 0)) == 1


def _power(a, e):
    """a**e for e >= 0, by e series_mul."""
    return functools.reduce(series_mul, [a] * e, TrigradedSeries.one(a.caps))


def test_exterior_times_symmetric_inverse_is_one():
    # (1+t)^a / (1-t)^b times its t -> -t symmetric-side counterpart is 1.
    D = 12
    caps = Caps(D, 0, 0)
    one_plus = S(caps, {(0, 0, 0): 1, (1, 0, 0): 1})
    one_minus = S(caps, {(0, 0, 0): 1, (1, 0, 0): -1})
    for r0 in range(5):
        for r1 in range(5):
            wedge_side = series_mul(_power(one_plus, r0), _power(series_inv(one_minus), r1))
            sym_at_minus_t = series_mul(_power(one_minus, r1), _power(series_inv(one_plus), r0))
            assert series_mul(wedge_side, sym_at_minus_t) == TrigradedSeries.one(caps)


# -- property tests ------------------------------------------------------------

fractions_st = st.fractions(min_value=-4, max_value=4, max_denominator=6)
keys_st = st.tuples(st.integers(0, 2), st.integers(0, 4), st.integers(0, 3))
series_st = st.dictionaries(keys_st, fractions_st, max_size=6).map(lambda d: S(CAPS, d))
unit_series_st = st.dictionaries(
    keys_st.filter(lambda k: k != (0, 0, 0)), fractions_st, max_size=5
).map(lambda d: S(CAPS, {**d, (0, 0, 0): Fraction(1)}))


@given(series_st, series_st)
def test_mul_commutes(a, b):
    assert series_mul(a, b) == series_mul(b, a)


@given(series_st, series_st, series_st)
@settings(max_examples=40)
def test_mul_associates_and_distributes(a, b, c):
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))
    assert series_mul(a, series_add(b, c)) == series_add(series_mul(a, b), series_mul(a, c))


@given(unit_series_st)
def test_inverse_is_two_sided(a):
    inv = series_inv(a)
    assert series_mul(a, inv) == TrigradedSeries.one(CAPS)
    assert series_mul(inv, a) == TrigradedSeries.one(CAPS)


@given(series_st)
def test_flip_u_is_an_involution(a):
    assert series_flip_u(series_flip_u(a)) == a


@given(series_st, series_st)
def test_flip_u_is_multiplicative(a, b):
    assert series_flip_u(series_mul(a, b)) == series_mul(series_flip_u(a), series_flip_u(b))


@given(series_st, series_st)
def test_add_sub_roundtrip(a, b):
    assert series_sub(series_add(a, b), b) == a


def cauchy_reference(a, b):
    """The plain Cauchy product: every pair of terms, kept when the summed
    exponents lie within the shared caps."""
    caps = a.caps.min_with(b.caps)
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(x + y for x, y in zip(k1, k2))
            if caps.contains(key):
                out[key] = out.get(key, 0) + c1 * c2
    return TrigradedSeries(caps, out)


def random_series(rng, caps, size, fractional):
    coeffs = {}
    for _ in range(size):
        key = (rng.randint(0, caps.t), rng.randint(0, caps.q), rng.randint(0, caps.u))
        c = rng.randint(-5, 5)
        coeffs[key] = Fraction(c, rng.randint(1, 4)) if fractional and rng.random() < 0.5 else c
    return TrigradedSeries(caps, coeffs)


@pytest.mark.parametrize("fractional", [False, True])
def test_mul_equals_the_plain_cauchy_product(fractional):
    # operands at different caps, each with terms beyond the shared caps;
    # the product keeps the shared caps and the exact coefficient types
    rng = random.Random(2025 + fractional)
    cap_pairs = [(Caps(4, 1, 3), Caps(1, 4, 2)), (Caps(0, 3, 3), Caps(2, 2, 0))]
    cap_pairs += [tuple(Caps(*(rng.randint(0, 4) for _ in range(3))) for _ in range(2)) for _ in range(40)]
    for caps_a, caps_b in cap_pairs:
        for size_a, size_b in ((0, 5), (5, 0), (1, 1), (6, 9), (12, 12)):
            a = random_series(rng, caps_a, size_a, fractional)
            b = random_series(rng, caps_b, size_b, fractional)
            got, expected = series_mul(a, b), cauchy_reference(a, b)
            assert got.caps == expected.caps == caps_a.min_with(caps_b)
            assert [(k, c, type(c)) for k, c in got.items()] == [(k, c, type(c)) for k, c in expected.items()]
    zero = TrigradedSeries.zero(Caps(2, 2, 2))
    dense = random_series(rng, Caps(3, 3, 3), 20, fractional)
    assert series_mul(zero, dense).is_zero() and series_mul(dense, zero).is_zero()
    assert series_mul(zero, dense).caps == Caps(2, 2, 2)


# -- serialization -------------------------------------------------------------


def test_coefficients_are_ints_where_integral():
    s = S(CAPS, {(0, 0, 0): Fraction(4, 2), (0, 1, 0): Fraction(1, 3), (0, 2, 0): 3})
    assert [type(c) for _, c in s.items()] == [int, Fraction, int]
    half = TrigradedSeries.monomial(CAPS, (0, 0, 0), Fraction(1, 2))
    assert series_mul(half, S(CAPS, {(0, 0, 0): 2})).items() == [((0, 0, 0), 1)]
    assert type(series_mul(half, S(CAPS, {(0, 0, 0): 2})).coefficient((0, 0, 0))) is int
    assert type(TrigradedSeries.one(CAPS).coefficient((0, 1, 0))) is int
    assert all(type(c) is int for _, c in series_inv(S(CAPS, {(0, 0, 0): 1, (0, 1, 0): -1})).items())


@given(series_st, series_st, unit_series_st)
@settings(max_examples=40)
def test_arithmetic_results_keep_the_exact_form(a, b, u):
    results = (
        series_add(a, b),
        series_sub(a, b),
        series_mul(a, b),
        series_inv(u),
        series_inv(series_mul(u, u)),
        series_flip_u(a),
        scale_exponents(a, 2),
        -a,
    )
    for s in results:
        assert all(is_exact(c) for _, c in s.items())


def test_json_round_trip_and_ordering():
    s = S(CAPS, {(1, 2, 0): Fraction(-3, 4), (0, 0, 0): 2, (1, 0, 3): 5})
    d = s.to_json_dict()
    assert d["caps"] == {"t": 2, "q": 4, "u": 3}
    assert [(e["t"], e["q"], e["u"]) for e in d["coeffs"]] == [(0, 0, 0), (1, 0, 3), (1, 2, 0)]
    assert d["coeffs"][2]["c"] == "-3/4"
    assert TrigradedSeries.from_json_dict(json.loads(json.dumps(d))) == s


def test_json_rejects_duplicates():
    d = {
        "caps": {"t": 1, "q": 1, "u": 1},
        "coeffs": [
            {"t": 0, "q": 0, "u": 0, "c": "1"},
            {"t": 0, "q": 0, "u": 0, "c": "2"},
        ],
    }
    with pytest.raises(ValueError):
        TrigradedSeries.from_json_dict(d)


def test_json_refuses_non_integral_caps_and_keys():
    # int() would read the cap 2.5 as 2 and the key u = 0.5 as 0
    good = {"caps": {"t": 1, "q": 2, "u": 1}, "coeffs": [{"t": 0, "q": 1, "u": 0, "c": "1"}]}
    assert TrigradedSeries.from_json_dict(good).coefficient((0, 1, 0)) == 1
    bad_cap = {**good, "caps": {"t": 1, "q": 2.5, "u": 1}}
    with pytest.raises(ValueError, match="^caps q must be an integer, got 2.5$"):
        TrigradedSeries.from_json_dict(bad_cap)
    for k, value in (("u", 0.5), ("t", False)):
        bad_key = {**good, "coeffs": [{"t": 0, "q": 1, "u": 0, "c": "1", k: value}]}
        with pytest.raises(ValueError, match=f"^coefficient {k} must be an integer, got {value!r}$"):
            TrigradedSeries.from_json_dict(bad_key)


def test_constructor_refuses_non_integral_keys_and_caps():
    # int() would read the key q = 1.5 as q^1 and the cap 2.5 as 2
    with pytest.raises(ValueError, match="^exponent q must be an integer, got 1.5$"):
        TrigradedSeries((1, 2, 1), {(0, 1.5, 0): 1})
    with pytest.raises(ValueError, match="^cap must be an integer, got 2.5$"):
        TrigradedSeries((1, 2.5, 1))
    assert TrigradedSeries((1.0, 2, 1), {(0, 1.0, 0): 1}).coefficient((0, 1, 0)) == 1

"""Shuffle products: displays, closure, associativity, signs, generation."""

import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest

from supermolien.errors import BasisTooLarge, CapExceeded, NotHomogeneous, SignatureMismatch
from supermolien.fixtures import matrix_group_fixture
from supermolien.groups import MatrixGroup, PermGroup, Permutation, WreathElement, shuffle_reps
from supermolien import groups, molien, superalgebra
from supermolien.molien import FLAVORS, GroupAction, invariant_dimension_bruteforce, reynolds_project, require_flavor
from supermolien import shuffle as shuffle_module
from supermolien.shuffle import (
    InvariantSpaceBasis,
    _generation_rank,
    closure_battery,
    degree_one_generation_rank,
    degree_one_pool,
    generation_sweep,
    invariant_basis,
    random_super_polynomial,
    shuffle_product,
    verify_associativity,
    verify_supercommutation,
)
from supermolien.superalgebra import (
    AlgebraSignature,
    SuperMonomial,
    SuperPolynomial,
    bidegree_basis,
    super_mul,
)
from supermolien.verify import SHUFFLE_GROUPS

from molien_reference import (
    apply_wreath,
    build_wreath,
    flat_action,
    flat_labels,
    require_shape,
    shift_rows,
    triple_shuffle,
    wreath_closure,
)
from rational_groups import is_exact, named_group
from row_relabeling import relabel_rows


def mono(sig, xd, th=(), c=1):
    return SuperPolynomial(sig, {SuperMonomial(xd, th): Fraction(c)})


def test_unit_shuffle_is_reindexing():
    sig0 = AlgebraSignature(1, 1, 0)
    sig1 = AlgebraSignature(1, 1, 1)
    one = SuperPolynomial.one(sig0)
    B = SuperPolynomial.x_var(sig1, 1, 1) + SuperPolynomial.theta_var(sig1, 1, 1)
    assert shuffle_product(one, B) == B
    assert shuffle_product(B, one) == B


def test_odd_square_vanishes():
    sig1 = AlgebraSignature(0, 1, 1)
    th = SuperPolynomial.theta_var(sig1, 1, 1)
    assert shuffle_product(th, th).is_zero()


def test_even_square_frozen():
    sig1 = AlgebraSignature(1, 0, 1)
    x = SuperPolynomial.x_var(sig1, 1, 1)
    sig2 = AlgebraSignature(1, 0, 2)
    assert shuffle_product(x, x) == mono(sig2, {(1, 1): 1, (2, 1): 1}, c=2)


def test_signature_mismatch():
    A = SuperPolynomial.one(AlgebraSignature(1, 0, 1))
    B = SuperPolynomial.one(AlgebraSignature(1, 1, 1))
    with pytest.raises(SignatureMismatch):
        shuffle_product(A, B)


SIG2 = AlgebraSignature(1, 1, 2)
SIG4 = AlgebraSignature(1, 1, 4)

# the six displayed summands of (x1^2 x2 th2) against (x1^5 x2^7 th1 th2),
# as (sign, left image, right image) in printed factor order
DISPLAY_22 = [
    (+1, ({(1, 1): 2, (2, 1): 1}, ((2, 1),)), ({(3, 1): 5, (4, 1): 7}, ((3, 1), (4, 1)))),
    (-1, ({(1, 1): 2, (3, 1): 1}, ((3, 1),)), ({(2, 1): 5, (4, 1): 7}, ((2, 1), (4, 1)))),
    (+1, ({(1, 1): 2, (4, 1): 1}, ((4, 1),)), ({(2, 1): 5, (3, 1): 7}, ((2, 1), (3, 1)))),
    (+1, ({(2, 1): 2, (3, 1): 1}, ((3, 1),)), ({(1, 1): 5, (4, 1): 7}, ((1, 1), (4, 1)))),
    (-1, ({(2, 1): 2, (4, 1): 1}, ((4, 1),)), ({(1, 1): 5, (3, 1): 7}, ((1, 1), (3, 1)))),
    (+1, ({(3, 1): 2, (4, 1): 1}, ((4, 1),)), ({(1, 1): 5, (2, 1): 7}, ((1, 1), (2, 1)))),
]


def _display_22_inputs():
    A = mono(SIG2, {(1, 1): 2, (2, 1): 1}, ((2, 1),))
    B = mono(SIG2, {(1, 1): 5, (2, 1): 7}, ((1, 1), (2, 1)))
    return A, B


def test_signed_shuffle_display():
    A, B = _display_22_inputs()
    expected = SuperPolynomial.zero(SIG4)
    for s, (lx, lt), (rx, rt) in DISPLAY_22:
        expected = expected + super_mul(mono(SIG4, lx, lt), mono(SIG4, rx, rt)).scale(s)
    got = shuffle_product(A, B, signed=True)
    assert len(got.terms) == 6
    assert got == expected


def test_unsigned_shuffle_same_summands_all_plus():
    A, B = _display_22_inputs()
    expected = SuperPolynomial.zero(SIG4)
    for _, (lx, lt), (rx, rt) in DISPLAY_22:
        expected = expected + super_mul(mono(SIG4, lx, lt), mono(SIG4, rx, rt))
    assert shuffle_product(A, B, signed=False) == expected


def test_unsigned_shuffle_display_three_even_two_odd():
    # bases x,y,z (columns 1..3) and alpha,beta (columns 1..2)
    s1 = AlgebraSignature(3, 2, 1)
    s2 = AlgebraSignature(3, 2, 2)
    s3 = AlgebraSignature(3, 2, 3)
    A = mono(s1, {(1, 1): 5, (1, 2): 5, (1, 3): 3}, ((1, 1),))
    B = mono(s2, {(1, 3): 1}, ((2, 2),)) + mono(s2, {(2, 3): 1}, ((1, 2),))
    displayed = [
        ({(1, 1): 5, (1, 2): 5, (1, 3): 3, (2, 3): 1}, ((1, 1), (3, 2))),
        ({(1, 1): 5, (1, 2): 5, (1, 3): 3, (3, 3): 1}, ((1, 1), (2, 2))),
        ({(2, 1): 5, (2, 2): 5, (2, 3): 3, (1, 3): 1}, ((2, 1), (3, 2))),
        ({(2, 1): 5, (2, 2): 5, (2, 3): 3, (3, 3): 1}, ((2, 1), (1, 2))),
        ({(3, 1): 5, (3, 2): 5, (3, 3): 3, (1, 3): 1}, ((3, 1), (2, 2))),
        ({(3, 1): 5, (3, 2): 5, (3, 3): 3, (2, 3): 1}, ((3, 1), (1, 2))),
    ]
    expected = SuperPolynomial.zero(s3)
    for xd, (ta, tb) in displayed:
        term = super_mul(
            super_mul(mono(s3, xd), SuperPolynomial.theta_var(s3, *ta)),
            SuperPolynomial.theta_var(s3, *tb),
        )
        expected = expected + term
    got = shuffle_product(A, B)
    assert len(got.terms) == 6
    assert got == expected


def _random_operand(rng, sig):
    """Three random terms with coefficients other than +-1; repeats fold."""
    out = SuperPolynomial.zero(sig)
    for _ in range(3):
        xd = {v: rng.randint(1, 2) for v in sig.even_vars() if rng.random() < 0.5}
        th = sorted(v for v in sig.odd_vars() if rng.random() < 0.4)
        out = out + mono(sig, xd, th, Fraction(rng.choice([-3, -2, 2, 5]), rng.choice([1, 2, 3])))
    return out


@pytest.mark.parametrize("r0, r1", [(1, 1), (2, 2), (0, 2)])
def test_shuffle_product_is_signed_relabel_sum(r0, r1):
    # the sum over shuffle_reps(a, b) of sgn^signed times the reference
    # relabeling of the shifted product: the representatives are not closed
    # under inversion, so this pins sigma against sigma^{-1}, and the sign
    # weight, beyond the two hand-written displays
    rng = random.Random(f"relabel-sum-{r0}-{r1}")
    nonzero = 0
    for a in range(4):
        for b in range(4):
            n = a + b
            A = _random_operand(rng, AlgebraSignature(r0, r1, a))
            B = _random_operand(rng, AlgebraSignature(r0, r1, b))
            core = super_mul(shift_rows(A, 0, n), shift_rows(B, a, n))
            for signed in (False, True):
                expected = SuperPolynomial.zero(core.sig)
                for sigma in shuffle_reps(a, b):
                    term = relabel_rows(sigma, core)
                    expected = expected + (term.scale(sigma.sign) if signed else term)
                got = shuffle_product(A, B, signed)
                assert got == expected
                assert all(is_exact(c) for c in got.terms.values())
                nonzero += not got.is_zero()
    assert nonzero >= 24


@pytest.mark.parametrize("r0, r1", [(1, 1), (0, 2)])
def test_triple_shuffle_is_signed_relabel_sum(r0, r1):
    # the one-shot triple product against a core multiplied out by
    # super_mul from the shifted factors and summed over shuffle_reps(a, b,
    # c) through the reference relabeling, 0-row factors included
    rng = random.Random(f"triple-relabel-sum-{r0}-{r1}")
    nonzero = 0
    for a, b, c in ((1, 1, 1), (0, 1, 2), (1, 0, 1), (2, 1, 0), (1, 2, 1), (0, 0, 2)):
        n = a + b + c
        A, B, C = (_random_operand(rng, AlgebraSignature(r0, r1, k)) for k in (a, b, c))
        core = reduce(super_mul, [shift_rows(A, 0, n), shift_rows(B, a, n), shift_rows(C, a + b, n)])
        for signed in (False, True):
            expected = SuperPolynomial.zero(core.sig)
            for sigma in shuffle_reps(a, b, c):
                term = relabel_rows(sigma, core)
                expected = expected + (term.scale(sigma.sign) if signed else term)
            got = triple_shuffle(A, B, C, signed)
            assert got == expected
            assert all(is_exact(c) for c in got.terms.values())
            nonzero += not got.is_zero()
    assert nonzero >= 8
    one = SuperPolynomial.one(AlgebraSignature(r0, r1, 1))
    other = SuperPolynomial.one(AlgebraSignature(r0 + 1, r1, 1))
    with pytest.raises(SignatureMismatch):
        triple_shuffle(one, one, other)


def test_shuffle_work_is_refused_before_it_starts():
    # 5 + 5 + 5 rows would compile 15! / (5!)^3 labels of 15 rows; 8 + 8
    # rows would compile C(16, 8) labels of 16 rows
    one5 = SuperPolynomial.one(AlgebraSignature(1, 1, 5))
    with pytest.raises(CapExceeded, match=r"\(5, 5, 5\) rows needs 756756 labels of 15 rows, cap is 200000"):
        triple_shuffle(one5, one5, one5)
    one8 = SuperPolynomial.one(AlgebraSignature(1, 1, 8))
    with pytest.raises(CapExceeded, match=r"\(8, 8\) rows needs 12870 labels of 16 rows, cap is 200000"):
        shuffle_product(one8, one8)


def test_reynolds_orbit_average_examples():
    G = MatrixGroup.trivial(0, 1)
    sig = AlgebraSignature(0, 1, 2)
    th1 = SuperPolynomial.theta_var(sig, 1, 1)
    th2 = SuperPolynomial.theta_var(sig, 2, 1)
    inv = GroupAction.from_wreath(PermGroup.symmetric(2), G, 2, flavor="invariant")
    sgn = GroupAction.from_wreath(PermGroup.symmetric(2), G, 2, flavor="antiinvariant")
    assert reynolds_project(inv, th1) == (th1 + th2).scale(Fraction(1, 2))
    assert reynolds_project(sgn, th1) == (th1 - th2).scale(Fraction(1, 2))


def test_invariant_basis_trivial_group_is_monomials():
    action = GroupAction.from_matrix_group(MatrixGroup.trivial(2, 1))
    basis = invariant_basis(action, 2, 1)
    sig = action.signature
    from supermolien.superalgebra import bidegree_basis

    mons = bidegree_basis(sig, 2, 1)
    assert [f for f in basis.elements] == [
        SuperPolynomial.monomial(sig, m) for m in mons
    ]


def test_invariant_basis_exterior_pair():
    G = MatrixGroup.trivial(0, 1)
    sig = AlgebraSignature(0, 1, 2)
    th1 = SuperPolynomial.theta_var(sig, 1, 1)
    th2 = SuperPolynomial.theta_var(sig, 2, 1)
    inv = GroupAction.from_wreath(PermGroup.symmetric(2), G, 2, flavor="invariant")
    sgn = GroupAction.from_wreath(PermGroup.symmetric(2), G, 2, flavor="antiinvariant")
    # the undivided orbit sums, |W| times the projections
    (e,) = invariant_basis(inv, 0, 1).elements
    assert e == th1 + th2
    (o,) = invariant_basis(sgn, 0, 1).elements
    assert o == th1 - th2


def test_invariant_basis_of_integral_group_has_int_coefficients():
    # S_2[S_3 on x] and S_2[S_2 on theta]: the orbit sums of an integral
    # group are kept undivided, so every basis element has int coefficients
    for gname, i, j in (("s3-x", 3, 0), ("s2-theta", 0, 1)):
        G = matrix_group_fixture(gname)
        for flavor in FLAVORS:
            action = GroupAction.from_wreath(PermGroup.symmetric(2), G, 2, flavor=flavor)
            elements = invariant_basis(action, i, j).elements
            assert elements and all(type(c) is int for f in elements for c in f.terms.values())


def test_invariant_basis_dimension_matches_oracle():
    action = GroupAction.from_wreath(
        PermGroup.symmetric(2), matrix_group_fixture("sign-scalar"), 2
    )
    for i in range(4):
        basis = invariant_basis(action, i, 0)
        assert basis.dimension == invariant_dimension_bruteforce(action, i, 0)


def test_invariant_basis_too_large(monkeypatch):
    action = GroupAction.from_matrix_group(MatrixGroup.trivial(3, 0))
    monkeypatch.setattr(molien, "DEFAULT_BASIS_LIMIT", 3)
    with pytest.raises(BasisTooLarge, match=r"^bidegree \(4, 0\) basis on 1 row of \(3, 0\) has 15 monomials, limit 3$"):
        invariant_basis(action, 4, 0)


def test_verify_closure_examples():
    # shuffles of (anti)invariants of the trivial group on one theta per
    # row are fixed by the generator labels of their row count
    G = MatrixGroup.trivial(0, 1)
    sig2 = AlgebraSignature(0, 1, 2)
    th1 = SuperPolynomial.theta_var(sig2, 1, 1)
    th2 = SuperPolynomial.theta_var(sig2, 2, 1)
    b = SuperPolynomial.theta_var(AlgebraSignature(0, 1, 1), 1, 1)
    one0 = SuperPolynomial.one(AlgebraSignature(0, 1, 0))
    for A, B, flavor in ((one0, one0, "invariant"), (th1 + th2, b, "invariant"), (th1 - th2, b, "antiinvariant")):
        signed = require_flavor(flavor)
        a, n = A.sig.n, A.sig.n + B.sig.n
        labels = {k: shuffle_module._wreath_generator_labels(k, G, signed) for k in {a, B.sig.n, n}}
        assert shuffle_module._fixed_by(A, labels[a], A.sig) and shuffle_module._fixed_by(B, labels[B.sig.n], B.sig)
        prod = shuffle_product(A, B, signed)
        assert prod.sig == AlgebraSignature(0, 1, n) and shuffle_module._fixed_by(prod, labels[n], prod.sig)


def test_verify_closure_rejects_noninvariant_input():
    # theta[1,1] on two rows goes to theta[2,1] under the row swap, so it is
    # neither invariant nor antiinvariant: the generator labels of either
    # flavor refuse it as a closure input
    G = MatrixGroup.trivial(0, 1)
    th1 = SuperPolynomial.theta_var(AlgebraSignature(0, 1, 2), 1, 1)
    for flavor in FLAVORS:
        labels = shuffle_module._wreath_generator_labels(2, G, require_flavor(flavor))
        assert not shuffle_module._fixed_by(th1, labels, th1.sig)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_invariance_checks_refuse_a_foreign_signature(flavor):
    # G acts on (0, 1) variables and f lives on (1, 1): one signature
    # compare refuses f, before any label is applied
    G = MatrixGroup.trivial(0, 1)
    sig2 = AlgebraSignature(1, 1, 2)
    f = SuperPolynomial.theta_var(sig2, 1, 1) + SuperPolynomial.theta_var(sig2, 2, 1)
    generators = shuffle_module._wreath_generator_labels(2, G, require_flavor(flavor))
    with pytest.raises(SignatureMismatch):
        shuffle_module._fixed_by(f, generators, AlgebraSignature(0, 1, 2))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_generator_pairs_are_pairs_of_the_wreath_action(flavor):
    # each generator of S_3[+-1] is a label of the action from_wreath
    # makes, with the weight that action gives its sigma
    signed = require_flavor(flavor)
    G = named_group("sign-scalar")
    generators = shuffle_module._wreath_generator_labels(3, G, signed)
    action = GroupAction.from_wreath(PermGroup.symmetric(3), G, 3, flavor)
    assert len(generators) == 2 + len(G.generators)
    assert set(generators) <= set(flat_labels(action).pairs)
    assert set(generators) <= set(flat_action(PermGroup.symmetric(3), G, 3, flavor).pairs)
    assert {weight for weight, _ in generators} == ({1, -1} if signed else {1})


@pytest.mark.parametrize("gname", ["sign-scalar", "s2-theta"])
def test_generator_labels_generate_the_wreath_labels(gname):
    # G's generators in row 1 only, with S_3's generators, close to every
    # label of S_3[G]: the n-cycle carries row 1 to the other rows
    G = named_group(gname)
    generators = [w for _, w in shuffle_module._wreath_generator_labels(3, G, False)]
    identity = WreathElement(Permutation.identity(3), (G.elements[G.identity_index],) * 3)
    assert wreath_closure(generators, identity) == set(build_wreath(PermGroup.symmetric(3), G, 3))


@pytest.mark.parametrize("flavor", FLAVORS)
def test_product_that_is_not_invariant_still_fails(flavor):
    # x times an invariant of S_2[+-1], shuffled onto 3 rows, is symmetric
    # in the rows but odd in x: only G's generator, in row 1, sees it fail,
    # as every label of S_3[+-1] does
    signed = require_flavor(flavor)
    G = named_group("sign-scalar")
    A = SuperPolynomial.x_var(AlgebraSignature(G.r0, G.r1, 1), 1, 1)
    B = invariant_basis(GroupAction.from_wreath(PermGroup.symmetric(2), G, 2, flavor), 2, 0).elements[0]
    prod = shuffle_product(A, B, signed)
    labels = shuffle_module._wreath_generator_labels(3, G, signed)
    action = flat_action(PermGroup.symmetric(3), G, 3, flavor)
    assert not shuffle_module._fixed_by(prod, labels, action.signature)
    assert not all(apply_wreath(w, prod).scale(chi) == prod for chi, w in action.pairs)
    assert all(apply_wreath(w, prod).scale(chi) == prod for chi, w in labels if w.sigma != Permutation.identity(3))


@pytest.mark.parametrize("signed", [False, True])
def test_cached_coset_action_makes_no_shape_check(monkeypatch, signed):
    # the six coset labels of (2, 2) row blocks are built and compiled,
    # their shapes checked, by the first product, the signed pairs
    # reweighting the unsigned ones' labels; a product over the cached
    # pairs builds and compiles none
    built, compiled = [], []
    post_init, compile_label = WreathElement.__post_init__, WreathElement.substitution.method

    def counted_init(self):
        built.append(self)
        post_init(self)

    def substitution(self):
        compiled.append(self)
        return compile_label(self)

    monkeypatch.setattr(WreathElement, "__post_init__", counted_init)
    monkeypatch.setattr(WreathElement, "substitution", groups.once(substitution))
    shuffle_module._coset_labels.cache_clear()
    A, B = _display_22_inputs()
    first = shuffle_product(A, B, signed)
    assert len(built) == len(compiled) == 6
    for w in built:
        require_shape(w, SIG4)
    built.clear()
    compiled.clear()
    assert shuffle_product(A, B, signed) == first
    assert built == compiled == []


# (checked, failed) of closure_battery(G, flavor, max_rows=4, max_i=4) for
# each shuffle group.  checked is a sum of products of invariant-space
# dimensions, so a sweep that drops or repeats pairs changes it.
CLOSURE_COUNTS = {
    ("trivial-1-1", "invariant"): (1012, 0),
    ("trivial-1-1", "antiinvariant"): (1012, 0),
    ("trivial-1-0", "invariant"): (139, 0),
    ("trivial-1-0", "antiinvariant"): (55, 0),
    ("trivial-0-1", "invariant"): (24, 0),
    ("trivial-0-1", "antiinvariant"): (24, 0),
    ("sign-scalar", "invariant"): (42, 0),
    ("sign-scalar", "antiinvariant"): (13, 0),
}


@pytest.mark.parametrize("gname", SHUFFLE_GROUPS)
@pytest.mark.parametrize("flavor", FLAVORS)
def test_closure_battery_small(gname, flavor):
    counts = closure_battery(matrix_group_fixture(gname), flavor, max_rows=4, max_i=4)
    assert counts == CLOSURE_COUNTS[(gname, flavor)]


def test_closure_battery_builds_one_action_per_row_count(monkeypatch):
    # factors live on 1..3 rows for max_rows = 4; every bidegree of a row
    # count shares its action, so its labels are compiled once
    built = []
    from_wreath = GroupAction.from_wreath

    def counted(P, G, n, flavor="invariant"):
        built.append(n)
        return from_wreath(P, G, n, flavor)

    monkeypatch.setattr(shuffle_module.GroupAction, "from_wreath", staticmethod(counted))
    counts = closure_battery(matrix_group_fixture("sign-scalar"), "invariant", max_rows=4, max_i=4)
    assert counts == CLOSURE_COUNTS[("sign-scalar", "invariant")]
    assert sorted(built) == [1, 2, 3]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_closure_battery_rejects_noninvariant_basis_element(monkeypatch, flavor):
    # x -> -x under sign-scalar, so x[1,1] is neither invariant nor
    # antiinvariant on one row
    G = matrix_group_fixture("sign-scalar")

    def fake_basis(action, i, j):
        x = SuperPolynomial.x_var(action.signature, 1, 1)
        return InvariantSpaceBasis(action, i, j, (x,))

    monkeypatch.setattr(shuffle_module, "invariant_basis", fake_basis)
    with pytest.raises(ValueError, match="not " + flavor):
        closure_battery(G, flavor, max_rows=2, max_i=1)


def test_associativity_unit_and_seeded():
    sig1 = AlgebraSignature(1, 1, 1)
    x = SuperPolynomial.x_var(sig1, 1, 1)
    one0 = SuperPolynomial.one(AlgebraSignature(1, 1, 0))
    assert verify_associativity(x, one0, x, signed=False)
    rng = random.Random(42)
    for _ in range(12):
        rows = [rng.randint(1, 2) for _ in range(3)]
        while sum(rows) > 4:
            rows[rng.randrange(3)] = 1
        A, B, C = (
            random_super_polynomial(rng, AlgebraSignature(1, 1, r)) for r in rows
        )
        for signed in (False, True):
            assert verify_associativity(A, B, C, signed)
            left = shuffle_product(shuffle_product(A, B, signed), C, signed)
            assert left == triple_shuffle(A, B, C, signed)
    # invariant one-row elements on even-only and odd-only signatures
    for gname in ("trivial-1-0", "trivial-0-1", "sign-scalar"):
        sample = [f for _, f in degree_one_pool(matrix_group_fixture(gname), 2)][:3]
        for A, B, C in itertools.product(sample, repeat=3):
            for signed in (False, True):
                assert verify_associativity(A, B, C, signed)
    # three blocks of 3 rows: 1,680 coset labels, where a filter over all 9!
    # permutations of the rows would pass WREATH_CAP
    A, B, C = (random_super_polynomial(rng, AlgebraSignature(1, 1, 3)) for _ in range(3))
    for signed in (False, True):
        left = shuffle_product(shuffle_product(A, B, signed), C, signed)
        assert not left.is_zero()
        assert left == triple_shuffle(A, B, C, signed)


def test_supercommutation_parity_table_one_column():
    sig1 = AlgebraSignature(1, 1, 1)
    x = SuperPolynomial.x_var(sig1, 1, 1)
    th = SuperPolynomial.theta_var(sig1, 1, 1)
    xth = super_mul(x, th)
    x2 = super_mul(x, x)
    evens = [x, x2]
    odds = [th, xth]
    for A in evens + odds:
        for B in evens + odds:
            assert verify_supercommutation(A, B, signed=False)
            assert verify_supercommutation(A, B, signed=True)


def test_supercommutation_parity_table_two_columns():
    sig1 = AlgebraSignature(2, 2, 1)
    x1 = SuperPolynomial.x_var(sig1, 1, 1)
    x2 = SuperPolynomial.x_var(sig1, 1, 2)
    t1 = SuperPolynomial.theta_var(sig1, 1, 1)
    t2 = SuperPolynomial.theta_var(sig1, 1, 2)
    samples = [x1, super_mul(x1, x2), t1, super_mul(t1, t2), super_mul(x2, t1)]
    for A in samples:
        for B in samples:
            assert verify_supercommutation(A, B, signed=False)
            assert verify_supercommutation(A, B, signed=True)


def test_supercommutation_signs_are_sharp():
    # theta against theta: unsigned anticommute, signed commute; odd squares
    # vanish on both sides, so test distinct columns
    sig1 = AlgebraSignature(0, 2, 1)
    t1 = SuperPolynomial.theta_var(sig1, 1, 1)
    t2 = SuperPolynomial.theta_var(sig1, 1, 2)
    assert shuffle_product(t1, t2) == shuffle_product(t2, t1).scale(-1)
    assert shuffle_product(t1, t2, signed=True) == shuffle_product(t2, t1, signed=True)


def test_supercommutation_requires_homogeneous():
    sig1 = AlgebraSignature(1, 1, 1)
    mixed = SuperPolynomial.x_var(sig1, 1, 1) + SuperPolynomial.theta_var(sig1, 1, 1)
    with pytest.raises(NotHomogeneous):
        verify_supercommutation(mixed, mixed)


def test_supercommutation_requires_one_row():
    sig2 = AlgebraSignature(1, 0, 2)
    f = SuperPolynomial.x_var(sig2, 1, 1)
    with pytest.raises(ValueError):
        verify_supercommutation(f, f)


def test_generation_rank_examples():
    assert degree_one_generation_rank(MatrixGroup.trivial(0, 1), "invariant", 2, 0, 1) == (1, 1)
    assert degree_one_generation_rank(MatrixGroup.trivial(1, 0), "invariant", 2, 2, 0) == (2, 2)
    assert degree_one_generation_rank(MatrixGroup.trivial(1, 1), "invariant", 1, 3, 1) == (1, 1)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_generation_rank_sign_scalar(flavor):
    G = matrix_group_fixture("sign-scalar")
    for n in (1, 2):
        for i in range(5):
            spanned, full = degree_one_generation_rank(G, flavor, n, i, 0)
            assert spanned == full
    # the sweep shares one pool up to i = 4 and gives the per-bidegree ranks
    sweep = generation_sweep(G, flavor, 2, 4)
    assert sweep == [
        (n, i, j, *degree_one_generation_rank(G, flavor, n, i, j))
        for n in (1, 2)
        for i in range(5)
        for j in range(n * G.r1 + 1)
    ]


def test_generation_rank_builds_each_cell_basis_once(monkeypatch):
    # one bidegree basis per (n, i, j) cell, through whichever module
    # namespace it is called: the projector rows' basis is the one the
    # products are indexed by, and full is the rank of those rows
    G = matrix_group_fixture("sign-scalar")
    pool = degree_one_pool(G, 3)
    cells = []
    for flavor in molien.FLAVORS:
        for n in (1, 2, 3):
            waction = GroupAction.from_wreath(PermGroup.symmetric(n), G, n, flavor)
            for i in range(4):
                cells.append((waction, flavor, i, invariant_dimension_bruteforce(waction, i, 0)))
    calls = []
    original = superalgebra.bidegree_basis

    def counted(sig, i, j):
        calls.append((sig.n, i, j))
        return original(sig, i, j)

    for module in (molien, shuffle_module, superalgebra):
        if hasattr(module, "bidegree_basis"):
            monkeypatch.setattr(module, "bidegree_basis", counted)
    for waction, flavor, i, full in cells:
        calls.clear()
        assert _generation_rank(pool, waction, require_flavor(flavor), i, 0) == (full, full)
        assert calls == [(waction.signature.n, i, 0)]


def test_even_only_shuffle_commutes_on_invariants():
    # commutativity of the plain shuffle when no anticommuting variables exist,
    # sampled over projected pairs
    rng = random.Random(7)
    G = MatrixGroup.trivial(2, 0)
    for _ in range(8):
        a, b = rng.choice([(1, 1), (1, 2), (2, 2)])
        A = random_super_polynomial(rng, AlgebraSignature(2, 0, a))
        B = random_super_polynomial(rng, AlgebraSignature(2, 0, b))
        A = reynolds_project(GroupAction.from_wreath(PermGroup.symmetric(a), G, a), A)
        B = reynolds_project(GroupAction.from_wreath(PermGroup.symmetric(b), G, b), B)
        assert shuffle_product(A, B) == shuffle_product(B, A)


def test_random_super_polynomial_deterministic():
    sig = AlgebraSignature(1, 1, 2)
    a = random_super_polynomial(random.Random(5), sig)
    b = random_super_polynomial(random.Random(5), sig)
    assert a == b


def test_is_wreath_invariant_detects_twist():
    G = MatrixGroup.trivial(0, 1)
    sig = AlgebraSignature(0, 1, 2)
    th1 = SuperPolynomial.theta_var(sig, 1, 1)
    th2 = SuperPolynomial.theta_var(sig, 2, 1)
    plain, signed = (shuffle_module._wreath_generator_labels(2, G, s) for s in (False, True))
    assert shuffle_module._fixed_by(th1 + th2, plain, sig)
    assert not shuffle_module._fixed_by(th1 + th2, signed, sig)
    assert shuffle_module._fixed_by(th1 - th2, signed, sig)
    assert not shuffle_module._fixed_by(th1 - th2, plain, sig)


@pytest.mark.parametrize("gname", ["trivial-1-1", "sign-scalar", "s2-theta", "young-2-1-theta", "scaled-swap", "rational-s3"])
def test_fixed_by_equals_polynomial_equality(gname):
    # the term-map test against weight * (w.f) == f as polynomials, on
    # invariant basis elements and on them nudged by a monomial of their
    # bidegree, for both flavors on one and two rows
    G = named_group(gname)
    rng = random.Random(f"fixed-by-{gname}")
    outcomes = set()
    for n in (1, 2):
        for flavor in FLAVORS:
            generators = shuffle_module._wreath_generator_labels(n, G, require_flavor(flavor))
            action = GroupAction.from_wreath(PermGroup.symmetric(n), G, n, flavor)
            sig = action.signature
            for i in range(3):
                for j in range(min(2, sig.num_odd) + 1):
                    basis = bidegree_basis(sig, i, j)
                    for f in invariant_basis(action, i, j).elements:
                        nudge = SuperPolynomial.monomial(sig, rng.choice(basis), rng.choice([1, Fraction(-1, 2)]))
                        for g in (f, f + nudge, nudge):
                            expected = all(apply_wreath(w, g).scale(weight) == g for weight, w in generators)
                            assert shuffle_module._fixed_by(g, generators, sig) == expected
                            outcomes.add(expected)
    assert outcomes == {True, False}

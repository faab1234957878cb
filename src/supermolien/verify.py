"""Named verification suites covering every identity the package computes.

Each suite is a generator function of the seed that yields one
(name, fields) pair per check: a stable slug name, then the check's
fields, led by its boolean "pass" and followed by whatever counts make a
failure diagnosable.  One table maps each suite name to its generator,
in report order; SUITES is derived from it, and run_suite is the one
place that turns a pair into a report entry.  A counted check, one that
runs many cases, reports how many it checked and how many failed, and
passes only when none failed and at least one was checked.  Randomized
checks draw from a generator seeded from the reported seed, so any
failure is replayable.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Iterator

from .fixtures import PERM_GROUP_FIXTURES, matrix_group_fixture, perm_group_fixture
from .groups import MatrixGroup, PermGroup, perm_group_of_wreath, sign_character
from .linalg import QMatrix
from .molien import FLAVORS, GroupAction, molien_vs_oracle, super_molien
from .series import Caps, TrigradedSeries, series_add, series_inv, series_mul, series_pow_int, series_sub
from .shuffle import (
    closure_battery,
    generation_sweep,
    random_super_polynomial,
    shuffle_product,
    verify_associativity,
    verify_supercommutation,
)
from .superalgebra import AlgebraSignature, SuperMonomial, SuperPolynomial, super_mul
from .symfunc import SymFuncPoly, cycle_index, hn_en, omega, plethystic_compose
from .wreath_series import (
    CollationSpec,
    check_collation,
    check_superspace,
    check_wreath_routes,
    collated_product_series,
    superspace_single_n_product,
    verify_block_determinant_lemma,
    verify_m_cycle_identity,
    wreath_hilbert_direct,
    young_exterior_product,
)

MOLIEN_FIXTURES = (
    "trivial-1-0",
    "trivial-0-1",
    "trivial-1-1",
    "trivial-2-2",
    "trivial-3-2",
    "sign-scalar",
    "s2-x",
    "s3-x",
    "s2-theta",
    "s3-theta",
    "young-2-1-theta",
)

WREATH_ROUTE_CASES = (
    ("s2", "sign-scalar", 2),
    ("s3", "sign-scalar", 3),
    ("s2", "s2-theta", 2),
    ("c3", "trivial-1-1", 3),
)

COLLATE_GROUPS = ("trivial-1-1", "sign-scalar", "young-2-1-theta")

SHUFFLE_GROUPS = ("trivial-1-1", "trivial-1-0", "trivial-0-1", "sign-scalar")

Checks = Iterator[tuple[str, dict]]


def _tally(results: Iterable[bool]) -> tuple[int, int]:
    """(checked, failed) over the outcomes of a counted check's cases."""
    outcomes = list(results)
    return len(outcomes), sum(not ok for ok in outcomes)


def _counted(checked: int, failed: int) -> dict:
    """The fields of a counted check: it passes when no case failed and at
    least one case was checked."""
    return {"pass": failed == 0 and checked > 0, "checked": checked, "failed": failed}


def _molien_checks(seed: int) -> Checks:
    for name in MOLIEN_FIXTURES:
        action = GroupAction.from_matrix_group(matrix_group_fixture(name))
        rep = molien_vs_oracle(action, 6)
        yield f"molien-oracle-{name}", {
            "pass": not rep["mismatches"],
            "agreements": rep["agreements"],
            "mismatches": len(rep["mismatches"]),
        }


def _wreath_checks(seed: int) -> Checks:
    for pname, gname, n in WREATH_ROUTE_CASES:
        P = perm_group_fixture(pname)
        G = matrix_group_fixture(gname)
        for flavor in FLAVORS:
            rep = check_wreath_routes(P, G, n, flavor, 8)
            yield f"wreath-routes-{pname}-{gname}-n{n}-{flavor}", {
                "pass": rep["match"],
                "caps": rep["caps"],
            }


def _young_21_closed_form(n_max: int, du: int) -> TrigradedSeries:
    caps = Caps(n_max, 0, du)
    one = TrigradedSeries.one(caps)
    tu = TrigradedSeries.monomial(caps, (1, 0, 1))
    t = TrigradedSeries.monomial(caps, (1, 0, 0))
    tu2 = TrigradedSeries.monomial(caps, (1, 0, 2))
    return series_mul(
        series_pow_int(series_add(one, tu), 2),
        series_inv(series_mul(series_sub(one, t), series_sub(one, tu2))),
    )


def _collate_checks(seed: int) -> Checks:
    for gname in COLLATE_GROUPS:
        G = matrix_group_fixture(gname)
        for flavor in FLAVORS:
            spec = CollationSpec(group=G, n_max=3, dq=6, du=max(1, 3 * G.r1), flavor=flavor)
            rep = check_collation(spec)
            yield f"collate-{gname}-{flavor}", {"pass": rep["match"], "caps": rep["caps"]}
    got21 = collated_product_series(
        CollationSpec(matrix_group_fixture("young-2-1-theta"), 3, 0, 9)
    )
    got12 = collated_product_series(
        CollationSpec(matrix_group_fixture("young-1-2-theta"), 3, 0, 9)
    )
    yield "young-collation-21-closed-form", {"pass": got21 == _young_21_closed_form(3, 9)}
    yield "young-collation-length-only", {"pass": got21 == got12}
    got3 = collated_product_series(CollationSpec(matrix_group_fixture("young-3-theta"), 3, 0, 9))
    yield "young-collation-single-block", {"pass": got3 == young_exterior_product(1, 3, 9)}


def _mono(sig: AlgebraSignature, xd, th=(), c=1) -> SuperPolynomial:
    return SuperPolynomial(sig, {SuperMonomial(xd, th): Fraction(c)})


def display_signed_22_factors() -> tuple[SuperPolynomial, SuperPolynomial]:
    """The factors x1^2 x2 th2 and x1^5 x2^7 th1 th2 of the signed display."""
    sig2 = AlgebraSignature(1, 1, 2)
    return (
        _mono(sig2, {(1, 1): 2, (2, 1): 1}, ((2, 1),)),
        _mono(sig2, {(1, 1): 5, (2, 1): 7}, ((1, 1), (2, 1))),
    )


def display_unsigned_12_factors() -> tuple[SuperPolynomial, SuperPolynomial]:
    """The one-row and two-row factors of the one-into-two display."""
    s1 = AlgebraSignature(3, 2, 1)
    s2 = AlgebraSignature(3, 2, 2)
    return (
        _mono(s1, {(1, 1): 5, (1, 2): 5, (1, 3): 3}, ((1, 1),)),
        _mono(s2, {(1, 3): 1}, ((2, 2),)) + _mono(s2, {(2, 3): 1}, ((1, 2),)),
    )


def check_display_signed_22() -> bool:
    """The six signed summands of (x1^2 x2 th2) shuffled with (x1^5 x2^7 th1 th2)."""
    sig4 = AlgebraSignature(1, 1, 4)
    A, B = display_signed_22_factors()
    displayed = [
        (+1, ({(1, 1): 2, (2, 1): 1}, ((2, 1),)), ({(3, 1): 5, (4, 1): 7}, ((3, 1), (4, 1)))),
        (-1, ({(1, 1): 2, (3, 1): 1}, ((3, 1),)), ({(2, 1): 5, (4, 1): 7}, ((2, 1), (4, 1)))),
        (+1, ({(1, 1): 2, (4, 1): 1}, ((4, 1),)), ({(2, 1): 5, (3, 1): 7}, ((2, 1), (3, 1)))),
        (+1, ({(2, 1): 2, (3, 1): 1}, ((3, 1),)), ({(1, 1): 5, (4, 1): 7}, ((1, 1), (4, 1)))),
        (-1, ({(2, 1): 2, (4, 1): 1}, ((4, 1),)), ({(1, 1): 5, (3, 1): 7}, ((1, 1), (3, 1)))),
        (+1, ({(3, 1): 2, (4, 1): 1}, ((4, 1),)), ({(1, 1): 5, (2, 1): 7}, ((1, 1), (2, 1)))),
    ]
    signed_expected = SuperPolynomial.zero(sig4)
    plain_expected = SuperPolynomial.zero(sig4)
    for s, (lx, lt), (rx, rt) in displayed:
        term = super_mul(_mono(sig4, lx, lt), _mono(sig4, rx, rt))
        signed_expected = signed_expected + term.scale(s)
        plain_expected = plain_expected + term
    return (
        shuffle_product(A, B, signed=True) == signed_expected
        and shuffle_product(A, B, signed=False) == plain_expected
    )


def check_display_unsigned_12() -> bool:
    """The six summands of the one-into-two shuffle over three even and two
    odd columns."""
    s3 = AlgebraSignature(3, 2, 3)
    A, B = display_unsigned_12_factors()
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
        expected = expected + super_mul(
            super_mul(_mono(s3, xd), SuperPolynomial.theta_var(s3, *ta)),
            SuperPolynomial.theta_var(s3, *tb),
        )
    return shuffle_product(A, B) == expected


def _supercommutation_table(r0: int, r1: int) -> tuple[int, int]:
    """All parity pairs from a fixed sample set; returns (checked, failed)."""
    sig = AlgebraSignature(r0, r1, 1)
    samples = [SuperPolynomial.one(sig)]
    for col in range(1, r0 + 1):
        x = SuperPolynomial.x_var(sig, 1, col)
        samples += [x, super_mul(x, x)]
    for col in range(1, r1 + 1):
        samples.append(SuperPolynomial.theta_var(sig, 1, col))
    if r0 >= 1 and r1 >= 1:
        samples.append(
            super_mul(SuperPolynomial.x_var(sig, 1, 1), SuperPolynomial.theta_var(sig, 1, 1))
        )
    if r1 >= 2:
        samples.append(
            super_mul(SuperPolynomial.theta_var(sig, 1, 1), SuperPolynomial.theta_var(sig, 1, 2))
        )
    return _tally(
        verify_supercommutation(A, B, signed)
        for A in samples
        for B in samples
        for signed in (False, True)
    )


def _seeded_associativity(seed: int, cases: int) -> tuple[int, int]:
    rng = random.Random(seed)
    shapes = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)]
    triples = []
    for _ in range(cases):
        a, b, c = rng.choice(shapes)
        A = random_super_polynomial(rng, AlgebraSignature(1, 1, a))
        B = random_super_polynomial(rng, AlgebraSignature(1, 1, b))
        C = random_super_polynomial(rng, AlgebraSignature(1, 1, c))
        triples.append((A, B, C))
    return _tally(
        verify_associativity(A, B, C, signed) for A, B, C in triples for signed in (False, True)
    )


def _shuffle_checks(seed: int) -> Checks:
    for gname in SHUFFLE_GROUPS:
        G = matrix_group_fixture(gname)
        for flavor in FLAVORS:
            yield f"shuffle-closure-{gname}-{flavor}", _counted(
                *closure_battery(G, flavor, max_rows=4, max_i=4)
            )
    for gname in SHUFFLE_GROUPS:
        G = matrix_group_fixture(gname)
        for flavor in FLAVORS:
            ranks = generation_sweep(G, flavor, 3, 4)
            yield f"shuffle-generation-{gname}-{flavor}", {
                "pass": all(spanned == full for *_, spanned, full in ranks),
                "bidegrees": len(ranks),
            }
    yield "shuffle-associativity-seeded", _counted(*_seeded_associativity(seed, 30))
    for r0, r1 in ((1, 1), (2, 2)):
        yield f"shuffle-supercommutation-{r0}-{r1}", _counted(*_supercommutation_table(r0, r1))
    yield "shuffle-display-signed-2-2", {"pass": check_display_signed_22()}
    yield "shuffle-display-unsigned-1-2", {"pass": check_display_unsigned_12()}


def _seeded_block_lemma(seed: int, cases: int) -> tuple[int, int]:
    rng = random.Random(seed)
    draws = []
    for _ in range(cases):
        r = rng.randint(1, 3)
        m = rng.randint(1, 4)
        blocks = [
            QMatrix.from_rows(
                [
                    [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2])) for _ in range(r)]
                    for _ in range(r)
                ]
            )
            for _ in range(m)
        ]
        draws.append(blocks)
    return _tally(map(verify_block_determinant_lemma, draws))


def _identity_checks(seed: int) -> Checks:
    # superspace: direct, product, and q-binomial routes
    for flavor in FLAVORS:
        rep = check_superspace(3, 8, flavor)
        yield f"superspace-three-routes-{flavor}", {"pass": rep["match"], "caps": rep["caps"]}
        ok = True
        for n in (1, 2, 3):
            direct = wreath_hilbert_direct(
                PermGroup.symmetric(n), MatrixGroup.trivial(1, 1), n, flavor, 8
            )
            if direct != superspace_single_n_product(n, 8, flavor):
                ok = False
        yield f"superspace-per-n-closed-form-{flavor}", {"pass": ok}
    # diagonally symmetric multiplicities: multichoose(r0,i) * binom(r1,j)
    for r0, r1 in ((1, 1), (2, 1), (2, 2)):
        hg = super_molien(GroupAction.from_matrix_group(MatrixGroup.trivial(r0, r1)), 6)
        ok = True
        for i in range(7):
            for j in range(r1 + 1):
                expected = math.comb(r0 + i - 1, i) * math.comb(r1, j)
                if hg.coefficient((0, i, j)) != expected:
                    ok = False
        yield f"diagonal-multiplicities-{r0}-{r1}", {"pass": ok}
    # cyclic block determinant identity, seeded
    yield "block-determinant-seeded", _counted(*_seeded_block_lemma(seed, 50))
    for gname, m in (("sign-scalar", 2), ("sign-scalar", 3), ("s2-theta", 2)):
        ok = verify_m_cycle_identity(matrix_group_fixture(gname), m, 6)
        yield f"m-cycle-{gname}-m{m}", {"pass": ok}
    # omega swaps the plain and signed cycle indices
    ok = all(
        omega(cycle_index(P)) == cycle_index(P, sign_character(P))
        for P in map(perm_group_fixture, PERM_GROUP_FIXTURES)
    )
    yield "omega-duality-fixtures", {"pass": ok}
    # alternating elementary-vs-complete cancellation
    ok = True
    for n in range(1, 6):
        total = None
        for k in range(n + 1):
            term = hn_en(k, "e").scale((-1) ** k) * hn_en(n - k, "h")
            total = term if total is None else total + term
        if total != SymFuncPoly.zero():
            ok = False
    yield "eh-alternating-cancellation", {"pass": ok}
    # cycle index of a wreath product is the plethysm of cycle indices
    for pname, gname, order in (("s2", "s2", 8), ("s2", "s3", 72), ("s3", "s2", 48)):
        P = perm_group_fixture(pname)
        Gp = perm_group_fixture(gname)
        W = perm_group_of_wreath(P, Gp, P.n)
        ok = W.order == order and cycle_index(W) == plethystic_compose(
            cycle_index(P), cycle_index(Gp)
        )
        yield f"polya-compose-{pname}-{gname}", {"pass": ok, "order": W.order}


# Every suite in report order; "all" runs them in this order.
_SUITE_CHECKS = {
    "molien": _molien_checks,
    "wreath": _wreath_checks,
    "collate": _collate_checks,
    "shuffle": _shuffle_checks,
    "identities": _identity_checks,
}

SUITES = (*_SUITE_CHECKS, "all")


def run_suite(suite: str, seed: int = 42) -> dict:
    """Run one named suite (or all of them) and return the report dict."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    names = _SUITE_CHECKS if suite == "all" else (suite,)
    checks = [{"name": name, **fields} for s in names for name, fields in _SUITE_CHECKS[s](seed)]
    passed = sum(1 for c in checks if c["pass"])
    return {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "passed": passed,
        "failed": len(checks) - passed,
    }

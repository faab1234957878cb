"""Acceptance gate: the nine headline checks, one pass/fail line each.

Every comparison is exact rational equality.  Run with -s to watch the
lines print; each test also hard-asserts so the suite fails loudly.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

from supermolien.fixtures import PERM_GROUP_FIXTURES, matrix_group_fixture, perm_group_fixture
from supermolien.groups import MatrixGroup, PermGroup, perm_group_of_wreath
from supermolien.molien import GroupAction, molien_vs_oracle
from supermolien.series import Caps, TrigradedSeries, series_add, series_inv, series_mul, series_pow_int, series_sub
from supermolien.shuffle import closure_battery, degree_one_generation_rank
from supermolien.symfunc import SymFuncPoly, cycle_index, hn_en, omega, plethystic_compose
from test_shuffle import CLOSURE_COUNTS
from supermolien.verify import (
    _seeded_associativity,
    _seeded_block_lemma,
    _supercommutation_table,
    check_display_signed_22,
    check_display_unsigned_12,
)
from supermolien.wreath_series import (
    CollationSpec,
    check_collation,
    check_superspace,
    check_wreath_routes,
    collated_product_series,
    superspace_single_n_product,
    verify_m_cycle_identity,
    wreath_hilbert_direct,
)


def _report(num: int, label: str, ok: bool):
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_molien_vs_oracle():
    fixtures = (
        "trivial-1-0", "trivial-0-1", "trivial-1-1", "trivial-2-2", "trivial-3-2",
        "sign-scalar", "s2-x", "s3-x", "s2-theta", "s3-theta", "young-2-1-theta",
    )
    ok = True
    for name in fixtures:
        action = GroupAction.from_matrix_group(matrix_group_fixture(name))
        if molien_vs_oracle(action, 6)["mismatches"]:
            ok = False
    _report(1, "molien coefficients equal brute-force ranks", ok)


def test_criterion_2_two_routes_to_wreath_series():
    cases = (
        ("s2", "sign-scalar", 2),
        ("s3", "sign-scalar", 3),
        ("s2", "s2-theta", 2),
        ("c3", "trivial-1-1", 3),
    )
    ok = True
    for pname, gname, n in cases:
        for flavor in ("invariant", "antiinvariant"):
            rep = check_wreath_routes(
                perm_group_fixture(pname), matrix_group_fixture(gname), n, flavor, 8
            )
            if not rep["match"]:
                ok = False
    _report(2, "direct and plethysm routes agree at dq=8", ok)


def test_criterion_3_collation_sum_equals_product():
    ok = True
    for gname in ("trivial-1-1", "sign-scalar", "young-2-1-theta"):
        G = matrix_group_fixture(gname)
        for flavor in ("invariant", "antiinvariant"):
            spec = CollationSpec(group=G, n_max=3, dq=6, du=max(1, 3 * G.r1), flavor=flavor)
            if not check_collation(spec)["match"]:
                ok = False
    _report(3, "collated sum equals collated product at N=3 dq=6", ok)


def test_criterion_4_young_collation_closed_form():
    caps = Caps(3, 0, 9)
    one = TrigradedSeries.one(caps)
    t = TrigradedSeries.monomial(caps, (1, 0, 0))
    tu = TrigradedSeries.monomial(caps, (1, 0, 1))
    tu2 = TrigradedSeries.monomial(caps, (1, 0, 2))
    closed = series_mul(
        series_pow_int(series_add(one, tu), 2),
        series_inv(series_mul(series_sub(one, t), series_sub(one, tu2))),
    )
    got21 = collated_product_series(
        CollationSpec(matrix_group_fixture("young-2-1-theta"), 3, 0, 9)
    )
    got12 = collated_product_series(
        CollationSpec(matrix_group_fixture("young-1-2-theta"), 3, 0, 9)
    )
    _report(4, "two-block series is (1+tu)^2/((1-t)(1-tu^2)), length-only", got21 == closed and got12 == got21)


def test_criterion_5_superspace_three_routes():
    ok = True
    for flavor in ("invariant", "antiinvariant"):
        if not check_superspace(3, 8, flavor)["match"]:
            ok = False
        for n in (2, 3):
            direct = wreath_hilbert_direct(
                PermGroup.symmetric(n), MatrixGroup.trivial(1, 1), n, flavor, 8
            )
            if direct != superspace_single_n_product(n, 8, flavor):
                ok = False
    _report(5, "superspace direct = product = q-binomial at dq=8", ok)


def test_criterion_6_block_determinant_and_m_cycle():
    checked, failed = _seeded_block_lemma(42, 50)
    ok = checked == 50 and failed == 0
    for gname, m in (("sign-scalar", 2), ("sign-scalar", 3), ("s2-theta", 2)):
        if not verify_m_cycle_identity(matrix_group_fixture(gname), m, 6):
            ok = False
    _report(6, "block determinant lemma and m-cycle identity", ok)


def test_criterion_7_shuffle_algebra_battery():
    ok = True
    for gname in ("trivial-1-1", "trivial-1-0", "trivial-0-1", "sign-scalar"):
        G = matrix_group_fixture(gname)
        for flavor in ("invariant", "antiinvariant"):
            if closure_battery(G, flavor, max_rows=4, max_i=4) != CLOSURE_COUNTS[(gname, flavor)]:
                ok = False
            for n in range(1, 4):
                for i in range(5):
                    for j in range(n * G.r1 + 1):
                        spanned, full = degree_one_generation_rank(G, flavor, n, i, j)
                        if spanned != full:
                            ok = False
    checked, failed = _seeded_associativity(42, 30)
    if checked != 60 or failed:
        ok = False
    for r0, r1 in ((1, 1), (2, 2)):
        if _supercommutation_table(r0, r1)[1]:
            ok = False
    if not (check_display_signed_22() and check_display_unsigned_12()):
        ok = False
    _report(7, "closure, associativity, signs, generation, displays", ok)


def test_criterion_8_symmetric_function_identities():
    ok = all(
        omega(cycle_index(perm_group_fixture(p))) == cycle_index(perm_group_fixture(p), "sgn")
        for p in PERM_GROUP_FIXTURES
    )
    for n in range(1, 6):
        total = SymFuncPoly.zero()
        for k in range(n + 1):
            total = total + hn_en(k, "e").scale((-1) ** k) * hn_en(n - k, "h")
        if total != SymFuncPoly.zero():
            ok = False
    for pname, gname, order in (("s2", "s2", 8), ("s2", "s3", 72), ("s3", "s2", 48)):
        P, Gp = perm_group_fixture(pname), perm_group_fixture(gname)
        W = perm_group_of_wreath(P, Gp, P.n)
        if W.order != order:
            ok = False
        if cycle_index(W) != plethystic_compose(cycle_index(P), cycle_index(Gp)):
            ok = False
    _report(8, "omega duality, e-h cancellation, wreath cycle index", ok)


def test_criterion_9_full_verification_run():
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "supermolien", "verify", "--suite", "all", "--seed", "42"],
        capture_output=True,
        text=True,
    )
    elapsed = time.monotonic() - t0
    ok = proc.returncode == 0 and elapsed < 300
    report = json.loads(proc.stdout) if proc.stdout else {}
    checks = report.get("checks", [])
    names = {c["name"] for c in checks}
    if report.get("failed") != 0 or report.get("passed") != len(checks):
        ok = False
    # the report must enumerate every battery above
    expected = {
        "molien-oracle-trivial-1-0", "molien-oracle-trivial-3-2",
        "molien-oracle-young-2-1-theta",
        "wreath-routes-s2-sign-scalar-n2-invariant",
        "wreath-routes-c3-trivial-1-1-n3-antiinvariant",
        "collate-young-2-1-theta-antiinvariant",
        "young-collation-21-closed-form", "young-collation-length-only",
        "superspace-three-routes-invariant", "superspace-per-n-closed-form-antiinvariant",
        "diagonal-multiplicities-2-2",
        "block-determinant-seeded", "m-cycle-s2-theta-m2",
        "shuffle-closure-sign-scalar-antiinvariant",
        "shuffle-generation-trivial-0-1-invariant",
        "shuffle-associativity-seeded", "shuffle-supercommutation-2-2",
        "shuffle-display-signed-2-2", "shuffle-display-unsigned-1-2",
        "omega-duality-fixtures", "eh-alternating-cancellation",
        "polya-compose-s3-s2",
    }
    if not expected <= names:
        ok = False
    if len(checks) < 60:
        ok = False
    _report(9, f"verify --suite all --seed 42 in {elapsed:.0f}s", ok)

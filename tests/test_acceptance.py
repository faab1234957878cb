"""Acceptance gate: the nine headline checks, one pass/fail line each.

`supermolien.verify` is the only definition of the check battery.  The
session fixture `verify_all` runs `verify --suite all --seed 42` once;
criteria 1-8 each pin their checks in that report, with the counts it
carries, and criterion 9 pins the run as a whole.  The module tests check
each identity in-process.  Run with -s to watch the lines print; each test
also hard-asserts so the suite fails loudly.
"""

from supermolien.molien import FLAVORS
from test_shuffle import CLOSURE_COUNTS

# shuffle-generation sweeps n <= 3, i <= 4 and j <= n*r1
GENERATION_BIDEGREES = {"trivial-1-1": 45, "trivial-1-0": 15, "trivial-0-1": 45, "sign-scalar": 15}

POLYA_ORDERS = {"polya-compose-s2-s2": 8, "polya-compose-s2-s3": 72, "polya-compose-s3-s2": 48}


def _report(num: int, label: str, ok: bool):
    print(f"criterion {num} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def _all_pass(checks: dict[str, dict]) -> bool:
    return all(c["pass"] for c in checks.values())


def test_criterion_1_molien_vs_oracle(verify_all):
    checks = verify_all.named("molien-oracle-")
    # the full grid i <= 6, j <= r1 of each of the eleven fixtures
    ok = (
        len(checks) == 11
        and _all_pass(checks)
        and all(c["mismatches"] == 0 for c in checks.values())
        and sum(c["agreements"] for c in checks.values()) == 175
    )
    _report(1, "molien coefficients equal brute-force ranks", ok)


def test_criterion_2_two_routes_to_wreath_series(verify_all):
    checks = verify_all.named("wreath-routes-")
    ok = len(checks) == 8 and _all_pass(checks) and all(c["caps"]["q"] == 8 for c in checks.values())
    _report(2, "direct and plethysm routes agree at dq=8", ok)


def test_criterion_3_collation_sum_equals_product(verify_all):
    checks = verify_all.named("collate-")
    ok = (
        len(checks) == 6
        and _all_pass(checks)
        and all(c["caps"]["t"] == 3 and c["caps"]["q"] == 6 for c in checks.values())
    )
    _report(3, "collated sum equals collated product at N=3 dq=6", ok)


def test_criterion_4_young_collation_closed_form(verify_all):
    checks = verify_all.named("young-collation-")
    ok = _all_pass(checks) and set(checks) == {
        "young-collation-21-closed-form",
        "young-collation-length-only",
        "young-collation-single-block",
    }
    _report(4, "two-block series is (1+tu)^2/((1-t)(1-tu^2)), length-only", ok)


def test_criterion_5_superspace_three_routes(verify_all):
    checks = verify_all.named("superspace-")
    ok = _all_pass(checks) and set(checks) == {
        f"superspace-{kind}-{flavor}"
        for kind in ("three-routes", "per-n-closed-form")
        for flavor in FLAVORS
    }
    _report(5, "superspace direct = product = q-binomial at dq=8", ok)


def test_criterion_6_block_determinant_and_m_cycle(verify_all):
    block = verify_all.named("block-determinant-seeded")
    m_cycle = verify_all.named("m-cycle-")
    ok = (
        _all_pass(block)
        and [(c["checked"], c["failed"]) for c in block.values()] == [(50, 0)]
        and len(m_cycle) == 3
        and _all_pass(m_cycle)
    )
    _report(6, "block determinant lemma and m-cycle identity", ok)


def test_criterion_7_shuffle_algebra_battery(verify_all):
    closure = verify_all.named("shuffle-closure-")
    generation = verify_all.named("shuffle-generation-")
    assoc = verify_all.named("shuffle-associativity-seeded")
    supercomm = verify_all.named("shuffle-supercommutation-")
    displays = verify_all.named("shuffle-display-")
    ok = (
        {name: (c["checked"], c["failed"]) for name, c in closure.items()}
        == {f"shuffle-closure-{g}-{flavor}": counts for (g, flavor), counts in CLOSURE_COUNTS.items()}
        and _all_pass(closure)
        and _all_pass(generation)
        and {name: c["bidegrees"] for name, c in generation.items()}
        == {
            f"shuffle-generation-{g}-{flavor}": count
            for g, count in GENERATION_BIDEGREES.items()
            for flavor in FLAVORS
        }
        and _all_pass(assoc)
        and [(c["checked"], c["failed"]) for c in assoc.values()] == [(60, 0)]
        and _all_pass(supercomm)
        and {name: (c["checked"], c["failed"]) for name, c in supercomm.items()}
        == {"shuffle-supercommutation-1-1": (50, 0), "shuffle-supercommutation-2-2": (162, 0)}
        and _all_pass(displays)
        and set(displays) == {"shuffle-display-signed-2-2", "shuffle-display-unsigned-1-2"}
    )
    _report(7, "closure, associativity, signs, generation, displays", ok)


def test_criterion_8_symmetric_function_identities(verify_all):
    dualities = verify_all.named("omega-duality-fixtures") | verify_all.named(
        "eh-alternating-cancellation"
    )
    polya = verify_all.named("polya-compose-")
    ok = (
        len(dualities) == 2
        and _all_pass(dualities)
        and _all_pass(polya)
        and {name: c["order"] for name, c in polya.items()} == POLYA_ORDERS
    )
    _report(8, "omega duality, e-h cancellation, wreath cycle index", ok)


def test_criterion_9_full_verification_run(verify_all):
    report = verify_all.report
    checks = verify_all.checks
    names = {c["name"] for c in checks}
    ok = (
        verify_all.returncode == 0
        and verify_all.elapsed < 300
        and report.get("failed") == 0
        and report.get("passed") == len(checks)
        # every check is named once
        and len(names) == len(checks) == 65
    )
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
    _report(9, f"verify --suite all --seed 42 in {verify_all.elapsed:.0f}s", ok)

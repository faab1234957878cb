"""Report shape and determinism of the named verification suites."""

import hashlib
import io
import json

import pytest

from supermolien import cli, linalg, verify
from supermolien.verify import (
    SUITES,
    check_display_signed_22,
    check_display_unsigned_12,
    run_suite,
)

def test_all_checks_pass(verify_all):
    rep = verify_all.report
    assert rep["suite"] == "all" and rep["seed"] == 42
    assert rep["failed"] == 0 and rep["passed"] == len(rep["checks"])
    assert all(c["pass"] is True for c in rep["checks"])


# Name prefixes of each in-process suite's checks in the shared report.
FAST_SUITES = {
    "molien": ("molien-",),
    "wreath": ("wreath-",),
    "collate": ("collate-", "young-collation-"),
    "identities": (
        "superspace-",
        "diagonal-multiplicities-",
        "block-determinant-",
        "m-cycle-",
        "omega-",
        "eh-",
        "polya-",
    ),
}


@pytest.mark.parametrize("suite", FAST_SUITES)
def test_fast_suites_pass(verify_all, suite):
    checks = [c for c in verify_all.checks if c["name"].startswith(FAST_SUITES[suite])]
    assert checks
    assert all(isinstance(c["pass"], bool) for c in checks)
    assert all(c["pass"] for c in checks)


def test_report_is_byte_identical(verify_all):
    # The default report is deterministic; a change to it must say why and
    # re-pin this digest.
    digest = hashlib.sha256(verify_all.stdout.encode("utf-8")).hexdigest()
    assert digest == "f799ab62dc3d134be91673df15f6edfb5325ce2f2fef27b3c51c9e6d5a792011"


def test_report_table_is_byte_identical():
    # the table prints each entry's fields in the order the suite wrote them,
    # which the sorted-key JSON report does not keep, so it is pinned apart
    out = io.StringIO()
    assert cli.run(["verify", "--suite", "all", "--seed", "42", "--format", "table"], out=out) == 0
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    assert digest == "4187733f927e95622cce5f889d1617cf523cf7dce15aa67bea73e2abc60232d3"


def test_each_suite_is_its_slice_of_all(verify_all):
    # in SUITES order, molien, wreath and collate lead the shared report,
    # identities ends it, and shuffle's checks are all that lie between
    block = {suite: run_suite(suite, 42)["checks"] for suite in FAST_SUITES}
    head = block["molien"] + block["wreath"] + block["collate"]
    tail = block["identities"]
    checks = verify_all.checks
    assert checks[: len(head)] == head
    assert checks[len(checks) - len(tail) :] == tail
    middle = checks[len(head) : len(checks) - len(tail)]
    assert middle and all(c["name"].startswith("shuffle-") for c in middle)


def test_check_names_unique_across_suites(verify_all):
    names = [c["name"] for c in verify_all.checks]
    assert len(names) == len(set(names))


def test_failed_check_is_reported(monkeypatch):
    real = verify.check_wreath_routes

    def s3_antiinvariant_mismatch(P, G, n, flavor, dq):
        rep = real(P, G, n, flavor, dq)
        if P.order == 6 and flavor == "antiinvariant":
            rep = {**rep, "match": False}
        return rep

    monkeypatch.setattr(verify, "check_wreath_routes", s3_antiinvariant_mismatch)
    out = io.StringIO()
    assert cli.run(["verify", "--suite", "wreath"], out=out) == 1
    report = json.loads(out.getvalue())
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failing == ["wreath-routes-s3-sign-scalar-n3-antiinvariant"]
    assert report["failed"] == 1 and report["passed"] == 7


def test_report_is_deterministic():
    a = json.dumps(run_suite("identities", 42), sort_keys=True)
    b = json.dumps(run_suite("identities", 42), sort_keys=True)
    assert a == b


def test_seed_recorded():
    rep = run_suite("molien", 7)
    assert rep["seed"] == 7


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_suite_names():
    assert SUITES == ("molien", "wreath", "collate", "shuffle", "identities", "all")


def test_display_checks_pass():
    assert check_display_signed_22()
    assert check_display_unsigned_12()


def test_block_lemma_check_reads_the_charpoly_kernel(monkeypatch):
    # both determinants of the seeded lemma check are char-polys at z = 1,
    # so its non-monomial draws reach Berkowitz, and a Berkowitz that
    # negates its z^1 coefficient fails some of them
    berkowitz = linalg._berkowitz
    calls = 0

    def counted(rows):
        nonlocal calls
        calls += 1
        return berkowitz(rows)

    monkeypatch.setattr(linalg, "_berkowitz", counted)
    assert verify._seeded_block_lemma(42, 50) == (50, 0)
    assert calls > 0

    def negated(rows):
        p = berkowitz(rows)
        return p[:1] + tuple(-c for c in p[1:2]) + p[2:]

    monkeypatch.setattr(linalg, "_berkowitz", negated)
    checked, failed = verify._seeded_block_lemma(42, 50)
    assert checked == 50 and failed > 0

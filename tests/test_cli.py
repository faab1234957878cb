"""Exit-code contract, determinism, and output formats of the CLI."""

import hashlib
import io
import json
import pathlib
import shlex
import subprocess
import sys

import pytest

from supermolien import cli as cli_module
from supermolien import verify as verify_module
from supermolien.cli import run
from supermolien.errors import CapExceeded
from supermolien.series import TrigradedSeries
from supermolien.shuffle import shuffle_product
from supermolien.superalgebra import AlgebraSignature, SuperPolynomial

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def fx(name: str) -> str:
    return str(FIXTURES / name)


def invoke(*argv: str):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# -- exit code 0 -------------------------------------------------------------


def test_molien_trivial_example():
    code, out, _ = invoke("molien", "--group", fx("trivial_1_1.json"), "--dq", "4")
    assert code == 0
    series = TrigradedSeries.from_json_dict(json.loads(out))
    # (1 + u) / (1 - q): every coefficient with u <= 1 is 1
    assert all(c == 1 for _, c in series.items())
    assert len(series.items()) == 10


def test_wreath_check_example():
    code, out, _ = invoke(
        "wreath", "--perm", fx("s2.json"), "--group", fx("pm1.json"),
        "-n", "2", "--check", "--dq", "6",
    )
    assert code == 0
    assert json.loads(out)["match"] is True


def test_collate_check():
    code, out, _ = invoke(
        "collate", "--group", fx("pm1.json"), "-N", "2", "--dq", "4", "--check",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["match"] is True and rep["theorem"] == "1.2"
    # N = 0 leaves only the constant term; every product factor lies past t^0
    code, out, _ = invoke("collate", "--group", fx("pm1.json"), "-N", "0", "--check")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_cycle_index_flavors_and_character_file():
    code, plain, _ = invoke("cycle-index", "--perm", fx("s2.json"))
    assert code == 0
    code, sgn, _ = invoke("cycle-index", "--perm", fx("s2.json"), "--character", "sgn")
    assert code == 0
    assert json.loads(plain) != json.loads(sgn)
    code, chi, _ = invoke(
        "cycle-index", "--perm", fx("s2.json"),
        "--character", fx("character_sgn_s2_x.json"),
    )
    assert code == 0
    assert json.loads(chi) == json.loads(sgn)


def test_molien_sgn_character_of_an_odd_part_permutation_group(tmp_path):
    # S_2 swapping two thetas and fixing one x: antiinvariants (u + u^2) / (1 - q)
    group = tmp_path / "theta_swap_fixing_x.json"
    group.write_text(json.dumps(
        {"r0": 1, "r1": 2, "generators": [{"g0": [["1"]], "g1": [["0", "1"], ["1", "0"]]}]}
    ))
    code, out, _ = invoke("molien", "--group", str(group), "--character", "sgn", "--dq", "3")
    assert code == 0
    series = TrigradedSeries.from_json_dict(json.loads(out))
    assert dict(series.items()) == {(0, i, j): 1 for i in range(4) for j in (1, 2)}


def test_shuffle_matches_library():
    code, out, _ = invoke(
        "shuffle", fx("shuffle_left_2_2.json"), fx("shuffle_right_2_2.json"), "--signed",
    )
    assert code == 0
    A = SuperPolynomial.from_json_dict(json.loads(fx_read("shuffle_left_2_2.json")))
    B = SuperPolynomial.from_json_dict(json.loads(fx_read("shuffle_right_2_2.json")))
    assert SuperPolynomial.from_json_dict(json.loads(out)) == shuffle_product(A, B, signed=True)


@pytest.mark.parametrize(
    "flags, digest",
    [
        ((), "ca3cf70eb75c6ac627ce88737c48fe601f30fed06532c5d02c3760d423dd7ace"),
        (("--signed",), "689d85e969337c1eb5400ecc1b8e5e751d04eb82653aa75bf6201bebc2bf87d8"),
    ],
)
def test_shuffle_output_bytes_are_pinned(flags, digest):
    # the 2763 bytes of each flavor's product of the 2 + 2 row fixtures
    code, out, err = invoke("shuffle", fx("shuffle_left_2_2.json"), fx("shuffle_right_2_2.json"), *flags)
    assert code == 0 and err == ""
    data = out.encode("utf-8")
    assert len(data) == 2763
    assert hashlib.sha256(data).hexdigest() == digest


def fx_read(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def test_expect_match_exits_zero():
    code, out, _ = invoke(
        "molien", "--group", fx("trivial_1_1.json"), "--dq", "4",
        "--expect", fx("molien_trivial_1_1_dq4.json"),
    )
    assert code == 0
    assert json.loads(out) == {"match": True}


# -- exit code 1 -------------------------------------------------------------


def test_expect_mismatch_exits_one():
    code, out, _ = invoke(
        "molien", "--group", fx("trivial_1_1.json"), "--dq", "4",
        "--expect", fx("molien_trivial_1_1_dq4_wrong.json"),
    )
    assert code == 1
    assert json.loads(out) == {"match": False}


# -- exit code 2 -------------------------------------------------------------


def test_malformed_json_exits_two():
    code, out, err = invoke("molien", "--group", fx("malformed.json"), "--dq", "4")
    assert code == 2
    assert out == "" and "error:" in err


def test_wrong_file_kind_exits_two():
    code, _, err = invoke("molien", "--group", fx("s2.json"), "--dq", "4")
    assert code == 2
    assert "matrix group" in err


def test_missing_file_exits_two():
    code, _, err = invoke("molien", "--group", fx("no_such_file.json"))
    assert code == 2
    assert "error:" in err


def test_negative_cap_exits_two():
    for argv in (
        ("molien", "--group", fx("trivial_1_1.json"), "--dq", "-3"),
        ("molien", "--group", fx("trivial_1_1.json"), "--du", "-1"),
        ("wreath", "--perm", fx("s2.json"), "--group", fx("pm1.json"), "-n", "-2"),
        ("collate", "--group", fx("pm1.json"), "-N", "-1"),
    ):
        code, _, err = invoke(*argv)
        assert code == 2
        assert "nonnegative" in err


def test_dimension_mismatch_exits_two():
    # s4 acts on 4 rows, not 10
    code, _, err = invoke(
        "wreath", "--perm", fx("s4.json"), "--group", fx("trivial_1_1.json"),
        "-n", "10", "--check",
    )
    assert code == 2
    assert "error:" in err
    # without --check only the plethysm route runs; it makes the same check
    for n in ("0", "3"):
        code, out, err = invoke("wreath", "--perm", fx("s2.json"), "--group", fx("pm1.json"), "-n", n)
        assert code == 2 and out == ""
        assert f"P acts on 2 rows, expected {n}" in err


def test_cap_violation_exits_two():
    # the shear generator has infinite order, so group closure hits its cap
    code, _, err = invoke("molien", "--group", fx("shear_unbounded.json"), "--dq", "2")
    assert code == 2
    assert "cap" in err


def test_malformed_field_types_exit_two(tmp_path):
    bad = tmp_path / "bad.json"
    for body in ("[1, 2]", '{"r0": 1, "r1": 0, "generators": 5}', '"text"'):
        bad.write_text(body, encoding="utf-8")
        code, out, err = invoke("molien", "--group", str(bad), "--dq", "2")
        assert code == 2
        assert out == "" and "not a matrix group file" in err
    bad.write_text('{"sig": {"r0": 1, "r1": 1, "n": 1}, "terms": 3}', encoding="utf-8")
    code, _, err = invoke("shuffle", str(bad), fx("shuffle_left_1_2.json"))
    assert code == 2
    assert "not a polynomial file" in err


def test_non_integral_polynomial_entries_exit_two(tmp_path):
    # a theta (1.5, 1) on two rows once passed the signature check and
    # reached the kernel as a KeyError traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"sig": {"r0": 1, "r1": 1, "n": 2}, "terms": [{"x": [], "theta": [[1.5, 1]], "c": "1"}]}
    ), encoding="utf-8")
    code, out, err = invoke("shuffle", str(bad), fx("shuffle_left_2_2.json"))
    assert code == 2 and out == ""
    assert err == "error: theta row must be an integer, got 1.5\n"


def test_oversized_shuffle_exits_two_before_enumerating(tmp_path):
    # 12 + 12 rows have C(24, 12) = 2704156 coset representatives
    sig = AlgebraSignature(1, 1, 12)
    paths = []
    for name, poly in (("left", SuperPolynomial.x_var(sig, 12, 1)), ("right", SuperPolynomial.theta_var(sig, 1, 1))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(poly.to_json_dict()), encoding="utf-8")
        paths.append(str(path))
    code, out, err = invoke("shuffle", *paths)
    assert code == 2 and out == ""
    assert "(12, 12) rows needs 2704156 labels of 24 rows, cap is 200000" in err


@pytest.mark.parametrize("exc_type", [TypeError, KeyError])
def test_kernel_bug_propagates_instead_of_exit_two(monkeypatch, exc_type):
    def broken_kernel(*args, **kwargs):
        raise exc_type("kernel bug")

    monkeypatch.setattr(cli_module, "super_molien", broken_kernel)
    with pytest.raises(exc_type):
        invoke("molien", "--group", fx("trivial_1_1.json"), "--dq", "2")


@pytest.mark.parametrize("exc_type", [ValueError, CapExceeded])
def test_verify_error_propagates_instead_of_exit_two(monkeypatch, exc_type):
    # verify's only inputs are argparse-checked options, so even the error
    # types that mean bad input elsewhere are bugs here
    def broken_check(*args, **kwargs):
        raise exc_type("kernel bug")

    monkeypatch.setattr(verify_module, "check_wreath_routes", broken_check)
    with pytest.raises(exc_type, match="kernel bug"):
        invoke("verify", "--suite", "wreath")


def test_unknown_flag_rejected():
    # cycle-index takes --character; its old --flavor is gone
    for argv in (
        ["molien", "--group", fx("trivial_1_1.json"), "--frobnicate"],
        ["cycle-index", "--perm", fx("s2.json"), "--flavor", "sgn"],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_format_flag_refused_where_nothing_renders_tables(fmt):
    # cycle-index and shuffle write JSON only, so they take no --format
    for argv in (
        ["cycle-index", "--perm", fx("s2.json"), "--format", fmt],
        ["shuffle", fx("shuffle_left_2_2.json"), fx("shuffle_right_2_2.json"), "--format", fmt],
    ):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


def test_readme_command_lines_parse():
    readme = (FIXTURES.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("supermolien ")]
    assert len(lines) == 7
    for line in lines:
        cli_module.build_parser().parse_args(shlex.split(line)[1:])


# -- determinism -------------------------------------------------------------


def test_byte_identical_output():
    argv = ["molien", "--group", fx("trivial_2_2.json"), "--dq", "5"]
    assert invoke(*argv) == invoke(*argv)
    argv = ["verify", "--suite", "molien", "--seed", "42"]
    assert invoke(*argv) == invoke(*argv)


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "supermolien", "molien",
         "--group", fx("trivial_1_1.json"), "--dq", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["caps"] == {"t": 0, "q": 2, "u": 1}


# -- table format ------------------------------------------------------------


def test_table_format_grid():
    code, out, _ = invoke(
        "molien", "--group", fx("pm1.json"), "--dq", "4", "--format", "table",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t^0"
    assert lines[1].split() == ["q\\u", "0"]
    # 1/(1 - q^2): rows alternate 1 and .
    values = [line.split()[1] for line in lines[2:7]]
    assert values == ["1", ".", "1", ".", "1"]


def test_table_blocks_per_t_degree():
    code, out, _ = invoke(
        "collate", "--group", fx("trivial_1_1.json"),
        "-N", "2", "--dq", "2", "--format", "table",
    )
    assert code == 0
    assert out.count("t^") == 3
    assert "q\\u" in out


def test_verify_report_table():
    code, out, _ = invoke("verify", "--suite", "wreath", "--format", "table")
    assert code == 0
    assert out.count("PASS") == 8
    assert "suite=wreath seed=42 passed=8 failed=0" in out


def test_verify_unknown_suite_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "--suite", "bogus"])
    assert exc.value.code == 2

#!/usr/bin/env python3
"""Regenerate the shipped fixture library under fixtures/.

Everything here is derived from the named in-package groups, so the files
stay in sync with the code.  Run from the repository root.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from supermolien.fixtures import matrix_group_fixture, perm_group_fixture
from supermolien.groups import sign_character
from supermolien.molien import GroupAction, super_molien
from supermolien.rationals import format_rational
from supermolien.verify import display_signed_22_factors, display_unsigned_12_factors

OUT = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

MATRIX_FILES = {
    "trivial_1_0.json": "trivial-1-0",
    "trivial_0_1.json": "trivial-0-1",
    "trivial_1_1.json": "trivial-1-1",
    "trivial_2_2.json": "trivial-2-2",
    "trivial_3_2.json": "trivial-3-2",
    "pm1.json": "sign-scalar",
    "s2_x.json": "s2-x",
    "s3_x.json": "s3-x",
    "s2_theta.json": "s2-theta",
    "s3_theta.json": "s3-theta",
    "young_2_1_theta.json": "young-2-1-theta",
    "young_1_2_theta.json": "young-1-2-theta",
    "young_3_theta.json": "young-3-theta",
}

PERM_FILES = {
    "s2.json": "s2",
    "s3.json": "s3",
    "s4.json": "s4",
    "c3.json": "c3",
    "young_2_1.json": "young-2-1",
}


def dump(name: str, payload) -> None:
    path = OUT / name
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path.relative_to(OUT.parent)}")


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for fname, key in MATRIX_FILES.items():
        dump(fname, matrix_group_fixture(key).to_json_dict())
    for fname, key in PERM_FILES.items():
        dump(fname, perm_group_fixture(key).to_json_dict())

    # sign-character values aligned with the s2_x element order
    s2_x = matrix_group_fixture("s2-x")
    dump("character_sgn_s2_x.json", [format_rational(chi) for chi in sign_character(s2_x)])

    # the two shuffle worked examples as input polynomials
    for suffix, (left, right) in (
        ("2_2", display_signed_22_factors()),
        ("1_2", display_unsigned_12_factors()),
    ):
        dump(f"shuffle_left_{suffix}.json", left.to_json_dict())
        dump(f"shuffle_right_{suffix}.json", right.to_json_dict())

    # reference series for --expect, plus a deliberately wrong copy
    series = super_molien(
        GroupAction.from_matrix_group(matrix_group_fixture("trivial-1-1")), 4
    )
    good = series.to_json_dict()
    dump("molien_trivial_1_1_dq4.json", good)
    bad = json.loads(json.dumps(good))
    bad["coeffs"][0]["c"] = "7"
    dump("molien_trivial_1_1_dq4_wrong.json", bad)

    (OUT / "malformed.json").write_text("{ this is not valid JSON\n", encoding="utf-8")
    print(f"wrote {(OUT / 'malformed.json').relative_to(OUT.parent)}")

    # a shear has infinite order, so closing it must hit the element cap
    dump(
        "shear_unbounded.json",
        {"r0": 2, "r1": 0, "generators": [{"g0": [["1", "1"], ["0", "1"]], "g1": []}]},
    )


if __name__ == "__main__":
    main()

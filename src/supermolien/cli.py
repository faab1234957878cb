"""Command-line frontend.

Subcommands compute one object each (a Molien series, a cycle index, a
wreath Hilbert series, a collated generating function, a shuffle product)
or run a named verification suite.  Output is deterministic JSON by
default; on molien, wreath, collate and verify, `--format table` renders
series coefficients as aligned grids, and reports as tables.

Exit codes: 0 on success or match, 1 when a requested comparison fails,
2 on bad input (malformed JSON, dimension mismatches, cap violations).
Any other exception is a bug and is not mapped to an exit code, nor is
any error of verify, whose only inputs argparse checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import SuperMolienError
from .groups import MatrixGroup, PermGroup, sign_character, validate_character
from .molien import FLAVORS, GroupAction, super_molien
from .rationals import format_rational
from .series import TrigradedSeries
from .shuffle import shuffle_product
from .superalgebra import SuperPolynomial
from .symfunc import SymFuncPoly, cycle_index
from .verify import SUITES, run_suite
from .wreath_series import (
    CollationSpec,
    check_collation,
    check_wreath_routes,
    collated_sum_series,
    wreath_hilbert_plethysm,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supermolien",
        description="Hilbert series of invariants in free supercommutative algebras",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("molien", help="character-weighted Molien series of a matrix group")
    p.add_argument("--group", required=True, help="matrix group JSON file")
    p.add_argument("--character", default="trivial", help="'trivial', 'sgn', or a values file")
    p.add_argument("--dq", type=int, default=6)
    p.add_argument("--du", type=int, default=None)
    p.add_argument("--expect", default=None, help="series JSON to compare against; exit 1 on mismatch")
    _format_flag(p)

    p = sub.add_parser("cycle-index", help="cycle index of a permutation group")
    p.add_argument("--perm", required=True, help="permutation group JSON file")
    p.add_argument("--character", default="trivial", help="'trivial', 'sgn', or a values file")

    p = sub.add_parser("wreath", help="Hilbert series of a wreath product action")
    p.add_argument("--perm", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("-n", type=int, required=True, help="number of rows acted on")
    p.add_argument("--flavor", choices=FLAVORS, default="invariant")
    p.add_argument("--dq", type=int, default=6)
    p.add_argument("--du", type=int, default=None)
    p.add_argument("--check", action="store_true", help="compare the direct and plethysm routes")
    _format_flag(p)

    p = sub.add_parser("collate", help="collated generating function over all row counts")
    p.add_argument("--group", required=True)
    p.add_argument("-N", type=int, default=3, help="largest row count collected")
    p.add_argument("--dq", type=int, default=6)
    p.add_argument("--du", type=int, default=None)
    p.add_argument("--flavor", choices=FLAVORS, default="invariant")
    p.add_argument("--check", action="store_true", help="compare the sum and product forms")
    _format_flag(p)

    p = sub.add_parser("shuffle", help="shuffle product of two invariants")
    p.add_argument("left", help="SuperPolynomial JSON file")
    p.add_argument("right", help="SuperPolynomial JSON file")
    p.add_argument("--signed", action="store_true")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=int, default=42)
    _format_flag(p)

    return parser


def _format_flag(p: argparse.ArgumentParser):
    p.add_argument("--format", choices=("json", "table"), default="json", dest="fmt")


# -- input loading ----------------------------------------------------------


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_as(path: str, kind: str, parse):
    """Parse a loaded JSON file; a missing field or a value of the wrong
    type is bad input, reported as ValueError."""
    data = _load_json(path)
    try:
        return parse(data)
    except KeyError as exc:
        raise ValueError(f"{path}: not a {kind} file, missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"{path}: not a {kind} file, {exc}") from exc


def _load_matrix_group(path: str) -> MatrixGroup:
    return _load_as(path, "matrix group", MatrixGroup.from_json_dict)


def _load_perm_group(path: str) -> PermGroup:
    return _load_as(path, "permutation group", PermGroup.from_json_dict)


def _load_character(spec: str, group: MatrixGroup | PermGroup) -> tuple[int, ...] | None:
    """The one place a character name is read: None for 'trivial', the
    group's sign character for 'sgn', else the validated values of a
    values file."""
    if spec == "trivial":
        return None
    if spec == "sgn":
        return sign_character(group)
    values = _load_json(spec)
    if not isinstance(values, list):
        raise ValueError(f"character file {spec} must hold a JSON list of values")
    return validate_character([Fraction(str(v)) for v in values], group)


# -- rendering --------------------------------------------------------------


def render_series_table(series: TrigradedSeries) -> str:
    """One aligned grid per t-degree: rows are q-degrees, columns u-degrees."""
    caps = series.caps
    cells = {}
    widths = [1] * (caps.u + 2)
    widths[0] = max(len(f"q^{caps.q}"), len("q\\u"))
    for u in range(caps.u + 1):
        widths[u + 1] = len(str(u))
    for (t, q, u), c in series.items():
        text = format_rational(c)
        cells[(t, q, u)] = text
        widths[u + 1] = max(widths[u + 1], len(text))
    lines = []
    for t in range(caps.t + 1):
        lines.append(f"t^{t}")
        header = ["q\\u".ljust(widths[0])]
        header += [str(u).rjust(widths[u + 1]) for u in range(caps.u + 1)]
        lines.append("  ".join(header))
        for q in range(caps.q + 1):
            row = [f"q^{q}".ljust(widths[0])]
            row += [
                cells.get((t, q, u), ".").rjust(widths[u + 1]) for u in range(caps.u + 1)
            ]
            lines.append("  ".join(row))
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def _render_report_table(report: dict) -> str:
    lines = []
    for c in report["checks"]:
        extras = ", ".join(f"{k}={v}" for k, v in c.items() if k not in ("name", "pass"))
        status = "PASS" if c["pass"] else "FAIL"
        lines.append(f"{status}  {c['name']}" + (f"  ({extras})" if extras else ""))
    lines.append(f"suite={report['suite']} seed={report['seed']} "
                 f"passed={report['passed']} failed={report['failed']}")
    return "\n".join(lines)


def _render_dict_table(d: dict) -> str:
    return "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(d.items()))


def _emit(payload, fmt: str, out) -> None:
    if fmt == "table":
        if isinstance(payload, TrigradedSeries):
            out.write(render_series_table(payload) + "\n")
            return
        if isinstance(payload, dict) and "checks" in payload:
            out.write(_render_report_table(payload) + "\n")
            return
        if isinstance(payload, dict):
            out.write(_render_dict_table(payload) + "\n")
            return
    if isinstance(payload, (TrigradedSeries, SymFuncPoly, SuperPolynomial)):
        payload = payload.to_json_dict()
    out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- subcommands ------------------------------------------------------------


def _cmd_molien(args: argparse.Namespace, out) -> int:
    G = _load_matrix_group(args.group)
    action = GroupAction.from_matrix_group(G, _load_character(args.character, G))
    series = super_molien(action, args.dq, args.du)
    if args.expect is not None:
        expected = _load_as(args.expect, "series", TrigradedSeries.from_json_dict)
        match = series == expected
        _emit({"match": match}, args.fmt, out)
        return 0 if match else 1
    _emit(series, args.fmt, out)
    return 0


def _cmd_cycle_index(args: argparse.Namespace, out) -> int:
    P = _load_perm_group(args.perm)
    _emit(cycle_index(P, _load_character(args.character, P)), "json", out)
    return 0


def _cmd_wreath(args: argparse.Namespace, out) -> int:
    P = _load_perm_group(args.perm)
    G = _load_matrix_group(args.group)
    if args.check:
        rep = check_wreath_routes(P, G, args.n, args.flavor, args.dq, args.du)
        _emit(rep, args.fmt, out)
        return 0 if rep["match"] else 1
    series = wreath_hilbert_plethysm(P, G, args.n, args.flavor, args.dq, args.du)
    _emit(series, args.fmt, out)
    return 0


def _cmd_collate(args: argparse.Namespace, out) -> int:
    G = _load_matrix_group(args.group)
    du = args.du if args.du is not None else max(1, args.N * G.r1)
    spec = CollationSpec(group=G, n_max=args.N, dq=args.dq, du=du, flavor=args.flavor)
    if args.check:
        rep = check_collation(spec)
        _emit(rep, args.fmt, out)
        return 0 if rep["match"] else 1
    _emit(collated_sum_series(spec), args.fmt, out)
    return 0


def _cmd_shuffle(args: argparse.Namespace, out) -> int:
    A = _load_as(args.left, "polynomial", SuperPolynomial.from_json_dict)
    B = _load_as(args.right, "polynomial", SuperPolynomial.from_json_dict)
    _emit(shuffle_product(A, B, signed=args.signed), "json", out)
    return 0


def _cmd_verify(args: argparse.Namespace, out) -> int:
    report = run_suite(args.suite, args.seed)
    _emit(report, args.fmt, out)
    return 0 if report["failed"] == 0 else 1


_DISPATCH = {
    "molien": _cmd_molien,
    "cycle-index": _cmd_cycle_index,
    "wreath": _cmd_wreath,
    "collate": _cmd_collate,
    "shuffle": _cmd_shuffle,
}


def run(argv: list[str] | None = None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.subcommand == "verify":
        return _cmd_verify(args, out)
    try:
        for flag in ("dq", "du", "n", "N"):
            cap = getattr(args, flag, None)
            if cap is not None and cap < 0:
                raise ValueError(f"caps must be nonnegative, got {cap}")
        return _DISPATCH[args.subcommand](args, out)
    # validated input errors only: a TypeError or KeyError from the kernels
    # is a bug and propagates as a traceback
    except (SuperMolienError, ValueError, OSError, json.JSONDecodeError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())

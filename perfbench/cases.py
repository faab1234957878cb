"""Case lists for the route-pair benchmark.

A case is one user-level route comparison. Running it returns whether the
two routes agreed and a JSON-ready payload of everything it computed
(series, ranks, check counts), which the benchmark hashes and compares
against pinned digests.

Cases call the package through module attributes (``wreath_series.f``,
not ``from ... import f``) so that the tracer, which rebinds the public
functions of every ``supermolien`` module namespace, sees each call.

Each workload is a fixed list of fixture cases plus one case on a small
graded signed-permutation group generated from the workload seed. The
seeded case's parameters are chosen from a work estimate before it runs,
so no seed can make it dominate the pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from supermolien import fixtures, molien, shuffle, verify, wreath_series
from supermolien.errors import CapExceeded
from supermolien.groups import GradedGroupElement, MatrixGroup
from supermolien.linalg import QMatrix

FLAVORS = wreath_series.FLAVORS
WORKLOADS = ("shuffle", "wreath", "oracle")

# The case whose wall time is reported as largest_case_s, per workload.
LARGEST_CASE = {
    "shuffle": "closure-sign-scalar-r4-i4",
    "wreath": "routes-s4-sign-scalar-dq8",
    "oracle": "oracle-s3-sign-scalar-n3-dq6",
}

SEEDED_GROUP_MAX_ORDER = 8
# Work budgets for the seeded case, in the units of _projection_work. At
# the parent commit a unit costs up to about 0.05 ms in the closure sweep,
# 0.2 ms in the generation-rank check and 0.1 ms in the oracle, so each
# budget keeps its part of the seeded case near 0.1 s, about 2% of a pass,
# whatever group the seed draws. Ladders list (rows, top degree) from the
# largest rung down.
CLOSURE_SEEDED_BUDGET = 2000
CLOSURE_SEEDED_LADDER = ((2, 2), (2, 1), (2, 0))
GENERATION_SEEDED_BUDGET = 500
GENERATION_SEEDED_LADDER = ((2, 2), (2, 1), (2, 0), (1, 2), (1, 1), (1, 0))
ORACLE_SEEDED_BUDGET = 1000
ORACLE_SEEDED_LADDER = ((2, 6), (2, 4), (2, 2), (1, 6), (1, 4), (1, 2))


@dataclass(frozen=True)
class Case:
    name: str
    run: Callable[[], tuple[bool, object]]
    seeded: bool = False


# -- payload helpers ----------------------------------------------------------


def _series(s) -> dict:
    return s.to_json_dict()


def _route_case(P, G, n: int, dq: int) -> Callable[[], tuple[bool, object]]:
    """Direct wreath sum against cycle-index plethysm, both flavors."""

    def run():
        ok = True
        payload = {}
        du = n * G.r1
        for flavor in FLAVORS:
            direct = wreath_series.wreath_hilbert_direct(P, G, n, flavor, dq, du)
            pleth = wreath_series.wreath_hilbert_plethysm(P, G, n, flavor, dq, du)
            ok = ok and direct == pleth
            payload[flavor] = _series(direct)
        return ok, payload

    return run


def _collation_case(G, n_max: int, dq: int) -> Callable[[], tuple[bool, object]]:
    """Collated sum over S_n[G] against the product form, both flavors."""

    def run():
        ok = True
        payload = {}
        for flavor in FLAVORS:
            spec = wreath_series.CollationSpec(G, n_max, dq, max(1, n_max * G.r1), flavor)
            total = wreath_series.collated_sum_series(spec)
            product = wreath_series.collated_product_series(spec)
            ok = ok and total == product
            payload[flavor] = _series(total)
        return ok, payload

    return run


def _oracle_case(make_actions: Callable[[], list], dq: int) -> Callable[[], tuple[bool, object]]:
    """Molien coefficients against Reynolds-projector ranks on the full grid.

    This is the comparison molien_vs_oracle makes, spelled out so that the
    payload holds the series and the ranks, which that report leaves out.
    """

    def run():
        ok = True
        payload = []
        for action in make_actions():
            du = action.signature.num_odd
            series = molien.super_molien(action, dq, du)
            ranks = [
                [molien.invariant_dimension_bruteforce(action, i, j) for j in range(du + 1)]
                for i in range(dq + 1)
            ]
            ok = ok and all(
                series.coefficient((0, i, j)) == ranks[i][j]
                for i in range(dq + 1)
                for j in range(du + 1)
            )
            payload.append({"series": _series(series), "ranks": ranks})
        return ok, payload

    return run


def _closure_case(G, max_rows: int, max_i: int) -> Callable[[], tuple[bool, object]]:
    def run():
        ok = True
        payload = {}
        for flavor in FLAVORS:
            checked, failed = shuffle.closure_battery(G, flavor, max_rows=max_rows, max_i=max_i)
            ok = ok and failed == 0 and checked > 0
            payload[flavor] = [checked, failed]
        return ok, payload

    return run


def _generation_case(G, n_max: int, i_max: int) -> Callable[[], tuple[bool, object]]:
    """Degree-one shuffles span every bidegree, against the blunt dimension."""

    def run():
        ok = True
        payload = {}
        for flavor in FLAVORS:
            ranks = []
            for n in range(1, n_max + 1):
                for i in range(i_max + 1):
                    for j in range(n * G.r1 + 1):
                        spanned, full = shuffle.degree_one_generation_rank(G, flavor, n, i, j)
                        ok = ok and spanned == full
                        ranks.append([n, i, j, spanned, full])
            payload[flavor] = ranks
        return ok, payload

    return run


def _counted(check: Callable[[], tuple[int, int]]) -> Callable[[], tuple[bool, object]]:
    def run():
        checked, failed = check()
        return failed == 0 and checked > 0, [checked, failed]

    return run


# -- the seeded group ---------------------------------------------------------


def _signed_perm_matrix(rng: random.Random, r: int) -> QMatrix:
    images = list(range(r))
    rng.shuffle(images)
    rows = [[0] * r for _ in range(r)]
    for col, row in enumerate(images):
        rows[row][col] = rng.choice((1, -1))
    return QMatrix.from_rows(rows) if r else QMatrix.identity(0)


def seeded_group(seed: int) -> MatrixGroup:
    """A graded signed-permutation group with r0, r1 <= 2 and order 2..8.

    Candidates are drawn from a generator seeded by the workload seed until
    one closes within the order cap, so the same seed gives the same group.
    """
    rng = random.Random(f"perfbench-group-{seed}")
    while True:
        r0, r1 = rng.randint(0, 2), rng.randint(0, 2)
        if r0 + r1 == 0:
            continue
        gens = [
            GradedGroupElement(_signed_perm_matrix(rng, r0), _signed_perm_matrix(rng, r1))
            for _ in range(rng.randint(1, 2))
        ]
        try:
            G = MatrixGroup.close(r0, r1, gens, cap=SEEDED_GROUP_MAX_ORDER)
        except CapExceeded:
            continue
        if G.order > 1:
            return G


def _basis_size(r0: int, r1: int, n: int, i: int, j: int) -> int:
    even, odd = n * r0, n * r1
    if even == 0:
        xs = 1 if i == 0 else 0
    else:
        xs = math.comb(i + even - 1, i)
    return xs * math.comb(odd, j)


def _projection_work(G: MatrixGroup, rows: int, i_max: int) -> int:
    """Estimated substitution work for projecting every monomial of every
    bidegree up to i_max on 1..rows rows under S_n[G]: monomials times
    group order times the rows and factors each substitution touches."""
    work = 0
    for n in range(1, rows + 1):
        order = math.factorial(n) * G.order**n
        for i in range(i_max + 1):
            for j in range(n * G.r1 + 1):
                work += _basis_size(G.r0, G.r1, n, i, j) * order * (n + i + j)
    return work


def _generation_work(G: MatrixGroup, rows: int, i_max: int) -> int:
    """_projection_work plus the one-row pool that every bidegree's
    generation-rank call rebuilds."""
    work = _projection_work(G, rows, i_max)
    for n in range(1, rows + 1):
        for i in range(i_max + 1):
            work += (n * G.r1 + 1) * _projection_work(G, 1, i)
    return work


def _bounded(G: MatrixGroup, budget: int, ladder, work=_projection_work) -> tuple[int, int]:
    """First (rows, top degree) rung of the ladder whose estimated work fits
    the budget; the last rung is always taken."""
    for rows, degree in ladder:
        if work(G, rows, degree) <= budget:
            return rows, degree
    return ladder[-1]


def _seeded(name: str, group: dict, parts: dict) -> Case:
    """One seeded case running several parts; the payload records the group."""

    def run():
        ok = True
        payload = {"group": group}
        for key, part in parts.items():
            part_ok, payload[key] = part()
            ok = ok and part_ok
        return ok, payload

    return Case(name, run, seeded=True)


def _seeded_case(workload: str, G: MatrixGroup) -> Case:
    group = G.to_json_dict()
    s2 = fixtures.perm_group_fixture("s2")
    if workload == "shuffle":
        _, closure_i = _bounded(G, CLOSURE_SEEDED_BUDGET, CLOSURE_SEEDED_LADDER)
        rows, gen_i = _bounded(
            G, GENERATION_SEEDED_BUDGET, GENERATION_SEEDED_LADDER, _generation_work
        )
        return _seeded(
            f"seeded-shuffle-c{closure_i}-n{rows}-i{gen_i}",
            group,
            {
                "closure": _closure_case(G, 2, closure_i),
                "generation": _generation_case(G, rows, gen_i),
            },
        )
    if workload == "wreath":
        # S_2[G] has at most 2 * 8**2 = 128 labels, so no ladder is needed.
        return _seeded(
            "seeded-wreath-s2-dq6",
            group,
            {"routes": _route_case(s2, G, 2, 6), "collation": _collation_case(G, 2, 4)},
        )
    rows, dq = _bounded(G, ORACLE_SEEDED_BUDGET, ORACLE_SEEDED_LADDER)

    def actions():
        out = [molien.GroupAction.from_matrix_group(G)]
        if rows == 2:
            out += [molien.GroupAction.from_wreath(s2, G, 2, f) for f in FLAVORS]
        return out

    return _seeded(f"seeded-oracle-n{rows}-dq{dq}", group, {"oracle": _oracle_case(actions, dq)})


# -- workloads ----------------------------------------------------------------


def _shuffle_cases(seed: int) -> list[Case]:
    mg = fixtures.matrix_group_fixture
    cases = [
        Case("closure-trivial-1-1-r3-i4", _closure_case(mg("trivial-1-1"), 3, 4)),
        Case("closure-trivial-1-0-r4-i4", _closure_case(mg("trivial-1-0"), 4, 4)),
        Case("closure-trivial-0-1-r4-i4", _closure_case(mg("trivial-0-1"), 4, 4)),
        Case("closure-sign-scalar-r4-i4", _closure_case(mg("sign-scalar"), 4, 4)),
    ]
    for gname in verify.SHUFFLE_GROUPS:
        cases.append(Case(f"generation-{gname}-n3-i3", _generation_case(mg(gname), 3, 3)))
    cases.append(
        Case("associativity-seeded-30", _counted(lambda: verify._seeded_associativity(seed, 30)), True)
    )
    for r0, r1 in ((1, 1), (2, 2)):
        cases.append(
            Case(
                f"supercommutation-{r0}-{r1}",
                _counted(lambda r0=r0, r1=r1: verify._supercommutation_table(r0, r1)),
            )
        )
    return cases


def _wreath_cases() -> list[Case]:
    mg, pg = fixtures.matrix_group_fixture, fixtures.perm_group_fixture
    sign = mg("sign-scalar")
    s2_theta = mg("s2-theta")
    cases = [
        Case("routes-s3-sign-scalar-dq8", _route_case(pg("s3"), sign, 3, 8)),
        Case("routes-s4-sign-scalar-dq8", _route_case(pg("s4"), sign, 4, 8)),
        Case("routes-s3-s2-theta-dq6", _route_case(pg("s3"), s2_theta, 3, 6)),
    ]
    for gname in verify.COLLATE_GROUPS:
        cases.append(Case(f"collate-{gname}-N3-dq6", _collation_case(mg(gname), 3, 6)))
    cases.append(Case("collate-sign-scalar-N4-dq6", _collation_case(sign, 4, 6)))
    return cases


def _oracle_cases() -> list[Case]:
    mg, pg = fixtures.matrix_group_fixture, fixtures.perm_group_fixture

    def wreath_actions(P, G, n):
        return lambda: [molien.GroupAction.from_wreath(P, G, n, f) for f in FLAVORS]

    singles = [mg(name) for name in verify.MOLIEN_FIXTURES]
    return [
        Case(
            "oracle-s3-sign-scalar-n3-dq6",
            _oracle_case(wreath_actions(pg("s3"), mg("sign-scalar"), 3), 6),
        ),
        Case(
            "oracle-s3-trivial-1-1-n3-dq4",
            _oracle_case(wreath_actions(pg("s3"), mg("trivial-1-1"), 3), 4),
        ),
        Case(
            "oracle-c3-trivial-1-1-n3-dq4",
            _oracle_case(wreath_actions(pg("c3"), mg("trivial-1-1"), 3), 4),
        ),
        Case(
            "oracle-s2-s2-theta-n2-dq6",
            _oracle_case(wreath_actions(pg("s2"), mg("s2-theta"), 2), 6),
        ),
        Case(
            "oracle-single-row-fixtures-dq8",
            _oracle_case(lambda: [molien.GroupAction.from_matrix_group(G) for G in singles], 8),
        ),
    ]


def build_cases(workload: str, seed: int) -> list[Case]:
    """Load fixtures, close every group, and return the workload's cases."""
    if workload == "shuffle":
        cases = _shuffle_cases(seed)
    elif workload == "wreath":
        cases = _wreath_cases()
    elif workload == "oracle":
        cases = _oracle_cases()
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    cases.append(_seeded_case(workload, seeded_group(seed)))
    return cases

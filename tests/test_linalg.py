"""Exact matrices: the Bareiss rank against a minor oracle and against the
row-swapping elimination it replaced, determinants read off the char-poly
kernel against a Laplace-expansion oracle and that elimination, char
expansion det(I - zM) against pointwise determinant evaluation, and the
sparse column product against the dense reference product."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supermolien import linalg, verify
from supermolien.errors import NotSquare
from supermolien.fixtures import matrix_group_fixture
from supermolien.groups import PermGroup
from supermolien.linalg import (
    EchelonSelector,
    QMatrix,
    _bareiss,
    _berkowitz,
    _charpoly_rows,
    _cleared_rows,
    _columns,
    _compose,
    _nonzeros,
    _rank_rows,
    charpoly_det,
)
from supermolien.molien import GroupAction, _projector_rows

import dense_reference
from rational_groups import is_exact, named_group


def laplace_det(rows):
    """Independent determinant oracle: cofactor expansion along row 0."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(rows[0][0])
    total = Fraction(0)
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * Fraction(x) * laplace_det(minor)
    return total


def minor_rank(rows):
    """Independent rank oracle: largest k with a nonzero k x k minor."""
    import itertools

    nr, nc = len(rows), len(rows[0]) if rows else 0
    for k in range(min(nr, nc), 0, -1):
        for rsel in itertools.combinations(range(nr), k):
            for csel in itertools.combinations(range(nc), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if laplace_det(sub) != 0:
                    return k
    return 0


def random_rational_rows(rng, nr, nc, den=4):
    return [
        [Fraction(rng.randint(-5, 5), rng.randint(1, den)) for _ in range(nc)]
        for _ in range(nr)
    ]


def sparse_row(row):
    """The (index, value) pairs of a dense row's nonzero entries."""
    return [(j, x) for j, x in enumerate(row) if x]


def test_matrix_construction_and_access():
    m = QMatrix.from_rows([[1, Fraction(1, 2)], [0, -3]])
    assert m.get(0, 1) == Fraction(1, 2)
    assert m.row(1) == (0, -3)
    assert m == QMatrix(2, 2, [1, Fraction(1, 2), 0, -3])
    assert hash(m) == hash(QMatrix(2, 2, [1, Fraction(1, 2), 0, -3]))


def det_rows(rows):
    """det M read off the char-poly kernel, M the n x n matrix of the sparse
    rows (or columns): (-1)^n times coefficient n of det(I - z*M), or 0
    when the stripped coefficient tuple is shorter.  No rows give 1."""
    n = len(rows)
    p = _charpoly_rows(dict(enumerate(rows)))
    return (-1) ** n * p[n] if len(p) > n else 0


def det(m):
    """The determinant of a QMatrix by the char-poly kernel."""
    return det_rows([list(row.items()) for row in _nonzeros(m)])


def test_matrix_multiplication():
    a = QMatrix.from_rows([[1, 2], [3, 4]])
    b = QMatrix.from_rows([[0, 1], [1, 0]])
    assert _compose(_columns(a), _columns(b)) == _columns(QMatrix.from_rows([[2, 1], [4, 3]]))
    assert _compose(_columns(QMatrix.identity(2)), _columns(a)) == _columns(a)


def test_det_hand_values():
    assert det(QMatrix.from_rows([[2]])) == 2
    assert det(QMatrix.from_rows([[1, 2], [3, 4]])) == -2
    assert det(QMatrix.identity(3)) == 1
    assert det(QMatrix.zeros(2, 2)) == 0
    assert det(QMatrix(0, 0, [])) == 1  # empty matrix, needed for r=0 parts
    # columns stand in for rows: the same value from the transpose
    assert det_rows(_columns(QMatrix.from_rows([[1, 2], [3, 4]]))) == -2
    with pytest.raises(NotSquare):
        charpoly_det(QMatrix.zeros(2, 3))


def test_det_against_laplace_oracle_seeded():
    rng = random.Random(1712)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = random_rational_rows(rng, n, n)
        assert det(QMatrix.from_rows(rows)) == laplace_det(rows)
        # singular: a planted dependent row, then a zero column as well
        if n > 1:
            i, j = rng.sample(range(n), 2)
            rows[i] = [Fraction(-3, 2) * x for x in rows[j]]
            assert det(QMatrix.from_rows(rows)) == laplace_det(rows) == 0
        c = rng.randrange(n)
        for r in rows:
            r[c] = Fraction(0)
        assert det(QMatrix.from_rows(rows)) == laplace_det(rows) == 0


def test_det_multiplicative_seeded():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = _columns(QMatrix.from_rows(random_rational_rows(rng, n, n)))
        b = _columns(QMatrix.from_rows(random_rational_rows(rng, n, n)))
        assert det_rows(_compose(a, b)) == det_rows(a) * det_rows(b)


def test_rank_hand_values():
    assert _rank_rows(_nonzeros(QMatrix.zeros(3, 5))) == 0
    assert _rank_rows(_nonzeros(QMatrix.identity(4))) == 4
    assert _rank_rows(_nonzeros(QMatrix.from_rows([[1, 2, 3], [2, 4, 6]]))) == 1
    assert _rank_rows(_nonzeros(QMatrix.from_rows([[0, 1], [0, 0], [0, 7]]))) == 1


def test_rank_against_minor_oracle_seeded():
    rng = random.Random(77)
    for _ in range(30):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        rows = random_rational_rows(rng, nr, nc)
        if rng.random() < 0.5 and nr > 1:  # plant a dependent row
            i, j = rng.randrange(nr), rng.randrange(nr)
            if i != j:
                rows[i] = [Fraction(2) * x for x in rows[j]]
        assert _rank_rows(_nonzeros(QMatrix.from_rows(rows))) == minor_rank(rows)


def sparse_rational_rows(rng, nr, nc):
    """Rows with about two thirds of the entries zero, so that most
    elimination steps meet rows with a zero in the pivot column."""
    def entry():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3)) if rng.random() < 0.35 else Fraction(0)

    return [[entry() for _ in range(nc)] for _ in range(nr)]


def test_sparse_det_and_rank_against_oracles_seeded():
    rng = random.Random(4051)
    for _ in range(150):
        n = rng.randint(1, 5)
        rows = sparse_rational_rows(rng, n, n)
        assert det(QMatrix.from_rows(rows)) == laplace_det(rows)
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = sparse_rational_rows(rng, nr, nc)
        assert _rank_rows(_nonzeros(QMatrix.from_rows(rows))) == minor_rank(rows)
        assert _rank_rows([dict(sparse_row(r)) for r in rows]) == minor_rank(rows)


def test_sparse_rank_edge_cases():
    assert _rank_rows([]) == 0
    assert _rank_rows([{}, {}, {}]) == 0
    assert _rank_rows(_nonzeros(QMatrix.zeros(3, 0))) == 0
    assert _rank_rows(_nonzeros(QMatrix.zeros(0, 3))) == 0
    assert _rank_rows([{5: Fraction(1, 2)}, {5: 3}, {0: -1, 5: 1}]) == 2


def test_int_rows_pass_through_uncleared():
    # a row of ints is passed through, the same dict; integral Fractions
    # still go through the denominator clearing, and both come out as ints
    rows = [{0: 2, 3: -4}, {1: Fraction(6, 3), 2: Fraction(1, 2)}, {}]
    cleared = _cleared_rows(rows)
    assert cleared == [{0: 2, 3: -4}, {1: 4, 2: 1}, {}]
    assert cleared[0] is rows[0] and cleared[2] is rows[2] and cleared[1] is not rows[1]
    assert all(type(x) is int for row in cleared for x in row.values())


def test_rank_leaves_the_callers_int_rows_untouched():
    # the elimination works in place on the cleared rows, never on the
    # rows it was handed, int rows included
    rng = random.Random(907)
    for _ in range(60):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [dict(sparse_row([rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(nc)])) for _ in range(nr)]
        before = [dict(row) for row in rows]
        _rank_rows(rows)
        assert rows == before


def test_int_row_rank_equals_fraction_row_rank_seeded():
    # the same rows as ints and as Fractions have the same rank, which is
    # the minor oracle's
    rng = random.Random(1193)
    for _ in range(120):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        dense = [[rng.randint(-4, 4) if rng.random() < 0.4 else 0 for _ in range(nc)] for _ in range(nr)]
        ints = [dict(sparse_row(r)) for r in dense]
        fractions = [{j: Fraction(x) for j, x in row.items()} for row in ints]
        assert _rank_rows(ints) == _rank_rows(fractions) == minor_rank(dense)


def test_projector_row_rank_equals_dense_rank_on_fixture_grid():
    for name in verify.MOLIEN_FIXTURES:
        action = GroupAction.from_matrix_group(matrix_group_fixture(name))
        for i in range(5):
            for j in range(action.signature.num_odd + 1):
                basis, _, rows = _projector_rows(action, i, j)
                width = len(basis)
                assert len(rows) <= width
                dense = [[Fraction(0)] * width for _ in rows]
                for r, row in zip(dense, rows):
                    for k, x in row.items():
                        r[k] = x
                expected = _rank_rows(_nonzeros(QMatrix.from_rows(dense))) if dense else 0
                assert _rank_rows(rows) == expected


def swap_bareiss(rows):
    """Reference elimination: the package's Bareiss kernel as it was before
    its pivot search was bucketed by lead column.  Each pivot rescans every
    remaining row for the least lead column, swaps the first row holding it
    into place, and pops that column from every remaining row.  Returns
    (rank, sign of the row swaps, last pivot)."""
    nr = len(rows)
    levels = [1] * nr
    leads = [min(row) if row else None for row in rows]
    rank = 0
    sign = 1
    prev = 1
    while True:
        live = [lead for lead in leads[rank:] if lead is not None]
        if not live:
            break
        c = min(live)
        piv = next(i for i in range(rank, nr) if leads[i] == c)
        if piv != rank:
            for seq in (rows, levels, leads):
                seq[rank], seq[piv] = seq[piv], seq[rank]
            sign = -sign
        top = rows[rank]
        if levels[rank] != prev:
            top = {j: x * prev // levels[rank] for j, x in top.items()}
        p = top.pop(c)
        for i in range(rank + 1, nr):
            row = rows[i]
            a = row.pop(c, 0)
            if not a:
                continue
            level = levels[i]
            new = {j: x * p for j, x in row.items()}
            for j, t in top.items():
                new[j] = new.get(j, 0) - a * t
            row = {j: x // level for j, x in new.items() if x}
            rows[i], levels[i], leads[i] = row, p, min(row) if row else None
        prev = p
        rank += 1
    return rank, sign, prev


def swap_rank_det(rows):
    """(rank, determinant) of sparse rows by the reference elimination; the
    determinant is that of the square matrix, 0 below full rank.  Each
    cleared row is its row times the lcm of its denominators, so the
    elimination's determinant is divided by the product of those lcms."""
    scale = math.prod(math.lcm(*(x.denominator for _, x in row)) for row in rows)
    rank, sign, last = swap_bareiss(_cleared_rows(map(dict, rows)))
    return rank, Fraction(sign * last, scale) if rank == len(rows) else Fraction(0)


def reference_det(m):
    """det of a square QMatrix by the reference elimination, which shares
    no code with the char-poly kernel: its pointwise oracle."""
    return swap_rank_det([list(row.items()) for row in _nonzeros(m)])[1]


def differential_matrices(rng, fractional):
    """Seeded (label, dense rows) cases of the shapes the bucketed pivot
    search must agree on: dense rows, pairwise-disjoint supports,
    rank-deficient rows with fill-in, and zero and repeated rows."""

    def entry():
        x = rng.choice([-7, -3, -2, -1, 1, 2, 3, 5, 10**9 + 7])
        return Fraction(x, rng.randint(1, 6)) if fractional else x

    def disjoint(nr, nc):
        cols = list(range(nc))
        rng.shuffle(cols)
        dense = [[0] * nc for _ in range(nr)]
        for k, j in enumerate(cols):
            if rng.random() < 0.8:
                dense[k % nr][j] = entry()
        return dense

    cases = []
    for _ in range(60):
        n = rng.randint(1, 6)
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        cases.append(("dense", [[entry() for _ in range(n)] for _ in range(n)]))
        cases.append(("disjoint", disjoint(n, n)))
        cases.append(("disjoint", disjoint(nr, nc)))
        # a few overlapping base rows and combinations of them: entries
        # cancel in the pivot column and fill in elsewhere
        base = [[entry() if rng.random() < 0.5 else 0 for _ in range(nc)] for _ in range(rng.randint(1, 3))]
        combos = []
        for _ in range(nr):
            coeffs = [rng.randint(-2, 2) for _ in base]
            combos.append([sum(a * row[j] for a, row in zip(coeffs, base)) for j in range(nc)])
        cases.append(("fill-in", combos))
        square = [[entry() if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)]
        for _ in range(rng.randint(1, 2)):
            i, k = rng.randrange(n), rng.randrange(n)
            square[i] = [0] * n if rng.random() < 0.5 else [2 * x for x in square[k]]
        cases.append(("zero-or-repeated", square))
    return cases


@pytest.mark.parametrize("fractional", [False, True])
def test_bucketed_bareiss_agrees_with_the_swapping_reference(fractional):
    # the rank of the bucketed kernel, and the determinant of the char-poly
    # kernel, against the row-swapping elimination the bucketed kernel
    # replaced, on int and on Fraction rows, and on every shape of each
    # seeded case's support
    rng = random.Random(f"bareiss-{fractional}")
    shapes = set()
    for label, dense in differential_matrices(rng, fractional):
        shapes.add(label)
        rows = [sparse_row(r) for r in dense]
        rank, det = swap_rank_det(rows)
        assert _rank_rows(map(dict, rows)) == rank
        if len(dense) == len(dense[0]):
            assert det_rows(rows) == det
            if len(dense) <= 4:
                assert det == laplace_det(dense)
    assert shapes == {"dense", "disjoint", "fill-in", "zero-or-repeated"}


def test_det_sign_under_every_row_permutation():
    # every row order of small square matrices, full rank or not: the
    # char-poly kernel's determinant against the reference and the
    # permutation's sign times the determinant
    import itertools

    rng = random.Random(2203)
    for n in range(1, 5):
        for _ in range(4):
            dense = sparse_rational_rows(rng, n, n)
            base = laplace_det(dense)
            for perm in itertools.permutations(range(n)):
                rows = [sparse_row(dense[k]) for k in perm]
                inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
                assert det_rows(rows) == swap_rank_det(rows)[1] == (-1) ** inversions * base


class CountingRow(dict):
    """A sparse row that counts the reads of its entries and its pops."""

    calls = 0

    def items(self):
        CountingRow.calls += 1
        return super().items()

    def pop(self, *args):
        CountingRow.calls += 1
        return super().pop(*args)


def test_rows_with_disjoint_supports_are_never_eliminated():
    # every pivot finds its bucket holding only itself: no row is read
    # entry by entry, popped or replaced, and the pivots come in lead order;
    # the swapping reference pops a column from every remaining row
    rng = random.Random(4111)
    for _ in range(40):
        nr, nc = rng.randint(2, 30), rng.randint(2, 90)
        cols = list(range(nc))
        rng.shuffle(cols)
        rows = [CountingRow() for _ in range(nr)]
        for k, j in enumerate(cols):
            rows[k % nr][j] = rng.choice([-3, -1, 1, 2, 5])
        kept = list(rows)
        before = [dict(row) for row in rows]
        CountingRow.calls = 0
        order = _bareiss(rows)
        assert CountingRow.calls == 0
        assert all(a is b for a, b in zip(rows, kept)) and rows == before
        assert order == sorted((i for i, row in enumerate(rows) if row), key=lambda i: min(rows[i]))
        swap_bareiss([CountingRow(row) for row in before])
        assert CountingRow.calls > 0


def test_charpoly_det_hand_values():
    # det(I - z*[[a]]) = 1 - a z
    assert charpoly_det(QMatrix.from_rows([[Fraction(3, 2)]])) == (1, Fraction(-3, 2))
    # diagonal: product of (1 - d_i z)
    d = charpoly_det(QMatrix.from_rows([[2, 0], [0, 3]]))
    assert d == (1, -5, 6)
    # 0x0 matrix contributes the empty product
    assert charpoly_det(QMatrix(0, 0, [])) == (1,)
    # nilpotent: every coefficient past the constant vanishes and is stripped
    assert charpoly_det(QMatrix.from_rows([[0, 1], [0, 0]])) == (1,)
    assert charpoly_det(QMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])) == (1,)
    # monomial: one factor 1 - p z^len per cycle, p the cycle's product
    assert charpoly_det(QMatrix.from_rows([[0, 0, -1], [1, 0, 0], [0, 1, 0]])) == (1, 0, 0, 1)
    assert charpoly_det(QMatrix.from_rows([[0, Fraction(1, 2)], [2, 0]])) == (1, 0, -1)
    assert charpoly_det(QMatrix.from_rows([[-1, 0], [0, -1]])) == (1, 2, 1)


def mixed_denominator_rows(rng, nr, nc):
    return [
        [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 5))) for _ in range(nc)]
        for _ in range(nr)
    ]


def signed_block_permutation(rng, num_blocks, size, rational=False):
    """A block-monomial matrix shaped like a wreath label: one block per
    block column, at a permuted block row, each a signed permutation matrix
    (scaled by a rational with denominator 2, 3 or 5 if asked)."""
    targets = list(range(num_blocks))
    rng.shuffle(targets)

    def block():
        images = list(range(size))
        rng.shuffle(images)
        scale = Fraction(rng.choice((1, -2, 3)), rng.choice((2, 3, 5))) if rational else 1
        entries = [
            rng.choice((-1, 1)) * scale if images[j] == i else 0
            for i in range(size)
            for j in range(size)
        ]
        return QMatrix(size, size, entries)

    return dense_reference.assemble_blocks(num_blocks, size, {(targets[b], b): block() for b in range(num_blocks)})


def test_charpoly_det_matches_pointwise_dets_seeded():
    # det(I - z0*M) computed by elimination at n+1 sample points pins the
    # degree-<=n polynomial; the char expansion must agree at every point.
    rng = random.Random(4242)
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2), Fraction(-3, 5)]
    inputs = []
    for _ in range(25):
        n = rng.randint(1, 5)
        inputs.append(QMatrix.from_rows(random_rational_rows(rng, n, n)))
    # dense, denominators 2, 3 and 5 mixed, up to n = 9
    inputs += [QMatrix.from_rows(mixed_denominator_rows(rng, n, n)) for n in (6, 7, 8, 9)]
    # block-monomial, integral and rational
    for num_blocks, size in ((2, 1), (3, 2), (4, 2), (3, 3), (9, 1)):
        inputs.append(signed_block_permutation(rng, num_blocks, size))
        inputs.append(signed_block_permutation(rng, num_blocks, size, rational=True))
    # a zero row, a zero column and a zero diagonal
    for n in (3, 6, 9):
        rows = mixed_denominator_rows(rng, n, n)
        zero_row, zero_col = rng.randrange(n), rng.randrange(n)
        rows[zero_row] = [Fraction(0)] * n
        for i in range(n):
            rows[i][zero_col] = rows[i][i] = Fraction(0)
        inputs.append(QMatrix.from_rows(rows))
    for m in inputs:
        n = m.nrows
        p = charpoly_det(m)
        assert len(p) <= n + 1 and p[-1] != 0
        for z0 in points:
            direct = reference_det(dense_reference.sub(QMatrix.identity(n), dense_reference.scale(m, z0)))
            assert sum(c * z0**k for k, c in enumerate(p)) == direct


def dense_of_sparse(rows):
    """The square QMatrix of a char-poly kernel mapping, its keys numbered
    in sorted order: the row of key k has the (key, value) pairs rows[k]."""
    index = {k: t for t, k in enumerate(sorted(rows))}
    n = len(index)
    dense = [[Fraction(0)] * n for _ in range(n)]
    for k, row in rows.items():
        for j, x in row:
            dense[index[k]][index[j]] = Fraction(x)
    return QMatrix.from_rows(dense) if n else QMatrix(0, 0, [])


def assert_charpoly_pins_pointwise_dets(rows):
    # n + 1 distinct points pin a polynomial of degree <= n
    n = len(rows)
    m = dense_of_sparse(rows)
    p = _charpoly_rows(rows)
    assert len(p) <= n + 1 and p[0] == 1 and p[-1] != 0
    for z0 in [Fraction(k, 2) for k in range(-n // 2, n - n // 2 + 1)]:
        direct = reference_det(dense_reference.sub(QMatrix.identity(n), dense_reference.scale(m, z0)))
        assert sum(c * z0**k for k, c in enumerate(p)) == direct


def test_charpoly_rows_on_sparse_rows_seeded():
    # Sparse rows straight into the kernel at densities 0.1 to 0.5, with
    # their (column, value) pairs shuffled out of column order, against
    # pointwise determinants of the dense matrix; low densities leave empty
    # rows and empty columns, which are also forced below.
    rng = random.Random(1313)
    empty_row = empty_col = 0
    for _ in range(40):
        n = rng.randint(1, 10)
        density = rng.uniform(0.1, 0.5)
        rows = [
            [
                (j, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3))))
                for j in range(n)
                if rng.random() < density
            ]
            for _ in range(n)
        ]
        if rng.random() < 0.3:
            rows[rng.randrange(n)] = []
        if rng.random() < 0.3:
            dead = rng.randrange(n)
            rows = [[(j, x) for j, x in row if j != dead] for row in rows]
        for row in rows:
            rng.shuffle(row)
        empty_row += any(not row for row in rows)
        empty_col += len({j for row in rows for j, _ in row}) < n
        assert_charpoly_pins_pointwise_dets(dict(enumerate(rows)))
    assert empty_row and empty_col


def test_charpoly_rows_edge_cases():
    assert _charpoly_rows({}) == (1,)
    assert_charpoly_pins_pointwise_dets({})
    # all rows empty: det(I) = 1
    assert _charpoly_rows({0: [], 1: [], 2: []}) == (1,)
    # unsorted pairs in a row give the same polynomial as sorted ones
    rows = {0: [(2, 1), (0, 2)], 1: [(0, -1)], 2: [(1, 3), (2, 1)]}
    assert _charpoly_rows(rows) == _charpoly_rows({k: sorted(row) for k, row in rows.items()})
    assert_charpoly_pins_pointwise_dets(rows)


@pytest.mark.parametrize(
    "rows",
    [
        # one entry per row, two rows on one column: singular
        {0: [(0, 2)], 1: [(0, 3)], 2: [(2, -1)]},
        # a tail into a cycle: 0 -> 1, 1 -> 2, 2 -> 1
        {0: [(1, 2)], 1: [(2, -1)], 2: [(1, Fraction(1, 3))]},
        # an empty row among one-entry rows
        {0: [(1, 1)], 1: [], 2: [(0, -2)]},
        # a row with two entries after a closed cycle
        {0: [(0, 5)], 1: [(2, 1), (1, 2)], 2: [(1, -1)]},
    ],
    ids=["repeated-column", "tail-into-cycle", "empty-row", "two-entry-row"],
)
def test_charpoly_rows_non_monomial_go_to_berkowitz(monkeypatch, rows):
    # Near-monomial inputs the cycle walk must reject: each goes, once and
    # unchanged, to Berkowitz, and the value is the polynomial that
    # pointwise determinants pin.
    calls = []

    def wrapper(arg):
        calls.append(arg)
        return _berkowitz(arg)

    monkeypatch.setattr(linalg, "_berkowitz", wrapper)
    assert _charpoly_rows(rows) == _berkowitz(rows)
    assert calls == [rows]
    assert_charpoly_pins_pointwise_dets(rows)


def test_charpoly_rows_integral_fractions_give_ints():
    # entries typed Fraction but with denominator 1 are read as ints
    rows = {0: [(1, Fraction(2)), (0, Fraction(-1))], 1: [(0, Fraction(3))]}
    p = _charpoly_rows(rows)
    assert p == (1, 1, -6)
    assert all(type(c) is int for c in p)
    # a non-integral entry gives Fractions, reduced
    q = _charpoly_rows({0: [(0, Fraction(1, 2))]})
    assert q == (1, Fraction(-1, 2)) and type(q[1]) is Fraction


def test_charpoly_rows_walk_keeps_the_type_rule():
    # On the cycle walk too: integral Fractions give ints, and one
    # non-integral entry makes every coefficient a Fraction, even where
    # the cycle products are integral; types equal Berkowitz's.
    for rows, expected, kind in (
        ({0: [(1, Fraction(2))], 1: [(0, Fraction(-3))]}, (1, 0, 6), int),
        ({0: [(1, Fraction(1, 2))], 1: [(0, 2)], 2: [(2, -1)]}, (1, 1, -1, -1), Fraction),
    ):
        p = _charpoly_rows(rows)
        assert p == expected == _berkowitz(rows)
        assert all(type(c) is kind for c in p)
        assert [type(c) for c in p] == [type(c) for c in _berkowitz(rows)]


def test_expanded_cycle_signature_equals_berkowitz_seeded(monkeypatch):
    # Seeded monomial matrices with scaled entries: ints, integral
    # Fractions and non-integral Fractions, so some cycle products are
    # integral Fractions.  The kernel multiplies in one factor per cycle
    # and never calls Berkowitz, and its product has Berkowitz's values and
    # coefficient types.
    rng = random.Random(2026)
    entries = (1, -1, 2, -3, Fraction(4), Fraction(-1, 2), Fraction(3, 4), Fraction(2, 3))
    kinds = set()
    matrices = []
    for _ in range(200):
        n = rng.randint(0, 7)
        images = list(range(n))
        rng.shuffle(images)
        matrices.append({i: [(images[i], rng.choice(entries))] for i in range(n)})
    calls = []

    def wrapper(arg):
        calls.append(arg)
        return _berkowitz(arg)

    monkeypatch.setattr(linalg, "_berkowitz", wrapper)
    walked = [_charpoly_rows(rows) for rows in matrices]
    assert calls == []
    for rows, p in zip(matrices, walked):
        reference = _berkowitz(rows)
        assert p == reference
        assert [type(c) for c in p] == [type(c) for c in reference]
        kinds.add(type(p[-1]))
    assert kinds == {int, Fraction}


def test_poly_mul_is_the_product_cut_at_the_cap():
    # seeded coefficient lists with zeros, Fractions and every cap from 0
    # past the full degree: the full product's first cap + 1 coefficients
    rng = random.Random(2028)
    for _ in range(100):
        a, b = ([rng.choice((0, 0, 1, -2, 3, Fraction(1, 2))) for _ in range(rng.randint(1, 5))] for _ in "ab")
        full = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) for k in range(len(a) + len(b) - 1)]
        for cap in range(len(full) + 1):
            assert linalg._poly_mul(a, b, cap) == full[: cap + 1]


@pytest.mark.parametrize("monomial", [True, False], ids=["walk", "berkowitz"])
def test_charpoly_rows_on_variable_keys_in_shuffled_order(monkeypatch, monomial):
    # (row, col) keys, as a compiled wreath label has, inserted in shuffled
    # order: a signed scaled permutation takes the walk, the same matrix
    # with a few extra entries goes to Berkowitz, and both give Berkowitz's
    # value and charpoly_det's of the dense matrix on the sorted keys.
    rng = random.Random(2027)
    calls = []

    def wrapper(arg):
        calls.append(arg)
        return _berkowitz(arg)

    monkeypatch.setattr(linalg, "_berkowitz", wrapper)
    for _ in range(20):
        keys = [(row, col) for row in range(1, rng.randint(2, 4) + 1) for col in range(1, rng.randint(1, 3) + 1)]
        images = keys[:]
        rng.shuffle(images)
        rows = {k: [(v, Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2))))] for k, v in zip(keys, images)}
        if not monomial:
            for k in rng.sample(keys, 2):
                extra = rng.choice([j for j in keys if j != rows[k][0][0]])
                rows[k] = rows[k] + [(extra, Fraction(rng.choice((-1, 1, 2))))]
        shuffled = list(rows.items())
        rng.shuffle(shuffled)
        rows = dict(shuffled)
        calls.clear()
        p = _charpoly_rows(rows)
        assert calls == ([] if monomial else [rows])
        assert p == _berkowitz(rows) == charpoly_det(dense_of_sparse(rows))
        assert [type(c) for c in p] == [type(c) for c in _berkowitz(rows)]


def test_assemble_blocks_layout():
    a = QMatrix.from_rows([[1, 2], [3, 4]])
    b = QMatrix.from_rows([[5, 6], [7, 8]])
    m = dense_reference.assemble_blocks(2, 2, {(0, 1): a, (1, 0): b})
    assert m.rows() == [
        (0, 0, 1, 2),
        (0, 0, 3, 4),
        (5, 6, 0, 0),
        (7, 8, 0, 0),
    ]


def sparse_rational_square(rng, n):
    """A seeded n x n matrix, about half of its entries zero and the rest
    with denominators 1 to 3."""
    return QMatrix.from_rows(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
    )


def test_sparse_product_equals_dense_reference_seeded():
    # the column product against the dense reference on seeded square
    # matrices, 0 x 0 included, and on products whose entries cancel: the
    # result keeps row order, drops zeros and holds integral entries as ints
    rng = random.Random(5003)
    pairs = [(QMatrix(0, 0, []), QMatrix(0, 0, []))]
    for _ in range(60):
        n = rng.randint(1, 5)
        pairs.append((sparse_rational_square(rng, n), sparse_rational_square(rng, n)))
    pairs += [
        # every entry cancels
        (QMatrix.from_rows([[1, 1], [2, 2]]), QMatrix.from_rows([[1, 1], [-1, -1]])),
        # an off-diagonal entry cancels; Fraction products that are integral
        (QMatrix.from_rows([[Fraction(1, 2), 1], [0, 3]]), QMatrix.from_rows([[2, Fraction(-2, 3)], [0, Fraction(1, 3)]])),
    ]
    for a, b in pairs:
        prod = _compose(_columns(a), _columns(b))
        assert prod == _columns(dense_reference.mul(a, b))
        assert all(is_exact(x) for col in prod for _, x in col)
        assert all([i for i, _ in col] == sorted({i for i, _ in col}) for col in prod)
    # the hand pairs: nothing survives, then the identity with int entries
    assert _compose(*map(_columns, pairs[-2])) == ((), ())
    assert _compose(*map(_columns, pairs[-1])) == (((0, 1),), ((1, 1),))


def test_echelon_selector_greedy_order():
    sel = EchelonSelector(3)
    assert sel.offer([(0, 1)])
    assert not sel.offer([(0, 2)])
    assert sel.offer([(0, 1), (1, 1)])
    assert not sel.offer([(1, 5)])
    assert sel.offer([(2, Fraction(1, 3))])
    assert sel.rank == 3


def test_echelon_selector_rejects_an_index_outside_the_width():
    sel = EchelonSelector(3)
    for index in (-1, 3):
        with pytest.raises(ValueError, match=f"^index {index} outside width 3$"):
            sel.offer([(0, 1), (index, 2)])
    assert sel.rank == 0
    # nor after a row was accepted: the refused row leaves the pivots as they were
    assert sel.offer([(1, Fraction(2, 3)), (2, 4)])
    with pytest.raises(ValueError, match="^index 3 outside width 3$"):
        sel.offer([(1, 1), (3, 1)])
    assert sel.rank == 1 and sel._pivot_rows == {1: {1: 1, 2: 6}}


def test_select_independent_matches_rank_seeded():
    rng = random.Random(31)
    for _ in range(25):
        nr, nc = rng.randint(1, 5), rng.randint(1, 4)
        rows = random_rational_rows(rng, nr, nc, den=2)
        sel = EchelonSelector(nc)
        chosen = [i for i, row in enumerate(rows) if sel.offer(sparse_row(row))]
        assert len(chosen) == sel.rank == _rank_rows(_nonzeros(QMatrix.from_rows(rows)))
        # chosen rows really are independent
        assert _rank_rows(_nonzeros(QMatrix.from_rows([rows[i] for i in chosen]))) == len(chosen)


class FractionEchelon:
    """Reference greedy selector: the echelon over Fractions, each pivot row
    scaled to lead 1 and every offered row reduced by subtraction, as the
    package's selector was before its elimination became fraction-free."""

    def __init__(self, width):
        self.width = width
        self.pivot_rows = {}

    def offer(self, row):
        v = {}
        for j, x in row:
            if not 0 <= j < self.width:
                raise ValueError(f"index {j} outside width {self.width}")
            if x:
                v[j] = Fraction(x)
        while v:
            lead = min(v)
            pivot = self.pivot_rows.get(lead)
            if pivot is None:
                inv = 1 / v[lead]
                self.pivot_rows[lead] = {j: a * inv for j, a in v.items()}
                return True
            c = v[lead]
            for j, b in pivot.items():
                a = v.get(j, 0) - c * b
                if a:
                    v[j] = a
                else:
                    v.pop(j, None)
        return False


def dependent_heavy_rows(rng, nr, nc, fractional):
    """Seeded sparse rows, about half of them small combinations of earlier
    rows (so the selector rejects some and cancels entries in others), ints
    or Fractions with denominators up to 6, some entries large."""
    rows = []
    for _ in range(nr):
        if rows and rng.random() < 0.5:
            dense = [0] * nc
            for k in rng.sample(range(len(rows)), min(len(rows), rng.randint(1, 3))):
                a = rng.randint(-4, 4)
                for j, x in rows[k]:
                    dense[j] += a * x
            if rng.random() < 0.3:
                dense[rng.randrange(nc)] += 1
        else:
            dense = [rng.choice([0, 0, 1, -2, 3, 10**12 + 7]) for _ in range(nc)]
        if fractional:
            dense = [Fraction(x) / rng.randint(1, 6) for x in dense]
        rows.append(sparse_row(dense))
    return rows


@pytest.mark.parametrize("fractional", [False, True])
def test_integer_echelon_accepts_the_rows_the_fraction_echelon_accepts(fractional):
    # the fraction-free selector and the Fraction reference accept the
    # same rows in the same order, on int rows and on Fraction rows, and
    # the count is the Bareiss rank
    rng = random.Random(f"echelon-{fractional}")
    for _ in range(200):
        nr, nc = rng.randint(1, 9), rng.randint(1, 7)
        rows = dependent_heavy_rows(rng, nr, nc, fractional)
        sel, ref = EchelonSelector(nc), FractionEchelon(nc)
        got = [sel.offer(row) for row in rows]
        assert got == [ref.offer(row) for row in rows]
        assert sel.rank == sum(got) == _rank_rows(map(dict, rows))
        # pivot rows are primitive integer rows, one per accepted row
        for lead, pivot in sel._pivot_rows.items():
            assert min(pivot) == lead and all(type(x) is int and x for x in pivot.values())
            assert math.gcd(*pivot.values()) == 1


def test_integer_echelon_keeps_invariant_bases():
    # on the orbit-sum rows of invariant bases both selectors keep the same
    # rows: the greedy-in-order accepted set is unique; rational-s3's sums
    # are Fraction rows that overlap, so some are rejected
    for name in ("trivial-1-1", "sign-scalar", "young-2-1-theta", "rational-s3"):
        G = named_group(name)
        for n in (1, 2):
            action = GroupAction.from_wreath(PermGroup.symmetric(n), G, n)
            for i, j in ((2, 0), (3, 0), (2, 1)):
                if j > n * G.r1:
                    continue
                basis, _, rows = _projector_rows(action, i, j)
                sel, ref = EchelonSelector(len(basis)), FractionEchelon(len(basis))
                assert [sel.offer(r.items()) for r in rows] == [ref.offer(r.items()) for r in rows]


@given(st.integers(1, 4), st.integers(0, 100))
@settings(max_examples=30)
def test_rank_of_outer_products_is_at_most_one(n, seed):
    rng = random.Random(seed)
    u = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    v = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    rows = [[a * b for b in v] for a in u]
    expected = 1 if any(u) and any(v) else 0
    assert _rank_rows(_nonzeros(QMatrix.from_rows(rows))) == expected

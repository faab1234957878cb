"""Exact rational matrices and fraction-free elimination.

QMatrix is the value type of matrix input and output, without arithmetic.
Every kernel reads a matrix as sparse rows, row i its nonzero entries by
column ({column: value} for ranks, (column, value) pairs for char-polys),
or as sparse columns (_columns), which is
how graded group elements hold their matrices and _compose multiplies
them.  Ranks and char-polys have one kernel each.
Every rank in the package uses one Bareiss fraction-free elimination on
denominator-cleared sparse integer rows (_rank_rows).  It keeps the rows
in buckets by lead column, so its pivot search walks the columns once and
touches only the rows that hold an entry in the pivot column, and its
steps touch nonzero entries only; the rank of columns read as rows is the
same.
Char-polys, and with them determinants, use one kernel on a mapping from
row keys to the (key, value) pairs of the row's nonzeros: a QMatrix's rows
keyed by index, or a wreath label's substitution, its columns read as
rows.  det(I - M) is its coefficient sum, det(I - z*M) at z = 1.  From the
input alone it walks a monomial matrix, as every signed-permutation label
is, cycle by cycle, multiplying in (1 - p*z^L) for each cycle of length L
and entry product p, and sends any other to Berkowitz's recurrence on the
denominator-cleared entries as sparse rows and column lists, keys numbered
in mapping order, whose matrix-vector steps update nonzero entries only
and stop as soon as the bordering column or row is empty.  One truncated
polynomial product (_poly_mul) serves Berkowitz's Toeplitz steps and the
Molien sum's products of block char-polys.
Greedy independent-subset selection, which only chooses invariant bases,
uses an incremental fraction-free echelon accumulator on sparse primitive
integer rows (EchelonSelector).
Higher layers do no elimination.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import NotSquare
from .rationals import exact, format_rational, parse_rational


class QMatrix:
    """Immutable matrix over Q, row-major: the value type of matrix input
    and output, without arithmetic."""

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries: Iterable):
        entries = tuple(Fraction(x) for x in entries)
        if len(entries) != nrows * ncols:
            raise ValueError(f"expected {nrows * ncols} entries, got {len(entries)}")
        object.__setattr__(self, "nrows", nrows)
        object.__setattr__(self, "ncols", ncols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "QMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return QMatrix(nrows, ncols, [x for r in rows for x in r])

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix(n, n, [Fraction(int(i == j)) for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(nrows: int, ncols: int) -> "QMatrix":
        return QMatrix(nrows, ncols, [Fraction(0)] * (nrows * ncols))

    def get(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.ncols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.ncols : (i + 1) * self.ncols]

    def rows(self) -> list[tuple[Fraction, ...]]:
        return [self.row(i) for i in range(self.nrows)]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.entries) == (other.nrows, other.ncols, other.entries)

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in r) for r in self.rows())
        return f"QMatrix({self.nrows}x{self.ncols}: {body})"

    def to_json_rows(self) -> list[list[str]]:
        return [[format_rational(x) for x in r] for r in self.rows()]

    @staticmethod
    def from_json_rows(rows: Sequence[Sequence[str]]) -> "QMatrix":
        return QMatrix.from_rows([[parse_rational(x) for x in r] for r in rows])


def _nonzeros(m: QMatrix) -> list[dict[int, Fraction]]:
    """The {column: value} dict of each row's nonzero entries."""
    return [{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.nrows)]


def _columns(m: QMatrix) -> tuple[tuple[tuple[int, int | Fraction], ...], ...]:
    """m column by column: column c holds the (row, entry) pairs of its
    nonzero entries in row order, integral entries as ints."""
    r = m.ncols
    return tuple(tuple((i, exact(x)) for i, x in enumerate(m.entries[c::r]) if x) for c in range(r))


def _compose(a: Sequence, b: Sequence) -> tuple:
    """The product a*b of matrices held as columns (see _columns), held the
    same way: column c is the sum of the columns k of a times the entries
    (k, x) of column c of b.  Callers check that the shapes match."""
    out = []
    for col in b:
        acc: dict[int, int | Fraction] = {}
        for k, x in col:
            for i, y in a[k]:
                acc[i] = acc.get(i, 0) + y * x
        out.append(tuple(sorted((i, exact(v)) for i, v in acc.items() if v)))
    return tuple(out)


def _cleared_rows(rows: Iterable[Mapping[int, int | Fraction]]) -> list[dict[int, int]]:
    """Clear the denominators of each sparse {column: value} row of
    nonzero entries, giving {column: int} rows, each a multiple of its row,
    in a new list.  A row of ints is passed through as it is, not copied:
    _bareiss replaces rows in the list and never changes a row."""
    out = []
    for row in rows:
        if all(type(x) is int for x in row.values()):
            out.append(row)
            continue
        lcm = math.lcm(*(x.denominator for x in row.values()))
        out.append({j: x.numerator * (lcm // x.denominator) for j, x in row.items()})
    return out


def _bareiss(rows: list[dict[int, int]]) -> list[int]:
    """Fraction-free elimination of sparse integer rows, skipping columns
    without a pivot; an eliminated row is replaced in the list, in its own
    place.  Returns the indices of the pivot rows in pivot order, whose
    count is the rank.  No rows give [].

    Rows wait in buckets keyed by their lead (least) column, and the
    search walks the sorted union of the rows' columns, which fill-in never
    leaves.  At column c the rows of bucket c are exactly the rows with an
    entry in c: the first is the pivot, the others are eliminated, each
    moving to the bucket of its new lead, and no row is swapped.  Bareiss's
    step row <- (row * p - a * top) / prev only rescales a row whose entry
    a in the pivot column is zero, so such a row is left as it is: each row
    keeps the pivot it was last divided by, and the step that next touches
    it divides by that pivot instead (the intermediate rescalings
    telescope).  Entries are those of dense Bareiss on the rows in pivot
    order up to that pending factor.  A pivot row is brought up to date
    only when its bucket holds other rows, and otherwise only its pivot
    entry is: rows with pairwise-disjoint supports are read once each and
    never rewritten.
    """
    levels = [1] * len(rows)
    buckets: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        if row:
            buckets.setdefault(min(row), []).append(i)
    order = []
    prev = 1
    for c in sorted(set().union(*rows)):
        bucket = buckets.pop(c, None)
        if bucket is None:
            continue
        piv = bucket[0]
        order.append(piv)
        top, level = rows[piv], levels[piv]
        if len(bucket) > 1:
            if level != prev:
                top = {j: x * prev // level for j, x in top.items()}
            p = top[c]
            # the entries in column c cancel: a * p - a * p
            for i in bucket[1:]:
                row, level = rows[i], levels[i]
                a = row[c]
                new = {j: x * p for j, x in row.items()}
                for j, t in top.items():
                    new[j] = new.get(j, 0) - a * t
                row = {j: x // level for j, x in new.items() if x}
                rows[i], levels[i] = row, p
                if row:
                    buckets.setdefault(min(row), []).append(i)
        else:
            p = top[c] if level == prev else top[c] * prev // level
        prev = p
    return order


def _rank_rows(rows: Iterable[Mapping[int, int | Fraction]]) -> int:
    """Exact rank of the matrix whose rows are the {column: value} dicts
    of their nonzero entries."""
    return len(_bareiss(_cleared_rows(rows)))


def _poly_mul(a: Sequence, b: Sequence, cap: int) -> list:
    """The product of the coefficient sequences a and b, lowest degree
    first, cut after z^cap, as a list; a's zero coefficients are skipped."""
    out = [0] * min(len(a) + len(b) - 1, cap + 1)
    for i, x in enumerate(a[: cap + 1]):
        if x:
            for j, y in enumerate(b[: cap + 1 - i], i):
                out[j] += x * y
    return out


def _charpoly_rows(rows: Mapping[Hashable, Sequence[tuple[Hashable, int | Fraction]]]) -> tuple[int | Fraction, ...]:
    """det(I - z*M) as its coefficient tuple in z, trailing zeros stripped,
    M square with one row per key of rows (any hashables), rows[k] the
    (key, value) pairs of that row's nonzeros, in any order.  Since
    det(I - z*M) = det(I - z*M^T), columns may be passed as rows, as a
    wreath label's substitution is.  A monomial M is walked cycle by cycle
    in O(n), each closed cycle of length L and entry product p multiplying
    (1 - p*z^L) in; any other goes, at the first row without exactly one
    entry or walk closing off its start, to Berkowitz's recurrence.  Both
    give ints when every entry has denominator 1, Fractions included, else
    Fractions.  No rows give the constant 1.
    """
    # each walk pops its rows from a copy, so a step hashes one key
    todo = dict(rows)
    vect = [1]
    fractional = False
    while todo:
        start, row = todo.popitem()
        p = 1
        length = 0
        while row is not None:
            if len(row) != 1:
                return _berkowitz(rows)
            i, x = row[0]
            if type(x) is not int:
                if x.denominator == 1:
                    x = x.numerator
                else:
                    fractional = True
            p *= x
            length += 1
            row = todo.pop(i, None)
        if i != start:
            return _berkowitz(rows)
        new = vect + [0] * length
        for k, v in enumerate(vect, length):
            new[k] -= p * v
        vect = new
    while vect[-1] == 0:
        vect.pop()
    if fractional:
        return tuple(Fraction(c) for c in vect)
    return tuple(vect)


def _berkowitz(rows: Mapping[Hashable, Sequence[tuple[Hashable, int | Fraction]]]) -> tuple[int | Fraction, ...]:
    """det(I - z*M) for any square M given as _charpoly_rows takes it: the
    general path of that kernel, and the reference its cycle walk is tested
    against.  The keys are numbered 0, 1, .. in the mapping's order.

    Berkowitz's division-free recurrence (Berkowitz 1984, "On computing the
    determinant in small parallel time using a small number of processors")
    runs on the integer matrix A = d*M, d the lcm of the entry denominators,
    kept as {column: int} rows and, built once, (row, int) column lists.
    Bordering the leading r x r block A_r by the column C, the row R and the
    corner a multiplies the coefficient vector by the lower-triangular
    Toeplitz matrix with first column 1, -a, -R*C, -R*A_r*C, ...  C starts
    as column r above the corner and is kept as its nonzero entries; each
    step A_r*C walks the columns of A_r at those entries only, and the
    column stops as soon as C or R is empty, every later entry being 0.
    The product (_poly_mul) is cut after degree r + 1, the degree of the
    bordered block's char-poly.  After the last border the vector holds the
    coefficients of det(I - z*A), and coefficient k of det(I - z*M) is that
    one divided by d^k; when d = 1, Fraction inputs included, the
    coefficients are returned as ints.  No rows give the constant 1.
    """
    index = {k: t for t, k in enumerate(rows)}
    n = len(index)
    d = math.lcm(*(x.denominator for row in rows.values() for _, x in row))
    matrix = [{index[j]: x.numerator * (d // x.denominator) for j, x in row} for row in rows.values()]
    columns: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, row in enumerate(matrix):
        for j, a in row.items():
            columns[j].append((i, a))
    vect = [1]
    for r in range(n):
        row = matrix[r]
        left = {j: a for j, a in row.items() if j < r}
        col = {i: a for i, a in columns[r] if i < r}
        toeplitz = [1, -row.get(r, 0)]
        while col and left:
            toeplitz.append(-sum(c * left[j] for j, c in col.items() if j in left))
            if len(toeplitz) == r + 2:
                break
            nxt: dict[int, int] = {}
            for j, c in col.items():
                for i, a in columns[j]:
                    if i < r:
                        nxt[i] = nxt.get(i, 0) + a * c
            col = {i: c for i, c in nxt.items() if c}
        vect = _poly_mul(toeplitz, vect, r + 1)
    while vect[-1] == 0:
        vect.pop()
    if d == 1:
        return tuple(vect)
    return tuple(Fraction(c, d**k) for k, c in enumerate(vect))


def charpoly_det(m: QMatrix) -> tuple[Fraction, ...]:
    """det(I - z*M) by the char-poly kernel; the 0x0 matrix gives (1,)."""
    if not m.is_square():
        raise NotSquare(f"char expansion of a {m.nrows}x{m.ncols} matrix")
    return tuple(Fraction(c) for c in _charpoly_rows({i: list(row.items()) for i, row in enumerate(_nonzeros(m))}))


class EchelonSelector:
    """Greedy maximal-independent-subset accumulator over Q.

    offer() takes a vector of the given width as the (index, value) pairs of
    its nonzero coordinates and returns True iff it is independent of
    everything accepted so far, in which case it joins the echelon.

    The elimination is fraction-free, after Bareiss (Math. Comp. 22, 1968,
    565-578): each offered row has its denominators cleared and is reduced
    against the integer pivot rows by cross-multiplication, row <- p*row -
    a*pivot, p the pivot's lead entry and a the row's entry there, both
    divided by their gcd first.  Every row, pivot rows included, is kept
    primitive, divided by the gcd of its entries, so entries stay as small
    as the row's line allows.  A row with an index outside the width is
    refused before any state changes.
    """

    def __init__(self, width: int):
        self.width = width
        self._pivot_rows: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivot_rows)

    def offer(self, row: Iterable[tuple[int, int | Fraction]]) -> bool:
        v = {}
        integral = True
        for j, x in row:
            if not 0 <= j < self.width:
                raise ValueError(f"index {j} outside width {self.width}")
            if x:
                v[j] = x
                integral = integral and type(x) is int
        if not integral:
            den = math.lcm(*(x.denominator for x in v.values()))
            v = {j: x.numerator * (den // x.denominator) for j, x in v.items()}
        pivots = self._pivot_rows
        while v:
            lead = min(v)
            pivot = pivots.get(lead)
            g = math.gcd(*v.values())
            if g != 1:
                v = {j: x // g for j, x in v.items()}
            if pivot is None:
                pivots[lead] = v
                return True
            p, a = pivot[lead], v[lead]
            g = math.gcd(p, a)
            if g != 1:
                p, a = p // g, a // g
            if p != 1:
                v = {j: x * p for j, x in v.items()}
            for j, b in pivot.items():
                x = v.get(j, 0) - a * b
                if x:
                    v[j] = x
                else:
                    v.pop(j, None)
        return False

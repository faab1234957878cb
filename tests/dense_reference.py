"""Dense reference arithmetic on QMatrix values, the oracle of the sparse
column kernels: the row-by-column product, difference and scaling, block
assembly, a wreath label's matrices assembled from its blocks with their
columns named by variable, and a BFS closure of graded generators held as
(g0, g1) pairs of dense matrices.  The package itself keeps matrices as
sparse columns and does no dense arithmetic."""

from fractions import Fraction
from typing import Mapping

from supermolien.linalg import QMatrix
from supermolien.rationals import exact


def mul(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.ncols != b.nrows:
        raise ValueError(f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}")
    out = []
    for i in range(a.nrows):
        ri = a.row(i)
        for j in range(b.ncols):
            out.append(sum((ri[k] * b.get(k, j) for k in range(a.ncols)), Fraction(0)))
    return QMatrix(a.nrows, b.ncols, out)


def sub(a: QMatrix, b: QMatrix) -> QMatrix:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("shape mismatch")
    return QMatrix(a.nrows, a.ncols, [x - y for x, y in zip(a.entries, b.entries)])


def scale(m: QMatrix, c) -> QMatrix:
    c = Fraction(c)
    return QMatrix(m.nrows, m.ncols, [c * x for x in m.entries])


def assemble_blocks(num_blocks: int, block_size: int, blocks: Mapping[tuple[int, int], QMatrix]) -> QMatrix:
    """The (num_blocks*block_size) square matrix with the square blocks
    blocks[(block_row, block_col)], 0-based, and zeros elsewhere."""
    n = num_blocks * block_size
    entries = [Fraction(0)] * (n * n)
    for (bi, bj), m in blocks.items():
        if m.nrows != block_size or m.ncols != block_size:
            raise ValueError(f"block at {(bi, bj)} is {m.nrows}x{m.ncols}, expected {block_size}")
        for i in range(block_size):
            base = (bi * block_size + i) * n + bj * block_size
            for j in range(block_size):
                entries[base + j] = m.get(i, j)
    return QMatrix(n, n, entries)


def dense_label_matrices(w):
    """A wreath label's even and odd matrices built densely, as a reference
    for its compiled substitution: the g_i block at block position
    (sigma^{-1}(i), i)."""
    inv = w.sigma.inverse()
    n = len(w.gs)

    def dense(blocks):
        return assemble_blocks(n, blocks[0].nrows, {(inv(i) - 1, i - 1): b for i, b in enumerate(blocks, 1)})

    return dense([g.g0 for g in w.gs]), dense([g.g1 for g in w.gs])


def dense_columns(m: QMatrix, r: int) -> dict:
    """Each column of m, a label's matrix on rows of r variables, as the
    image of its variable: column k is variable (k // r + 1, k % r + 1),
    and its image the tuple of (variable, value) pairs of its nonzero
    entries in row order, rows named the same way and integral values as
    ints."""
    names = [(k // r + 1, k % r + 1) for k in range(m.nrows)]
    return {
        names[k]: tuple((names[i], exact(m.get(i, k))) for i in range(m.nrows) if m.get(i, k))
        for k in range(m.ncols)
    }


def close(r0: int, r1: int, generators) -> list[tuple[QMatrix, QMatrix]]:
    """The group generated by (g0, g1) pairs, as such pairs in BFS order of
    right multiplication by the generators, sorted by their dense entries
    and without repeats."""
    gens = sorted(set(generators), key=lambda g: (g[0].entries, g[1].entries))
    identity = (QMatrix.identity(r0), QMatrix.identity(r1))
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                prod = (mul(e[0], g[0]), mul(e[1], g[1]))
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return elements

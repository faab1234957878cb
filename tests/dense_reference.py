"""Dense reference arithmetic on QMatrix values, the oracle of the sparse
column kernels: the row-by-column product, difference and scaling, block
assembly, and a BFS closure of graded generators held as (g0, g1) pairs of
dense matrices.  The package itself keeps matrices as sparse columns and
does no dense arithmetic."""

from fractions import Fraction
from typing import Mapping

from supermolien.linalg import QMatrix


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

"""Finite group machinery: permutations, graded matrix groups, wreath elements.

A graded group element carries two square matrices, g0 acting on the r0
commuting variables and g1 on the r1 anticommuting ones, as sparse columns
only (GradedGroupElement.columns); a non-square block is refused when the
element is made (NotSquare), so its shape is the pair (r0, r1) and every
later shape check is one compare of pairs.  A group, MatrixGroup or
PermGroup, is its elements in closure order and its generators, nothing
else: elements and permutations both multiply by *, and a lookup by
element is a dict built by its one reader or a search of elements.  A
permutation's sign is (-1)^(n - number of cycles), read off its stored
cycles.  Wreath elements are labels (sigma, (g_1..g_n)); each acts on the
n rows by one block matrix per graded part, compiled once per label into
WreathElement.substitution, or refused when its blocks are not alike: each
variable's image keyed by (row, col), the columns of its element moved to
another row.  Each element moves its columns once per pair of rows
(GradedGroupElement.moves), into one dict of images per graded part, and
the labels share those dicts: a compile is one dict.update per row and
part.  The algebra layer maps whole term maps through the compile; the
Molien sum walks the same moved columns a cycle of rows at a time.  Every
compute-once attribute (a permutation's cycles and sign, moves, monomial,
substitution) is the lock-free descriptor once.

This module is the one presentation of the wreath product P[G], for G a
matrix group or a permutation group: one enumerator of its labels, behind
one degree check (require_degree) and one WREATH_CAP check of its
|P| * |G|^n labels (require_wreath).  The enumerator pairs given row
permutations with G^n; perm_group_of_wreath realizes P[G] on it, as a
permutation group of the points, generated by wreath_generators, which
plants each generator of G in every row.  The shuffle battery keeps its
own generators of S_n[G], G's in row 1 only (shuffle's
_wreath_generator_labels): S_n moves them into every row, and planting
them in every row made the battery's largest perfbench case over 10%
slower.  The routes of molien keep P[G] as its factors, a GroupAction,
which checks each sigma's degree when it is made; the Molien route
builds none of its labels, and the Reynolds route builds P's and G's,
|P| + |G| labels by the one validating WreathElement constructor, after
the same WREATH_CAP check.  A linear character is a plain tuple of +-1 ints
aligned with its group's element order (validate_character);
sign_character is the one sign function.  shuffle_reps enumerates the
minimal coset representatives of a Young subgroup S_blocks, for any
number of row blocks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    CapExceeded,
    DegreeMismatch,
    DimensionMismatch,
    NotAPermutationGroup,
    NotInvertible,
    NotSquare,
)
from .linalg import QMatrix, _columns, _compose, _rank_rows
from .rationals import parse_int

CLOSURE_CAP = 20000
WREATH_CAP = 200000


class once:
    """A compute-once attribute: the method runs on the first read of the
    attribute and its value goes into the instance's __dict__, where every
    later read finds it before this descriptor.  functools.cached_property
    without its lock, which on Python 3.11 every first read takes: two
    threads racing on one object's first read may both compute it, and
    one of the equal values is kept.  A method that raises stores nothing."""

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.method(obj)
        return value


class Permutation:
    """Permutation of {1..n} in one-line notation: i maps to images[i-1],
    each image read by parse_int, so 2.9 or True is refused, not truncated.
    Its cycles and sign are compute-once attributes (once), kept in its
    __dict__; ==, hash and repr read images alone."""

    __slots__ = ("images", "__dict__")

    def __init__(self, images: Iterable[int]):
        images = tuple([parse_int(i, "permutation image") for i in images])
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @staticmethod
    def from_cycles(n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)((cyc[0],))):
                images[a - 1] = b
        return Permutation(images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """(self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValueError("degree mismatch")
        return Permutation(self.images[other.images[i - 1] - 1] for i in range(1, self.n + 1))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(inv)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def matrix(self) -> QMatrix:
        """Permutation matrix sending e_j to e_{sigma(j)}."""
        n = self.n
        return QMatrix(
            n, n, [Fraction(int(self.images[j] == i + 1)) for i in range(n) for j in range(n)]
        )

    @once
    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """The cycles, each as (i, p(i), p(p(i)), ..) from its least point
        i, in the order of those points: walked once per permutation object."""
        images = self.images
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            cycle = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cycle.append(i)
                i = images[i - 1]
            if cycle:
                out.append(tuple(cycle))
        return tuple(out)

    @once
    def sign(self) -> int:
        """(-1)^(n - number of cycles), read off the stored cycles once
        per permutation object."""
        return -1 if (self.n - len(self.cycles)) % 2 else 1


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Cycle lengths, weakly decreasing (a partition of n)."""
    return tuple(sorted(map(len, p.cycles), reverse=True))


def symmetric_generators(n: int) -> list[Permutation]:
    """Generators of S_n: the transposition (1 2) and, for n > 2, the
    n-cycle (1 2 .. n); none for n < 2."""
    if n < 2:
        return []
    gens = [Permutation.from_cycles(n, [(1, 2)])]
    if n > 2:
        gens.append(Permutation.from_cycles(n, [tuple(range(1, n + 1))]))
    return gens


class _Moves(dict):
    """An element's square blocks moved between rows, built on first use
    of a move: self[i, b] holds, for g0 and for g1, the dict mapping each
    variable (i, c) to its image, the ((b, c'), x) pairs of column c's
    nonzero entries x, in rows c' of the block."""

    def __init__(self, columns: tuple):
        super().__init__()
        self.columns = columns

    def __missing__(self, move: tuple[int, int]) -> tuple:
        i, b = move
        pairs = self[move] = tuple(
            {(i, c): tuple([((b, cp + 1), x) for cp, x in col]) for c, col in enumerate(cols, 1)}
            for cols in self.columns
        )
        return pairs


@dataclass(frozen=True, init=False)
class GradedGroupElement:
    """A pair of square matrices, g0 (r0 x r0) on the commuting part and g1
    (r1 x r1) on the anticommuting part, stored only as their columns, both
    parts in the form of linalg._columns: a non-square block is refused
    when the element is made (NotSquare).  shape is (r0, r1), the number
    of columns of each part; g0 and g1 are dense views, for output and the
    generator order only."""

    columns: tuple

    def __init__(self, g0: QMatrix, g1: QMatrix):
        for name, m in (("g0", g0), ("g1", g1)):
            if not m.is_square():
                raise NotSquare(f"block {name} is {m.nrows}x{m.ncols}, not square")
        object.__setattr__(self, "columns", (_columns(g0), _columns(g1)))

    @staticmethod
    def _of(columns: tuple) -> "GradedGroupElement":
        g = object.__new__(GradedGroupElement)
        object.__setattr__(g, "columns", columns)
        return g

    @staticmethod
    def identity(r0: int, r1: int) -> "GradedGroupElement":
        return GradedGroupElement._of(tuple(tuple(((c, 1),) for c in range(r)) for r in (r0, r1)))

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.columns[0]), len(self.columns[1])

    def __mul__(self, other: "GradedGroupElement") -> "GradedGroupElement":
        if self.shape != other.shape:
            raise ValueError(f"cannot multiply blocks {self.shape} by {other.shape}")
        return GradedGroupElement._of(tuple(_compose(x, y) for x, y in zip(self.columns, other.columns)))

    def _dense(self, part: int) -> QMatrix:
        r = self.shape[part]
        entries = [0] * (r * r)
        for c, col in enumerate(self.columns[part]):
            for i, x in col:
                entries[i * r + c] = x
        return QMatrix(r, r, entries)

    @property
    def g0(self) -> QMatrix:
        return self._dense(0)

    @property
    def g1(self) -> QMatrix:
        return self._dense(1)

    def sort_key(self):
        return (self.g0.entries, self.g1.entries)

    @once
    def moves(self) -> _Moves:
        """moves[i, b]: the images square g0 and g1 give row i's variables
        in a label moving row i to row b, built once per element and move."""
        return _Moves(self.columns)

    @once
    def monomial(self) -> bool:
        """Every column of g0 and g1 has one nonzero entry and no two
        columns share its row: each variable maps to a multiple of one
        variable, distinct variables to distinct ones.  Computed once per
        element object."""
        return all(
            all(len(col) == 1 for col in cols) and len({col[0][0] for col in cols}) == len(cols)
            for cols in self.columns
        )


def _bfs_closure(identity, generators, cap, domain: str):
    """Deterministic closure: BFS over right multiplication (*) by sorted
    generators.  A refusal names how many generators there are and, by
    domain, what they act on, such as "on (r0, r1) = (1, 1)" or "of degree
    3"."""
    elements = [identity]
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for e in frontier:
            for g in generators:
                prod = e * g
                if prod not in seen:
                    if len(elements) >= cap:
                        count = f"{len(generators)} generator{'s' * (len(generators) != 1)}"
                        raise CapExceeded(f"group closure of {count} {domain} exceeded cap {cap}")
                    seen.add(prod)
                    elements.append(prod)
                    nxt.append(prod)
        frontier = nxt
    return elements


class MatrixGroup:
    """Finite group of graded matrix pairs, closed and deterministically
    ordered: its elements and its generators, nothing else."""

    __slots__ = ("r0", "r1", "elements", "generators")

    def __init__(self, r0: int, r1: int, elements: Sequence[GradedGroupElement], generators: Sequence[GradedGroupElement]):
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "generators", tuple(generators))

    def __setattr__(self, name, value):
        raise AttributeError("MatrixGroup is immutable")

    @staticmethod
    def close(r0: int, r1: int, generators: Iterable[GradedGroupElement], cap: int = CLOSURE_CAP) -> "MatrixGroup":
        """The closure of invertible generators on (r0, r1), at most cap
        elements; ValueError for a negative r0 or r1, DimensionMismatch for
        a generator of another shape."""
        if r0 < 0 or r1 < 0:
            raise ValueError(f"matrix group dimensions (r0, r1) = ({r0}, {r1}) must be nonnegative")
        gens = []
        for g in generators:
            if g.shape != (r0, r1):
                raise DimensionMismatch(
                    "generator blocks {0}x{0}/{1}x{1} do not match (r0, r1) = ({2}, {3})".format(*g.shape, r0, r1)
                )
            # a square block is invertible iff its columns have full rank
            if _rank_rows(map(dict, g.columns[0])) < r0 or _rank_rows(map(dict, g.columns[1])) < r1:
                raise NotInvertible("singular generator")
            gens.append(g)
        gens = sorted(set(gens), key=GradedGroupElement.sort_key)
        ident = GradedGroupElement.identity(r0, r1)
        elements = _bfs_closure(ident, gens, cap, f"on (r0, r1) = ({r0}, {r1})")
        return MatrixGroup(r0, r1, elements, gens)

    @staticmethod
    def trivial(r0: int, r1: int) -> "MatrixGroup":
        return MatrixGroup.close(r0, r1, [])

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return self.elements.index(GradedGroupElement.identity(self.r0, self.r1))

    def to_json_dict(self) -> dict:
        return {
            "r0": self.r0,
            "r1": self.r1,
            "generators": [
                {"g0": g.g0.to_json_rows(), "g1": g.g1.to_json_rows()} for g in self.generators
            ],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "MatrixGroup":
        r0, r1 = parse_int(data["r0"], "r0"), parse_int(data["r1"], "r1")
        gens = [
            GradedGroupElement(QMatrix.from_json_rows(g["g0"]), QMatrix.from_json_rows(g["g1"]))
            for g in data["generators"]
        ]
        return MatrixGroup.close(r0, r1, gens)


class PermGroup:
    """Finite permutation group, closed and deterministically ordered: its
    elements and its generators, nothing else."""

    __slots__ = ("n", "elements", "generators")

    def __init__(self, n: int, elements: Sequence[Permutation], generators: Sequence[Permutation]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "generators", tuple(generators))

    def __setattr__(self, name, value):
        raise AttributeError("PermGroup is immutable")

    @staticmethod
    def close(n: int, generators: Iterable[Permutation]) -> "PermGroup":
        """The closure of the generators of degree n; ValueError for n < 0,
        and n = 0 is the group of the one permutation of no points."""
        if n < 0:
            raise ValueError(f"permutation group degree {n} must be nonnegative")
        gens = []
        for p in generators:
            if p.n != n:
                raise DimensionMismatch(f"generator degree {p.n} != {n}")
            gens.append(p)
        gens = sorted(set(gens), key=lambda p: p.images)
        elements = _bfs_closure(Permutation.identity(n), gens, CLOSURE_CAP, f"of degree {n}")
        return PermGroup(n, elements, gens)

    @staticmethod
    @cache
    def symmetric(n: int) -> "PermGroup":
        """S_n, closed once per n: a PermGroup is immutable.  S_0 is the
        one permutation of no points."""
        return PermGroup.close(n, symmetric_generators(n))

    @staticmethod
    def cyclic(n: int) -> "PermGroup":
        """C_n, generated by the n-cycle (1 2 .. n); C_0 and C_1 have no
        generator."""
        return PermGroup.close(n, [Permutation.from_cycles(n, [tuple(range(1, n + 1))])] if n > 1 else [])

    @staticmethod
    def young(alpha: Sequence[int]) -> "PermGroup":
        """Young subgroup S_alpha inside S_n, n = sum(alpha)."""
        n = sum(alpha)
        gens = []
        offset = 0
        for part in alpha:
            for i in range(offset + 1, offset + part):
                gens.append(Permutation.from_cycles(n, [(i, i + 1)]))
            offset += part
        return PermGroup.close(n, gens)

    @staticmethod
    def trivial(n: int) -> "PermGroup":
        return PermGroup.close(n, [])

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity_index(self) -> int:
        return self.elements.index(Permutation.identity(self.n))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "generators": [list(p.images) for p in self.generators]}

    @staticmethod
    def from_json_dict(data: Mapping) -> "PermGroup":
        gens = [Permutation([parse_int(i, "generator image") for i in g]) for g in data["generators"]]
        return PermGroup.close(parse_int(data["n"], "n"), gens)


def matrix_group_to_perm_group(G: MatrixGroup, part: str = "even") -> PermGroup:
    """Reinterpret a matrix group whose chosen graded part consists of
    permutation matrices, column j holding a single 1 in row images[j] - 1;
    raises NotAPermutationGroup otherwise."""
    r, k = (G.r0, 0) if part == "even" else (G.r1, 1)
    perm_of = {}
    for index, e in enumerate(G.elements):
        images = [col[0][0] + 1 for col in e.columns[k] if len(col) == 1 and col[0][1] == 1]
        if sorted(images) != list(range(1, r + 1)):
            raise NotAPermutationGroup(f"element {index} is not a permutation matrix on its {part} part")
        perm_of[e] = Permutation(images)
    if len(set(perm_of.values())) != len(perm_of):
        raise NotAPermutationGroup("matrix group does not act faithfully by permutations")
    return PermGroup(r, perm_of.values(), [perm_of[g] for g in G.generators])


def sign_character(group: PermGroup | MatrixGroup) -> tuple[int, ...]:
    """The sign character sgn as +-1 ints aligned with the group's element
    order.  A MatrixGroup is read as the permutation action of its even
    part, or of its odd part when the even part is not a faithful action
    by permutation matrices; one NotAPermutationGroup naming both parts'
    reasons when neither part is."""
    if isinstance(group, MatrixGroup):
        try:
            group = matrix_group_to_perm_group(group, part="even")
        except NotAPermutationGroup as even:
            try:
                group = matrix_group_to_perm_group(group, part="odd")
            except NotAPermutationGroup as odd:
                reasons = f"even part: {even}; odd part: {odd}"
                raise NotAPermutationGroup(f"sgn needs a part that acts by permutations; {reasons}") from None
    return tuple(p.sign for p in group.elements)


@dataclass(frozen=True)
class WreathElement:
    """Label (sigma, (g_1..g_n)) for an element of P[G] acting on n rows."""

    sigma: Permutation
    gs: tuple[GradedGroupElement, ...]

    def __post_init__(self):
        if self.sigma.n != len(self.gs):
            raise DegreeMismatch(
                f"permutation degree {self.sigma.n} != {len(self.gs)} row factors"
            )

    @once
    def substitution(self) -> "Substitution":
        """The label's matrices, compiled once per label object and read by
        every route (see Substitution): variable (i, c) maps to column c of
        g_i moved to row sigma^{-1}(i), shared by every label making that
        move with g_i (GradedGroupElement.moves).  One-term exactly when
        every block is monomial; not a dataclass field.  DimensionMismatch,
        caching nothing, when the row blocks are not alike."""
        gs = self.gs
        one_term = True
        for g in gs:
            if g.shape != gs[0].shape:
                blocks = tuple([h.shape for h in gs])
                raise DimensionMismatch(f"label row blocks {blocks} are not alike")
            one_term = one_term and g.monomial
        even, odd = {}, {}
        for b, i in enumerate(self.sigma.images, 1):
            # the variables of row i = sigma(b) land in row b
            moved_even, moved_odd = gs[i - 1].moves[i, b]
            even.update(moved_even)
            odd.update(moved_odd)
        return Substitution(even, odd, one_term)


class Substitution(NamedTuple):
    """A wreath label's matrices, compiled once per label object from
    square row blocks alike in every row: a label whose blocks are not does
    not compile.  even and odd map each variable (row, col) to its image, a
    tuple of ((row', col'), coefficient) pairs, integral coefficients as
    ints: the label's matrix column by column, which the char-poly kernel
    reads as rows; both are empty on zero rows, which act on the scalars
    of any (r0, r1).  one_term says every image is a single term and
    distinct variables have distinct images, that is every block is
    monomial (GradedGroupElement.monomial), as for every label of P[G] with
    G a group of (scaled) signed permutation matrices: each monomial then
    maps to one monomial, and distinct monomials to distinct ones.  The
    algebra layer maps a whole term map through it in one call per label."""

    even: dict
    odd: dict
    one_term: bool


def require_degree(P: PermGroup | Permutation, n: int) -> None:
    """The one degree check of P[G] on n rows, for every route: P (or one
    row permutation) must act on exactly n rows."""
    if P.n != n:
        raise DegreeMismatch(f"P acts on {P.n} rows, expected {n}")


def require_wreath(p: int, g: int, n: int) -> None:
    """The cap check of the p * g^n labels (sigma, (g_1..g_n)) of P[G] on n
    rows, |P| = p and |G| = g, against WREATH_CAP: a refusal names the
    count, the cap, |P|, |G| and n."""
    total = p * g**n
    if total > WREATH_CAP:
        raise CapExceeded(f"wreath product has {total} elements, cap is {WREATH_CAP} (|P| = {p}, |G| = {g}, n = {n})")


def _wreath_labels(sigmas: Sequence[Permutation], G: MatrixGroup | PermGroup, n: int):
    """Every label (sigma, (g_1..g_n)) with sigma from sigmas and each g_i
    from G, sigma-major in element order: all of P[G] when sigmas are the
    elements of P.  Every sigma's degree and then the count
    (require_wreath) are checked at the call, before any label is made."""
    for sigma in sigmas:
        require_degree(sigma, n)
    require_wreath(len(sigmas), G.order, n)
    return ((sigma, gs) for sigma in sigmas for gs in itertools.product(G.elements, repeat=n))


def wreath_generators(
    perm_gens: Sequence[Permutation], G: MatrixGroup | PermGroup, n: int
) -> list[tuple[Permutation, tuple]]:
    """Generators (sigma, (g_1..g_n)) of P[G] on n rows, P generated by
    perm_gens: each sigma over identity rows, then each generator of G
    planted in each single row.  There are none for n = 0."""
    ident = G.elements[G.identity_index]
    out = [(sigma, (ident,) * n) for sigma in perm_gens]
    idp = Permutation.identity(n)
    for g in G.generators:
        for row in range(n):
            out.append((idp, (ident,) * row + (g,) + (ident,) * (n - row - 1)))
    return out


def validate_character(values: Sequence, group) -> tuple[int, ...]:
    """A linear character of `group` (a PermGroup or MatrixGroup) as +-1
    ints aligned with its element order, after checking chi(id) = 1,
    nonzero values, and chi(e*g) = chi(e)chi(g) for every element e and
    generator g.

    Every element is a word in the generators, so this is multiplicativity
    on the full product table at |G| * (number of generators) products.
    Rational-valued multiplicative characters of a finite group only take
    the values +1 and -1 (the only finite subgroup of Q* is {+-1}), so the
    values are ints and chi(g^{-1}) = chi(g).
    """
    vals = tuple(Fraction(v) for v in values)
    if len(vals) != len(group.elements):
        raise ValueError(f"character has {len(vals)} values for a group of order {len(group.elements)}")
    if any(v == 0 for v in vals):
        raise ValueError("character values must be nonzero")
    if vals[group.identity_index] != 1:
        raise ValueError("character must send the identity to 1")
    chi = dict(zip(group.elements, vals))
    for i, e in enumerate(group.elements):
        for g in group.generators:
            if chi[e * g] != chi[e] * chi[g]:
                raise ValueError(f"character is not multiplicative at pair ({i}, {group.elements.index(g)})")
    return tuple(int(v) for v in vals)


def _wreath_point_perm(sigma: Permutation, gs: Sequence[Permutation], n: int, r: int) -> Permutation:
    """Point (i, p) maps to (sigma(i), g_i(p)), rows flattened row-major."""
    images = [0] * (n * r)
    for i in range(1, n + 1):
        base = (sigma(i) - 1) * r
        gi = gs[i - 1]
        for p in range(1, r + 1):
            images[(i - 1) * r + p - 1] = base + gi(p)
    return Permutation(images)


def perm_group_of_wreath(P: PermGroup, G_perm: PermGroup, n: int) -> PermGroup:
    """P[G] realized as permutations of the n*r points (row i, point p)."""
    r = G_perm.n
    elements = [_wreath_point_perm(sigma, gs, n, r) for sigma, gs in _wreath_labels(P.elements, G_perm, n)]
    assert len(set(elements)) == len(elements)  # the imprimitive action is faithful
    generators = [
        _wreath_point_perm(sigma, gs, n, r) for sigma, gs in wreath_generators(P.generators, G_perm, n)
    ]
    return PermGroup(n * r, elements, generators)


def shuffle_count(blocks: Sequence[int]) -> int:
    """The number of minimal coset representatives of S_blocks in S_n,
    n = sum(blocks): the multinomial n! / prod(b!)."""
    return math.factorial(sum(blocks)) // math.prod(map(math.factorial, blocks))


@cache
def shuffle_reps(*blocks: int) -> tuple[Permutation, ...]:
    """Minimal-length coset representatives for the Young subgroup
    S_blocks in S_n, n = sum(blocks).

    Block by block, the block's values are placed increasingly on each
    lex combination of the positions still free; the last block takes the
    rest.  Each rep is increasing on every value block.  For blocks (a, b)
    that is: for each size-a subset S of positions in lex order, values
    1..a on S and a+1..a+b on the complement.  Built once per blocks,
    after shuffle_count(blocks) is checked against WREATH_CAP.
    """
    count = shuffle_count(blocks)
    if count > WREATH_CAP:
        raise CapExceeded(f"shuffle of {blocks} rows has {count} representatives, cap is {WREATH_CAP}")
    n = sum(blocks)
    # the positions of values 1, 2, .. in order, block by block
    placements: list[tuple[int, ...]] = [()]
    for size in blocks:
        placements = [
            done + chosen
            for done in placements
            for chosen in itertools.combinations([p for p in range(n) if p not in done], size)
        ]
    reps = []
    for done in placements:
        word = [0] * n
        for value, pos in enumerate(done, start=1):
            word[pos] = value
        reps.append(Permutation(word))
    return tuple(reps)

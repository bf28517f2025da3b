"""Combinatorics and representation theory of the symmetric group S_N.

Partitions label the irreducible representations, standard Young tableaux
index their bases, and the unitary matrices themselves are built in
Young's orthogonal form. Everything here is exact combinatorics plus
small dense numpy matrices; degrees beyond N ~ 8 are out of scope.
Partitions, tableaux and hook dimensions are numpy-free: numpy is
imported only where arrays are built (conjugacy_classes and
IrrepMatrices, which character uses), so the ``tableaux`` subcommand
never loads it.

Conventions used throughout the package:

* permutations are stored in one-line form with 1-based images,
  ``pi(i) = images[i-1]``;
* products compose right to left, ``(pi sigma)(i) = pi(sigma(i))``;
* a permutation acts on tensor slots by moving the content of slot ``i``
  to slot ``pi(i)`` (see :mod:`sectorkit.tensor_rep`).
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import TYPE_CHECKING

from .errors import DomainError, Value

if TYPE_CHECKING:
    import numpy as np


class Permutation(Value):
    """Element of S_N in one-line notation, ``pi(i) = images[i-1]``."""

    __slots__ = _fields = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = tuple(int(i) for i in images)
        n = len(images)
        if n == 0 or sorted(images) != list(range(1, n + 1)):
            raise DomainError(f"not a bijection of 1..{n}: {images}")
        object.__setattr__(self, "images", images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest element."""
        seen = [False] * self.degree
        out = []
        for start in range(1, self.degree + 1):
            if seen[start - 1]:
                continue
            cyc = []
            i = start
            while not seen[i - 1]:
                seen[i - 1] = True
                cyc.append(i)
                i = self(i)
            out.append(tuple(cyc))
        return out

    def sign(self) -> int:
        return -1 if (self.degree - len(self.cycles())) % 2 else 1

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        if not (1 <= i <= n and 1 <= j <= n and i != j):
            raise DomainError(f"invalid transposition ({i} {j}) in S_{n}")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

    @classmethod
    def from_cycles(cls, n: int, *cycles: tuple[int, ...]) -> "Permutation":
        images = list(range(1, n + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return cls(tuple(images))

    def adjacent_word(self) -> tuple[int, ...]:
        """Write pi as a product of adjacent transpositions s_k = (k, k+1).

        Returns indices (k_1, ..., k_r) with pi = s_{k_1} * ... * s_{k_r};
        bubble-sorting the one-line word records the factors.
        """
        word = list(self.images)
        swaps = []
        changed = True
        while changed:
            changed = False
            for k in range(len(word) - 1):
                if word[k] > word[k + 1]:
                    word[k], word[k + 1] = word[k + 1], word[k]
                    swaps.append(k + 1)
                    changed = True
        # pi * s_{j_1} * ... * s_{j_r} = e, so pi = s_{j_r} * ... * s_{j_1}
        return tuple(reversed(swaps))


def symmetric_group(n: int) -> list[Permutation]:
    """All of S_n in lexicographic one-line order (n! elements)."""
    if n < 1:
        raise DomainError("degree must be >= 1")
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def conjugacy_classes(images: np.ndarray) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Cycle types of many permutations at once, as class labels.

    images is a (k, n) array of one-line images (1-based), one permutation
    per row. Returns (types, label): label[r] numbers the class of row r,
    classes numbered by their first row, and types[c] is the cycle type
    of class c, its cycle lengths in non-increasing order. Each point's cycle
    length is the first power of the row that fixes it; a cycle of length
    L holds L points of length L, so the sorted point lengths determine
    the cycle type.
    """
    import numpy as np

    perm = np.asarray(images) - 1
    n = perm.shape[1]
    points = np.arange(n)
    lengths = np.zeros(perm.shape, dtype=np.min_scalar_type(n))
    power = perm
    for step in range(1, n + 1):
        lengths[(power == points) & (lengths == 0)] = step
        power = np.take_along_axis(perm, power, axis=1)
    # non-increasing rows compared as raw bytes; np.unique(axis=0) is ~20x slower
    keys = np.ascontiguousarray(np.sort(lengths, axis=1)[:, ::-1])
    rows = keys.view(np.dtype((np.void, keys.strides[0]))).ravel()
    _, first, label = np.unique(rows, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    types = []
    for row in keys[first[order]]:
        cycle_type, i = [], 0
        while i < n:
            cycle_type.append(int(row[i]))
            i += row[i]
        types.append(tuple(cycle_type))
    return types, rank[label]


class Partition(Value):
    """Non-increasing positive parts; labels an irreducible of S_total."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise DomainError("empty partition")
        if any(p <= 0 for p in parts):
            raise DomainError(f"parts must be positive: {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise DomainError(f"parts must be non-increasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        return Partition(tuple(sum(1 for p in self.parts if p > j) for j in range(self.parts[0])))

    def hooks(self) -> list[list[int]]:
        """Hook length of every cell, rows as in the frame."""
        conj = self.conjugate().parts
        return [
            [(row - (j + 1)) + (conj[j] - (i + 1)) + 1 for j in range(row)]
            for i, row in enumerate(self.parts)
        ]


def iter_partitions(n: int, max_parts: int | None = None):
    """Partitions of n with at most max_parts parts, as tuples, one at a time.

    Reverse-lexicographic order, (n,) first; nothing is held beyond the
    current partition, so a caller may stop after any prefix.
    """
    if n < 1:
        raise DomainError(f"no partitions of {n}")

    def gen(rest: int, max_part: int, slots: int):
        if rest == 0:
            yield ()
            return
        # the remaining slots must absorb rest with parts of at most `first`
        for first in range(min(rest, max_part), 0, -1):
            if slots < 1 or first * slots < rest:
                return
            for tail in gen(rest - first, first, slots - 1):
                yield (first,) + tail

    return gen(n, n, n if max_parts is None else max_parts)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n,) first."""
    return [Partition(p) for p in iter_partitions(n)]


class StandardTableau(Value):
    """Filling of a frame with 1..N, increasing along rows and down columns."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(int(v) for v in r) for r in rows)
        n = Partition(tuple(len(r) for r in rows)).total  # validates the frame
        entries = [v for row in rows for v in row]
        if sorted(entries) != list(range(1, n + 1)):
            raise DomainError(f"entries must be exactly 1..{n}: {rows}")
        for row in rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise DomainError(f"rows must increase left to right: {rows}")
        for i in range(1, len(rows)):
            for j in range(len(rows[i])):
                if rows[i - 1][j] >= rows[i][j]:
                    raise DomainError(f"columns must increase top to bottom: {rows}")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def position(self, value: int) -> tuple[int, int]:
        """(row, col), 0-based, of an entry."""
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v == value:
                    return i, j
        raise DomainError(f"{value} not in tableau")

    def content_distance(self, k: int) -> int:
        """Axial distance content(k+1) - content(k), content = col - row."""
        ri, ci = self.position(k)
        rj, cj = self.position(k + 1)
        return (cj - rj) - (ci - ri)

    def swap(self, k: int) -> "StandardTableau | None":
        """Exchange entries k and k+1; None if the result is not standard."""
        rows = [list(r) for r in self.rows]
        (ri, ci), (rj, cj) = self.position(k), self.position(k + 1)
        rows[ri][ci], rows[rj][cj] = k + 1, k
        try:
            return StandardTableau(tuple(tuple(r) for r in rows))
        except DomainError:
            return None


def standard_tableaux(shape: Partition) -> list[StandardTableau]:
    """All standard tableaux of the given shape, in a fixed generation order.

    Values 1..N are placed in increasing order; value v may extend any row
    that is still shorter than the row above it (and than its target length).
    """
    n = shape.total
    results: list[StandardTableau] = []

    def place(v: int, rows: list[list[int]]):
        if v > n:
            results.append(StandardTableau(tuple(tuple(r) for r in rows)))
            return
        for i, target in enumerate(shape.parts):
            if len(rows[i]) < target and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(v)
                place(v + 1, rows)
                rows[i].pop()

    place(1, [[] for _ in shape.parts])
    return results


def hook_dimension(shape: Partition) -> int:
    """Dimension of the irreducible labeled by the shape (hook-length formula)."""
    hook_product = reduce(lambda a, b: a * b, (h for row in shape.hooks() for h in row), 1)
    return math.factorial(shape.total) // hook_product


def row_col_groups(tableau: StandardTableau) -> tuple[list[Permutation], list[Permutation]]:
    """(Row(T), Col(T)): permutations preserving each row / each column setwise."""
    n = tableau.size
    cols = [
        tuple(tableau.rows[i][j] for i in range(len(tableau.rows)) if j < len(tableau.rows[i]))
        for j in range(len(tableau.rows[0]))
    ]

    def subgroup(blocks):
        members = []
        for images_per_block in itertools.product(
            *(itertools.permutations(block) for block in blocks)
        ):
            images = list(range(1, n + 1))
            for block, permuted in zip(blocks, images_per_block):
                for src, dst in zip(block, permuted):
                    images[src - 1] = dst
            members.append(Permutation(tuple(images)))
        return members

    return subgroup([tuple(r) for r in tableau.rows]), subgroup(cols)


class IrrepMatrices:
    """Unitary irreducible representation of S_N in Young's orthogonal form.

    The basis is the list of standard tableaux of the shape; matrices for
    adjacent transpositions follow the axial-distance rule and arbitrary
    elements are products along an adjacent-transposition word. All
    entries are real, every matrix is orthogonal.
    """

    def __init__(self, shape: Partition):
        self.shape = shape
        self.tableaux = standard_tableaux(shape)
        self.dimension = len(self.tableaux)
        self._n = shape.total
        self._index = {t.rows: i for i, t in enumerate(self.tableaux)}
        self._adjacent = [self._adjacent_matrix(k) for k in range(1, self._n)]

    def _adjacent_matrix(self, k: int) -> np.ndarray:
        import numpy as np

        d = self.dimension
        mat = np.zeros((d, d))
        for i, tab in enumerate(self.tableaux):
            dist = tab.content_distance(k)
            mat[i, i] = 1.0 / dist
            swapped = tab.swap(k)
            if swapped is not None:
                j = self._index[swapped.rows]
                mat[j, i] = math.sqrt(1.0 - 1.0 / dist**2)
        return mat

    def matrix(self, pi: Permutation) -> np.ndarray:
        """Representing matrix of pi: real orthogonal, float64, as Young's form gives it."""
        import numpy as np

        if pi.degree != self._n:
            raise DomainError(f"degree mismatch: {pi.degree} vs {self._n}")
        mat = np.eye(self.dimension)
        for k in pi.adjacent_word():
            mat = mat @ self._adjacent[k - 1]
        return mat


def irrep(shape: Partition) -> IrrepMatrices:
    """The unitary irreducible representation of S_N labeled by the shape."""
    return IrrepMatrices(shape)


def character(shape: Partition, pi: Permutation, rep: IrrepMatrices | None = None) -> float:
    """Trace of the representing matrix; constant on conjugacy classes."""
    rep = rep if rep is not None else irrep(shape)
    return float(rep.matrix(pi).trace())

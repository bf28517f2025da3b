"""Permutations and the representation theory of the symmetric group S_N.

Partitions label the irreducible representations and standard Young
tableaux index their bases (both in partitions, whose names are
imported here so that permgroup.Partition and the others still
resolve); the unitary matrices themselves are built here in Young's
orthogonal form. Everything here is exact combinatorics plus small
dense numpy matrices; degrees beyond N ~ 8 are out of scope. numpy is
imported only where arrays are built (conjugacy_classes and
IrrepMatrices, which character uses), so that a module importing
permgroup can still compile before numpy loads (README Conventions).
Young's generator matrices themselves are plain float lists
(young_generators), from which the cover census builds its stacks
without numpy.

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
from typing import TYPE_CHECKING

from .errors import DomainError, Value
# the partition names are re-exported for the tests and the acceptance
# suite, which still import them from here
from .partitions import (
    Partition,
    StandardTableau,
    enumerate_partitions,
    hook_dimension,
    iter_partitions,
    standard_tableaux,
)

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
        import numpy as np

        self.shape = shape
        self.tableaux = standard_tableaux(shape)
        self.dimension = len(self.tableaux)
        self._n = shape.total
        d = self.dimension
        self._adjacent = [np.array(m).reshape(d, d) for m in young_generators(shape, self.tableaux)]

    def matrix(self, pi: Permutation) -> np.ndarray:
        """Representing matrix of pi: real orthogonal, float64, as Young's form gives it."""
        import numpy as np

        if pi.degree != self._n:
            raise DomainError(f"degree mismatch: {pi.degree} vs {self._n}")
        mat = np.eye(self.dimension)
        for k in pi.adjacent_word():
            mat = mat @ self._adjacent[k - 1]
        return mat


def young_generators(
    shape: Partition, tableaux: list[StandardTableau] | None = None
) -> list[list[float]]:
    """Young's orthogonal matrices of the adjacent transpositions s_1, ..., s_{N-1}.

    Each is d x d over the standard tableaux of the shape, row-major in one
    list of floats: column i holds 1/r at row i, r the axial distance of
    k and k+1 in tableau i, and sqrt(1 - 1/r**2) at the row of the tableau
    with k and k+1 exchanged, when that tableau is standard. Plain Python,
    so the cover census builds its stacks from them without numpy.
    """
    tableaux = standard_tableaux(shape) if tableaux is None else tableaux
    index = {t.rows: i for i, t in enumerate(tableaux)}
    d = len(tableaux)
    mats = []
    for k in range(1, shape.total):
        mat = [0.0] * (d * d)
        for i, tab in enumerate(tableaux):
            dist = tab.content_distance(k)
            mat[i * d + i] = 1.0 / dist
            swapped = tab.swap(k)
            if swapped is not None:
                mat[index[swapped.rows] * d + i] = math.sqrt(1.0 - 1.0 / dist**2)
        mats.append(mat)
    return mats


def irrep(shape: Partition) -> IrrepMatrices:
    """The unitary irreducible representation of S_N labeled by the shape."""
    return IrrepMatrices(shape)


def character(shape: Partition, pi: Permutation, rep: IrrepMatrices | None = None) -> float:
    """Trace of the representing matrix; constant on conjugacy classes."""
    rep = rep if rep is not None else irrep(shape)
    return float(rep.matrix(pi).trace())

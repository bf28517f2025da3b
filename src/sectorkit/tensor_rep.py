"""Dense reference builders for the permutation action on (C^m)^{tensor N}.

The natural unitary action moves the content of slot i to slot pi(i);
with flat indices taking slot 1 as most significant this makes
U(pi) U(sigma) = U(pi sigma) for the composition (pi sigma)(i) =
pi(sigma(i)). Every sum of U(pi) is filled in from flat index maps, and
central projectors from conjugacy-class sums with one character per
class. Commutant orbits are labeled by the multiset of per-slot digit
pairs, so their number needs no basis. Dense results are guarded by a
dimension cap, enumerations of S_N and the dense commutant basis by an
estimate of their bytes.

These builders serve as references for the certificates the CLI runs;
no subcommand loads this module. The sector decomposition those
certificates report lives in schur_weyl, which holds no dense builder
and no floating point, and is imported here by name with its report types.
"""

from __future__ import annotations

import itertools
import math

# sectorkit modules before numpy (README Conventions)
from .errors import DomainError, ResourceLimitError, Value, check_bytes
from .partitions import Partition, StandardTableau, hook_dimension
from .permgroup import (
    Permutation,
    character,
    conjugacy_classes,
    irrep,
    row_col_groups,
    symmetric_group,
)
# sector_decomposition and its report types are re-exported for the acceptance
# tests and perfbench's TRACED list, which still name them here
from .schur_weyl import SectorRecord, SectorReport, sector_decomposition
from . import linalg

import numpy as np

# Cap on the tensor-space dimension m**N: a dense operator then holds at
# most ~1e6 complex entries.
DIM_CAP = 1024

# S_N and one int64 index map per element take N! * (PERMUTATION_BYTES +
# 8 * m**N) bytes ((2, 8): ~90 MiB; a Permutation takes ~150 bytes at
# N = 8). Against errors.BYTES_CAP, (1, 10) and (2, 9) are refused.
PERMUTATION_BYTES = 256
COMPLEX_BYTES = 16


class TensorSpace(Value):
    """Index bookkeeping for (C^m)^{tensor N}, slot 1 most significant."""

    _fields = ("m", "N")

    def _validate(self):
        if self.m < 1 or self.N < 1:
            raise DomainError(f"need m >= 1 and N >= 1, got m={self.m}, N={self.N}")

    @property
    def dimension(self) -> int:
        return self.m**self.N

    def digits(self) -> np.ndarray:
        """Array D with D[i, k] = digit of flat index i at slot k+1 (0-based)."""
        idx = np.arange(self.dimension)
        return np.stack(
            [(idx // self.m ** (self.N - 1 - k)) % self.m for k in range(self.N)], axis=1
        )


def _scatter_sum(maps: np.ndarray, coeffs) -> np.ndarray:
    """Real dense sum_k coeffs[k] P_k, by one unbuffered scatter-add.

    P_k has a one in row maps[k, i] of column i. np.add.at adds in k
    order, entry by entry.
    """
    dim = maps.shape[1]
    acc = np.zeros((dim, dim))
    np.add.at(acc, (maps, np.arange(dim)), np.asarray(coeffs, dtype=float)[:, None])
    return acc


def _check_cap(dim: int) -> None:
    if dim > DIM_CAP:
        raise ResourceLimitError(f"tensor dimension {dim} exceeds cap {DIM_CAP}")


def _check_group_cost(m: int, n: int) -> None:
    """Dimension cap, then refuse to enumerate S_n beyond the byte cap."""
    _check_cap(m**n)
    TensorSpace(m, n)  # validates m and n
    # 20! permutations alone exceed any cap; skip computing larger factorials
    cost = math.factorial(min(n, 20)) * (PERMUTATION_BYTES + 8 * m**n)
    check_bytes(cost, f"enumerating S_{n} on (C^{m})^(x{n})")


def _check_commutant_cost(m: int, n: int) -> None:
    """Dimension cap, then refuse a dense commutant basis beyond the byte cap.

    The basis holds one complex m**n x m**n matrix per multiset of n matrix
    units, C(m*m + n - 1, n) of them ((4, 3): ~53 MB; (5, 3): ~731 MB).
    """
    _check_cap(m**n)
    TensorSpace(m, n)  # validates m and n
    cost = math.comb(m * m + n - 1, n) * m ** (2 * n) * COMPLEX_BYTES
    check_bytes(cost, f"the commutant basis of (C^{m})^(x{n})")


def _images(perms: list[Permutation]) -> np.ndarray:
    """One-line images (1-based) of the permutations, one row each."""
    return np.array([pi.images for pi in perms])


def _index_maps(images: np.ndarray, m: int) -> np.ndarray:
    """Flat-index maps of the slot action: row k, column i is U(pi_k) e_i,
    where images[k] is the one-line form of pi_k."""
    n = images.shape[1]
    return (m ** (n - images)) @ TensorSpace(m, n).digits().T



def _operator_sum(images: np.ndarray, coeffs, m: int) -> np.ndarray:
    """Real dense sum_k coeffs[k] U(pi_k); images[k] is the one-line form of pi_k."""
    return _scatter_sum(_index_maps(images, m), coeffs)


def permutation_operator(pi: Permutation, m: int) -> np.ndarray:
    """Unitary 0/1 matrix of the slot action of pi on (C^m)^{tensor N}."""
    _check_cap(m**pi.degree)
    return _operator_sum(_images([pi]), [1.0], m).astype(complex)


def symmetrizer(N: int, m: int) -> np.ndarray:
    """Orthogonal projector onto the fully symmetric subspace."""
    _check_group_cost(m, N)
    group = symmetric_group(N)
    total = _operator_sum(_images(group), np.ones(len(group)), m)
    return (total / math.factorial(N)).astype(complex)


def antisymmetrizer(N: int, m: int) -> np.ndarray:
    """Orthogonal projector onto the fully antisymmetric subspace."""
    _check_group_cost(m, N)
    group = symmetric_group(N)
    signs = [pi.sign() for pi in group]
    return (_operator_sum(_images(group), signs, m) / math.factorial(N)).astype(complex)


def young_projector(tableau: StandardTableau, m: int) -> np.ndarray:
    """Young symmetrizer of a standard tableau, acting on (C^m)^{tensor N}.

    (N_lambda / N!) * (signed column sum) @ (row sum). Idempotent; for
    mixed tableaux generally not Hermitian, so its image is cut out
    obliquely (Q Q*, with Q = linalg.orthonormal_range of it, is the
    orthogonal projector onto the same image).
    """
    n = tableau.size
    _check_group_cost(m, n)
    rows, cols = row_col_groups(tableau)
    row_sum = _operator_sum(_images(rows), np.ones(len(rows)), m)
    col_sum = _operator_sum(_images(cols), [pi.sign() for pi in cols], m)
    scale = hook_dimension(tableau.shape) / math.factorial(n)
    return (scale * (col_sum @ row_sum)).astype(complex)


def _central_projectors(shapes: list[Partition], m: int) -> list[np.ndarray]:
    """Real z_lambda = (d_lambda / N!) sum_C chi_lambda(C) K_C, one per shape.

    S_N is enumerated as one image array, in lexicographic order, and split
    into classes by one vectorized cycle-type pass. The class sums
    K_C = sum_{pi in C} U(pi) are built once. chi_lambda(C) is the trace of
    one irrep matrix of the class's first element; S_N characters are real
    with chi(pi^-1) = chi(pi).
    """
    n = shapes[0].total
    images = np.array(list(itertools.permutations(range(1, n + 1))))
    _, label = conjugacy_classes(images)
    classes = [images[label == c] for c in range(label.max() + 1)]
    class_sums = [_operator_sum(c, np.ones(len(c)), m) for c in classes]
    projectors = []
    for shape in shapes:
        rep = irrep(shape)
        chars = [character(shape, Permutation(c[0]), rep) for c in classes]
        z = sum(chi * k for chi, k in zip(chars, class_sums))
        projectors.append((rep.dimension / math.factorial(n)) * z)
    return projectors


def central_projector(shape: Partition, m: int) -> np.ndarray:
    """Isotypic (central) projector z_lambda = (N_l/N!) sum chi(pi^-1) U(pi)."""
    n = shape.total
    _check_group_cost(m, n)
    return _central_projectors([shape], m)[0].astype(complex)


def _generators(N: int) -> list[Permutation]:
    if N == 1:
        return []
    gens = [Permutation.transposition(N, 1, 2)]
    if N > 2:
        gens.append(Permutation.from_cycles(N, tuple(range(1, N + 1))))
    return gens


def _entry_orbit_table(m: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of simultaneous slot permutation on flat entries row * m**N + col.

    A slot permutation permutes the per-slot digit pairs (row_k, col_k) of
    an entry, so their sorted codes label its orbit; equivalently the
    supports of the matrix units averaged over S_N. Returns every entry
    once, grouped by orbit, and the K + 1 orbit boundaries: orbit o is
    entries[starts[o]:starts[o + 1]]. Each orbit is sorted, and they are
    ordered by smallest flat entry index.
    """
    digits = TensorSpace(m, N).digits()
    codes = np.sort((digits[:, None, :] * m + digits[None, :, :]).reshape(-1, N), axis=1)
    keys = codes @ (m * m) ** np.arange(N)
    _, first, label = np.unique(keys, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(len(first))
    orbit = rank[label]
    starts = np.concatenate(([0], np.cumsum(np.bincount(orbit))))
    return np.argsort(orbit, kind="stable"), starts


def _entry_orbits(m: int, N: int) -> list[np.ndarray]:
    """The entry orbits of _entry_orbit_table, one sorted array each."""
    entries, starts = _entry_orbit_table(m, N)
    return np.split(entries, starts[1:-1])


def commutant_basis(m: int, N: int) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of {A : [A, U(pi)] = 0 for all pi}.

    Matrix units averaged over the group have disjoint supports given by
    the entry orbits, so the normalized orbit indicators are an exact
    orthonormal basis. Ordered by smallest flat entry index. Refused
    before any allocation when its dense matrices exceed the byte cap.
    """
    dim = m**N
    _check_commutant_cost(m, N)
    basis = []
    for orbit in _entry_orbits(m, N):
        mat = np.zeros((dim, dim), dtype=complex)
        rows, cols = np.divmod(orbit, dim)
        mat[rows, cols] = 1.0 / math.sqrt(len(orbit))
        basis.append(mat)
    return basis


def commutant_dimension_nullspace(m: int, N: int) -> int:
    """dim of the commutant from the kernel of the generator commutators.

    The linear system [A, U(g)] = 0 over the generators is a difference
    of entry permutations, so its null space is spanned by orbit
    indicators; for small spaces the kernel is solved by successive
    restriction (linalg.commutant_basis_of), beyond that the entry orbits
    are counted.
    """
    dim = m**N
    _check_cap(dim)
    gens = _generators(N)
    if not gens:
        return dim * dim
    if dim <= 32:
        return len(linalg.commutant_basis_of([permutation_operator(g, m) for g in gens]))
    return len(_entry_orbits(m, N))

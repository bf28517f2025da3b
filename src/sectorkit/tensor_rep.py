"""Permutation action on (C^m)^{tensor N} and its sector decomposition.

The natural unitary action moves the content of slot i to slot pi(i);
with flat indices taking slot 1 as most significant this makes
U(pi) U(sigma) = U(pi sigma) for the composition (pi sigma)(i) =
pi(sigma(i)). Every sum of U(pi) is filled in from flat index maps, and
central projectors from conjugacy-class sums with one character per
class. Commutant orbits are labeled by the multiset of per-slot digit
pairs, so their number needs no basis. Dense results are guarded by a
dimension cap, enumerations of S_N and the dense commutant basis by an
estimate of their bytes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import ConsistencyError, DomainError, ResourceLimitError
from .permgroup import (
    Partition,
    Permutation,
    StandardTableau,
    character,
    conjugacy_classes,
    enumerate_partitions,
    hook_dimension,
    irrep,
    row_col_groups,
    symmetric_group,
)

# Cap on the tensor-space dimension m**N: a dense operator then holds at
# most ~1e6 complex entries.
DEFAULT_DIM_CAP = 1024

# Cap on the estimated bytes N! * (PERMUTATION_BYTES + 8 * m**N) of S_N
# and one int64 index map per element ((2, 8): ~90 MiB; a Permutation
# takes ~190 bytes at N = 8). (1, 10) and (2, 9) are refused.
GROUP_BYTES_CAP = 256 * 2**20
PERMUTATION_BYTES = 256
COMPLEX_BYTES = 16


@dataclass(frozen=True)
class TensorSpace:
    """Index bookkeeping for (C^m)^{tensor N}, slot 1 most significant."""

    m: int
    N: int

    def __post_init__(self):
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


def _check_cap(dim: int, dim_cap: int | None) -> None:
    cap = DEFAULT_DIM_CAP if dim_cap is None else dim_cap
    if dim > cap:
        raise ResourceLimitError(f"tensor dimension {dim} exceeds cap {cap}")


def _check_group_cost(m: int, n: int, dim_cap: int | None) -> None:
    """Dimension cap, then refuse to enumerate S_n beyond the byte cap."""
    _check_cap(m**n, dim_cap)
    TensorSpace(m, n)  # validates m and n
    # 20! permutations alone exceed any cap; skip computing larger factorials
    cost = math.factorial(min(n, 20)) * (PERMUTATION_BYTES + 8 * m**n)
    if cost > GROUP_BYTES_CAP:
        raise ResourceLimitError(
            f"enumerating S_{n} on (C^{m})^(x{n}) needs at least ~{cost / 2**20:.3g} MiB, "
            f"cap {GROUP_BYTES_CAP // 2**20} MiB"
        )


def _check_commutant_cost(m: int, n: int, dim_cap: int | None) -> None:
    """Dimension cap, then refuse a dense commutant basis beyond the byte cap.

    The basis holds one complex m**n x m**n matrix per multiset of n matrix
    units, C(m*m + n - 1, n) of them ((4, 3): ~53 MB; (5, 3): ~731 MB).
    """
    _check_cap(m**n, dim_cap)
    TensorSpace(m, n)  # validates m and n
    cost = math.comb(m * m + n - 1, n) * m ** (2 * n) * COMPLEX_BYTES
    if cost > GROUP_BYTES_CAP:
        raise ResourceLimitError(
            f"the commutant basis of (C^{m})^(x{n}) needs ~{cost / 2**20:.3g} MiB, "
            f"cap {GROUP_BYTES_CAP // 2**20} MiB"
        )


def _images(perms: list[Permutation]) -> np.ndarray:
    """One-line images (1-based) of the permutations, one row each."""
    return np.array([pi.images for pi in perms])


def _index_maps(images: np.ndarray, m: int) -> np.ndarray:
    """Flat-index maps of the slot action: row k, column i is U(pi_k) e_i,
    where images[k] is the one-line form of pi_k."""
    n = images.shape[1]
    return (m ** (n - images)) @ TensorSpace(m, n).digits().T


def _operator_sum(images: np.ndarray, coeffs, m: int) -> np.ndarray:
    """Real dense sum_k coeffs[k] U(pi_k), by one unbuffered scatter-add.

    images[k] is the one-line form of pi_k; U(pi_k) has a one in row
    maps[k, i] of column i. np.add.at adds in k order, entry by entry.
    """
    maps = _index_maps(images, m)
    dim = maps.shape[1]
    acc = np.zeros((dim, dim))
    np.add.at(acc, (maps, np.arange(dim)), np.asarray(coeffs, dtype=float)[:, None])
    return acc


def permutation_operator(pi: Permutation, m: int, dim_cap: int | None = None) -> np.ndarray:
    """Unitary 0/1 matrix of the slot action of pi on (C^m)^{tensor N}."""
    _check_cap(m**pi.degree, dim_cap)
    return _operator_sum(_images([pi]), [1.0], m).astype(complex)


def symmetrizer(N: int, m: int, dim_cap: int | None = None) -> np.ndarray:
    """Orthogonal projector onto the fully symmetric subspace."""
    _check_group_cost(m, N, dim_cap)
    group = symmetric_group(N)
    total = _operator_sum(_images(group), np.ones(len(group)), m)
    return (total / math.factorial(N)).astype(complex)


def antisymmetrizer(N: int, m: int, dim_cap: int | None = None) -> np.ndarray:
    """Orthogonal projector onto the fully antisymmetric subspace."""
    _check_group_cost(m, N, dim_cap)
    group = symmetric_group(N)
    signs = [pi.sign() for pi in group]
    return (_operator_sum(_images(group), signs, m) / math.factorial(N)).astype(complex)


def young_projector(
    tableau: StandardTableau, m: int, dim_cap: int | None = None
) -> np.ndarray:
    """Young symmetrizer of a standard tableau, acting on (C^m)^{tensor N}.

    (N_lambda / N!) * (signed column sum) @ (row sum). Idempotent; for
    mixed tableaux generally not Hermitian, so its image is cut out
    obliquely (use :func:`hermitian_range_projector` for the orthogonal
    projector onto the same image).
    """
    n = tableau.size
    _check_group_cost(m, n, dim_cap)
    rows, cols = row_col_groups(tableau)
    row_sum = _operator_sum(_images(rows), np.ones(len(rows)), m)
    col_sum = _operator_sum(_images(cols), [pi.sign() for pi in cols], m)
    scale = hook_dimension(tableau.shape) / math.factorial(n)
    return (scale * (col_sum @ row_sum)).astype(complex)


def hermitian_range_projector(p: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto range(p), by rank-revealing decomposition."""
    q = linalg.orthonormal_range(p)
    return q @ linalg.dagger(q)


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


def central_projector(shape: Partition, m: int, dim_cap: int | None = None) -> np.ndarray:
    """Isotypic (central) projector z_lambda = (N_l/N!) sum chi(pi^-1) U(pi)."""
    n = shape.total
    _check_group_cost(m, n, dim_cap)
    return _central_projectors([shape], m)[0].astype(complex)


def _generators(N: int) -> list[Permutation]:
    if N == 1:
        return []
    gens = [Permutation.transposition(N, 1, 2)]
    if N > 2:
        gens.append(Permutation.from_cycles(N, tuple(range(1, N + 1))))
    return gens


def _entry_orbits(m: int, N: int) -> list[np.ndarray]:
    """Orbits of simultaneous slot permutation on flat entries row * m**N + col.

    A slot permutation permutes the per-slot digit pairs (row_k, col_k) of
    an entry, so their sorted codes label its orbit; equivalently the
    supports of the matrix units averaged over S_N. Each orbit is sorted,
    and they are ordered by smallest flat entry index.
    """
    digits = TensorSpace(m, N).digits()
    codes = np.sort((digits[:, None, :] * m + digits[None, :, :]).reshape(-1, N), axis=1)
    keys = codes @ (m * m) ** np.arange(N)
    _, first, label = np.unique(keys, return_index=True, return_inverse=True)
    orbits = np.split(np.argsort(label, kind="stable"), np.cumsum(np.bincount(label))[:-1])
    return [orbits[k] for k in np.argsort(first)]


def commutant_basis(m: int, N: int, dim_cap: int | None = None) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of {A : [A, U(pi)] = 0 for all pi}.

    Matrix units averaged over the group have disjoint supports given by
    the entry orbits, so the normalized orbit indicators are an exact
    orthonormal basis. Ordered by smallest flat entry index. Refused
    before any allocation when its dense matrices exceed the byte cap.
    """
    dim = m**N
    _check_commutant_cost(m, N, dim_cap)
    basis = []
    for orbit in _entry_orbits(m, N):
        mat = np.zeros((dim, dim), dtype=complex)
        rows, cols = np.divmod(orbit, dim)
        mat[rows, cols] = 1.0 / math.sqrt(len(orbit))
        basis.append(mat)
    return basis


def commutant_dimension_nullspace(m: int, N: int, dim_cap: int | None = None) -> int:
    """dim of the commutant from the kernel of the generator commutators.

    The linear system [A, U(g)] = 0 over the generators is a difference
    of entry permutations, so its null space is spanned by orbit
    indicators; for small spaces the kernel is extracted by a dense SVD,
    beyond that the entry orbits are counted.
    """
    dim = m**N
    _check_cap(dim, dim_cap)
    gens = _generators(N)
    if not gens:
        return dim * dim
    if dim <= 32:
        return linalg.commutant_dimension_of(
            [permutation_operator(g, m, dim_cap) for g in gens]
        )
    return len(_entry_orbits(m, N))


@dataclass(frozen=True)
class SectorRecord:
    partition: tuple[int, ...]
    irrep_dim: int
    multiplicity: int
    rank: int
    idempotence_residual: float

    def to_dict(self) -> dict:
        return {**asdict(self), "partition": list(self.partition)}


@dataclass(frozen=True)
class SectorReport:
    """Isotypic decomposition of (C^m)^{tensor N} under the invariant algebra."""

    m: int
    N: int
    sectors: tuple[SectorRecord, ...]
    commutant_dim: int
    residuals: dict

    def to_dict(self) -> dict:
        return {**asdict(self), "sectors": [s.to_dict() for s in self.sectors]}


def sector_decomposition(m: int, N: int, dim_cap: int | None = None) -> SectorReport:
    """Ranks and multiplicities of every isotypic sector, with checks.

    Multiplicities come from central-projector ranks (rank / irrep dim,
    which must divide exactly); the two counting identities
    sum(N_l * d_l) = m**N and commutant dim = sum(d_l**2) are enforced,
    the commutant dim being the number of entry orbits.
    """
    dim = m**N
    _check_group_cost(m, N, dim_cap)
    shapes = enumerate_partitions(N)
    projectors = _central_projectors(shapes, m)
    records = []
    for shape, z in zip(shapes, projectors):
        idem = linalg.max_abs(z @ z - z)
        rank = linalg.rank_of_hermitian_idempotent(z)
        n_lam = hook_dimension(shape)
        if rank % n_lam:
            raise ConsistencyError(
                f"rank {rank} of z_{shape.parts} not divisible by irrep dim {n_lam}"
            )
        records.append(
            SectorRecord(
                partition=shape.parts,
                irrep_dim=n_lam,
                multiplicity=rank // n_lam,
                rank=rank,
                idempotence_residual=idem,
            )
        )

    rank_sum = sum(r.rank for r in records)
    if rank_sum != dim:
        raise ConsistencyError(f"sector ranks sum to {rank_sum}, expected {dim}")

    commutant_dim = len(_entry_orbits(m, N))
    sq_sum = sum(r.multiplicity**2 for r in records)
    if commutant_dim != sq_sum:
        raise ConsistencyError(
            f"commutant dim {commutant_dim} != sum of multiplicity squares {sq_sum}"
        )

    total = sum(projectors)
    completeness = linalg.max_abs(total - np.eye(dim))
    orthogonality = max(
        (linalg.max_abs(a @ b) for a, b in itertools.combinations(projectors, 2)), default=0.0
    )
    residuals = {
        "central_idempotence_max": max(r.idempotence_residual for r in records),
        "central_completeness": completeness,
        "central_orthogonality_max": orthogonality,
    }
    return SectorReport(
        m=m,
        N=N,
        sectors=tuple(records),
        commutant_dim=commutant_dim,
        residuals=residuals,
    )


# Arrangements (i, j, k) of the four N=3 sector spans and their signs:
# each generator vector is sum of sign * psi_i x psi_j x psi_k.
_SPAN_PATTERNS = {
    "S": [((1, 2, 3), 1), ((2, 1, 3), 1), ((3, 2, 1), 1), ((3, 1, 2), 1), ((1, 3, 2), 1), ((2, 3, 1), 1)],
    "A": [((1, 2, 3), 1), ((2, 1, 3), -1), ((3, 2, 1), -1), ((3, 1, 2), 1), ((1, 3, 2), -1), ((2, 3, 1), 1)],
    "P": [((1, 2, 3), 1), ((2, 1, 3), 1), ((3, 2, 1), -1), ((3, 1, 2), -1)],
    "P'": [((1, 2, 3), 1), ((3, 2, 1), 1), ((2, 1, 3), -1), ((2, 3, 1), -1)],
}


@dataclass(frozen=True)
class SpanCheckReport:
    """Comparison of the four N=3 sector spans with their projector images."""

    m: int
    ranks: dict
    span_vs_projector: dict
    orthogonal_pairs: dict
    skew_pair_overlap: float
    direct_sum_ok: bool
    mapping_permutations: tuple[tuple[int, ...], ...]
    passed: bool

    def to_dict(self) -> dict:
        mapping = [list(p) for p in self.mapping_permutations]
        return {**asdict(self), "mapping_permutations": mapping}


def _span_projectors(m: int, dim_cap: int | None) -> dict[str, np.ndarray]:
    t_s = StandardTableau(((1, 2, 3),))
    t_a = StandardTableau(((1,), (2,), (3,)))
    t_p = StandardTableau(((1, 2), (3,)))
    t_pp = StandardTableau(((1, 3), (2,)))
    return {
        "S": young_projector(t_s, m, dim_cap),
        "A": young_projector(t_a, m, dim_cap),
        "P": young_projector(t_p, m, dim_cap),
        "P'": young_projector(t_pp, m, dim_cap),
    }


def sector_basis_span_check(
    m: int,
    samples: int | None = None,
    seed: int = 0,
    dim_cap: int | None = None,
    tol: float = linalg.RESIDUAL_TOL,
) -> SpanCheckReport:
    """Build the four N=3 sector spans from random product vectors.

    Verifies, for each sector, that the closed span of its signed
    combinations equals the image of the defining Young projector; that
    the sectors form a direct sum of the whole space with every pair
    orthogonal except (P, P') (those two carry the same partition and
    meet at a fixed nonzero angle); and that some slot permutation maps
    the P span onto the P' span and back.
    """
    dim = m**3
    _check_cap(dim, dim_cap)
    rng = np.random.default_rng(seed)
    n_samples = samples if samples is not None else 2 * dim + 8

    vectors: dict[str, list[np.ndarray]] = {k: [] for k in _SPAN_PATTERNS}
    for _ in range(n_samples):
        psi = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        for key, pattern in _SPAN_PATTERNS.items():
            acc = np.zeros(dim, dtype=complex)
            for (i, j, k), sign in pattern:
                acc += sign * np.kron(np.kron(psi[i - 1], psi[j - 1]), psi[k - 1])
            vectors[key].append(acc)

    spans = {k: linalg.orthonormal_range(np.stack(v, axis=1)) for k, v in vectors.items()}
    projectors = _span_projectors(m, dim_cap)
    images = {k: linalg.orthonormal_range(p) for k, p in projectors.items()}

    span_vs_projector = {}
    for key in spans:
        qs, qi = spans[key], images[key]
        span_vs_projector[key] = linalg.max_abs(
            qs @ linalg.dagger(qs) - qi @ linalg.dagger(qi)
        )

    ranks = {k: q.shape[1] for k, q in spans.items()}
    orthogonal_pairs = {}
    for a in spans:
        for b in spans:
            if a < b and {a, b} != {"P", "P'"}:
                orthogonal_pairs[f"{a}|{b}"] = linalg.max_abs(
                    linalg.dagger(spans[a]) @ spans[b]
                )
    overlap = linalg.dagger(spans["P"]) @ spans["P'"]
    skew = float(np.linalg.svd(overlap, compute_uv=False)[0]) if overlap.size else 0.0

    stacked = np.concatenate([spans[k] for k in spans], axis=1)
    direct_sum_ok = bool(
        sum(ranks.values()) == dim and np.linalg.matrix_rank(stacked, tol=1e-8) == dim
    )

    mapping = []
    qp, qpp = spans["P"], spans["P'"]
    if qp.shape[1] == 0:
        mapping_ok = True  # nothing to map
    else:
        proj_p = qp @ linalg.dagger(qp)
        proj_pp = qpp @ linalg.dagger(qpp)
        moved = symmetric_group(3)[1:]  # the identity comes first
        for pi, image in zip(moved, _index_maps(_images(moved), m)):
            conjugated = np.empty_like(proj_p)
            conjugated[np.ix_(image, image)] = proj_p  # U(pi) proj_p U(pi)^dagger
            if linalg.max_abs(conjugated - proj_pp) < tol:
                mapping.append(pi.images)
        mapping_ok = bool(mapping)

    passed = bool(
        max(span_vs_projector.values()) < tol
        and (not orthogonal_pairs or max(orthogonal_pairs.values()) < tol)
        and direct_sum_ok
        and mapping_ok
    )
    return SpanCheckReport(
        m=m,
        ranks=ranks,
        span_vs_projector=span_vs_projector,
        orthogonal_pairs=orthogonal_pairs,
        skew_pair_overlap=skew,
        direct_sum_ok=direct_sum_ok,
        mapping_permutations=tuple(mapping),
        passed=passed,
    )

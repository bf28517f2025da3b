"""The sector decomposition of (C^m)^{tensor N}, one Schur-Weyl weight block at a time.

Slot permutations move the content of slot i to slot pi(i), as in
tensor_rep. The decomposition never forms an m^N x m^N operator nor
enumerates S_N. Slot permutations keep the letter counts of a word, so
every weight space is S_N-invariant, and weights with the same sorted
counts mu (a partition of N with at most m parts) give isomorphic
blocks of N!/prod(mu_i!) words. On sector lambda the class sums of
transpositions and of 3-cycles act as the content characters
K_(2) = sum c and K_(3) = sum c^2 - C(N, 2), c = col - row over the cells
of lambda (sum_k J_k^2 = C(N, 2) + K_(3) for the Jucys-Murphy elements
J_k, whose eigenvalues are contents). Each block is split by one
eigendecomposition of a combination of the two class sums, built by
scatter-adds over the C(N, 2) + 2 C(N, 3) cycles; its ranks, times the
number of weights of that sorted type, give the sector ranks. Before
anything is allocated, one estimate refuses requests whose report has
too many records (partitions of N), whose integers are too long to
print, or whose largest block exceeds the byte cap or whose blocks
exceed the cubic work budget.

This is the module the CLI's ``sectors`` runs; the dense reference
builders of tensor_rep are not loaded on that path.
"""

from __future__ import annotations

import itertools
import math

# sectorkit modules before numpy (README Conventions); linalg loads numpy
from .errors import (
    ConsistencyError,
    DomainError,
    ResourceLimitError,
    Value,
    check_bytes,
    check_work,
)
from .permgroup import enumerate_partitions, hook_dimension, iter_partitions
from . import linalg

import numpy as np

# The sector decomposition's estimate. A report holds one record per
# partition of N: (1, 35) has 14,883, (1, 36) 17,977 and is refused.
RECORDS_CAP = 2**14
# Its integers reach C(m^2 + N - 1, N); printing them stays far below
# the interpreter's int-to-str limit of 4300 digits.
REPORT_DIGITS_CAP = 1000
# Dense b x b float arrays alive at once for a block of b words (the two
# class sums, their combination, eigenvectors, the eigensolver's work
# space, and the products of the residuals).
DENSE_BLOCK_ARRAYS = 8
FLOAT_BYTES = 8


def _scatter_sum(maps: np.ndarray, coeffs) -> np.ndarray:
    """Real dense sum_k coeffs[k] P_k, by one unbuffered scatter-add.

    P_k has a one in row maps[k, i] of column i. np.add.at adds in k
    order, entry by entry.
    """
    dim = maps.shape[1]
    acc = np.zeros((dim, dim))
    np.add.at(acc, (maps, np.arange(dim)), np.asarray(coeffs, dtype=float)[:, None])
    return acc


class SectorRecord(Value):
    _fields = ("partition", "irrep_dim", "multiplicity", "rank", "idempotence_residual")

    def to_dict(self) -> dict:
        return {
            "partition": list(self.partition),
            "irrep_dim": self.irrep_dim,
            "multiplicity": self.multiplicity,
            "rank": self.rank,
            "idempotence_residual": self.idempotence_residual,
        }


class SectorReport(Value):
    """Isotypic decomposition of (C^m)^{tensor N} under the invariant algebra.

    sectors holds one SectorRecord per partition, residuals the max-abs
    residual of each identity checked, by name.
    """

    _fields = ("m", "N", "sectors", "commutant_dim", "residuals")

    def to_dict(self) -> dict:
        """The fields in declaration order, each record converted once."""
        return {
            "m": self.m,
            "N": self.N,
            "sectors": [s.to_dict() for s in self.sectors],
            "commutant_dim": self.commutant_dim,
            "residuals": dict(self.residuals),
        }


def _block_size(weight: tuple[int, ...]) -> int:
    """Words with letter i occurring weight[i] times: N! / prod(weight_i!)."""
    return math.factorial(sum(weight)) // math.prod(math.factorial(p) for p in weight)


def _weight_count(weight: tuple[int, ...], m: int) -> int:
    """Weights of (C^m)^{tensor N} whose sorted nonzero letter counts are `weight`."""
    repeats = math.prod(math.factorial(weight.count(p)) for p in set(weight))
    return math.perm(m, len(weight)) // repeats


def _partition_count(n: int, cap: int) -> int:
    """p(n), or cap + 1 as soon as some p(k <= n) passes cap (p is increasing).

    Euler's pentagonal recurrence: p(k) = sum_j (-1)^(j+1) (p(k - g_j) + p(k - g_j - j)),
    g_j = j (3j - 1) / 2, so (1, 100000) stops at k = 37.
    """
    counts = [1]
    for k in range(1, n + 1):
        total, j = 0, 1
        while (g := j * (3 * j - 1) // 2) <= k:
            sign = 1 if j % 2 else -1
            total += sign * (counts[k - g] + (counts[k - g - j] if g + j <= k else 0))
            j += 1
        if total > cap:
            return cap + 1
        counts.append(total)
    return counts[n]


def _check_sector_cost(m: int, n: int) -> None:
    """Refuse a sector decomposition beyond its caps, before allocating.

    Counts the report's records (partitions of n), stopping as soon as
    the count passes RECORDS_CAP; bounds the digits of its integers;
    then checks the largest weight block's dense bytes against
    errors.BYTES_CAP and the summed cubic work of the blocks (one per
    partition of n with at most m parts) against errors.WORK_CAP.
    """
    if m < 1 or n < 1:
        raise DomainError(f"need m >= 1 and N >= 1, got m={m}, N={n}")
    where = f"the sector decomposition of (C^{m})^(x{n})"
    if _partition_count(n, RECORDS_CAP) > RECORDS_CAP:
        raise ResourceLimitError(
            f"{where} has more than {RECORDS_CAP} records (one per partition of {n}), "
            f"cap {RECORDS_CAP}"
        )
    digits = n * math.log10(m * m + n)  # C(m^2 + n - 1, n) < (m^2 + n)^n
    if digits > REPORT_DIGITS_CAP:
        raise ResourceLimitError(
            f"{where} reports integers of up to ~{digits:.0f} digits, cap {REPORT_DIGITS_CAP}"
        )
    sizes = [_block_size(w) for w in iter_partitions(n, m)]
    words = max(sizes)
    cycles = math.comb(n, 2) + 2 * math.comb(n, 3)
    nbytes = FLOAT_BYTES * (DENSE_BLOCK_ARRAYS * words * words + 3 * cycles * (words + n))
    check_bytes(nbytes, f"{where} (largest weight block: {words} words)")
    work = sum(b**3 for b in sizes)
    check_work(
        work, f"{where} (dense block operations: sum of b^3 over {len(sizes)} weight blocks)"
    )


def _separating_combination(shapes: list[tuple[int, ...]]) -> tuple[np.ndarray, int]:
    """Content characters of the shapes and a weight that separates them.

    Row s is (omega_2, omega_3) = (sum c, sum c^2 - C(N, 2)) over the cells
    of shapes[s], c = col - row: the scalars by which K_(2) and K_(3) act
    on that sector. Two shapes sharing both raise ConsistencyError. Then
    `scale` is the smallest positive integer making the integers
    scale * omega_2 + omega_3 distinct; one more than the spread of
    omega_3 always does, but a small scale keeps the combined operator's
    norm, and so its eigenvector error, small against the unit gap.
    """
    pairs = {}
    for shape in shapes:
        contents = [j - i for i, row in enumerate(shape) for j in range(row)]
        pair = (sum(contents), sum(c * c for c in contents) - math.comb(sum(shape), 2))
        if pair in pairs:
            raise ConsistencyError(
                f"content characters {pair} do not separate {pairs[pair]} and {shape}"
            )
        pairs[pair] = shape
    omega = np.array(list(pairs), dtype=float)
    spread = int(np.ptp(omega[:, 1]))
    scale = next(
        s for s in range(1, spread + 2) if len(set(s * omega[:, 0] + omega[:, 1])) == len(omega)
    )
    return omega, scale


def _cycle_images(n: int, length: int) -> np.ndarray:
    """One-line images (1-based) of every cycle of the given length in S_n.

    Each cycle is written once, from its smallest point; rows are ordered
    by point set, then by the order of the other points.
    """
    points = np.array(list(itertools.combinations(range(1, n + 1), length)), dtype=np.int64)
    points = points.reshape(-1, length)
    orders = [(0, *rest) for rest in itertools.permutations(range(1, length))]
    cycles = np.concatenate([points[:, list(order)] for order in orders])
    images = np.tile(np.arange(1, n + 1), (len(cycles), 1))
    images[np.arange(len(cycles))[:, None], cycles - 1] = np.roll(cycles, -1, axis=1)
    return images


def _weight_words(weight: tuple[int, ...]) -> np.ndarray:
    """Every word in which letter i occurs weight[i] times, rows in lexicographic order.

    Built letter by letter: each partial word puts the next letter on every
    subset of its free slots, so N!/prod(weight_i!) rows come out and S_N
    is never enumerated.
    """
    n = sum(weight)
    words = np.full((1, n), -1, dtype=np.int64)
    free = n
    for letter, count in enumerate(weight):
        picks = np.array(list(itertools.combinations(range(free), count)), dtype=np.int64)
        picks = np.tile(picks.reshape(-1, count), (len(words), 1))
        slots = np.nonzero(words < 0)[1].reshape(len(words), free)
        words = np.repeat(words, len(picks) // len(words), axis=0)
        slots = np.repeat(slots, len(picks) // len(slots), axis=0)
        np.put_along_axis(words, np.take_along_axis(slots, picks, axis=1), letter, axis=1)
        free -= count
    return words[np.argsort(_word_codes(words, len(weight)))]


def _word_codes(words: np.ndarray, base: int) -> np.ndarray:
    n = words.shape[1]
    return words @ base ** np.arange(n - 1, -1, -1)


def _assign_sectors(values: np.ndarray, predicted: np.ndarray, weight) -> np.ndarray:
    """Index of the predicted value each eigenvalue lands on.

    Every eigenvalue must lie within EIGEN_CLUSTER_TOL of the smallest gap
    between predicted values (1 when there is one value) of its nearest
    one; otherwise ConsistencyError.
    """
    ladder = np.sort(predicted)
    gap = float(np.diff(ladder).min()) if len(ladder) > 1 else 1.0
    nearest = np.abs(values[:, None] - predicted[None, :]).argmin(axis=1)
    miss = np.abs(values - predicted[nearest])
    if miss.size and miss.max() > linalg.EIGEN_CLUSTER_TOL * gap:
        k = int(miss.argmax())
        raise ConsistencyError(
            f"eigenvalue {values[k]:.12g} of weight block {weight} is {miss[k]:.3g} from the "
            f"nearest predicted sector value {predicted[nearest[k]]:.12g} (gap {gap:.3g})"
        )
    return nearest


class WeightBlock(Value):
    """One sorted weight's words, split into sectors by the class sums.

    Column k of `vectors` is an eigenvector of sector `sector[k]` (an
    index into the shapes passed in); P_s = V_s V_s^T is the block of
    z_lambda on these words. `residuals` holds the max-abs entries of
    K_C V - V omega(C) for C = (2), (3), of sum_s P_s - 1 and of P_s P_t
    (s != t), under the report's keys; `idempotence` those of
    P_s P_s - P_s per sector. Products of projectors are read through
    the Gram matrix of V.
    """

    _fields = ("weight", "words", "vectors", "sector", "residuals", "idempotence")


def _weight_block(
    weight: tuple[int, ...],
    cycles: np.ndarray,
    n_transpositions: int,
    omega: np.ndarray,
    scale: int,
) -> WeightBlock:
    """Split the block of `weight` by one eigendecomposition of scale K_(2) + K_(3).

    cycles holds the one-line images of the C(N, 2) transpositions, then of
    the 2 C(N, 3) 3-cycles; omega and scale come from
    _separating_combination.
    """
    words = _weight_words(weight)
    base, n = len(weight), words.shape[1]
    # row of each moved word: slot k's letter goes to slot pi(k), as in tensor_rep._index_maps
    maps = np.searchsorted(_word_codes(words, base), (base ** (n - cycles)) @ words.T)
    k2 = _scatter_sum(maps[:n_transpositions], np.ones(n_transpositions))
    k3 = _scatter_sum(maps[n_transpositions:], np.ones(len(maps) - n_transpositions))
    values, vectors = np.linalg.eigh(scale * k2 + k3)
    sector = _assign_sectors(values, scale * omega[:, 0] + omega[:, 1], weight)
    gram = vectors.T @ vectors
    # columns grouped by sector, ascending in both (np.unique would load numpy.ma)
    order = np.argsort(sector, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(sector[order])) + 1)
    columns = {int(sector[c[0]]): c for c in groups}
    idempotence = {
        s: linalg.max_abs(vectors[:, c] @ (gram[np.ix_(c, c)] - np.eye(len(c))) @ vectors[:, c].T)
        for s, c in columns.items()
    }
    orthogonality = 0.0
    for cols_s, cols_t in itertools.combinations(columns.values(), 2):
        if len(cols_s) > len(cols_t):  # the cheaper association of V_s G_st V_t^T
            cols_s, cols_t = cols_t, cols_s
        product = vectors[:, cols_s] @ (gram[np.ix_(cols_s, cols_t)] @ vectors[:, cols_t].T)
        orthogonality = max(orthogonality, linalg.max_abs(product))
    residuals = {
        "central_completeness": linalg.max_abs(vectors @ vectors.T - np.eye(len(words))),
        "central_orthogonality_max": orthogonality,
        "class_sum_eigen_max": max(
            linalg.max_abs(k2 @ vectors - vectors * omega[sector, 0]),
            linalg.max_abs(k3 @ vectors - vectors * omega[sector, 1]),
        ),
    }
    return WeightBlock(weight, words, vectors, sector, residuals, idempotence)


def _weight_blocks(m: int, shapes: list[tuple[int, ...]]):
    """The split of every sorted weight's block, one at a time.

    shapes are the partitions of N with at most m rows, in the order the
    blocks' `sector` indices refer to; their separation is checked before
    the first block is built.
    """
    n = sum(shapes[0])
    omega, scale = _separating_combination(shapes)
    cycles = np.concatenate([_cycle_images(n, 2), _cycle_images(n, 3)])
    for weight in iter_partitions(n, m):
        yield _weight_block(weight, cycles, math.comb(n, 2), omega, scale)


def sector_decomposition(m: int, N: int) -> SectorReport:
    """Ranks and multiplicities of every isotypic sector, with checks.

    Works one sorted weight block at a time (see the module docstring).
    Each block rank of a sector must be divisible by its irrep dim, and
    the two counting identities sum(N_l * d_l) = m**N and
    C(m^2 + N - 1, N) = sum(N_l**2) (the number of commutant orbits, one
    per multiset of N digit pairs) are enforced. Residuals are maxima
    over the blocks.
    """
    _check_sector_cost(m, N)
    shapes = enumerate_partitions(N)
    allowed = [s.parts for s in shapes if len(s) <= m]
    dims = [hook_dimension(s) for s in shapes if len(s) <= m]
    ranks = [0] * len(allowed)
    idempotence = [0.0] * len(allowed)
    residuals = {}
    for block in _weight_blocks(m, allowed):
        count = _weight_count(block.weight, m)
        for s, rank in enumerate(np.bincount(block.sector, minlength=len(allowed))):
            if rank % dims[s]:
                raise ConsistencyError(
                    f"rank {rank} of sector {allowed[s]} in weight block {block.weight} "
                    f"not divisible by irrep dim {dims[s]}"
                )
            ranks[s] += count * int(rank)
        for s, idem in block.idempotence.items():
            idempotence[s] = max(idempotence[s], idem)
        for key, value in block.residuals.items():
            residuals[key] = max(residuals.get(key, 0.0), value)
    residuals["central_idempotence_max"] = max(idempotence)

    found = dict(zip(allowed, zip(ranks, dims, idempotence)))
    records = []
    for shape in shapes:
        rank, n_lam, idem = found.get(shape.parts, (0, hook_dimension(shape), 0.0))
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
    if rank_sum != m**N:
        raise ConsistencyError(f"sector ranks sum to {rank_sum}, expected {m**N}")

    commutant_dim = math.comb(m * m + N - 1, N)
    sq_sum = sum(r.multiplicity**2 for r in records)
    if commutant_dim != sq_sum:
        raise ConsistencyError(
            f"commutant dim {commutant_dim} != sum of multiplicity squares {sq_sum}"
        )
    return SectorReport(
        m=m,
        N=N,
        sectors=tuple(records),
        commutant_dim=commutant_dim,
        residuals=residuals,
    )

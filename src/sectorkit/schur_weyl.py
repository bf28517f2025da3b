"""Sector decomposition of (C^m)^{tensor N}: one Schur-Weyl weight block at a time, in exact integers.

Slot permutations move the content of slot i to slot pi(i), as in
tensor_rep. The decomposition never forms an m^N x m^N operator nor
enumerates S_N. Slot permutations keep the letter counts of a word, so
every weight space is S_N-invariant, and weights with the same sorted
counts mu (a partition of N with at most m parts) give isomorphic
blocks of b = N!/prod(mu_i!) words. On sector lambda the class sums of
transpositions and of 3-cycles act as the content characters
K_(2) = sum c and K_(3) = sum c^2 - C(N, 2), c = col - row over the cells
of lambda (sum_k J_k^2 = C(N, 2) + K_(3) for the Jucys-Murphy elements
J_k, whose eigenvalues are contents). One integer `scale` makes
omega_lambda = scale * K_(2) + K_(3) distinct over the shapes, and
K = scale K_(2) + K_(3) = sum_k (scale J_k + J_k^2) - C(N, 2) is applied
to a block by gathers through the index maps of its C(N, 2)
transpositions (i k), i < k, the terms of J_k = sum_{i < k} (i k).

The certificate of one block. By Young's rule the block of mu holds the
sectors lambda dominating mu (lambda >= mu, so at most m rows), and
f(x) = prod (x - omega_lambda) over them. Newton steps
v_{k+1} = (K - omega_k) v_k from the unit vector e of the block's
first word w0 end in v = f(K) e, which must be exactly 0. That
certifies the whole block: K is central in the group algebra, so
f(K) U(sigma) e = U(sigma) f(K) e = 0 for every slot permutation sigma,
and S_N moves w0 to every word of the block, so the U(sigma) e span it
(e is a cyclic vector). So f(K) = 0 on the block: K, which is real
symmetric (each class is closed under inverses), has its spectrum on
the predicted values, and its spectral projector P_lambda onto sector
lambda is the Lagrange polynomial of f at omega_lambda.

The ranks. P_lambda commutes with every U(sigma), so all its diagonal
entries are equal and rank_lambda = tr P_lambda = b (P_lambda)_{w0 w0}.
The diagonal entries c_k = (v_k)_{w0} of the Newton steps are
c_k = sum_{j >= k} (P_j)_{w0 w0} prod_{i < k} (omega_j - omega_i), a
triangular system: the ranks are back-substituted from the last one,
and every division must be exact. Each rank must be a non-negative
integer divisible by the irrep dimension d_lambda. Summed over blocks,
times the number of weights of each sorted type, they give the sector
ranks; the counting identities sum(N_lambda d_lambda) = m^N and
sum(N_lambda^2) = C(m^2 + N - 1, N) must hold, and each multiplicity
must equal the hook-content value prod (m + c) / h over the cells
(Stanley, EC2, Cor. 7.21.4), an anchor computed apart from the class
sums that ties every rank to its label. The idempotence, completeness,
orthogonality and eigenvalue identities of the P_lambda are polynomial
multiples of f(K) or vanish identically, so f(K) e is the one residual,
an exact integer. Nothing here uses floating point or numpy.

Before anything is allocated, one estimate refuses requests whose
report has too many records (partitions of N), whose integers are too
long to print, or whose largest block's words, index maps and Newton
vectors exceed the byte cap, or whose gathers exceed the work budget.

This is the module the CLI's ``sectors`` runs, and its handler lives
here; the dense reference builders of tensor_rep, permgroup and linalg
are not loaded on that path.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add, ge

from .errors import (
    ConsistencyError,
    DomainError,
    ResourceLimitError,
    Value,
    check_bytes,
    check_work,
)
from .partitions import Partition, enumerate_partitions, hook_dimension, iter_partitions

# The sector decomposition's estimate. A report holds one record per
# partition of N: (1, 35) has 14,883, (1, 36) 17,977 and is refused.
RECORDS_CAP = 2**14
# Its integers reach C(m^2 + N - 1, N); printing them stays far below
# the interpreter's int-to-str limit of 4300 digits.
REPORT_DIGITS_CAP = 1000
# CPython object sizes on a 64-bit build, rounded up to the allocator's
# 16-byte blocks: one pointer, a tuple's header with its collector links,
# and an int without its 30-bit digits (4 bytes each).
POINTER_BYTES = 8
TUPLE_BYTES = 56
INT_HEADER_BYTES = 24
# A dict's slots, entries and, while it grows, its previous table, per key.
DICT_BYTES = 96
# One gather-and-add of a Python int, 55-80 ns on a 2-core VM, in the units
# of errors.WORK_CAP, whose other counts run at about 3 ns per operation
# (the circle's gauge pass: 1.0e9 in about 3 s). So the cap admits about
# 1.7e8 gathers, 8 s at (8, 8) and (2, 17).
GATHER_OPERATIONS = 24
# Lists of b Python ints alive at once in a Newton step: the vector, the
# two class-sum accumulators with the one replacing either, and J_k v.
NEWTON_VECTORS = 5


def _int_bytes(bits: int) -> int:
    """Bytes of an int object of at most `bits` bits, in 16-byte blocks."""
    digits = max(1, -(-bits // 30))
    return -(-(INT_HEADER_BYTES + 4 * digits) // 16) * 16


class SectorRecord(Value):
    _fields = ("partition", "irrep_dim", "multiplicity", "rank", "idempotence_residual")


class SectorReport(Value):
    """Isotypic decomposition of (C^m)^{tensor N} under the invariant algebra.

    sectors holds one SectorRecord per partition, residuals the exact
    integer defect of each identity checked, by name.
    """

    _fields = ("m", "N", "sectors", "commutant_dim", "residuals")


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


def _dominates(shape: tuple[int, ...], weight: tuple[int, ...]) -> bool:
    """shape >= weight in dominance order: no partial sum of shape falls below weight's.

    Both sum to N, so comparing the partial sums up to the shorter length suffices.
    """
    return all(map(ge, accumulate(shape), accumulate(weight)))


def _block_bytes(words: int, n: int, bits: int) -> int:
    """Peak bytes of one block of `words` words of length n, with Newton entries of `bits` bits.

    The words (tuples in a list), the dict from word to index and its int
    values, the C(n, 2) transposition maps (one index per word each) and
    NEWTON_VECTORS lists of Python ints.
    """
    per_word = (
        POINTER_BYTES + TUPLE_BYTES + POINTER_BYTES * n
        + DICT_BYTES + _int_bytes(words.bit_length())
        + POINTER_BYTES * math.comb(n, 2)
        + NEWTON_VECTORS * (POINTER_BYTES + _int_bytes(bits))
    )
    return words * per_word


def _check_sector_cost(m: int, n: int) -> None:
    """Refuse a sector decomposition beyond its caps, before allocating.

    Counts the report's records (partitions of n), stopping as soon as
    the count passes RECORDS_CAP; bounds the digits of its integers;
    then checks the largest weight block's bytes (_block_bytes) against
    errors.BYTES_CAP, and the gathers of all Newton steps, each weighed
    as GATHER_OPERATIONS, against errors.WORK_CAP: a block of b words
    takes one step per sector lambda >= mu, of 2 C(n, 2) gathers per
    word. A step multiplies the largest entry by at most the row sum of
    K plus |omega| (at most that row sum), so the entries stay below
    (2 row sum)^steps. The scale is at most one more than the spread of
    omega_3, at most sum c^2 = 0^2 + ... + (n - 1)^2 of the one-row
    shape, and a block takes at most one step per weight.
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
    weights = list(iter_partitions(n, m))
    sizes = [_block_size(w) for w in weights]
    words = max(sizes)
    scale = (n - 1) * n * (2 * n - 1) // 6 + 1
    row_sum = scale * math.comb(n, 2) + 2 * math.comb(n, 3)
    bits = len(weights) * (2 * row_sum).bit_length()
    check_bytes(_block_bytes(words, n, bits), f"{where} (largest weight block: {words} words)")
    gathers = sum(
        b * 2 * math.comb(n, 2) * sum(_dominates(shape, w) for shape in weights)
        for b, w in zip(sizes, weights)
    )
    check_work(
        GATHER_OPERATIONS * gathers,
        f"{where} (Newton steps: {gathers} gathers over {len(weights)} weight blocks)",
    )


def _contents(shape: tuple[int, ...]) -> list[int]:
    """Content col - row of every cell of the shape, row by row."""
    return [j - i for i, row in enumerate(shape) for j in range(row)]


def _separating_combination(shapes: list[tuple[int, ...]]) -> tuple[list[tuple[int, int]], int]:
    """Content characters of the shapes and a weight that separates them.

    Entry s is (omega_2, omega_3) = (sum c, sum c^2 - C(N, 2)) over the
    contents c of shapes[s]: the scalars by which K_(2) and K_(3) act on
    that sector. Two shapes sharing both raise ConsistencyError. Then
    `scale` is the smallest positive integer making the integers
    scale * omega_2 + omega_3 distinct; one more than the spread of
    omega_3 always does, and a small scale keeps the Newton vectors short.
    """
    pairs = {}
    for shape in shapes:
        contents = _contents(shape)
        pair = (sum(contents), sum(c * c for c in contents) - math.comb(sum(shape), 2))
        if pair in pairs:
            raise ConsistencyError(
                f"content characters {pair} do not separate {pairs[pair]} and {shape}"
            )
        pairs[pair] = shape
    omega = list(pairs)
    spread = max(w3 for _, w3 in omega) - min(w3 for _, w3 in omega)
    scale = next(
        s for s in range(1, spread + 2) if len({s * w2 + w3 for w2, w3 in omega}) == len(omega)
    )
    return omega, scale


def _weight_words(weight: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every word in which letter i occurs weight[i] times, in lexicographic order.

    Each word after the first is the next permutation of the multiset
    (Knuth, TAOCP 7.2.1.2, Algorithm L), so S_N is never enumerated.
    """
    word = [letter for letter, count in enumerate(weight) for _ in range(count)]
    words = [tuple(word)]
    while True:
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return words
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])
        words.append(tuple(word))


def _transposition_maps(words: list[tuple[int, ...]]) -> list[list[tuple[int, ...]]]:
    """Index maps of the slot transpositions on the words, grouped by their larger slot.

    Entry k - 1 lists, for i < k, the tuple whose x-th entry is the index
    of word x with slots i and k exchanged: the terms of the Jucys-Murphy
    element J_k = sum_{i < k} (i k). Words are found through one dict from
    word to index.
    """
    index = {word: x for x, word in enumerate(words)}
    ids = list(index.values())  # one int object per index, shared by every map
    maps = []
    for k in range(1, len(words[0])):
        group = []
        for i in range(k):
            row = []
            for x, word in zip(ids, words):
                if word[i] == word[k]:
                    row.append(x)
                    continue
                letters = list(word)
                letters[i], letters[k] = word[k], word[i]
                row.append(index[tuple(letters)])
            group.append(tuple(row))
        maps.append(group)
    return maps


def _gather_sum(v: list[int], maps: list[tuple[int, ...]]) -> list[int]:
    """The sum of v gathered through each map: sum_i P_i v for the permutations P_i."""
    return list(map(sum, zip(*[map(v.__getitem__, row) for row in maps])))


def _block_ranks(
    weight: tuple[int, ...], nodes: list[tuple[int, ...]], values: list[int], scale: int
) -> list[int]:
    """Rank of each sector in `nodes` on the block of `weight`, certified in exact integers.

    values[k] is omega of nodes[k], the eigenvalue of K = scale K_(2) + K_(3)
    on that sector. K is applied through the Jucys-Murphy elements,
    K v = sum_k (scale J_k v + J_k J_k v) - C(N, 2) v: 2 C(N, 2) gathers
    per entry, and no 3-cycle is listed. Runs one Newton step per node
    from the block's first word and requires the last vector to be 0
    (ConsistencyError otherwise); then back-substitutes the ranks from
    the diagonal entries, requiring every division to be exact and every
    rank to be non-negative.
    """
    words = _weight_words(weight)
    b, pairs = len(words), math.comb(len(words[0]), 2)
    jucys_murphy = _transposition_maps(words)
    del words  # freed before the Newton vectors
    v = [0] * b
    v[0] = 1
    diagonals = []
    for omega in values:
        diagonals.append(v[0])
        k2 = k3 = [0] * b
        for maps in jucys_murphy:
            u = _gather_sum(v, maps)
            k2 = list(map(add, k2, u))
            k3 = list(map(add, k3, _gather_sum(u, maps)))
        v = [scale * a + c - (pairs + omega) * x for a, c, x in zip(k2, k3, v)]
    defect = max(map(abs, v))
    if defect:
        raise ConsistencyError(
            f"weight block {weight}: the class sums leave the predicted sector values "
            f"{dict(zip(nodes, values))}; f(K) e has an entry of {defect}"
        )
    ranks = [0] * len(values)
    for k in reversed(range(len(values))):
        # the k-th Newton polynomial at each node: prod_{i < k} (omega_j - omega_i)
        at = [math.prod(w - u for u in values[:k]) for w in values]
        rest = b * diagonals[k] - sum(map(math.prod, zip(ranks[k + 1 :], at[k + 1 :])))
        ranks[k], remainder = divmod(rest, at[k])
        if remainder or ranks[k] < 0:
            raise ConsistencyError(
                f"weight block {weight}: rank {rest}/{at[k]} of sector {nodes[k]} "
                "is not a non-negative integer"
            )
    return ranks


def _hook_content(shape: tuple[int, ...], m: int) -> int:
    """dim S_shape(C^m) = prod over the cells of (m + col - row) / hook."""
    top = math.prod(m + j - i for i, row in enumerate(shape) for j in range(row))
    return top // math.prod(h for row in Partition(shape).hooks() for h in row)


def sector_decomposition(m: int, N: int) -> SectorReport:
    """Ranks and multiplicities of every isotypic sector, with exact checks.

    Works one sorted weight block at a time (see the module docstring).
    Each block rank of a sector must be divisible by its irrep dim, the
    two counting identities sum(N_l * d_l) = m**N and
    C(m^2 + N - 1, N) = sum(N_l**2) (the number of commutant orbits, one
    per multiset of N digit pairs) are enforced, and every multiplicity
    must equal its hook-content value. A failed check raises
    ConsistencyError, so the one residual, f(K) e over the blocks, and
    each record's idempotence residual are exactly 0.
    """
    _check_sector_cost(m, N)
    shapes = enumerate_partitions(N)
    allowed = [s.parts for s in shapes if len(s) <= m]
    dims = {s.parts: hook_dimension(s) for s in shapes}
    omega, scale = _separating_combination(allowed)
    values = dict(zip(allowed, (scale * w2 + w3 for w2, w3 in omega)))
    ranks = dict.fromkeys(allowed, 0)
    for weight in iter_partitions(N, m):
        count = _weight_count(weight, m)
        nodes = [s for s in allowed if _dominates(s, weight)]
        block = _block_ranks(weight, nodes, [values[s] for s in nodes], scale)
        for shape, rank in zip(nodes, block):
            if rank % dims[shape]:
                raise ConsistencyError(
                    f"rank {rank} of sector {shape} in weight block {weight} "
                    f"not divisible by irrep dim {dims[shape]}"
                )
            ranks[shape] += count * rank

    records = []
    for shape in shapes:
        rank, n_lam = ranks.get(shape.parts, 0), dims[shape.parts]
        records.append(
            SectorRecord(
                partition=shape.parts,
                irrep_dim=n_lam,
                multiplicity=rank // n_lam,
                rank=rank,
                # P_l^2 - P_l is a polynomial multiple of f(K), 0 on every block
                idempotence_residual=0,
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
    for r in records:
        if r.multiplicity != (expected := _hook_content(r.partition, m)):
            raise ConsistencyError(
                f"multiplicity {r.multiplicity} of sector {r.partition} is not its "
                f"hook-content value {expected}"
            )
    return SectorReport(
        m=m,
        N=N,
        sectors=tuple(records),
        commutant_dim=commutant_dim,
        # _block_ranks raised on any nonzero entry of f(K) e
        residuals={"minimal_polynomial_defect": 0},
    )


def _run_sectors(args):
    """The ``sectors`` report; cli parsed --lambda into args.wanted, a
    partition of N, before importing this module."""
    report = sector_decomposition(args.m, args.N)
    sectors = report.sectors
    if args.wanted is not None:
        sectors = [s for s in sectors if s.partition == args.wanted.parts]
    lines = [f"sectors of (C^{args.m})^(x{args.N}):"]
    lines += [
        f"  {s.partition}: irrep dim {s.irrep_dim}, multiplicity {s.multiplicity}, rank {s.rank}"
        for s in sectors
    ]
    lines.append(f"commutant dimension: {report.commutant_dim}")
    rows = [[",".join(map(str, s.partition)), s.irrep_dim, s.multiplicity, s.rank] for s in sectors]
    return (
        not any(report.residuals.values()),
        {"m": args.m, "N": args.N, "lambda": args.lam},
        {**report._asdict(), "sectors": sectors},
        lines,
        (["partition", "irrep_dim", "multiplicity", "rank"], rows),
    )

"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's own code paths:
partition and tableau counts come from exhaustive enumeration, sector
multiplicities from the classical product formula over cells, Kostka
numbers from filtering every filling, commutants
and intertwiners from dense null spaces of stacked Kronecker systems,
characters from the Murnaghan-Nakayama rule, group sums from one dense
permutation matrix per element, commutant orbits from a
breadth-first search over generators, cover entry orbits by a scan over
all point pairs, Cayley tables of action words by composing every pair
and looking the composite up in a dict, the symmetric cover's action by
looking every permuted tuple up in a dict, free actions by trying every
(x, g, h),
internal-blind operators A x 1 as dense per-slot tensor products,
section actions from one loop over base pairs and group elements, the
internal isometries W entry by entry in loops over the spatial indices,
the parafermion constraint equations from dense slot permutations,
permutation products and identities from one-line images, and the
constrained basis of a cover block by block in a loop over its points.

The dense paths the equivalence certificates were first built on are
kept here as their references: carriers as ranges of dense projectors
(W*W times the dense slot symmetrizer, the dense antisymmetrizer, the
null space of the stacked parafermion constraint operators), and
realizations as the dense orbit indicators restricted one at a time.
The orbit-table restriction of all K orbit indicators (restrict_orbits,
invariant_realization), which the equiv path used before it was built
from the m^2 one-body generators, is kept as their oracle, with the
generators formed as dense Kronecker sums and the algebra they generate
closed under products by dense ranks. The cover census on all
K = |base|^2 |G| entry orbits (orbit_census, with orbit_restrictions),
which restricted, leak-checked and transported every orbit before the
closed form, is kept as the census's oracle. The equiv carriers' slot
average by one row scatter per permutation through
tensor_rep._index_maps (index_map_slot_average), before it moved the
slot axes, is kept as its oracle.
Likewise the circle's first certificates: the dense n x n momentum
operators (twisted_momentum), eigenvalues matched to plane waves by
eigenvector overlap after a dense eigh of them, and the gauge identity
as a dense n x n residual with eigvalsh spectra. Their matrix-free
successors as first written, one new array per operation, are kept too
(out_of_place_*): the in-place passes must match them bitwise. The
convergence order is checked against np.polyfit's least-squares line
through (log n, log error) (polyfit_order), which the closed-form slope
replaced. The sector report's JSON form is checked against its fields
written out one by one in declaration order (sector_report_fields), the
form dataclasses.asdict gave before the report types left dataclasses.
A representation's group law is checked on every pair of elements
(all_pairs_law_defect), as GroupRep did before it certified the law on
the generators. The census's fiber blocks, gathered at the points each
chunk reads, are checked against the (|total|, d, d) gather of every
point's block (gathered_fiber_blocks) that the census held before.
The sector decomposition's dense split of one weight block, by one
float eigh of scale K_(2) + K_(3) built by scatter-adds over the
transposition and 3-cycle index maps, each eigenvalue assigned to the
nearest predicted content value within EIGEN_CLUSTER_TOL of the gap
(dense_weight_block_split), which the exact Newton certificate
replaced, is kept as its oracle.
"""

import itertools
import math
from fractions import Fraction

import numpy as np


def bruteforce_partitions(n: int) -> list[tuple[int, ...]]:
    """All non-increasing positive compositions of n, reverse-lex order."""
    out = []

    def rec(rest, max_part, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(rest, max_part), 0, -1):
            rec(rest - part, part, prefix + [part])

    rec(n, n, [])
    return out


def bruteforce_standard_tableau_count(shape: tuple[int, ...]) -> int:
    """Count standard fillings by filtering all N! assignments."""
    n = sum(shape)
    cells = [(i, j) for i, row_len in enumerate(shape) for j in range(row_len)]
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        grid = {}
        for cell, value in zip(cells, perm):
            grid[cell] = value
        ok = True
        for (i, j), value in grid.items():
            if j + 1 < shape[i] and grid[(i, j + 1)] <= value:
                ok = False
                break
            if i + 1 < len(shape) and shape[i + 1] > j and grid[(i + 1, j)] <= value:
                ok = False
                break
        count += ok
    return count


def hook_lengths(shape: tuple[int, ...]) -> list[list[int]]:
    conj = [sum(1 for p in shape if p > j) for j in range(shape[0])]
    return [
        [(row - j - 1) + (conj[j] - i - 1) + 1 for j in range(row)]
        for i, row in enumerate(shape)
    ]


def weyl_multiplicity(shape: tuple[int, ...], m: int) -> int:
    """Multiplicity of the sector: product over cells (m + j - i) / hook."""
    value = Fraction(1)
    for i, row in enumerate(shape):
        hooks = hook_lengths(shape)[i]
        for j in range(row):
            value *= Fraction(m + j - i, hooks[j])
    assert value.denominator == 1
    return int(value)


def bruteforce_kostka(shape: tuple[int, ...], content: tuple[int, ...]) -> int:
    """Semistandard fillings of the shape in which value i occurs content[i] times.

    Every arrangement of the content's multiset over the cells, row by row,
    is filtered for weakly increasing rows and strictly increasing columns.
    """
    cells = [(i, j) for i, row_len in enumerate(shape) for j in range(row_len)]
    values = [v for v, count in enumerate(content) for _ in range(count)]
    count = 0
    for filling in set(itertools.permutations(values)):
        grid = dict(zip(cells, filling))
        rows_ok = all(grid[(i, j)] <= grid[(i, j + 1)] for i, j in cells if (i, j + 1) in grid)
        cols_ok = all(grid[(i, j)] < grid[(i + 1, j)] for i, j in cells if (i + 1, j) in grid)
        count += rows_ok and cols_ok
    return count


def preserving_permutations(n: int, blocks: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """One-line images (1-based) of permutations preserving each block setwise."""
    out = []
    for images in itertools.permutations(range(1, n + 1)):
        ok = True
        for block in blocks:
            if {images[b - 1] for b in block} != set(block):
                ok = False
                break
        if ok:
            out.append(images)
    return out


def dense_commutant_dimension(ops: list[np.ndarray]) -> int:
    """Null-space dimension of the stacked commutator system, dense SVD."""
    d = ops[0].shape[0]
    eye = np.eye(d)
    blocks = [np.kron(a, eye) - np.kron(eye, a.T) for a in ops]
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    rank = int(np.sum(s > 1e-8 * max(1.0, s[0])))
    return d * d - rank


def dense_intertwiner_dimension(ops1: list[np.ndarray], ops2: list[np.ndarray]) -> int:
    """Null-space dimension of the stacked system V A - B V = 0, dense SVD."""
    d1 = ops1[0].shape[0]
    d2 = ops2[0].shape[0]
    blocks = [np.kron(np.eye(d2), a.T) - np.kron(b, np.eye(d1)) for a, b in zip(ops1, ops2)]
    s = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    rank = int(np.sum(s > 1e-8 * max(1.0, s[0])))
    return d1 * d2 - rank


def dense_intertwiner_basis(ops1: list[np.ndarray], ops2: list[np.ndarray]) -> np.ndarray:
    """Null space of V A - B V = 0 for all pairs, one stacked Kronecker SVD.

    Columns are orthonormal vec(V), row-major, V of shape d2 x d1.
    """
    d1 = ops1[0].shape[0]
    d2 = ops2[0].shape[0]
    stack = np.vstack(
        [np.kron(np.eye(d2), a.T) - np.kron(b, np.eye(d1)) for a, b in zip(ops1, ops2)]
    )
    # a tall stack's economy SVD already holds every right singular vector
    _, s, vh = np.linalg.svd(stack, full_matrices=stack.shape[0] < stack.shape[1])
    rank = int(np.sum(s > 1e-8 * max(1.0, s[0])))
    return vh[rank:].conj().T


def all_pairs_law_defect(cayley: np.ndarray, mats: np.ndarray) -> float:
    """max |U(g_i) U(g_j) - U(g_i g_j)| over every pair, one row i at a time."""
    mats = np.asarray(mats)
    return max(
        float(np.abs(mats[i] @ mats - mats[cayley[i]]).max()) for i in range(len(mats))
    )


def bruteforce_group_structure(table) -> tuple[int, list[int]] | None:
    """(identity, inverses) when the table is a group, else None, by loops."""
    n = len(table)
    if any(not 0 <= x < n for row in table for x in row):
        return None
    idents = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if len(idents) != 1:
        return None
    e = idents[0]
    inverses = []
    for x in range(n):
        found = [y for y in range(n) if table[x][y] == e == table[y][x]]
        if not found:
            return None
        inverses.append(found[0])
    for x, y, z in itertools.product(range(n), repeat=3):
        if table[table[x][y]][z] != table[x][table[y][z]]:
            return None
    return e, inverses


def symmetric_basis_count(m: int) -> int:
    """Dimension of the symmetric subspace of C^m x C^m by enumeration."""
    return sum(1 for i in range(m) for j in range(m) if i <= j)


def antisymmetric_basis_count(m: int) -> int:
    return sum(1 for i in range(m) for j in range(m) if i < j)


def permutation_sign(images: tuple[int, ...]) -> int:
    """(-1)^(number of inversions) of a one-line permutation."""
    n = len(images)
    inversions = sum(images[i] > images[j] for i in range(n) for j in range(i + 1, n))
    return -1 if inversions % 2 else 1


def compose(a, b):
    """The product a b of two Permutations, (a b)(i) = a(b(i)), from their one-line images."""
    from sectorkit.permgroup import Permutation

    return Permutation(tuple(a.images[j - 1] for j in b.images))


def identity_permutation(n: int):
    """The identity of S_n as a Permutation."""
    from sectorkit.permgroup import Permutation

    return Permutation(tuple(range(1, n + 1)))


def inverse_cycle_type(images: tuple[int, ...]) -> tuple[int, ...]:
    """Cycle lengths of the inverse permutation, non-increasing."""
    inverse = {img: i for i, img in enumerate(images, start=1)}
    seen, lengths = set(), []
    for start in inverse:
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = inverse[i]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def mn_character(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """chi_shape at a cycle type by the Murnaghan-Nakayama rule.

    The shape is a beta-set {shape_i + (rows - i)}; removing a rim hook of
    length r moves one bead b to b - r, with sign (-1)^(beads in between).
    """
    if not cycle_type:
        return 1
    r, rest = cycle_type[0], cycle_type[1:]
    rows = len(shape)
    beta = {part + rows - 1 - i for i, part in enumerate(shape)}
    total = 0
    for b in beta:
        if b - r < 0 or b - r in beta:
            continue
        height = sum(1 for c in beta if b - r < c < b)
        moved = sorted((beta - {b}) | {b - r}, reverse=True)
        smaller = tuple(p for p in (c - (rows - 1 - i) for i, c in enumerate(moved)) if p > 0)
        total += (-1) ** height * mn_character(smaller, rest)
    return total


def slot_permutation_matrix(images: tuple[int, ...], m: int) -> np.ndarray:
    """Dense U(pi) from multi-indices: slot k's content moves to slot pi(k)."""
    n = len(images)

    def flat(idx):
        return sum(d * m ** (n - 1 - k) for k, d in enumerate(idx))

    u = np.zeros((m**n, m**n))
    for idx in itertools.product(range(m), repeat=n):
        moved = [0] * n
        for k, d in enumerate(idx):
            moved[images[k] - 1] = d
        u[flat(moved), flat(idx)] = 1.0
    return u


def dense_group_sum(m: int, n: int, weight) -> np.ndarray:
    """sum_pi weight(pi) U(pi) over S_n, one dense matrix per element."""
    acc = np.zeros((m**n, m**n))
    for images in itertools.permutations(range(1, n + 1)):
        acc += weight(images) * slot_permutation_matrix(images, m)
    return acc


def dense_central_projector(shape: tuple[int, ...], m: int) -> np.ndarray:
    """(d / N!) sum_pi chi(pi^-1) U(pi), one character per element."""
    n = sum(shape)
    d = mn_character(shape, (1,) * n)
    total = dense_group_sum(m, n, lambda images: mn_character(shape, inverse_cycle_type(images)))
    return d * total / math.factorial(n)


def generator_bfs_entry_orbits(m: int, n: int) -> list[list[int]]:
    """Orbits of flat entries row * m**n + col under S_n, by BFS.

    The generators (1 2) and the long cycle act through their dense
    permutation matrices; orbits are sorted and ordered by smallest entry.
    """
    dim = m**n
    gens = []
    if n > 1:
        gens.append((2, 1) + tuple(range(3, n + 1)))
    if n > 2:
        gens.append(tuple(range(2, n + 1)) + (1,))
    maps = [np.argmax(slot_permutation_matrix(g, m), axis=0) for g in gens]
    label = [-1] * (dim * dim)
    orbits = []
    for start in range(dim * dim):
        if label[start] >= 0:
            continue
        label[start] = len(orbits)
        members, stack = [start], [start]
        while stack:
            a, b = divmod(stack.pop(), dim)
            for mp in maps:
                image = int(mp[a]) * dim + int(mp[b])
                if label[image] < 0:
                    label[image] = len(orbits)
                    members.append(image)
                    stack.append(image)
        orbits.append(sorted(members))
    return orbits


def looped_orbit_labels(action: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tau and the smallest point of each orbit, by a scan over the points.

    action[x, g] is the image of point x under element g; orbits are
    labeled in the order the scan meets them, which is the order of their
    smallest points.
    """
    npts = action.shape[0]
    tau = np.full(npts, -1, dtype=np.int64)
    smallest = []
    for x in range(npts):
        if tau[x] >= 0:
            continue
        orbit = sorted({int(a) for a in action[x]})
        for y in orbit:
            tau[y] = len(smallest)
        smallest.append(min(orbit))
    return tau, np.array(smallest, dtype=np.int64)


def dict_symmetric_cover(q: int, n: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Injective n-tuples over range(q) and their slot-permutation action, by a dict.

    The tuples are listed by itertools.permutations and each image looked
    up in a dict of them, one tuple per (point, element) pair. Column g of
    the action is element g of S_n in lexicographic one-line order; slot i
    of t.pi holds t[pi(i)].
    """
    tuples = list(itertools.permutations(range(q), n))
    index = {t: i for i, t in enumerate(tuples)}
    perms = list(itertools.permutations(range(n)))
    action = [[index[tuple(t[pi[i]] for i in range(n))] for pi in perms] for t in tuples]
    return tuples, np.array(action, dtype=np.int64)


def bruteforce_cover_is_valid(action, cayley, identity: int, section) -> bool:
    """Whether a table is a free right action with a section, by loops.

    The identity fixes every point and no other element fixes any; (x.g).h
    = x.(g h) is tried for every (x, g, h); the section picks one point per
    orbit, the orbits in any order, so its orbits list every point once.
    """
    npts, ng = len(action), len(cayley)
    for x, g in itertools.product(range(npts), range(ng)):
        if (action[x][g] == x) != (g == identity):
            return False
    for x, g, h in itertools.product(range(npts), range(ng), range(ng)):
        if action[action[x][g]][h] != action[x][cayley[g][h]]:
            return False
    reached = [action[s][g] for s in section for g in range(ng)]
    return sorted(reached) == list(range(npts))


def dict_composition_cayley(images: np.ndarray) -> np.ndarray | None:
    """Cayley table of permutation words by composing every pair.

    images[g] is word g as the image indices of the points; entry (i, j)
    is the word x -> (x.g_i).g_j, looked up among the words by its bytes.
    None when a composite is not among the words.
    """
    index = {row.tobytes(): k for k, row in enumerate(images)}
    ng = len(images)
    cayley = np.zeros((ng, ng), dtype=np.int64)
    for i in range(ng):
        composed = images[:, images[i]]  # row j: x.(g_i g_j) = (x.g_i).g_j
        for j in range(ng):
            k = index.get(composed[j].tobytes())
            if k is None:
                return None
            cayley[i, j] = k
    return cayley


def cyclic_document(n: int) -> dict:
    """Cover document of Z_n acting on itself by shifts; word k is x -> x + k."""
    return {
        "points": [f"p{x}" for x in range(n)],
        "group": [[(x + k) % n for x in range(n)] for k in range(n)],
    }


def cover_to_json(cover) -> dict:
    """Cover document of a FiniteCover, as cover_from_json reads it back."""
    return {
        "points": [str(p) for p in cover.points],
        "group": [[int(x) for x in cover.action()[:, g]] for g in range(cover.group.order)],
        "group_labels": list(cover.group.labels),
        "section": [int(s) for s in cover.section],
    }


def dihedral_document(n: int) -> dict:
    """Cover document of D_n (order 2n) acting on itself by right multiplication.

    Element r^a s^b sits at index a + n b, with s r s = r^-1; the words
    with b = 0 are the rotations.
    """
    elements = [(a, b) for b in range(2) for a in range(n)]
    index = {e: i for i, e in enumerate(elements)}

    def times(x, y):
        return ((x[0] + (-1) ** x[1] * y[0]) % n, (x[1] + y[1]) % 2)

    return {
        "points": [f"r{a}s{b}" for a, b in elements],
        "group": [[index[times(x, g)] for x in elements] for g in elements],
    }


def looped_deck_element(cover) -> np.ndarray:
    """h_of[x]: the h with section(tau(x)) . h = x, one point at a time."""
    h_of = np.full(cover.total_size, -1, dtype=np.int64)
    for q in range(cover.base_size):
        for g in range(cover.group.order):
            h_of[cover.action()[cover.section[q], g]] = g
    return h_of


def looped_constrained_space(cover, rep) -> np.ndarray:
    """Constrained basis of a cover, one d x d block per point in a loop.

    Row block x holds |G|**-1/2 U(h^-1) in column block tau(x), with h
    from looped_deck_element and h^-1 found by scanning row h of the Cayley
    table for the identity.
    """
    d = rep.dimension
    ng = cover.group.order
    h_of = looped_deck_element(cover)
    basis = np.zeros((cover.total_size * d, cover.base_size * d), dtype=complex)
    scale = 1.0 / math.sqrt(ng)
    for x in range(cover.total_size):
        q = int(cover.tau[x])
        row = cover.group.cayley[int(h_of[x])]
        h_inv = next(g for g in range(ng) if row[g] == cover.group.identity)
        basis[x * d : (x + 1) * d, q * d : (q + 1) * d] = rep.matrices[h_inv] * scale
    return basis


def scanned_entry_orbits(action: np.ndarray) -> list[list[int]]:
    """Orbits of flat pairs a * n + b under (a, b) -> (a.g, b.g), by a scan.

    action[x, g] is the image of point x under element g. Orbits are
    sorted and ordered by smallest member.
    """
    npts, order = action.shape
    label = [-1] * (npts * npts)
    orbits = []
    for start in range(npts * npts):
        if label[start] >= 0:
            continue
        a, b = divmod(start, npts)
        members = sorted({int(action[a, g]) * npts + int(action[b, g]) for g in range(order)})
        for member in members:
            label[member] = len(orbits)
        orbits.append(members)
    return orbits


def entry_orbits(cover) -> tuple[np.ndarray, np.ndarray]:
    """Row and column points of every entry orbit of a cover, as two (K, |G|) arrays.

    Each orbit of the diagonal action on point pairs holds exactly one
    pair whose row point is on the section, so the orbits are
    {(section(q).g, b.g) : g} over base points q and points b, and
    K = |base| * |total|. Rows follow g; orbits are ordered by their
    smallest flat index row * |total| + col, the order of
    scanned_entry_orbits and of cover_quant.kernel_orbit_basis.
    """
    npts = cover.total_size
    rows = np.repeat(cover.action()[cover.section], npts, axis=0)
    cols = np.tile(cover.action(), (cover.base_size, 1))
    order = np.argsort((rows * npts + cols).min(axis=1))
    return rows[order], cols[order]


def orbit_restrictions(
    blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """R_O = |O|**-1/2 sum_{(i, j) in O} B_i^* B_j for every orbit O, as a (K, r, r) array.

    blocks[i] is the k x r row block of a carrier at index i; orbit o
    holds the entries (rows[e], cols[e]) for e in starts[o]:starts[o + 1].
    R_O is the carrier restriction of the normalized indicator of O (times
    the identity on the k internal rows). The blocks are gathered per
    entry, multiplied and summed per orbit, in chunks of whole orbits
    whose products take at most tolerances.CHUNK_BYTES (one orbit at least).
    """
    from sectorkit import tolerances

    r = blocks.shape[2]
    sizes = np.diff(starts)
    out = np.empty((len(sizes), r, r), dtype=blocks.dtype)
    step = max(1, tolerances.CHUNK_BYTES // max(1, r * r * blocks.itemsize * int(sizes.max())))
    for lo in range(0, len(sizes), step):
        hi = min(lo + step, len(sizes))
        entries = slice(starts[lo], starts[hi])
        products = blocks[rows[entries]].conj().swapaxes(1, 2) @ blocks[cols[entries]]
        out[lo:hi] = np.add.reduceat(products, starts[lo:hi] - starts[lo], axis=0)
    out /= np.sqrt(sizes)[:, None, None]
    return out


def looped_fiber_blocks(cover, rep) -> np.ndarray:
    """The (|total|, d, d) fiber blocks of looped_constrained_space: row block x
    of the basis, read in column block tau(x)."""
    d = rep.dimension
    basis = looped_constrained_space(cover, rep).reshape(cover.total_size, d, cover.base_size, d)
    return basis[np.arange(cover.total_size), :, cover.tau, :]


def gathered_fiber_blocks(cover, rep) -> np.ndarray:
    """The (|total|, d, d) fiber blocks |G|**-1/2 U(h(x)^-1), one gather over every point."""
    blocks = np.asarray(rep.matrices)[cover.group._inverse[cover.deck_element()]]
    blocks *= 1.0 / math.sqrt(cover.group.order)
    return blocks


def orbit_census(cover, reps) -> dict:
    """The sector census on all K = |base|**2 |G| entry orbits, as it was before its closed form.

    Every orbit of entry_orbits is restricted through the looped fiber
    blocks by orbit_restrictions, with its leakage |G|**-1/2 W_{b.g} -
    W_{a.g} R_O; the block is transported by the realization unitary's
    diagonal blocks |G|**1/2 W_sigma(q) and compared with the section
    action's block |G|**-1/2 U(h^-1), h the deck element of the orbit's
    column point at the identity. The dimensions are the rounded Gram
    matrix |base|**-1 T T* of the traces T of the blocks whose orbit lies
    over the diagonal of the base.
    """
    rows, cols = entry_orbits(cover)
    ng = cover.group.order
    root = math.sqrt(ng)
    e = cover.group.identity
    base_a, base_b = cover.tau[rows[:, e]], cover.tau[cols[:, e]]
    h = looped_deck_element(cover)[cols[:, e]]
    diagonal = np.flatnonzero(base_a == base_b)
    starts = np.arange(len(rows) + 1) * ng
    traces, leakage, residual = [], 0.0, 0.0
    for rep in reps:
        fibers = looped_fiber_blocks(cover, rep)
        blocks = orbit_restrictions(fibers, rows.ravel(), cols.ravel(), starts)
        image = fibers[rows] @ blocks[:, None]
        leakage = max(leakage, float(np.abs(fibers[cols] / root - image).max()))
        u = root * fibers[cover.section]
        transported = u[base_a] @ blocks @ u[base_b].conj().swapaxes(1, 2)
        section = np.array(rep.matrices)[h].conj().swapaxes(1, 2) / root  # U(h^-1) = U(h)*
        residual = max(residual, float(np.abs(transported - section).max()))
        traces.append(np.trace(blocks[diagonal], axis1=1, axis2=2))
    traces = np.array(traces)
    gram = traces @ traces.conj().T / cover.base_size
    dims = np.rint(gram.real).astype(int)
    return {
        "kernel_space_dim": len(rows),
        "commutant": [int(dims[i, i]) for i in range(len(reps))],
        "pairwise": {
            f"{reps[i].label}|{reps[j].label}": int(dims[i, j])
            for i, j in itertools.combinations(range(len(reps)), 2)
        },
        "dimension_margin": float(np.abs(gram - dims).max()),
        "leakage": leakage,
        "intertwining_residual_max": residual,
    }


def extend_internal(a: np.ndarray, m: int, n_slots: int, internal_dim: int = 2) -> np.ndarray:
    """Dense A x 1 on (C^m x C^d)^{xN}, slots interleaved (q_1 a_1 ... q_N a_N).

    Acts as `a` on the joint spatial indices and as the identity on every
    internal index, formed as one tensor product and a transpose.
    """
    d = internal_dim
    a_t = np.asarray(a, dtype=complex).reshape((m,) * (2 * n_slots))
    eye_t = np.eye(d**n_slots, dtype=complex).reshape((d,) * (2 * n_slots))
    big = np.tensordot(a_t, eye_t, axes=0)
    # axes: q_1..q_N, q'_1..q'_N, a_1..a_N, a'_1..a'_N -> interleave per slot
    row_axes = [ax for k in range(n_slots) for ax in (k, 2 * n_slots + k)]
    col_axes = [ax for k in range(n_slots) for ax in (n_slots + k, 3 * n_slots + k)]
    dim = (m * d) ** n_slots
    return big.transpose(row_axes + col_axes).reshape(dim, dim)


def looped_section_action(
    matrix: np.ndarray,
    action: np.ndarray,
    section: np.ndarray,
    inverses: list[int],
    rep_matrices: list[np.ndarray],
) -> np.ndarray:
    """sum_h A(sigma(q), sigma(q').h) U(h^-1), block by block in three loops."""
    nbase, ng = len(section), action.shape[1]
    d = rep_matrices[0].shape[0]
    mat = np.zeros((nbase * d, nbase * d), dtype=complex)
    for q in range(nbase):
        for qp in range(nbase):
            block = np.zeros((d, d), dtype=complex)
            for h in range(ng):
                block += matrix[section[q], action[section[qp], h]] * rep_matrices[inverses[h]]
            mat[q * d : (q + 1) * d, qp * d : (qp + 1) * d] = block
    return mat


def looped_singlet_isometry_2(m: int) -> np.ndarray:
    """W of the internal singlet, (psi_{01} - psi_{10}) / sqrt(2), set entry by entry.

    Columns index (C^m x C^2)^{x2} by the per-slot indices q * 2 + a,
    slots interleaved as (q_1 a_1 q_2 a_2); rows index the spatial words.
    """
    amb = 2 * m
    w = np.zeros((m**2, amb**2), dtype=complex)
    root2 = math.sqrt(2.0)
    for q1 in range(m):
        for q2 in range(m):
            row = q1 * m + q2
            w[row, (q1 * 2 + 0) * amb + (q2 * 2 + 1)] = 1 / root2
            w[row, (q1 * 2 + 1) * amb + (q2 * 2 + 0)] = -1 / root2
    return w


def looped_doublet_isometry_3(m: int) -> np.ndarray:
    """W of the internal doublet, set entry by entry.

    Component 0 is (psi_{010} - psi_{001})/sqrt(2), component 1 is
    (-2 psi_{100} + psi_{010} + psi_{001})/sqrt(6). Columns as in
    looped_singlet_isometry_2; row spatial * 2 + component.
    """
    amb = 2 * m
    w = np.zeros((m**3 * 2, amb**3), dtype=complex)
    root2, root6 = math.sqrt(2.0), math.sqrt(6.0)

    def col(q, a):
        return ((q[0] * 2 + a[0]) * amb + (q[1] * 2 + a[1])) * amb + (q[2] * 2 + a[2])

    for q in itertools.product(range(m), repeat=3):
        sp = (q[0] * m + q[1]) * m + q[2]
        w[sp * 2 + 0, col(q, (0, 1, 0))] = 1 / root2
        w[sp * 2 + 0, col(q, (0, 0, 1))] = -1 / root2
        w[sp * 2 + 1, col(q, (1, 0, 0))] = -2 / root6
        w[sp * 2 + 1, col(q, (0, 1, 0))] = 1 / root6
        w[sp * 2 + 1, col(q, (0, 0, 1))] = 1 / root6
    return w


def parafermion_constraint_residuals(psi, m: int) -> dict[str, float]:
    """Residuals of the six component constraint equations for one vector.

    Keys are "(i j) component k": the equation U(pi) psi = psi U_P(pi)^T
    for the transposition pi, restricted to component k, with U(pi) the
    dense slot permutation of tensor_rep.permutation_operator.
    """
    from sectorkit import linalg
    from sectorkit.parastat_equiv import parafermion_matrix
    from sectorkit.permgroup import Permutation
    from sectorkit.tensor_rep import permutation_operator

    psi = np.asarray(psi, dtype=complex).reshape(m**3, 2)
    out = {}
    for images in [(2, 1, 3), (3, 2, 1), (1, 3, 2)]:
        pi = Permutation(images)
        lhs = permutation_operator(pi, m) @ psi
        rhs = psi @ parafermion_matrix(pi).T
        swapped = [i for i in range(1, 4) if pi(i) != i]
        name = f"({swapped[0]} {swapped[1]})"
        for comp in range(2):
            out[f"{name} component {comp + 1}"] = linalg.max_abs(lhs[:, comp] - rhs[:, comp])
    return out


def index_map_slot_average(columns: np.ndarray, m: int, n_slots: int, internal) -> np.ndarray:
    """(1/N!) sum_pi U(pi) x M(pi) on the columns, by N! row scatters.

    Rows are ordered (word of (C^m)^{xN}, internal index); U(pi) sends
    the rows of word i to those of word tensor_rep._index_maps[pi][i].
    """
    from sectorkit.permgroup import symmetric_group
    from sectorkit.tensor_rep import _images, _index_maps

    perms = symmetric_group(n_slots)
    x = columns.reshape(m**n_slots, -1, columns.shape[1])
    total = np.zeros_like(x)
    for pi, image in zip(perms, _index_maps(_images(perms), m)):
        total[image] += internal(pi) @ x
    return total.reshape(columns.shape) / math.factorial(n_slots)


def dense_orthonormal_range(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space, one dense SVD."""
    u, s, _ = np.linalg.svd(np.asarray(a, dtype=complex), full_matrices=False)
    return u[:, : int(np.sum(s > 1e-8 * max(1.0, s[0] if s.size else 0.0)))]


def dense_bosonic_carrier(w: np.ndarray, m: int, n_slots: int) -> np.ndarray:
    """range(W*W P_sym) on (C^m x C^2)^{xN}, rows interleaved (q_1 a_1 ... q_N a_N).

    P_sym is the dense average of every slot permutation of (C^{2m})^{xN}.
    """
    p_sym = dense_group_sum(2 * m, n_slots, lambda images: 1) / math.factorial(n_slots)
    return dense_orthonormal_range(w.conj().T @ w @ p_sym)


def dense_antisymmetric_carrier(m: int) -> np.ndarray:
    """Range of the dense two-slot antisymmetrizer on (C^m)^{x2}."""
    return dense_orthonormal_range(dense_group_sum(m, 2, permutation_sign) / 2)


def dense_parafermion_constraint_space(m: int, doublet_matrices: dict) -> np.ndarray:
    """Joint kernel of U(pi) x 1_2 - 1 x U_P(pi) over the three transpositions.

    doublet_matrices maps each transposition's one-line images to its 2 x 2
    matrix U_P; the constraint operators are stacked and the kernel read
    from one dense SVD.
    """
    eye = np.eye(m**3)
    stack = np.vstack(
        [
            np.kron(slot_permutation_matrix(images, m), np.eye(2)) - np.kron(eye, up)
            for images, up in doublet_matrices.items()
        ]
    )
    _, s, vh = np.linalg.svd(stack.astype(complex))
    rank = int(np.sum(s > 1e-8 * max(1.0, s[0])))
    return vh[rank:].conj().T


def dense_orbit_restrictions(carrier: np.ndarray, m: int, n_slots: int):
    """C* (A x 1) C for every dense normalized orbit indicator A, and the worst leakage.

    The indicators come from generator_bfs_entry_orbits, in its order; the
    carrier's rows are ordered (spatial index, internal index), so A x 1
    acts on row block i as sum_j A_ij C_j.
    """
    dim = m**n_slots
    blocks = carrier.reshape(dim, -1)
    out, leakage = [], 0.0
    for orbit in generator_bfs_entry_orbits(m, n_slots):
        a = np.zeros(dim * dim)
        a[orbit] = 1.0 / math.sqrt(len(orbit))
        image = (a.reshape(dim, dim) @ blocks).reshape(carrier.shape)
        restricted = carrier.conj().T @ image
        out.append(restricted)
        leakage = max(leakage, float(np.abs(image - carrier @ restricted).max()))
    return np.array(out), leakage


def restrict_orbits(carrier, n: int, rows, cols, starts):
    """Restriction of every normalized orbit indicator A_O, from the orbit table.

    The orbits hold entries of n x n matrices as in
    orbit_restrictions, and the carrier's rows are ordered (index
    of A, internal index) as in linalg.restrict. Returns the (K, r, r)
    restrictions and the largest leakage max_abs((A_O x 1)C - C R_O) over
    the orbits, evaluated in chunks of orbits: row block i of (A_O x 1)C
    is |O|**-1/2 sum_{j : (i, j) in O} C_j, a scatter-add of gathered
    blocks. No n x n operator is formed.
    """
    from sectorkit import linalg, tolerances
    from sectorkit.errors import DomainError

    c = np.asarray(carrier)
    if n == 0 or c.shape[0] % n:
        raise DomainError(f"carrier of {c.shape[0]} rows does not carry {n} x {n} operators")
    blocks = c.reshape(n, c.shape[0] // n, c.shape[1])
    restricted = orbit_restrictions(blocks, rows, cols, starts)
    sizes = np.diff(starts)
    scale = np.repeat(1.0 / np.sqrt(sizes), sizes)[:, None, None]
    # C R_O and its absolute values are the two arrays of a chunk
    step = max(1, tolerances.CHUNK_BYTES // max(1, 2 * c.size * c.itemsize))
    leakage = 0.0
    for lo in range(0, len(sizes), step):
        hi = min(lo + step, len(sizes))
        entries = slice(starts[lo], starts[hi])
        residual = c @ restricted[lo:hi]
        local = np.repeat(np.arange(hi - lo), sizes[lo:hi])
        np.add.at(
            residual.reshape((hi - lo,) + blocks.shape),
            (local, rows[entries]),
            -scale[entries] * blocks[cols[entries]],
        )
        leakage = max(leakage, linalg.max_abs(residual))
    return restricted, leakage


def invariant_realization(label: str, injection, m: int, n_slots: int):
    """The realization on all K = C(m^2 + N - 1, N) orbit indicators of the invariant algebra.

    The basis is tensor_rep.commutant_basis(m, n_slots), in its order,
    restricted from the entry-orbit table by restrict_orbits, with the
    package's isometry and leakage checks: the equiv realizations before
    they were built from the m^2 one-body generators.
    """
    from sectorkit import parastat_equiv, tensor_rep

    c = parastat_equiv._isometry(label, injection)
    dim = m**n_slots
    entries, starts = tensor_rep._entry_orbit_table(m, n_slots)
    rows, cols = np.divmod(entries, dim)
    restricted, leakage = restrict_orbits(c, dim, rows, cols, starts)
    return parastat_equiv._realization(label, c, restricted, leakage)


def one_body_operator(a: int, b: int, m: int, n_slots: int) -> np.ndarray:
    """Dense G_ab = sum_i 1 x ... x E_ab (slot i) x ... x 1 on (C^m)^{xN}, by Kronecker products."""
    unit = np.zeros((m, m))
    unit[a, b] = 1.0
    total = np.zeros((m**n_slots, m**n_slots))
    for i in range(n_slots):
        factors = [np.eye(m)] * n_slots
        factors[i] = unit
        term = np.ones((1, 1))
        for factor in factors:
            term = np.kron(term, factor)
        total += term
    return total


def generated_algebra_dimension(ops) -> int:
    """Dimension of the unital algebra the operators generate.

    The span of the identity and the operators is closed under right
    multiplication by each operator until its rank stops growing; the
    ranks come from dense SVDs of the flattened stacks.
    """
    ops = [np.asarray(a) for a in ops]
    d = ops[0].shape[0]

    def row_basis(stack):
        _, s, vh = np.linalg.svd(stack, full_matrices=False)
        return vh[: int(np.sum(s > 1e-8 * max(1.0, s[0])))]

    basis = row_basis(np.array([np.eye(d)] + ops).reshape(len(ops) + 1, -1))
    while True:
        mats = basis.reshape(-1, d, d)
        products = np.concatenate([mats @ a for a in ops]).reshape(-1, d * d)
        grown = row_basis(np.vstack([basis, products]))
        if len(grown) == len(basis):
            return len(basis)
        basis = grown


def twisted_momentum(theta: float, n: int, method: str = "spectral") -> np.ndarray:
    """Dense n x n -i d/dx with boundary psi(1) = exp(i theta) psi(0).

    "spectral": plane-wave diagonalization, exact eigenvalues
    theta + 2*pi*k for the mode numbers k of the symmetric window. "fd":
    second-order central differences with the twisted wrap-around.
    """
    if method == "spectral":
        x = np.arange(n) / n
        mu = theta + 2 * math.pi * (((np.arange(n) + n // 2) % n) - n // 2)
        modes = np.exp(1j * np.outer(x, mu)) / math.sqrt(n)
        mat = (modes * mu) @ modes.conj().T
        return (mat + mat.conj().T) / 2
    if method == "fd":
        coeff = -1j * n / 2.0
        mat = np.zeros((n, n), dtype=complex)
        idx = np.arange(n - 1)
        mat[idx, idx + 1] = coeff
        mat[idx + 1, idx] = -coeff
        mat[n - 1, 0] = coeff * np.exp(1j * theta)
        mat[0, n - 1] = -coeff * np.exp(-1j * theta)
        return mat
    raise ValueError(f"unknown discretization {method!r}")


def dense_spectrum_rows(theta: float, n: int, k_max: int, method: str) -> list[dict]:
    """(k, eigenvalue, reference, error) rows from one dense eigh of twisted_momentum.

    Each reference theta + 2 pi k is paired with the eigenvalue whose
    eigenvector overlaps the mode's twisted plane wave most strongly.
    theta must already lie in [0, 2 pi).
    """
    eigvals, eigvecs = np.linalg.eigh(twisted_momentum(theta, n, method))
    x = np.arange(n) / n
    rows = []
    for k in range(-k_max, k_max + 1):
        ref = theta + 2 * math.pi * k
        overlaps = np.abs((np.exp(1j * ref * x) / math.sqrt(n)).conj() @ eigvecs)
        value = float(eigvals[int(np.argmax(overlaps))])
        rows.append({"k": k, "eigenvalue": value, "reference": ref, "error": abs(value - ref)})
    return rows


def dense_gauge_report(theta: float, n: int) -> dict:
    """Spectral gauge check on dense matrices: G T_theta G* - T_0 - c and both eigvalsh spectra."""
    gauge = np.diag(np.exp(-1j * theta * np.arange(n) / n))
    conjugated = gauge @ twisted_momentum(theta, n, "spectral") @ gauge.conj().T
    periodic = twisted_momentum(0.0, n, "spectral")
    diff = conjugated - periodic
    constant = float(np.mean(np.diag(diff)).real)
    eig_twist = np.sort(np.linalg.eigvalsh(conjugated))
    eig_per = np.sort(np.linalg.eigvalsh(periodic)) + constant
    return {
        "residual": float(np.abs(diff - constant * np.eye(n)).max()),
        "measured_constant": constant,
        "eigenvalue_agreement": float(np.abs(eig_twist - eig_per).max()),
    }


def out_of_place_plane_waves(theta: float, modes: np.ndarray, n: int) -> np.ndarray:
    """Rows exp(i (theta + 2 pi m) x)/sqrt(n), phase times an indexed n-th root of unity."""
    j = np.arange(n)
    roots = np.exp(2j * math.pi * j / n) / math.sqrt(n)
    return np.exp(1j * theta * (j / n)) * roots[np.multiply.outer(modes, j) % n]


def out_of_place_apply(theta: float, vectors: np.ndarray, method: str) -> np.ndarray:
    """-i d/dx on each row: by FFT ("spectral") or by two rolled copies ("fd")."""
    n = vectors.shape[-1]
    if method == "spectral":
        twist = np.exp(1j * theta * (np.arange(n) / n))
        mu = theta + 2.0 * math.pi * (((np.arange(n) + n // 2) % n) - n // 2)
        return twist * np.fft.ifft(mu * np.fft.fft(twist.conj() * vectors))
    if method == "fd":
        ahead = np.roll(vectors, -1, axis=-1)
        ahead[..., -1] *= np.exp(1j * theta)
        behind = np.roll(vectors, 1, axis=-1)
        behind[..., 0] *= np.exp(-1j * theta)
        return (-0.5j * n) * (ahead - behind)
    raise ValueError(f"unknown discretization {method!r}")


def out_of_place_certified_eigenvalues(theta: float, waves: np.ndarray, method: str):
    """Images, Rayleigh quotients and np.linalg.norm residuals of the rows of `waves`."""
    images = out_of_place_apply(theta, waves, method)
    values = np.sum(waves.conj() * images, axis=-1).real
    residuals = np.linalg.norm(images - values[:, None] * waves, axis=-1)
    return images, values, residuals


def out_of_place_gauge_report(theta: float, n: int) -> dict:
    """The chunked spectral gauge check, each chunk's column step as one expression."""
    modes = ((np.arange(n) + n // 2) % n) - n // 2
    twist = np.exp(1j * theta * (np.arange(n) / n))
    twisted_values, periodic_values = np.empty(n), np.empty(n)
    diagonal = np.empty(n, dtype=complex)
    off_diagonal = 0.0
    step = max(1, 2**20 // (16 * n))
    for start in range(0, n, step):
        block = modes[start : start + step]
        stop = start + len(block)
        waves = out_of_place_plane_waves(0.0, block, n)
        twisted, twisted_values[start:stop], _ = out_of_place_certified_eigenvalues(
            theta, twist * waves, "spectral"
        )
        periodic, periodic_values[start:stop], _ = out_of_place_certified_eigenvalues(
            0.0, waves, "spectral"
        )
        columns = np.fft.fft(twist.conj() * twisted - periodic) / math.sqrt(n)
        rows, own = np.arange(len(block)), block % n
        diagonal[start:stop] = columns[rows, own]
        columns[rows, own] = 0.0
        off_diagonal = max(off_diagonal, float(np.max(np.abs(columns))))
    constant = float(np.mean(diagonal).real)
    return {
        "residual": max(off_diagonal, float(np.max(np.abs(diagonal - constant)))),
        "measured_constant": constant,
        "eigenvalue_agreement": float(np.max(np.abs(twisted_values - periodic_values - constant))),
    }


def polyfit_order(grid_sizes, errors) -> float:
    """Fitted convergence order: minus the slope of np.polyfit(log n, log error, 1)."""
    return float(-np.polyfit(np.log(np.array(grid_sizes, float)), np.log(np.array(errors)), 1)[0])


def sector_report_fields(report) -> dict:
    """A SectorReport's fields in declaration order, with its SectorRecords'
    fields in theirs: fresh lists and dicts, partitions as lists."""
    return {
        "m": report.m,
        "N": report.N,
        "sectors": [
            {
                "partition": list(s.partition),
                "irrep_dim": s.irrep_dim,
                "multiplicity": s.multiplicity,
                "rank": s.rank,
                "idempotence_residual": s.idempotence_residual,
            }
            for s in report.sectors
        ],
        "commutant_dim": report.commutant_dim,
        "residuals": dict(report.residuals),
    }


def dense_cycle_images(n: int, length: int) -> np.ndarray:
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


def dense_weight_block_split(weight: tuple[int, ...], shapes: list[tuple[int, ...]]) -> dict:
    """The dense eigh split of the block of `weight` into the sectors `shapes`.

    The block's words in lexicographic order, the combination
    scale K_(2) + K_(3) of the transposition and 3-cycle class sums built
    by unbuffered scatter-adds over their index maps (slot k's letter goes
    to slot pi(k)), its eigenvectors, and the index into `shapes` of the
    predicted content value omega = scale sum c + sum c^2 - C(N, 2) each
    eigenvalue lands on. scale is the smallest positive integer making the
    values distinct. An eigenvalue farther than EIGEN_CLUSTER_TOL times the
    smallest gap from every prediction raises AssertionError. Returns
    {"words", "vectors", "sector", "k2", "k3", "scale"}.
    """
    n = sum(weight)
    pairs = []
    for shape in shapes:
        contents = [j - i for i, row in enumerate(shape) for j in range(row)]
        pairs.append((sum(contents), sum(c * c for c in contents) - math.comb(n, 2)))
    omega = np.array(pairs, dtype=float)
    scale = next(s for s in itertools.count(1) if len(set(s * omega[:, 0] + omega[:, 1])) == len(omega))
    words = np.array(sorted(set(itertools.permutations(
        [letter for letter, count in enumerate(weight) for _ in range(count)]
    ))), dtype=np.int64).reshape(-1, n)
    base = len(weight)
    codes = words @ base ** np.arange(n - 1, -1, -1)
    sums = []
    for length in (2, 3):
        images = dense_cycle_images(n, length)
        maps = np.searchsorted(codes, (base ** (n - images)) @ words.T)
        acc = np.zeros((len(words), len(words)))
        np.add.at(acc, (maps, np.arange(len(words))), 1.0)
        sums.append(acc)
    values, vectors = np.linalg.eigh(scale * sums[0] + sums[1])
    predicted = scale * omega[:, 0] + omega[:, 1]
    ladder = np.sort(predicted)
    gap = float(np.diff(ladder).min()) if len(ladder) > 1 else 1.0
    nearest = np.abs(values[:, None] - predicted[None, :]).argmin(axis=1)
    miss = np.abs(values - predicted[nearest])
    assert not miss.size or miss.max() <= 1e-6 * gap, (weight, miss.max())
    return {
        "words": words, "vectors": vectors, "sector": nearest, "k2": sums[0], "k3": sums[1],
        "scale": scale,
    }

"""Dense linear-algebra helpers shared by the sector modules.

Operators are plain complex numpy arrays. Every threshold of the matrix
certificates is a named constant below (circle_theta names those of its
grid spectra), and no function takes a tolerance argument, so each
certificate is decided against the same numbers wherever it is
computed. Rank decisions count eigenvalues of a Hermitian idempotent
above RANK_TOL, or singular values above RANK_TOL times max(1, largest);
identity-type residuals (intertwining, leakage, idempotence) are
measured in the max-abs entry norm against RESIDUAL_TOL.

Commutant dimensions are first certified by span rank of the operators
stacked as vectors (Burnside): operators spanning all of M_d have scalar
commutant. When the span falls short, the dimension comes from the null
space of the Sylvester system instead, so a reported dimension is always
the true one.

That null space is found by successive restriction, one operator pair at a
time: if the columns of N span the solutions of the first k - 1 equations,
those of N null(M_k N) span the solutions of the first k, so each SVD
involves only one equation on the current (shrinking) solution space and
no Kronecker-product stack is ever formed.

A unitary intertwiner is first sought from one random Hermitian element
of each side (coefficients drawn from the standard library's
random.Random, so that no CLI run loads numpy.random), MeatAxe-style
(Parker 1984; Holt and Rees 1994): matched
eigenvectors spun up through the operators give V, certified by its
residual over every pair. Only when that fails is the intertwiner space
solved by successive restriction, whose verdict then stands.

Operators given as normalized indicators of entry orbits (the orbit
bases of both the operator and the covering-space pictures) are
restricted to a carrier straight from their orbit tables, by gathers and
per-orbit sums (orbit_restrictions, restrict_orbits), without forming
them.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import DomainError

RANK_TOL = 1e-8
RESIDUAL_TOL = 1e-10
ISOMETRY_TOL = 1e-12  # C*C - 1 of an injection handed to a realization
# Checks of the cover layer, kept at the values they were introduced with:
GROUP_LAW_TOL = 1e-9  # unitarity and group law of a representation
INVARIANT_SUBSPACE_TOL = 1e-8  # leakage of a candidate irreducible subspace
EIGEN_CLUSTER_TOL = 1e-6  # eigenvalue clustering, character matching, sector eigenvalues
KERNEL_INVARIANCE_TOL = 1e-10  # deck invariance of a kernel
# Working set of one chunk of orbit_restrictions / restrict_orbits, and the
# size of one chunk of plane waves in circle_theta's matrix-free passes.
CHUNK_BYTES = 2**20


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _rank_from_singular_values(s: np.ndarray) -> int:
    """Singular values above RANK_TOL * max(1, largest)."""
    return int(np.sum(s > RANK_TOL * max(1.0, s.max() if s.size else 0.0)))


def _span_rank(ops) -> int:
    """Dimension of the linear span of the operators, as flat vectors."""
    stack = np.asarray(ops, dtype=complex).reshape(len(ops), -1)
    return _rank_from_singular_values(np.linalg.svd(stack, compute_uv=False))


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel, via SVD.

    The economy SVD of a tall matrix already carries every right singular
    vector; only wide systems need the full decomposition.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    full = mat.shape[0] < mat.shape[1]
    _, s, vh = np.linalg.svd(mat, full_matrices=full)
    return dagger(vh[_rank_from_singular_values(s):])


def orthonormal_range(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column space, rank-revealing.

    Real input gives a real basis.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a, float), copy=False)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : _rank_from_singular_values(s)]


def restrict(a: np.ndarray, carrier: np.ndarray) -> tuple[np.ndarray, float]:
    """Restriction of A x 1_k to the range of an isometry C, and its leakage.

    The carrier's rows are ordered (index of `a`, internal index), so
    k = rows / a.shape[1] and the internal-blind operator A x 1_k acts on
    C by one reshape: row i of C.reshape(n, -1) holds the k internal rows
    of index i side by side. Returns C* (A x 1)C and the leakage
    max_abs((A x 1)C - C C*(A x 1)C), zero exactly when the range of C is
    invariant.
    """
    a = np.asarray(a)
    c = np.asarray(carrier)
    n = a.shape[1]
    if a.shape != (n, n) or n == 0 or c.shape[0] % n:
        raise DomainError(
            f"carrier of {c.shape[0]} rows does not carry a {a.shape} operator times an identity"
        )
    image = (a @ c.reshape(n, -1)).reshape(c.shape)
    restricted = dagger(c) @ image
    return restricted, max_abs(image - c @ restricted)


def orbit_restrictions(
    blocks: np.ndarray, rows: np.ndarray, cols: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """R_O = |O|**-1/2 sum_{(i, j) in O} B_i^* B_j for every orbit O, as a (K, r, r) array.

    blocks[i] is the k x r row block of a carrier at index i; orbit o
    holds the entries (rows[e], cols[e]) for e in starts[o]:starts[o + 1].
    R_O is the carrier restriction of the normalized indicator of O (times
    the identity on the k internal rows). The blocks are gathered per
    entry, multiplied and summed per orbit, in chunks of whole orbits
    whose products take at most CHUNK_BYTES (one orbit at least).
    """
    r = blocks.shape[2]
    sizes = np.diff(starts)
    out = np.empty((len(sizes), r, r), dtype=blocks.dtype)
    step = max(1, CHUNK_BYTES // max(1, r * r * blocks.itemsize * int(sizes.max())))
    for lo in range(0, len(sizes), step):
        hi = min(lo + step, len(sizes))
        entries = slice(starts[lo], starts[hi])
        products = blocks[rows[entries]].conj().swapaxes(1, 2) @ blocks[cols[entries]]
        out[lo:hi] = np.add.reduceat(products, starts[lo:hi] - starts[lo], axis=0)
    out /= np.sqrt(sizes)[:, None, None]
    return out


def restrict_orbits(
    carrier: np.ndarray, n: int, rows: np.ndarray, cols: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, float]:
    """restrict of every normalized orbit indicator A_O, from the orbit table.

    The orbits hold entries of n x n matrices as in
    orbit_restrictions, and the carrier's rows are ordered (index of A,
    internal index) as in restrict. Returns the (K, r, r) restrictions and
    the largest leakage max_abs((A_O x 1)C - C R_O) over the orbits,
    restrict's definition, evaluated in chunks of orbits: row block i of
    (A_O x 1)C is |O|**-1/2 sum_{j : (i, j) in O} C_j, a scatter-add of
    gathered blocks. No n x n operator is formed.
    """
    c = np.asarray(carrier)
    if n == 0 or c.shape[0] % n:
        raise DomainError(f"carrier of {c.shape[0]} rows does not carry {n} x {n} operators")
    blocks = c.reshape(n, c.shape[0] // n, c.shape[1])
    restricted = orbit_restrictions(blocks, rows, cols, starts)
    sizes = np.diff(starts)
    scale = np.repeat(1.0 / np.sqrt(sizes), sizes)[:, None, None]
    # C R_O and its absolute values are the two arrays of a chunk
    step = max(1, CHUNK_BYTES // max(1, 2 * c.size * c.itemsize))
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
        leakage = max(leakage, max_abs(residual))
    return restricted, leakage


def rank_of_hermitian_idempotent(p: np.ndarray) -> int:
    """Rank of a Hermitian idempotent by eigenvalue counting."""
    eigs = np.linalg.eigvalsh(p)
    return int(np.sum(eigs > RANK_TOL))


def hermitian_part_residual(a: np.ndarray) -> float:
    return max_abs(a - dagger(a))


def commutant_basis_of(ops: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of {X : [X, A] = 0 for all A}.

    XA - AX = 0 is the intertwiner equation with both sides equal.
    """
    if len(ops) == 0:
        raise DomainError("empty operator list")
    d = ops[0].shape[0]
    basis = intertwiner_basis(ops, ops)
    return [basis[:, k].reshape(d, d) for k in range(basis.shape[1])]


def commutant_dimension_of(ops: list[np.ndarray]) -> int:
    """dim {X : [X, A] = 0 for all A}.

    When the operators span all of M_d the commutant is the scalars
    (Burnside), which one |ops| x d**2 span rank certifies; otherwise the
    dimension is counted from the Sylvester null space.
    """
    if len(ops) == 0:
        raise DomainError("empty operator list")
    d = ops[0].shape[0]
    if 0 < d * d <= len(ops) and _span_rank(ops) == d * d:
        return 1
    return len(commutant_basis_of(ops))


def intertwiner_basis(ops1: list[np.ndarray], ops2: list[np.ndarray]) -> np.ndarray:
    """Orthonormal basis of {V : V A_k = B_k V}, as columns of vec(V), row-major.

    V maps the carrier of ops1 (dim d1) to the carrier of ops2 (dim d2).
    The solution space is restricted one pair at a time: the r current
    basis columns, viewed as d2 x d1 matrices V, give the (d1 d2) x r
    block vec(V A_k - B_k V), whose null space selects the combinations
    that also solve equation k. A block of Frobenius norm <= RANK_TOL has
    no singular value above the rank threshold, so it is skipped unsolved.
    """
    if len(ops1) == 0 or len(ops1) != len(ops2):
        raise DomainError("operator lists must be nonempty and aligned")
    d1 = ops1[0].shape[0]
    d2 = ops2[0].shape[0]
    basis = np.eye(d1 * d2, dtype=complex)
    for a, b in zip(ops1, ops2):
        width = basis.shape[1]
        if width == 0:
            break
        v = basis.T.reshape(width, d2, d1)
        block = (v @ a - b @ v).reshape(width, d1 * d2).T
        if np.linalg.norm(block) > RANK_TOL:
            basis = basis @ nullspace(block)
    return basis


def polar_unitary(a: np.ndarray) -> np.ndarray:
    """Unitary factor of the polar decomposition a = U |a|."""
    u, _, vh = np.linalg.svd(a)
    return u @ vh


def normalize_phase(v: np.ndarray) -> np.ndarray:
    """Fix the global phase so the largest-magnitude entry is real positive.

    Entries within a relative RANK_TOL of the largest magnitude count as
    tied, and the first of them (row-major) is the pivot, so rounding
    noise cannot pick between, say, a +1 and a -1 entry.
    """
    mags = np.abs(v)
    idx = np.unravel_index(np.argmax(mags >= (1.0 - RANK_TOL) * mags.max()), v.shape)
    pivot = v[idx]
    if abs(pivot) == 0.0:
        return v
    return v * (abs(pivot) / pivot)


def intertwining_residual(
    v: np.ndarray, ops1: list[np.ndarray], ops2: list[np.ndarray]
) -> float:
    return max(max_abs(v @ a - b @ v) for a, b in zip(ops1, ops2))


def _normals(rng: random.Random, count: int) -> np.ndarray:
    """`count` standard normal draws from rng."""
    return np.array([rng.gauss(0.0, 1.0) for _ in range(count)])


def _intertwiner_from_random_element(
    ops1, ops2, rng: random.Random
) -> tuple[np.ndarray, float] | None:
    """A unitary intertwiner from one random Hermitian element, or None.

    H = (X + X*)/2 with X = sum_k c_k A_k, the same random coefficients on
    both sides (real when every operator is real, so that a real
    intertwiner comes out real), lies in a *-closed algebra, so a unitary
    intertwiner V maps each eigenvector of H_1 to the eigenvector of H_2 of
    the same eigenvalue, up to a phase. When both spectra are simple and
    agree, the pair (v1, v2) of the best-isolated eigenvalue is spun up
    through the operators: V A_k v1 = B_k v2 for every k, which V solves
    in the least squares sense (the vectors A_k v1 span an irreducible
    carrier). The polar factor is returned with its residual over all
    pairs; None when the spectra do not qualify. Nothing here decides
    inequivalence.
    """
    a1 = np.asarray(ops1)
    a2 = np.asarray(ops2)
    if a1.ndim != 3 or a1.shape != a2.shape or a1.shape[1] == 0:
        return None
    coeffs = _normals(rng, len(a1))
    if np.iscomplexobj(a1) or np.iscomplexobj(a2):
        coeffs = coeffs + 1j * _normals(rng, len(a1))
        a1, a2 = a1.astype(complex, copy=False), a2.astype(complex, copy=False)
    spectra = []
    for ops in (a1, a2):
        x = np.tensordot(coeffs, ops, axes=1)
        spectra.append(np.linalg.eigh((x + dagger(x)) / 2))
    (w1, q1), (w2, q2) = spectra
    scale = EIGEN_CLUSTER_TOL * max(1.0, float(np.abs(w1).max()))
    gaps = np.diff(w1)
    if np.abs(w1 - w2).max() > scale or (gaps.size and gaps.min() <= scale):
        return None
    isolation = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    best = int(np.argmax(isolation))
    spun1 = a1 @ q1[:, best]
    spun2 = a2 @ q2[:, best]
    v = np.linalg.lstsq(spun1, spun2, rcond=None)[0].T
    v = normalize_phase(polar_unitary(v))
    return v, intertwining_residual(v, ops1, ops2)


def unitary_intertwiner(
    ops1: list[np.ndarray],
    ops2: list[np.ndarray],
    seed: int = 0,
) -> tuple[np.ndarray | None, float, str]:
    """Search for a unitary V with V A_k = B_k V for all k.

    Returns (V, residual, evidence). The first try is one random Hermitian
    element of each side (_intertwiner_from_random_element), accepted when
    its residual over all pairs is below RESIDUAL_TOL. Otherwise the
    intertwiner space is solved by successive restriction
    (intertwiner_basis) and that path's verdict stands, so an
    inequivalence verdict always comes from it. V is None when no
    invertible intertwiner exists; evidence then states what ruled it out.
    For *-closed irreducible actions the polar factor of any invertible
    solution intertwines exactly, which is what the residual certifies.
    The random element and the fallback's four random candidates draw
    from one random.Random(seed) stream.
    """
    rng = random.Random(seed)
    found = _intertwiner_from_random_element(ops1, ops2, rng)
    if found is not None and found[1] < RESIDUAL_TOL:
        return found[0], found[1], "unitary intertwiner found"
    basis = intertwiner_basis(ops1, ops2)
    if basis.shape[1] == 0:
        return None, float("inf"), "intertwiner space is zero"
    d1 = ops1[0].shape[0]
    d2 = ops2[0].shape[0]
    if d1 != d2:
        return None, float("inf"), f"carrier dimensions differ ({d1} vs {d2})"
    candidates = [basis[:, k].reshape(d2, d1) for k in range(basis.shape[1])]
    for _ in range(4):
        coeffs = _normals(rng, basis.shape[1]) + 1j * _normals(rng, basis.shape[1])
        candidates.append((basis @ coeffs).reshape(d2, d1))
    best: tuple[np.ndarray, float] | None = None
    for cand in candidates:
        smin = np.linalg.svd(cand, compute_uv=False)[-1]
        if smin <= RANK_TOL:
            continue
        v = normalize_phase(polar_unitary(cand))
        res = intertwining_residual(v, ops1, ops2)
        if best is None or res < best[1]:
            best = (v, res)
    if best is None:
        return None, float("inf"), "no invertible element in the intertwiner space"
    return best[0], best[1], "unitary intertwiner found"

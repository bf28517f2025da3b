"""Dense linear-algebra helpers shared by the sector modules.

Operators are plain complex numpy arrays. Every threshold of the matrix
certificates is a named constant below (circle_theta names those of its
grid spectra), and no function takes a tolerance argument, so each
certificate is decided against the same numbers wherever it is
computed. Rank decisions count eigenvalues of a Hermitian idempotent
above RANK_TOL, or singular values above RANK_TOL times max(1, largest);
identity-type residuals (intertwining, leakage, idempotence) are
measured in the max-abs entry norm against RESIDUAL_TOL.

Commutants and intertwiner spaces are the null spaces of Sylvester
systems, found by successive restriction, one operator pair at a time:
if the columns of N span the solutions of the first k - 1 equations,
those of N null(M_k N) span the solutions of the first k, so each SVD
involves only one equation on the current (shrinking) solution space and
no Kronecker-product stack is ever formed.

A unitary intertwiner is first sought from one random element of the
algebra the operators generate (drawn from random.Random, so that no CLI
run loads numpy.random): a mismatch of its two spectra refutes
equivalence, and simple spectra give V = Q2 D Q1*, certified by its
residual over every pair. Otherwise successive restriction, after a byte
estimate, decides.
"""

from __future__ import annotations

import random

# sectorkit modules before numpy (README Conventions)
from .errors import DomainError, check_bytes

import numpy as np

RANK_TOL = 1e-8
RESIDUAL_TOL = 1e-10
ISOMETRY_TOL = 1e-12  # C*C - 1 of an injection handed to a realization
# Checks of the cover layer, kept at the values they were introduced with:
GROUP_LAW_TOL = 1e-9  # unitarity and group law of a representation
INVARIANT_SUBSPACE_TOL = 1e-8  # leakage of a candidate irreducible subspace
EIGEN_CLUSTER_TOL = 1e-6  # eigenvalue clusters, sector eigenvalues, intertwiner spectra
KERNEL_INVARIANCE_TOL = 1e-10  # deck invariance of a kernel
# One chunk's size: circle_theta's plane-wave passes, the census's generating orbits.
CHUNK_BYTES = 2**20


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _rank_from_singular_values(s: np.ndarray) -> int:
    """Singular values above RANK_TOL * max(1, largest)."""
    return int(np.sum(s > RANK_TOL * max(1.0, s.max() if s.size else 0.0)))


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


def rank_of_hermitian_idempotent(p: np.ndarray) -> int:
    """Rank of a Hermitian idempotent by eigenvalue counting."""
    eigs = np.linalg.eigvalsh(p)
    return int(np.sum(eigs > RANK_TOL))


def commutant_basis_of(ops: list[np.ndarray]) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of {X : [X, A] = 0 for all A}.

    XA - AX = 0 is the intertwiner equation with both sides equal.
    """
    if len(ops) == 0:
        raise DomainError("empty operator list")
    d = ops[0].shape[0]
    basis = intertwiner_basis(ops, ops)
    return [basis[:, k].reshape(d, d) for k in range(basis.shape[1])]


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


def _combinations(rng: random.Random, a1: np.ndarray, a2: np.ndarray, real: bool):
    """One random combination sum_k c_k A_k of each stack, with the same c_k."""
    coeffs = _normals(rng, len(a1))
    if not real:
        coeffs = coeffs + 1j * _normals(rng, len(a1))
    return np.tensordot(coeffs, a1, axes=1), np.tensordot(coeffs, a2, axes=1)


def _tree_phases(m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Unit d with d_i m1_ij = m2_ij d_j along a maximum spanning forest of |m1|.

    Prim's algorithm; a vertex with no edge to the tree above
    RANK_TOL * max(1, largest) starts a new tree with phase 1.
    """
    weight = np.abs(m1)
    floor = RANK_TOL * max(1.0, float(weight.max()))
    d = np.ones(len(m1), dtype=np.result_type(m1, m2))
    best = np.zeros(len(m1))
    parent = np.zeros(len(m1), dtype=int)
    done = np.zeros(len(m1), dtype=bool)
    for _ in range(len(m1)):
        j = int(np.argmax(np.where(done, -1.0, best)))
        if best[j] > floor:
            ratio = m2[j, parent[j]] * np.conj(m1[j, parent[j]])
            d[j] = d[parent[j]] * (ratio / abs(ratio) if ratio != 0 else 1.0)
        done[j] = True
        closer = ~done & (weight[:, j] > best)
        best[closer] = weight[closer, j]
        parent[closer] = j
    return d


def _intertwiner_from_random_element(
    ops1, ops2, rng: random.Random
) -> tuple[np.ndarray | None, float, str] | None:
    """(V, residual, evidence) from one random element of the generated algebra, or None.

    Each Y is sum_k c_k A_k, the same (real if all operators are) c_k on
    both sides. A unitary intertwiner also intertwines adjoints, so it
    carries H = herm(Y1 + Y2 Y3) of one side to the other's: unequal
    spectra refute (V None). The product leaves the operators' span, whose
    weights may be degenerate. Simple spectra fix V = Q2 D Q1* up to the
    phases D, which solve d_i (Q1* Y4 Q1)_ij = (Q2* Y4 Q2)_ij d_j
    (_tree_phases). None when the spectra are degenerate.
    """
    a1 = np.asarray(ops1)
    a2 = np.asarray(ops2)
    if a1.ndim != 3 or a1.shape != a2.shape or a1.shape[1] == 0:
        return None
    real = not (np.iscomplexobj(a1) or np.iscomplexobj(a2))
    y1, y2, y3, y4 = (_combinations(rng, a1, a2, real) for _ in range(4))
    spectra = []
    for x in (y1[0] + y2[0] @ y3[0], y1[1] + y2[1] @ y3[1]):
        spectra.append(np.linalg.eigh((x + dagger(x)) / 2))
    (w1, q1), (w2, q2) = spectra
    scale = EIGEN_CLUSTER_TOL * max(1.0, float(np.abs(w1).max()))
    mismatch = float(np.abs(w1 - w2).max())
    if mismatch > scale:
        return None, float("inf"), f"spectra of a random algebra element differ by {mismatch:.3e}"
    if np.diff(w1).min(initial=np.inf) <= scale:
        return None
    d = _tree_phases(dagger(q1) @ y4[0] @ q1, dagger(q2) @ y4[1] @ q2)
    v = normalize_phase((q2 * d) @ dagger(q1))
    return v, intertwining_residual(v, ops1, ops2), "unitary intertwiner found"


def _fallback_bytes(d1: int, d2: int) -> int:
    """Peak bytes of intertwiner_basis: about ten complex (d1 d2)**2 arrays."""
    return 160 * (d1 * d2) ** 2


def unitary_intertwiner(
    ops1: list[np.ndarray],
    ops2: list[np.ndarray],
    seed: int = 0,
) -> tuple[np.ndarray | None, float, str]:
    """Search for a unitary V with V A_k = B_k V for all k.

    Returns (V, residual, evidence); V is None when no unitary
    intertwiner exists, and evidence states what ruled it out. Carrier
    dimensions that differ refute before anything is drawn. The random
    element (_intertwiner_from_random_element) decides when its spectra
    differ or its V has a residual below RESIDUAL_TOL. Otherwise the
    intertwiner space is solved by successive restriction
    (intertwiner_basis), after a byte estimate, and its verdict stands:
    for *-closed irreducible actions the polar factor of any invertible
    solution intertwines exactly, which the residual certifies. All
    draws come from one random.Random(seed).
    """
    if len(ops1) == 0 or len(ops1) != len(ops2):
        raise DomainError("operator lists must be nonempty and aligned")
    d1 = ops1[0].shape[0]
    d2 = ops2[0].shape[0]
    if d1 != d2:
        return None, float("inf"), f"carrier dimensions differ ({d1} vs {d2})"
    rng = random.Random(seed)
    found = _intertwiner_from_random_element(ops1, ops2, rng)
    if found is not None and (found[0] is None or found[1] < RESIDUAL_TOL):
        return found
    check_bytes(_fallback_bytes(d1, d2), f"dim {d1} x {d2} intertwiners by successive restriction")
    basis = intertwiner_basis(ops1, ops2)
    if basis.shape[1] == 0:
        return None, float("inf"), "intertwiner space is zero"
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

"""Dense linear-algebra helpers shared by the sector modules.

Operators are plain complex numpy arrays. Rank decisions follow a fixed
policy: eigenvalue counting at threshold 1e-8 for Hermitian idempotents,
singular values above 1e-8 times max(1, largest) otherwise; identity-type
residuals are measured in the max-abs entry norm against 1e-10.

Commutant and intertwiner dimensions are first certified by span rank,
one singular-value decomposition of the operators stacked as vectors
(Burnside): operators spanning all of M_d have scalar commutant, and
pairs (A_k, B_k) spanning M_d1 x M_d2 admit no intertwiner but 0. Both
certificates hold for any operator list. When the span falls short, the
dimension comes from the null space of the Sylvester system instead, so a
reported dimension is always the true one.

That null space is found by successive restriction, one operator pair at a
time: if the columns of N span the solutions of the first k - 1 equations,
those of N null(M_k N) span the solutions of the first k, so each SVD
involves only one equation on the current (shrinking) solution space and
no Kronecker-product stack is ever formed.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

RANK_TOL = 1e-8
RESIDUAL_TOL = 1e-10


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _rank_from_singular_values(s: np.ndarray, tol: float) -> int:
    """Singular values above tol * max(1, largest); s is sorted descending."""
    return int(np.sum(s > tol * max(1.0, s[0] if s.size else 0.0)))


def _span_rank(ops: list[np.ndarray], tol: float = RANK_TOL) -> int:
    """Dimension of the linear span of the operators, as flat vectors."""
    stack = np.asarray([np.ravel(a) for a in ops], dtype=complex)
    return _rank_from_singular_values(np.linalg.svd(stack, compute_uv=False), tol)


def nullspace(mat: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel, via SVD.

    The economy SVD of a tall matrix already carries every right singular
    vector; only wide systems need the full decomposition.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    full = mat.shape[0] < mat.shape[1]
    _, s, vh = np.linalg.svd(mat, full_matrices=full)
    return dagger(vh[_rank_from_singular_values(s, tol):])


def orthonormal_range(a: np.ndarray, tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the column space, rank-revealing."""
    a = np.asarray(a, dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, : _rank_from_singular_values(s, tol)]


def rank_of_hermitian_idempotent(p: np.ndarray, tol: float = RANK_TOL) -> int:
    """Rank of a Hermitian idempotent by eigenvalue counting."""
    eigs = np.linalg.eigvalsh(p)
    return int(np.sum(eigs > tol))


def hermitian_part_residual(a: np.ndarray) -> float:
    return max_abs(a - dagger(a))


def commutant_basis_of(ops: list[np.ndarray], tol: float = RANK_TOL) -> list[np.ndarray]:
    """Orthonormal (Hilbert-Schmidt) basis of {X : [X, A] = 0 for all A}.

    XA - AX = 0 is the intertwiner equation with both sides equal.
    """
    if not ops:
        raise DomainError("empty operator list")
    d = ops[0].shape[0]
    basis = intertwiner_basis(ops, ops, tol)
    return [basis[:, k].reshape(d, d) for k in range(basis.shape[1])]


def commutant_dimension_of(ops: list[np.ndarray], tol: float = RANK_TOL) -> int:
    """dim {X : [X, A] = 0 for all A}.

    When the operators span all of M_d the commutant is the scalars
    (Burnside), which one |ops| x d**2 span rank certifies; otherwise the
    dimension is counted from the Sylvester null space.
    """
    if not ops:
        raise DomainError("empty operator list")
    d = ops[0].shape[0]
    if 0 < d * d <= len(ops) and _span_rank(ops, tol) == d * d:
        return 1
    return len(commutant_basis_of(ops, tol))


def intertwiner_basis(
    ops1: list[np.ndarray], ops2: list[np.ndarray], tol: float = RANK_TOL
) -> np.ndarray:
    """Orthonormal basis of {V : V A_k = B_k V}, as columns of vec(V), row-major.

    V maps the carrier of ops1 (dim d1) to the carrier of ops2 (dim d2).
    The solution space is restricted one pair at a time: the r current
    basis columns, viewed as d2 x d1 matrices V, give the (d1 d2) x r
    block vec(V A_k - B_k V), whose null space selects the combinations
    that also solve equation k. A block of Frobenius norm <= tol has no
    singular value above the rank threshold, so it is skipped unsolved.
    """
    if not ops1 or len(ops1) != len(ops2):
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
        if np.linalg.norm(block) > tol:
            basis = basis @ nullspace(block, tol)
    return basis


def intertwiner_dimension(
    ops1: list[np.ndarray], ops2: list[np.ndarray], tol: float = RANK_TOL
) -> int:
    """dim {V : V A_k = B_k V}, the width of intertwiner_basis.

    When the pairs (A_k, B_k) span M_d1 x M_d2, the pair (I, 0) is a
    combination sum_k c_k (A_k, B_k), so V = sum_k c_k V A_k =
    sum_k c_k B_k V = 0; one |ops| x (d1**2 + d2**2) span rank certifies
    this. Otherwise the dimension is counted from the Sylvester null space.
    """
    if not ops1 or len(ops1) != len(ops2):
        raise DomainError("operator lists must be nonempty and aligned")
    full = ops1[0].size + ops2[0].size
    pairs = [np.concatenate((np.ravel(a), np.ravel(b))) for a, b in zip(ops1, ops2)]
    if 0 < full <= len(pairs) and _span_rank(pairs, tol) == full:
        return 0
    return intertwiner_basis(ops1, ops2, tol).shape[1]


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


def unitary_intertwiner(
    ops1: list[np.ndarray],
    ops2: list[np.ndarray],
    tol: float = RANK_TOL,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray | None, float, str]:
    """Search for a unitary V with V A_k = B_k V for all k.

    Returns (V, residual, evidence). V is None when no invertible
    intertwiner exists; evidence then states what ruled it out. For
    *-closed irreducible actions the polar factor of any invertible
    solution intertwines exactly, which is what the residual certifies.
    """
    basis = intertwiner_basis(ops1, ops2, tol)
    if basis.shape[1] == 0:
        return None, float("inf"), "intertwiner space is zero"
    d1 = ops1[0].shape[0]
    d2 = ops2[0].shape[0]
    if d1 != d2:
        return None, float("inf"), f"carrier dimensions differ ({d1} vs {d2})"
    rng = rng if rng is not None else np.random.default_rng(0)
    candidates = [basis[:, k].reshape(d2, d1) for k in range(basis.shape[1])]
    for _ in range(4):
        coeffs = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
        candidates.append((basis @ coeffs).reshape(d2, d1))
    best: tuple[np.ndarray, float] | None = None
    for cand in candidates:
        smin = np.linalg.svd(cand, compute_uv=False)[-1]
        if smin <= tol:
            continue
        v = normalize_phase(polar_unitary(cand))
        res = intertwining_residual(v, ops1, ops2)
        if best is None or res < best[1]:
            best = (v, res)
    if best is None:
        return None, float("inf"), "no invertible element in the intertwiner space"
    return best[0], best[1], "unitary intertwiner found"

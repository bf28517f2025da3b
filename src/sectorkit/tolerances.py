"""The named thresholds of every matrix certificate, and the chunk size.

No function takes a tolerance argument, so each certificate is decided
against the same numbers wherever it is computed (circle_theta names
those of its grid spectra). Rank decisions count eigenvalues of a
Hermitian idempotent above RANK_TOL, or singular values above RANK_TOL
times max(1, largest); identity-type residuals (intertwining, leakage,
idempotence) are measured in the max-abs entry norm (max_abs) against
RESIDUAL_TOL.

This module is all that the ``cover --q-size/--N`` and ``circle`` paths
take from the shared numerics: linalg, which imports these names back,
holds the Sylvester solvers and the intertwiner search that only
``equiv`` runs. Its body loads nothing, so the cover census, which works
in plain Python, runs without numpy; max_abs imports numpy when called.
"""

from __future__ import annotations

RANK_TOL = 1e-8
RESIDUAL_TOL = 1e-10
ISOMETRY_TOL = 1e-12  # C*C - 1 of an injection handed to a realization
# Checks of the cover layer, kept at the values they were introduced with:
GROUP_LAW_TOL = 1e-9  # unitarity and group law of a representation
INVARIANT_SUBSPACE_TOL = 1e-8  # leakage of a candidate irreducible subspace
EIGEN_CLUSTER_TOL = 1e-6  # eigenvalue clusters of the regular split and intertwiner spectra
KERNEL_INVARIANCE_TOL = 1e-10  # deck invariance of a kernel
# One chunk's size: circle_theta's plane-wave passes.
CHUNK_BYTES = 2**20


def max_abs(a) -> float:
    import numpy as np  # its callers hold numpy arrays, so numpy is loaded already

    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0

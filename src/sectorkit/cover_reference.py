"""Dense reference realizations of a finite cover, which no subcommand loads.

The covering-space counterpart of tensor_rep: invariant kernels as dense
matrices over the total set (InvariantKernel, random_invariant_kernel,
the orbit basis kernel_orbit_basis), the dense constrained basis and the
kernels' constrained and section actions on it, and the realization
unitary between them. cover_quant's census never forms any of these; the
tests and the acceptance suite check it against them. cover_quant
resolves these names on first access, so ``from sectorkit.cover_quant
import constrained_action`` still works.
"""

from __future__ import annotations

import math

# sectorkit modules before numpy (README Conventions); cover_quant loads numpy
from .errors import ConsistencyError, DomainError, Value
from .cover_quant import FiniteCover, GroupRep, _fiber_blocks
from . import linalg

import numpy as np


class InvariantKernel(Value, eq=False):
    """Kernel on the total set, invariant under the diagonal deck action."""

    _fields = ("cover", "matrix")

    def _validate(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        npts = self.cover.total_size
        if mat.shape != (npts, npts):
            raise DomainError("kernel must be square over the total set")
        action = self.cover.action
        for g in range(self.cover.group.order):
            moved = mat[np.ix_(action[:, g], action[:, g])]
            err = np.abs(moved - mat)
            worst = float(err.max()) if err.size else 0.0
            if worst > linalg.KERNEL_INVARIANCE_TOL:
                x, y = np.unravel_index(int(err.argmax()), err.shape)
                raise DomainError(
                    "kernel is not invariant: "
                    f"A({x}.g, {y}.g) != A({x}, {y}) for g={self.cover.group.labels[g]}"
                )


def random_invariant_kernel(
    cover: FiniteCover, rng: np.random.Generator, hermitian: bool = False
) -> InvariantKernel:
    """Group-average of a random dense kernel; exactly invariant."""
    npts = cover.total_size
    raw = rng.standard_normal((npts, npts)) + 1j * rng.standard_normal((npts, npts))
    acc = np.zeros_like(raw)
    for g in range(cover.group.order):
        sel = cover.action[:, g]
        acc += raw[np.ix_(sel, sel)]
    acc /= cover.group.order
    if hermitian:
        acc = (acc + linalg.dagger(acc)) / 2
    return InvariantKernel(cover=cover, matrix=acc)


def kernel_orbit_basis(cover: FiniteCover) -> list[np.ndarray]:
    """Orthonormal basis of the invariant kernels, one per entry orbit.

    Each orbit of the (free) diagonal action on index pairs holds one pair
    whose row point is on the section: the |base|**2 |group| orbits are
    {(section(q).g, b.g) : g} over base points q and points b, ordered by
    smallest flat index row * |total| + col.
    """
    npts = cover.total_size
    rows = np.repeat(cover.action[cover.section], npts, axis=0)
    cols = np.tile(cover.action, (cover.base_size, 1))
    basis = []
    for o in np.argsort((rows * npts + cols).min(axis=1)):
        mat = np.zeros((npts, npts), dtype=complex)
        mat[rows[o], cols[o]] = 1.0 / math.sqrt(cover.group.order)
        basis.append(mat)
    return basis


def constrained_space(cover: FiniteCover, rep: GroupRep) -> np.ndarray:
    """Orthonormal basis (columns) of the equivariant functions.

    Functions psi with psi(x.h) = U(h^-1) psi(x), encoded as vectors with
    index (point, component); the 1/sqrt(|G|) scaling realizes the
    quotient measure so that the columns are orthonormal and evaluation
    along the section is unitary. The fiber blocks (_fiber_blocks) are
    scattered onto the block diagonal of (point, base point).
    """
    blocks = _fiber_blocks(cover, rep)
    npts, d = blocks.shape[:2]
    basis = np.zeros((npts, d, cover.base_size, d), dtype=blocks.dtype)
    basis[np.arange(npts), :, cover.tau, :] = blocks
    return basis.reshape(npts * d, cover.base_size * d)


def constrained_action(kernel: InvariantKernel, rep: GroupRep) -> np.ndarray:
    """Matrix of the kernel action restricted to the equivariant functions.

    The kernel acts as (matrix x identity) on vector-valued functions;
    invariance keeps the constrained subspace stable, which is checked
    (leakage must stay below linalg.RESIDUAL_TOL).
    """
    return _restrict(kernel, constrained_space(kernel.cover, rep))


def _restrict(kernel: InvariantKernel, basis: np.ndarray) -> np.ndarray:
    """constrained_action on a precomputed constrained_space basis."""
    restricted, leakage = linalg.restrict(kernel.matrix, basis)
    if leakage > linalg.RESIDUAL_TOL:
        raise ConsistencyError(f"constrained subspace leaks: {leakage:.2e}")
    return restricted


def section_action(kernel: InvariantKernel, rep: GroupRep) -> np.ndarray:
    """Kernel action transported to functions on the quotient.

    On psi: base -> internal space,
    (A psi)(q) = sum_{h, q'} A(sigma(q), sigma(q').h) U(h^-1) psi(q');
    this is the conjugate of the constrained action by the section
    evaluation unitary. The entries A(sigma(q), sigma(q').h) are gathered
    as one (base, base, G) array and contracted with U(h^-1) stacked
    over h.
    """
    cover = kernel.cover
    if rep.group is not cover.group:
        raise DomainError("representation must belong to the cover's deck group")
    entries = kernel.matrix[cover.section][:, cover.action[cover.section]]
    size = cover.base_size * rep.dimension
    return np.einsum("qph,hij->qipj", entries, rep.inverse_matrices()).reshape(size, size)


def realization_unitary(cover: FiniteCover, rep: GroupRep) -> np.ndarray:
    """Unitary from the constrained to the quotient realization.

    Evaluation along the section, expressed in the coordinates provided
    by constrained_space: U psi = psi(sigma(.)). Conjugation by it turns
    every constrained action into the matching section action.
    """
    basis = constrained_space(cover, rep)
    rows = (cover.section[:, None] * rep.dimension + np.arange(rep.dimension)).ravel()
    return math.sqrt(cover.group.order) * basis[rows, :]

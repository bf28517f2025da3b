"""Parastatistics sectors realized by bosons/fermions with internal indices.

Two-particle systems: the internal-singlet slice of two bosonic isospin
doublets carries the same invariant-algebra representation as spinless
fermions. Three particles: the internal-doublet slice of three bosonic
isospin doublets matches the two-component equivariant ("parafermionic")
realization. Both equivalences are certified by an explicitly computed
unitary intertwiner; a generic intertwiner search doubles as an
inequivalence prover.

Internal degrees of freedom are unobservable: every observable acts as
A x 1 with A an invariant spatial operator. That extension is never
formed as a matrix. Each realization's carrier has its rows ordered
(spatial index, internal index), so A x 1 acts on it by one reshape
(linalg.restrict), the same restriction the covering-space picture uses.

Index conventions: on (C^m x C^2)^{xN} the isometries and symmetrizers
use per-slot basis indices spatial * 2 + a, slots interleaved as
(q_1 a_1 ... q_N a_N). The bosonic `injection` holds the same carrier
with its rows reordered spatial-major, (q_1 ... q_N, a_1 ... a_N).
Doublet-valued wave functions are flattened as spatial_flat * 2 +
component, which is already spatial-major.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import linalg
from .errors import ConsistencyError, DomainError
from .permgroup import Permutation, symmetric_group
from .tensor_rep import (
    antisymmetrizer,
    commutant_basis,
    permutation_operator,
    symmetrizer,
)

#: Orthonormal basis of C^3 splitting the natural S_3 action into the
#: trivial line (first column) and the two-dimensional irreducible block.
PARAFERMION_BASIS = np.array(
    [
        [1 / math.sqrt(3), 0.0, -2 / math.sqrt(6)],
        [1 / math.sqrt(3), 1 / math.sqrt(2), 1 / math.sqrt(6)],
        [1 / math.sqrt(3), -1 / math.sqrt(2), 1 / math.sqrt(6)],
    ]
)


def natural_permutation_matrix(pi: Permutation) -> np.ndarray:
    """Matrix of the natural action e_i -> e_{pi(i)} on C^degree."""
    n = pi.degree
    mat = np.zeros((n, n))
    for i in range(1, n + 1):
        mat[pi(i) - 1, i - 1] = 1.0
    return mat


def parafermion_matrix(pi: Permutation) -> np.ndarray:
    """2x2 block of the natural S_3 action in the PARAFERMION_BASIS."""
    if pi.degree != 3:
        raise DomainError("parafermion representation lives on S_3")
    b = PARAFERMION_BASIS
    return (b.T @ natural_permutation_matrix(pi) @ b)[1:, 1:]


def partial_isometry_residual(w: np.ndarray) -> float:
    """max-abs of W W* W - W; zero for an exact partial isometry."""
    return linalg.max_abs(w @ linalg.dagger(w) @ w - w)


def singlet_isometry_2(m: int) -> np.ndarray:
    """W: (C^m x C^2)^{x2} -> (C^m)^{x2}, internal singlet component.

    (W psi)(q1, q2) = (psi_{01} - psi_{10})(q1, q2) / sqrt(2) in 0-based
    internal indices; identity on the spatial factors.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    amb = 2 * m
    w = np.zeros((m**2, amb**2), dtype=complex)
    root2 = math.sqrt(2.0)
    for q1 in range(m):
        for q2 in range(m):
            row = q1 * m + q2
            w[row, (q1 * 2 + 0) * amb + (q2 * 2 + 1)] = 1 / root2
            w[row, (q1 * 2 + 1) * amb + (q2 * 2 + 0)] = -1 / root2
    return w


def doublet_isometry_3(m: int) -> np.ndarray:
    """W: (C^m x C^2)^{x3} -> (C^m)^{x3} x C^2, internal doublet component.

    Component 0 is (psi_{010} - psi_{001})/sqrt(2), component 1 is
    (-2 psi_{100} + psi_{010} + psi_{001})/sqrt(6), internal indices
    0-based, identity on the spatial factors.
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    amb = 2 * m
    w = np.zeros((m**3 * 2, amb**3), dtype=complex)
    root2, root6 = math.sqrt(2.0), math.sqrt(6.0)

    def col(q: tuple[int, int, int], a: tuple[int, int, int]) -> int:
        return ((q[0] * 2 + a[0]) * amb + (q[1] * 2 + a[1])) * amb + (q[2] * 2 + a[2])

    for q1 in range(m):
        for q2 in range(m):
            for q3 in range(m):
                q = (q1, q2, q3)
                sp = (q1 * m + q2) * m + q3
                w[sp * 2 + 0, col(q, (0, 1, 0))] = 1 / root2
                w[sp * 2 + 0, col(q, (0, 0, 1))] = -1 / root2
                w[sp * 2 + 1, col(q, (1, 0, 0))] = -2 / root6
                w[sp * 2 + 1, col(q, (0, 1, 0))] = 1 / root6
                w[sp * 2 + 1, col(q, (0, 0, 1))] = 1 / root6
    return w


def parafermion_constraint_operators(m: int) -> list[tuple[Permutation, np.ndarray]]:
    """The equivariance constraints defining the two-component realization.

    For each transposition pi the constraint operator is
    U(pi) x 1_2 - 1 x U_P(pi); its joint kernel is the constrained space.
    """
    eye_sp = np.eye(m**3, dtype=complex)
    eye2 = np.eye(2, dtype=complex)
    out = []
    for images in [(2, 1, 3), (3, 2, 1), (1, 3, 2)]:
        pi = Permutation(images)
        op = np.kron(permutation_operator(pi, m), eye2) - np.kron(
            eye_sp, parafermion_matrix(pi).astype(complex)
        )
        out.append((pi, op))
    return out


def parafermion_constraint_space(m: int) -> np.ndarray:
    """Orthonormal basis (columns) of the two-component constrained space."""
    stacked = np.vstack([op for _, op in parafermion_constraint_operators(m)])
    return linalg.nullspace(stacked)


def parafermion_constraint_residuals(psi: np.ndarray, m: int) -> dict[str, float]:
    """Residuals of the six component constraint equations for one vector.

    Keys are "(i j) component k": the equation relating component k of
    the slot-permuted wave function to the mixed components.
    """
    psi = np.asarray(psi, dtype=complex).reshape(m**3, 2)
    out = {}
    for images in [(2, 1, 3), (3, 2, 1), (1, 3, 2)]:
        pi = Permutation(images)
        u_sp = permutation_operator(pi, m)
        lhs = u_sp @ psi
        rhs = psi @ parafermion_matrix(pi).T
        swapped = [i for i in range(1, 4) if pi(i) != i]
        name = f"({swapped[0]} {swapped[1]})"
        for comp in range(2):
            out[f"{name} component {comp + 1}"] = linalg.max_abs(lhs[:, comp] - rhs[:, comp])
    return out


@dataclass(frozen=True)
class SectorRealization:
    """An invariant-algebra action restricted to an invariant carrier."""

    label: str
    injection: np.ndarray
    operators: tuple[np.ndarray, ...]
    leakage: float

    @property
    def carrier_dim(self) -> int:
        return self.injection.shape[1]


def realize(
    label: str,
    injection: np.ndarray,
    ambient_ops: Iterable[np.ndarray],
    tol: float = linalg.RESIDUAL_TOL,
) -> SectorRealization:
    """Restrict internal-blind operators A x 1 to the carrier of the injection.

    The injection must be an isometry (orthonormal columns) with rows
    ordered (index of A, internal index); an operator A on a carrier of
    as many rows acts as itself. Its range must be invariant under every
    operator; the worst leakage ||(1 - CC*) (A x 1) C|| is recorded and
    must stay below tol.
    """
    c = np.asarray(injection, dtype=complex)
    if linalg.max_abs(linalg.dagger(c) @ c - np.eye(c.shape[1])) > 1e-12:
        raise DomainError(f"injection for {label!r} is not an isometry")
    restricted = []
    leakage = 0.0
    for a in ambient_ops:
        block, leak = linalg.restrict(a, c)
        restricted.append(block)
        leakage = max(leakage, leak)
    if not restricted:
        raise DomainError("empty algebra basis")
    if leakage > tol:
        raise ConsistencyError(f"carrier of {label!r} leaks under the algebra: {leakage:.2e}")
    return SectorRealization(
        label=label, injection=c, operators=tuple(restricted), leakage=leakage
    )


@dataclass(frozen=True)
class EquivalenceCertificate:
    """Outcome of a unitary-intertwiner search between two realizations."""

    equivalent: bool
    carrier_dims: tuple[int, int]
    residual: float
    intertwiner: np.ndarray | None
    detail: str

    def to_dict(self, include_intertwiner: bool = True) -> dict:
        out = {
            "equivalent": self.equivalent,
            "carrier_dims": list(self.carrier_dims),
            "residual": self.residual if math.isfinite(self.residual) else None,
            "detail": self.detail,
        }
        if include_intertwiner and self.intertwiner is not None:
            out["intertwiner"] = [
                [[float(z.real), float(z.imag)] for z in row] for row in self.intertwiner
            ]
        return out


def general_equivalence(
    r1: SectorRealization,
    r2: SectorRealization,
    tol: float = linalg.RESIDUAL_TOL,
    rng: np.random.Generator | None = None,
) -> EquivalenceCertificate:
    """Certify unitary equivalence of two realizations of the same algebra.

    Solves V a_1(A) = a_2(A) V over the shared operator basis; a unitary
    solution (polar factor of an invertible one) yields an equivalence
    certificate, otherwise the rank deficiency or non-invertibility of
    the solution space is reported as inequivalence evidence.
    """
    if not r1.operators or not r2.operators:
        raise DomainError("empty algebra basis")
    if len(r1.operators) != len(r2.operators):
        raise DomainError("realizations carry differently sized algebra bases")
    dims = (r1.carrier_dim, r2.carrier_dim)
    v, residual, evidence = linalg.unitary_intertwiner(
        list(r1.operators), list(r2.operators), rng=rng
    )
    equivalent = v is not None and residual < tol
    return EquivalenceCertificate(
        equivalent=equivalent,
        carrier_dims=dims,
        residual=residual,
        intertwiner=v if equivalent else None,
        detail=evidence,
    )


def _spatial_major(carrier: np.ndarray, m: int, n_slots: int) -> np.ndarray:
    """Carrier rows reordered from (q_1 a_1 ... q_N a_N) to (q_1 ... q_N, a_1 ... a_N)."""
    axes = [*range(0, 2 * n_slots, 2), *range(1, 2 * n_slots, 2), 2 * n_slots]
    split = carrier.reshape((m, 2) * n_slots + (carrier.shape[1],))
    return split.transpose(axes).reshape(carrier.shape)


def bosonic_singlet_realization(m: int) -> SectorRealization:
    """Internal-singlet slice of two bosonic doublets, invariant action."""
    basis = commutant_basis(m, 2)  # checks its cost before anything is allocated
    w = singlet_isometry_2(m)
    p0 = linalg.dagger(w) @ w
    pb = symmetrizer(2, 2 * m)
    carrier = _spatial_major(linalg.orthonormal_range(p0 @ pb), m, 2)
    return realize("two bosonic doublets, internal singlet", carrier, basis)


def fermionic_realization(m: int) -> SectorRealization:
    """Antisymmetric two-particle wave functions, invariant action."""
    basis = commutant_basis(m, 2)
    carrier = linalg.orthonormal_range(antisymmetrizer(2, m))
    return realize("two spinless fermions", carrier, basis)


def verify_singlet_fermion_equivalence(
    m: int, tol: float = linalg.RESIDUAL_TOL
) -> EquivalenceCertificate:
    """Certify: singlet slice of two bosonic doublets ~ two fermions."""
    if m < 2:
        raise DomainError("need m >= 2 so the fermionic sector is nonzero")
    return general_equivalence(bosonic_singlet_realization(m), fermionic_realization(m), tol)


def bosonic_doublet_realization(m: int) -> SectorRealization:
    """Internal-doublet slice of three bosonic doublets, invariant action."""
    basis = commutant_basis(m, 3)  # checks its cost before anything is allocated
    w = doublet_isometry_3(m)
    p2 = linalg.dagger(w) @ w
    pb = symmetrizer(3, 2 * m)
    carrier = _spatial_major(linalg.orthonormal_range(p2 @ pb), m, 3)
    return realize("three bosonic doublets, internal doublet", carrier, basis)


def parafermion_realization(m: int) -> SectorRealization:
    """Two-component equivariant wave functions, invariant action x 1_2."""
    basis = commutant_basis(m, 3)
    carrier = parafermion_constraint_space(m)
    return realize("parafermion doublet wave functions", carrier, basis)


def verify_doublet_parafermion_equivalence(
    m: int, tol: float = linalg.RESIDUAL_TOL
) -> EquivalenceCertificate:
    """Certify: doublet slice of three bosonic doublets ~ parafermions."""
    if m < 2:
        raise DomainError("need m >= 2 so the parastatistics sector is nonzero")
    return general_equivalence(bosonic_doublet_realization(m), parafermion_realization(m), tol)


def sector_realization_from_projector(
    label: str, projector: np.ndarray, ambient_ops: Iterable[np.ndarray]
) -> SectorRealization:
    """Realization on the range of an idempotent (orthonormalized first)."""
    return realize(label, linalg.orthonormal_range(projector), ambient_ops)


def s3_block_diagonalization_residuals() -> dict[str, float]:
    """Leakage of the natural S_3 action on C^3 in the PARAFERMION_BASIS.

    For every group element, conjugating by the basis must produce
    exactly a 1 + 2 block structure (trivial line plus doublet block);
    returns the worst off-block entry per element.
    """
    b = PARAFERMION_BASIS
    out = {}
    for pi in symmetric_group(3):
        conj = b.T @ natural_permutation_matrix(pi) @ b
        off = max(linalg.max_abs(conj[0, 1:]), linalg.max_abs(conj[1:, 0]))
        out[str(pi.images)] = off
    return out

"""Parastatistics sectors realized by bosons/fermions with internal indices.

Two-particle systems: the internal-singlet slice of two bosonic isospin
doublets carries the same invariant-algebra representation as spinless
fermions. Three particles: the internal-doublet slice of three bosonic
isospin doublets matches the two-component equivariant ("parafermionic")
realization. Both equivalences are certified by an explicitly computed
unitary intertwiner; a generic intertwiner search doubles as an
inequivalence prover.

No (2m)^N x (2m)^N or m^N x m^N array is formed on the way:

* All four carriers come from one builder (_carrier): the unit columns
  of the sorted spatial words times a few internal vectors, averaged
  over S_N by N! moves of the slot axes of the (m, ..., m, k, r) view
  (the joint slot action) and orthonormalized by one thin SVD. The
  internal action is the sign for fermions, U_P(pi) for parafermions
  and the slot permutation of (C^2)^{xN} for bosons, whose internal
  vectors V span the singlet or doublet slice: with W = 1 x V^T the
  internal isometry onto that slice, the bosonic carrier
  range(P_sym W*W) is built without forming W. Each carrier is averaged
  with its own internal action; none is derived from another, which
  would make the certificate circular.
* Internal degrees of freedom are unobservable: every observable acts as
  A x 1 with A an S_N-invariant spatial operator. By Schur-Weyl duality
  the m^2 one-body operators G_ab = sum_i E_ab^(i) generate that algebra
  (Goodman and Wallach, Symmetry, Representations, and Invariants), so a
  carrier invariant under them is invariant under all of it, and a
  unitary intertwining them intertwines all of it. Each G_ab x 1 is
  restricted to a carrier whose rows are ordered (spatial word, internal
  index) by moving slices of the carrier viewed as an
  (m, ..., m, k, r) array (one_body_realization), its leakage included;
  neither the K = C(m^2 + N - 1, N) orbit operators nor their entry
  table is formed.
* The intertwiner comes from one random element of the generated
  algebra: matched eigenvectors with phases fixed along a spanning
  forest, certified by the residual over all generators, a spectrum
  mismatch refuting equivalence (linalg.unitary_intertwiner), with
  successive restriction as the fallback whose verdict stands.

One estimate, checked before anything is allocated, bounds the
carrier blocks, the restricted generators of both realizations, their
working images and the intertwiner search.

Index conventions: the carriers hold their rows spatial-major:
(q_1 ... q_N, a_1 ... a_N) for the bosons, spatial_flat * 2 + component
for doublet-valued wave functions; internal indices a_k are 0-based.
Slot permutations follow tensor_rep's convention (the content of slot i
moves to slot pi(i)), applied here by axis moves, so this module loads
none of tensor_rep's dense builders.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable

# sectorkit modules before numpy (README Conventions); linalg loads numpy
from .errors import ConsistencyError, DomainError, Value, check_bytes
from .permgroup import Permutation, symmetric_group
from . import linalg

import numpy as np

#: Orthonormal basis of C^3 splitting the natural S_3 action into the
#: trivial line (first column) and the two-dimensional irreducible block.
PARAFERMION_BASIS = np.array(
    [
        [1 / math.sqrt(3), 0.0, -2 / math.sqrt(6)],
        [1 / math.sqrt(3), 1 / math.sqrt(2), 1 / math.sqrt(6)],
        [1 / math.sqrt(3), -1 / math.sqrt(2), 1 / math.sqrt(6)],
    ]
)

#: Internal vector V of the singlet slice in (C^2)^{x2}, indexed a_1 a_2:
#: (psi_{01} - psi_{10}) / sqrt(2).
SINGLET_VECTORS = np.array([[0.0], [1.0], [-1.0], [0.0]]) / math.sqrt(2)

#: Internal vectors V of the doublet slice in (C^2)^{x3}, indexed
#: a_1 a_2 a_3: component 0 is (psi_{010} - psi_{001}) / sqrt(2), component
#: 1 is (-2 psi_{100} + psi_{010} + psi_{001}) / sqrt(6).
DOUBLET_VECTORS = np.zeros((8, 2))
DOUBLET_VECTORS[[0b010, 0b001], 0] = np.array([1.0, -1.0]) / math.sqrt(2)
DOUBLET_VECTORS[[0b100, 0b010, 0b001], 1] = np.array([-2.0, 1.0, 1.0]) / math.sqrt(6)

FLOAT_BYTES = 8


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


def _slot_destinations(pi: Permutation) -> list[int]:
    """Axis pi(i) - 1 of each slot axis i: U(pi) moves the content of slot i to slot pi(i)."""
    return [p - 1 for p in pi.images]


def _slot_average(columns: np.ndarray, m: int, n_slots: int, internal) -> np.ndarray:
    """(1/N!) sum_pi U(pi) x M(pi) applied to the columns, by N! axis moves.

    Rows of `columns` are ordered (word of (C^m)^{xN}, internal index);
    viewed as an (m, ..., m, k, r) array, U(pi) moves slot axis i to axis
    pi(i), and M(pi) = internal(pi) acts on the internal index. No
    operator on the row space is formed.
    """
    x = columns.reshape(m**n_slots, -1, columns.shape[1])
    view = (m,) * n_slots + x.shape[1:]
    total = np.zeros(view, dtype=x.dtype)
    for pi in symmetric_group(n_slots):
        moved = (internal(pi) @ x).reshape(view)
        total += np.moveaxis(moved, range(n_slots), _slot_destinations(pi))
    return total.reshape(columns.shape) / math.factorial(n_slots)


def _sorted_word_columns(m: int, n_slots: int) -> np.ndarray:
    """Unit columns e_w of (C^m)^{xN} for the sorted words w, in flat order."""
    digits = np.indices((m,) * n_slots).reshape(n_slots, -1)  # slot 1 most significant
    words = np.flatnonzero(np.all(np.diff(digits, axis=0) >= 0, axis=0))
    columns = np.zeros((m**n_slots, len(words)))
    columns[words, np.arange(len(words))] = 1.0
    return columns


def _carrier(m: int, n_slots: int, vectors: np.ndarray, internal) -> np.ndarray:
    """Orthonormal basis of range(P (1 x Q)), rows (spatial word, internal index).

    P is the average of U(pi) x M(pi), M(pi) = internal(pi), and Q the
    projector onto the span of the internal `vectors` v_c, which M must
    leave invariant. Q = 1 for fermions and parafermions. For the bosons
    W*W = 1 x Q, so the range is range(P_sym W*W), and span{v_c} is the
    sign line of (C^2)^{x2} (singlet) or the sum-zero part of the
    weight-(2, 1) vectors of (C^2)^{x3} (doublet), both invariant under
    the internal slot permutations. Every word is U(sigma) of a sorted
    word w, and P (U(sigma) x M(sigma)) = P, so P (e_{sigma w} x v_c) is
    P (e_w x M(sigma)^-1 v_c), in the span of the P (e_w x v_c) over the
    sorted words: P is applied to those columns only, then one thin SVD.
    """
    columns = np.kron(_sorted_word_columns(m, n_slots), vectors)
    return linalg.orthonormal_range(_slot_average(columns, m, n_slots, internal))


def _internal_slot_permutation(pi: Permutation) -> np.ndarray:
    """0/1 matrix of the slot permutation pi on the internal (C^2)^{xN}."""
    n = pi.degree
    columns = np.eye(2**n).reshape((2,) * n + (2**n,))
    return np.moveaxis(columns, range(n), _slot_destinations(pi)).reshape(2**n, 2**n)


def parafermion_constraint_space(m: int) -> np.ndarray:
    """Orthonormal basis (columns) of the two-component constrained space.

    The wave functions psi with U(pi) psi = psi U_P(pi)^T for the
    transpositions pi are the invariants of pi -> U(pi) x U_P(pi), the
    range of its group average (_carrier, with both components kept).
    """
    if m < 1:
        raise DomainError("m must be >= 1")
    return _carrier(m, 3, np.eye(2), parafermion_matrix)


class SectorRealization(Value):
    """An invariant-algebra action restricted to an invariant carrier.

    `operators` is a (K, r, r) array, one restricted operator per given
    operator: the m**2 one-body generators for the equiv realizations.
    """

    _fields = ("label", "injection", "operators", "leakage")

    @property
    def carrier_dim(self) -> int:
        return self.injection.shape[1]


def _isometry(label: str, injection: np.ndarray) -> np.ndarray:
    c = np.asarray(injection)
    if linalg.max_abs(linalg.dagger(c) @ c - np.eye(c.shape[1])) > linalg.ISOMETRY_TOL:
        raise DomainError(f"injection for {label!r} is not an isometry")
    return c


def _realization(label: str, c: np.ndarray, restricted: np.ndarray, leakage: float):
    """The realization, refused when the carrier leaks by more than RESIDUAL_TOL."""
    if leakage > linalg.RESIDUAL_TOL:
        raise ConsistencyError(f"carrier of {label!r} leaks under the algebra: {leakage:.2e}")
    return SectorRealization(label=label, injection=c, operators=restricted, leakage=leakage)


def realize(
    label: str, injection: np.ndarray, ambient_ops: Iterable[np.ndarray]
) -> SectorRealization:
    """Restrict internal-blind operators A x 1 to the carrier of the injection.

    The injection must be an isometry (orthonormal columns) with rows
    ordered (index of A, internal index); an operator A on a carrier of
    as many rows acts as itself. Its range must be invariant under every
    operator; the worst leakage ||(1 - CC*) (A x 1) C|| is recorded and
    must stay below linalg.RESIDUAL_TOL.
    """
    c = _isometry(label, np.asarray(injection, dtype=complex))
    restricted = []
    leakage = 0.0
    for a in ambient_ops:
        block, leak = linalg.restrict(a, c)
        restricted.append(block)
        leakage = max(leakage, leak)
    if not restricted:
        raise DomainError("empty algebra basis")
    return _realization(label, c, np.array(restricted), leakage)


def one_body_realization(
    label: str, injection: np.ndarray, m: int, n_slots: int
) -> SectorRealization:
    """realize for the m**2 one-body operators G_ab = sum_i E_ab^(i), row-major in (a, b).

    By Schur-Weyl duality they generate the S_N-invariant operators on
    (C^m)^{xN}, so invariance under them is invariance under the whole
    algebra, and an intertwiner of them intertwines all of it. No operator
    is formed: the carrier's rows (spatial word, internal index) are
    viewed as an (m, ..., m, k, r) array, and (G_ab x 1) C is the sum over
    slots i of the slice with digit b at slot i moved to digit a. Each
    image gives C* (G_ab x 1) C and its leakage, with realize's check.
    """
    c = _isometry(label, injection)
    r = c.shape[1]
    carrier = c.reshape((m,) * n_slots + (c.shape[0] // m**n_slots, r))
    adjoint = linalg.dagger(c)
    restricted = np.empty((m, m, r, r), dtype=c.dtype)
    leakage = 0.0
    for a, b in itertools.product(range(m), repeat=2):
        image = np.zeros_like(carrier)
        for i in range(n_slots):
            before = (slice(None),) * i
            image[before + (a,)] += carrier[before + (b,)]
        image = image.reshape(c.shape)
        restricted[a, b] = adjoint @ image
        leakage = max(leakage, linalg.max_abs(image - c @ restricted[a, b]))
    return _realization(label, c, restricted.reshape(m * m, r, r), leakage)


class EquivalenceCertificate(Value):
    """Outcome of a unitary-intertwiner search between two realizations.

    intertwiner is the unitary found, or None.
    """

    _fields = ("equivalent", "carrier_dims", "residual", "intertwiner", "detail")

    def to_dict(self) -> dict:
        out = {
            "equivalent": self.equivalent,
            "carrier_dims": list(self.carrier_dims),
            "residual": self.residual if math.isfinite(self.residual) else None,
            "detail": self.detail,
        }
        if self.intertwiner is not None:
            out["intertwiner"] = [
                [[float(z.real), float(z.imag)] for z in row] for row in self.intertwiner
            ]
        return out


def general_equivalence(
    r1: SectorRealization, r2: SectorRealization, seed: int = 0
) -> EquivalenceCertificate:
    """Certify unitary equivalence of two realizations of the same algebra.

    Seeks V a_1(A) = a_2(A) V over the shared operators, which may be an
    algebra basis or a generating set (linalg.unitary_intertwiner: one
    random element of the generated algebra first, the full solution
    space as the fallback); a unitary solution with a residual below
    linalg.RESIDUAL_TOL yields an equivalence certificate, otherwise the
    spectrum mismatch, or the rank deficiency or non-invertibility of the
    solution space, is reported as inequivalence evidence.
    """
    if len(r1.operators) == 0 or len(r2.operators) == 0:
        raise DomainError("empty algebra basis")
    if len(r1.operators) != len(r2.operators):
        raise DomainError("realizations carry differently sized algebra bases")
    dims = (r1.carrier_dim, r2.carrier_dim)
    v, residual, evidence = linalg.unitary_intertwiner(r1.operators, r2.operators, seed=seed)
    equivalent = v is not None and residual < linalg.RESIDUAL_TOL
    return EquivalenceCertificate(
        equivalent=equivalent,
        carrier_dims=dims,
        residual=residual,
        intertwiner=v if equivalent else None,
        detail=evidence,
    )


def _carrier_dim(m: int, n_slots: int) -> int:
    """Dimension of the certified carriers: C(m, 2) at N = 2, m (m^2 - 1) / 3 at N = 3."""
    return math.comb(m, 2) if n_slots == 2 else m * (m * m - 1) // 3


def _equiv_bytes(m: int, n_slots: int) -> int:
    """Peak bytes of an equivalence certificate, estimated from the sizes alone.

    Each realization holds m**2 restricted r x r real operators. The
    larger carrier is built first: its slot-averaged block, (2m)^N rows
    by N - 1 internal vectors per sorted word, with the unit columns, the
    SVD factors and a scatter temporary, takes at most five such arrays,
    and is freed before the first realization is built. The second
    carrier is built beside the first realization and is no larger.
    Then both realizations are alive with five carrier-sized images of
    one generator at a time, and at last with the intertwiner search's
    r x r arrays (random elements, eigenvectors, phases, residuals: 24
    of them).
    """
    r = _carrier_dim(m, n_slots)
    generators = m * m * r * r
    block = (2 * m) ** n_slots * (n_slots - 1) * math.comb(m + n_slots - 1, n_slots)
    entries = generators + max(
        5 * block, generators + 5 * (2 * m) ** n_slots * r + 24 * r * r
    )
    return entries * FLOAT_BYTES


def _check_equiv_cost(m: int, n_slots: int) -> None:
    """Refuse an equivalence certificate over errors.BYTES_CAP, before allocating."""
    if m < 1:
        raise DomainError("m must be >= 1")
    check_bytes(
        _equiv_bytes(m, n_slots),
        f"the {m * m} one-body generators on (C^{m})^(x{n_slots}) restricted to two carriers "
        f"of dim {_carrier_dim(m, n_slots)}",
    )


def bosonic_singlet_realization(m: int) -> SectorRealization:
    """Internal-singlet slice of two bosonic doublets, invariant action."""
    _check_equiv_cost(m, 2)
    carrier = _carrier(m, 2, SINGLET_VECTORS, _internal_slot_permutation)
    return one_body_realization("two bosonic doublets, internal singlet", carrier, m, 2)


def fermionic_realization(m: int) -> SectorRealization:
    """Antisymmetric two-particle wave functions, invariant action."""
    _check_equiv_cost(m, 2)
    carrier = _carrier(m, 2, np.ones((1, 1)), lambda pi: np.array([[pi.sign()]]))
    return one_body_realization("two spinless fermions", carrier, m, 2)


def verify_singlet_fermion_equivalence(m: int) -> EquivalenceCertificate:
    """Certify: singlet slice of two bosonic doublets ~ two fermions."""
    if m < 2:
        raise DomainError("need m >= 2 so the fermionic sector is nonzero")
    return general_equivalence(bosonic_singlet_realization(m), fermionic_realization(m))


def bosonic_doublet_realization(m: int) -> SectorRealization:
    """Internal-doublet slice of three bosonic doublets, invariant action."""
    _check_equiv_cost(m, 3)
    carrier = _carrier(m, 3, DOUBLET_VECTORS, _internal_slot_permutation)
    return one_body_realization("three bosonic doublets, internal doublet", carrier, m, 3)


def parafermion_realization(m: int) -> SectorRealization:
    """Two-component equivariant wave functions, invariant action x 1_2."""
    _check_equiv_cost(m, 3)
    carrier = parafermion_constraint_space(m)
    return one_body_realization("parafermion doublet wave functions", carrier, m, 3)


def verify_doublet_parafermion_equivalence(m: int) -> EquivalenceCertificate:
    """Certify: doublet slice of three bosonic doublets ~ parafermions."""
    if m < 2:
        raise DomainError("need m >= 2 so the parastatistics sector is nonzero")
    return general_equivalence(bosonic_doublet_realization(m), parafermion_realization(m))


def sector_realization_from_projector(
    label: str, projector: np.ndarray, ambient_ops: Iterable[np.ndarray]
) -> SectorRealization:
    """Realization on the range of an idempotent (orthonormalized first)."""
    return realize(label, linalg.orthonormal_range(projector), ambient_ops)


def _run_equiv(args) -> tuple[int, bytes]:
    """The ``equiv`` report; cli checked m, N and the format before importing this module."""
    from .cli import EXIT_CHECK_FAILED, EXIT_OK, SCHEMA, _render_json, _render_pretty

    if args.N == 2:
        first = bosonic_singlet_realization(args.m)
        second = fermionic_realization(args.m)
    else:
        first = bosonic_doublet_realization(args.m)
        second = parafermion_realization(args.m)
    cert = general_equivalence(first, second, seed=args.seed)
    payload = {
        "schema": SCHEMA,
        "command": "equiv",
        "config": {"m": args.m, "N": args.N, "seed": args.seed},
        "realizations": [first.label, second.label],
        "carrier_leakages": [first.leakage, second.leakage],
        "certificate": cert.to_dict(),
    }
    code = EXIT_OK if cert.equivalent else EXIT_CHECK_FAILED
    if args.format == "pretty":
        lines = [
            f"{first.label}  ~  {second.label}",
            f"carrier dims: {cert.carrier_dims}",
            f"equivalent: {cert.equivalent} (residual {cert.residual:.3e})",
        ]
        return code, _render_pretty(lines)
    return code, _render_json(payload)

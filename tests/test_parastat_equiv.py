import itertools
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from sectorkit import cli, linalg, parastat_equiv, tensor_rep
from sectorkit.errors import ConsistencyError, DomainError, ResourceLimitError
from sectorkit.parastat_equiv import (
    DOUBLET_VECTORS,
    PARAFERMION_BASIS,
    SINGLET_VECTORS,
    bosonic_doublet_realization,
    bosonic_singlet_realization,
    fermionic_realization,
    general_equivalence,
    natural_permutation_matrix,
    parafermion_constraint_space,
    parafermion_matrix,
    parafermion_realization,
    realize,
    sector_realization_from_projector,
    verify_singlet_fermion_equivalence,
    verify_doublet_parafermion_equivalence,
)
from sectorkit.permgroup import Permutation, StandardTableau, symmetric_group
from sectorkit.tensor_rep import (
    antisymmetrizer,
    commutant_basis,
    symmetrizer,
    young_projector,
)

import oracles

ROOT3 = math.sqrt(3.0)
UP_GOLDEN = {
    (2, 1, 3): np.array([[1.0, -ROOT3], [-ROOT3, -1.0]]) / 2,
    (3, 2, 1): np.array([[1.0, ROOT3], [ROOT3, -1.0]]) / 2,
    (1, 3, 2): np.array([[-1.0, 0.0], [0.0, 1.0]]),
}


class TestParafermionMatrices:
    def test_transposition_goldens(self):
        for images, golden in UP_GOLDEN.items():
            assert linalg.max_abs(parafermion_matrix(Permutation(images)) - golden) < 1e-12

    def test_block_diagonalization(self):
        # conjugating by the basis gives a 1 + 2 block structure, the
        # trivial block exactly 1 on every element
        b = PARAFERMION_BASIS
        for pi in symmetric_group(3):
            conj = b.T @ natural_permutation_matrix(pi) @ b
            assert max(linalg.max_abs(conj[0, 1:]), linalg.max_abs(conj[1:, 0])) < 1e-12
            assert conj[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_homomorphism(self):
        group = symmetric_group(3)
        for a in group:
            for b_ in group:
                lhs = parafermion_matrix(a) @ parafermion_matrix(b_)
                assert linalg.max_abs(lhs - parafermion_matrix(oracles.compose(a, b_))) < 1e-12

    def test_rejects_wrong_degree(self):
        with pytest.raises(DomainError):
            parafermion_matrix(Permutation((2, 1)))


class TestPartialIsometries:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_singlet_properties(self, m):
        w = oracles.looped_singlet_isometry_2(m)
        assert linalg.max_abs(w @ linalg.dagger(w) @ w - w) < 1e-12
        p0 = linalg.dagger(w) @ w
        assert linalg.max_abs(p0 @ p0 - p0) < 1e-12
        assert linalg.max_abs(p0 - linalg.dagger(p0)) < 1e-12

    def test_singlet_annihilates_internal_symmetric(self):
        m = 2
        w = oracles.looped_singlet_isometry_2(m)
        rng = np.random.default_rng(0)
        spatial = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        symmetric_internal = np.array([0.3, 0.5, 0.5, 0.7])  # a_1 a_2 symmetric
        psi = np.zeros((2 * m) ** 2, dtype=complex)
        for q1 in range(m):
            for q2 in range(m):
                for a1 in range(2):
                    for a2 in range(2):
                        psi[(q1 * 2 + a1) * 2 * m + (q2 * 2 + a2)] = (
                            spatial[q1, q2] * symmetric_internal[a1 * 2 + a2]
                        )
        assert linalg.max_abs(w @ psi) < 1e-12

    def test_norm_equals_projected_norm(self):
        m = 3
        w = oracles.looped_singlet_isometry_2(m)
        p0 = linalg.dagger(w) @ w
        rng = np.random.default_rng(1)
        for _ in range(5):
            psi = rng.standard_normal((2 * m) ** 2) + 1j * rng.standard_normal((2 * m) ** 2)
            assert np.linalg.norm(w @ psi) == pytest.approx(np.linalg.norm(p0 @ psi))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_doublet_properties(self, m):
        w = oracles.looped_doublet_isometry_3(m)
        assert linalg.max_abs(w @ linalg.dagger(w) @ w - w) < 1e-12
        # the two defining internal vectors are orthonormal
        assert linalg.max_abs(w @ linalg.dagger(w) - np.eye(m**3 * 2)) < 1e-12

    def test_doublet_annihilates_internal_symmetric(self):
        m = 2
        w = oracles.looped_doublet_isometry_3(m)
        rng = np.random.default_rng(2)
        psi = np.zeros((2 * m) ** 3, dtype=complex)
        spatial = rng.standard_normal((m, m, m))
        for q1 in range(m):
            for q2 in range(m):
                for q3 in range(m):
                    for a in range(2):  # internal (a, a, a) is fully symmetric
                        idx = ((q1 * 2 + a) * 2 * m + (q2 * 2 + a)) * 2 * m + (q3 * 2 + a)
                        psi[idx] = spatial[q1, q2, q3]
        assert linalg.max_abs(w @ psi) < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_looped_isometries_carry_the_internal_vectors(self, m):
        # the W oracles are 1 x V per spatial word, V the library's internal vectors
        for n, vectors in ((2, SINGLET_VECTORS), (3, DOUBLET_VECTORS)):
            w = looped_isometry(m, n)
            assert np.array_equal(spatial_major(w.T, m, n), np.kron(np.eye(m**n), vectors))

    @pytest.mark.parametrize("n,vectors", [(2, SINGLET_VECTORS), (3, DOUBLET_VECTORS)])
    def test_internal_span_invariant_under_slot_permutations(self, n, vectors):
        # the sorted spatial words suffice for the bosonic carriers because
        # every internal slot permutation maps span{v_c} into itself
        assert linalg.max_abs(vectors.T @ vectors - np.eye(vectors.shape[1])) < 1e-15
        q = vectors @ vectors.T
        for pi in symmetric_group(n):
            moved = oracles.slot_permutation_matrix(pi.images, 2) @ vectors
            assert linalg.max_abs(q @ moved - moved) < 1e-15
            assert np.array_equal(parastat_equiv._internal_slot_permutation(pi) @ vectors, moved)

    @pytest.mark.parametrize("m", [2, 3])
    def test_projectors_commute_with_symmetrizers(self, m):
        w2 = oracles.looped_singlet_isometry_2(m)
        p0 = linalg.dagger(w2) @ w2
        pb2 = symmetrizer(2, 2 * m)
        assert linalg.max_abs(p0 @ pb2 - pb2 @ p0) < 1e-10
        w3 = oracles.looped_doublet_isometry_3(m)
        p2 = linalg.dagger(w3) @ w3
        pb3 = symmetrizer(3, 2 * m)
        assert linalg.max_abs(p2 @ pb3 - pb3 @ p2) < 1e-10


class TestSymmetrizedIsometryColumns:
    """range(W*W P_sym) = range(P_sym W*), with P_sym the dense slot average."""

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_internal_projector_commutes_with_slot_symmetrizer(self, m, n):
        w = looped_isometry(m, n)
        p = linalg.dagger(w) @ w
        p_sym = oracles.dense_group_sum(2 * m, n, lambda images: 1) / math.factorial(n)
        assert linalg.max_abs(p @ p_sym - p_sym @ p) < 1e-15
        columns = oracles.dense_orthonormal_range(p_sym @ linalg.dagger(w))
        carrier = oracles.dense_bosonic_carrier(w, m, n)
        assert columns.shape == carrier.shape
        assert linalg.max_abs(projector(columns) - projector(carrier)) < 1e-12


class TestExtendedAction:
    @pytest.mark.parametrize("m", [2, 3])
    def test_extension_commutes_with_projectors(self, m):
        w2 = oracles.looped_singlet_isometry_2(m)
        p0 = linalg.dagger(w2) @ w2
        pb2 = symmetrizer(2, 2 * m)
        for a in commutant_basis(m, 2):
            big = oracles.extend_internal(a, m, 2)
            assert linalg.max_abs(big @ p0 - p0 @ big) < 1e-10
            assert linalg.max_abs(big @ pb2 - pb2 @ big) < 1e-10

    @pytest.mark.parametrize("m", [2, 3])
    def test_extension_commutes_with_doublet_projector(self, m):
        w3 = oracles.looped_doublet_isometry_3(m)
        p2 = linalg.dagger(w3) @ w3
        pb3 = symmetrizer(3, 2 * m)
        for a in commutant_basis(m, 3):
            big = oracles.extend_internal(a, m, 3)
            assert linalg.max_abs(big @ p2 - p2 @ big) < 1e-10
            assert linalg.max_abs(big @ pb3 - pb3 @ big) < 1e-10

    def test_extension_of_identity(self):
        m = 2
        assert np.allclose(oracles.extend_internal(np.eye(m**2), m, 2), np.eye((2 * m) ** 2))


def interleaved(injection, m, n_slots):
    """Injection rows moved from (q_1..q_N, a_1..a_N) to (q_1 a_1 .. q_N a_N), by loops."""
    rows = []
    for idx in itertools.product(range(m), range(2), repeat=n_slots):
        q, a = idx[0::2], idx[1::2]
        spatial = sum(qk * m ** (n_slots - 1 - k) for k, qk in enumerate(q))
        internal = sum(ak * 2 ** (n_slots - 1 - k) for k, ak in enumerate(a))
        rows.append(spatial * 2**n_slots + internal)
    return injection[rows]


def projector(basis):
    return basis @ linalg.dagger(basis)


def looped_isometry(m, n_slots):
    """The internal singlet (N = 2) or doublet (N = 3) isometry W, set entry by entry."""
    if n_slots == 2:
        return oracles.looped_singlet_isometry_2(m)
    return oracles.looped_doublet_isometry_3(m)


def spatial_major(carrier, m, n_slots):
    """Inverse of interleaved: rows (q_1 a_1 .. q_N a_N) back to (q_1..q_N, a_1..a_N)."""
    out = np.empty_like(carrier)
    out[interleaved(np.arange(len(carrier)), m, n_slots)] = carrier
    return out


def parafermion_doublet_matrices():
    transpositions = [(2, 1, 3), (3, 2, 1), (1, 3, 2)]
    return {images: parafermion_matrix(Permutation(images)) for images in transpositions}


DENSE_SIZES = [(2, 2), (3, 2), (8, 2), (2, 3), (3, 3), (4, 3)]


def dense_generator_restrictions(carrier, m, n_slots):
    """C* (G_ab x 1) C for the dense one-body generators, (a, b) row-major."""
    blocks = carrier.reshape(m**n_slots, -1)
    out = []
    for a, b in itertools.product(range(m), repeat=2):
        image = (oracles.one_body_operator(a, b, m, n_slots) @ blocks).reshape(carrier.shape)
        out.append(linalg.dagger(carrier) @ image)
    return np.array(out)


class TestOneBodyGenerators:
    """The m**2 one-body generators stand in for the K orbit operators."""

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4)])
    def test_generate_the_invariant_algebra(self, m, n):
        # on the identity carrier the restricted generators are the operators
        whole = parastat_equiv.one_body_realization("whole space", np.eye(m**n), m, n)
        dense = [oracles.one_body_operator(a, b, m, n) for a in range(m) for b in range(m)]
        assert linalg.max_abs(whole.operators - np.array(dense)) == 0.0
        cycle = Permutation.from_cycles(n, tuple(range(1, n + 1)))
        for pi in (Permutation.transposition(n, 1, 2), cycle):
            u = oracles.slot_permutation_matrix(pi.images, m)
            assert all(linalg.max_abs(u @ g - g @ u) == 0.0 for g in dense)
        # inside the commutant, and of its dimension C(m^2 + N - 1, N)
        assert oracles.generated_algebra_dimension(dense) == math.comb(m * m + n - 1, n)

    @pytest.mark.parametrize("m,n", [(m, n) for n in (2, 3) for m in (2, 3, 4)])
    def test_certified_intertwiner_intertwines_every_orbit_operator(self, m, n):
        if n == 2:
            first, second = bosonic_singlet_realization(m), fermionic_realization(m)
        else:
            first, second = bosonic_doublet_realization(m), parafermion_realization(m)
        cert = general_equivalence(first, second)
        assert cert.equivalent and cert.residual < 1e-12
        orbit1 = oracles.invariant_realization(first.label, first.injection, m, n)
        orbit2 = oracles.invariant_realization(second.label, second.injection, m, n)
        assert len(orbit1.operators) == math.comb(m * m + n - 1, n)
        v = cert.intertwiner
        assert linalg.intertwining_residual(v, orbit1.operators, orbit2.operators) <= 1e-12


SLOT_AVERAGE_CASES = [
    (m, n, action)
    for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]
    for action in ("sign", "internal slots", "parafermion")
    if action != "parafermion" or n == 3  # U_P is a representation of S_3 only
]


def internal_action(action, n):
    """(k, M): the internal dimension and action of the fermions, the bosons or the parafermions."""
    if action == "sign":
        return 1, lambda pi: np.array([[pi.sign()]])
    if action == "internal slots":
        return 2**n, parastat_equiv._internal_slot_permutation
    return 2, parafermion_matrix


@pytest.mark.parametrize("m,n,action", SLOT_AVERAGE_CASES)
def test_axis_moves_equal_the_index_map_scatter(m, n, action):
    # moving slot axis i to pi(i) is the row scatter e_i -> U(pi) e_i, bit for bit
    k, internal = internal_action(action, n)
    columns = np.random.default_rng(10 * m + n).standard_normal((m**n * k, 5))
    expected = oracles.index_map_slot_average(columns, m, n, internal)
    assert np.array_equal(parastat_equiv._slot_average(columns, m, n, internal), expected)


class TestAgainstDensePath:
    """Carriers and restricted operators against the dense path they replaced.

    New carriers are another orthonormal basis of the same range, so the
    projectors CC* agree, and the restricted operators agree after
    conjugation by the carrier unitary U = C_old* C_new.
    """

    @staticmethod
    def check(real, old, m, n):
        new = real.injection
        assert new.shape == old.shape
        assert linalg.max_abs(projector(new) - projector(old)) < 1e-12
        u = linalg.dagger(old) @ new
        assert len(real.operators) == m * m
        dense = dense_generator_restrictions(old, m, n)
        assert linalg.max_abs(real.operators - linalg.dagger(u) @ dense @ u) < 1e-12
        # the K orbit operators, from the orbit-table oracle on the new carrier
        orbit = oracles.invariant_realization(real.label, new, m, n)
        dense, leakage = oracles.dense_orbit_restrictions(old, m, n)
        assert len(orbit.operators) == len(dense) == math.comb(m * m + n - 1, n)
        conjugated = linalg.dagger(u) @ dense @ u
        assert linalg.max_abs(orbit.operators - conjugated) < 1e-12
        assert leakage < 1e-12 and orbit.leakage < 1e-12 and real.leakage < 1e-12

    @pytest.mark.parametrize("m,n", DENSE_SIZES)
    def test_bosonic(self, m, n):
        build = bosonic_singlet_realization if n == 2 else bosonic_doublet_realization
        w = looped_isometry(m, n)
        old = spatial_major(oracles.dense_bosonic_carrier(w, m, n), m, n)
        self.check(build(m), old, m, n)

    @pytest.mark.parametrize("m,n", DENSE_SIZES)
    def test_fermionic_or_parafermionic(self, m, n):
        if n == 2:
            real, old = fermionic_realization(m), oracles.dense_antisymmetric_carrier(m)
        else:
            real = parafermion_realization(m)
            old = oracles.dense_parafermion_constraint_space(m, parafermion_doublet_matrices())
        self.check(real, old, m, n)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3)])
    def test_leaking_carrier_is_refused(self, m, n):
        # a random isometry is not invariant under the commutant
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((m**n * 2, 3))
        carrier = linalg.orthonormal_range(raw)
        with pytest.raises(ConsistencyError, match="leaks"):
            parastat_equiv.one_body_realization("random", carrier, m, n)
        with pytest.raises(ConsistencyError, match="leaks"):
            oracles.invariant_realization("random", carrier, m, n)

    def test_empty_carriers_at_m1(self):
        # one spatial state: the singlet, antisymmetric and doublet slices vanish
        builders = (
            bosonic_singlet_realization,
            fermionic_realization,
            bosonic_doublet_realization,
            parafermion_realization,
        )
        for build in builders:
            real = build(1)
            assert real.carrier_dim == 0 and real.operators.shape == (1, 0, 0)
        cert = general_equivalence(bosonic_singlet_realization(1), fermionic_realization(1))
        assert not cert.equivalent and cert.detail == "intertwiner space is zero"

    def test_carriers_are_real(self):
        for real in (bosonic_doublet_realization(2), parafermion_realization(2)):
            assert not np.iscomplexobj(real.injection)
            assert not np.iscomplexobj(real.operators)

    def test_equiv_forms_no_dense_operator(self, monkeypatch, tmp_path):
        def refuse(*args, **kwargs):
            raise AssertionError("dense operator formed")

        names = ("symmetrizer", "antisymmetrizer", "commutant_basis", "_operator_sum")
        for name in names + ("_entry_orbit_table", "permutation_operator"):
            monkeypatch.setattr(tensor_rep, name, refuse)
        monkeypatch.setattr(linalg, "restrict", refuse)
        monkeypatch.setattr(linalg, "intertwiner_basis", refuse)  # no fallback either
        out = tmp_path / "e.json"
        assert cli.main(["equiv", "--m", "4", "--N", "3", "--out", str(out)]) == 0
        cert = json.loads(out.read_text())["certificate"]
        assert cert["equivalent"] is True and cert["carrier_dims"] == [20, 20]
        assert cert["residual"] < 1e-12


class TestEquivCostEstimate:
    @pytest.mark.parametrize("m,n", [(10, 3), (21, 2), (10**6, 2)])
    def test_refused_before_allocating(self, m, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built past the cost estimate")

        monkeypatch.setattr(parastat_equiv, "one_body_realization", refuse)
        builders = (
            (bosonic_singlet_realization, fermionic_realization)
            if n == 2
            else (bosonic_doublet_realization, parafermion_realization)
        )
        for build in builders:
            tracemalloc.start()
            start = time.perf_counter()
            try:
                with pytest.raises(ResourceLimitError, match="one-body generators"):
                    build(m)
                elapsed = time.perf_counter() - start
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert elapsed < 1.0 and peak < 1 << 20

    def test_frontier_admitted(self):
        for m, n in [(5, 3), (9, 2), (10, 2), (6, 3), (11, 2), (8, 3), (9, 3), (20, 2)]:
            parastat_equiv._check_equiv_cost(m, n)

    @pytest.mark.parametrize("m,n", [(8, 2), (4, 3), (6, 3), (8, 3), (11, 2)])
    def test_estimate_bounds_traced_peak(self, m, n):
        verify = (
            verify_singlet_fermion_equivalence if n == 2 else verify_doublet_parafermion_equivalence
        )
        tracemalloc.start()
        try:
            cert = verify(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.equivalent
        assert peak < parastat_equiv._equiv_bytes(m, n)


class TestRestrictedOperators:
    """Realization operators against C* (A x 1) C with A x 1 formed densely."""

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_bosonic_against_dense_extension(self, m, n):
        build = bosonic_singlet_realization if n == 2 else bosonic_doublet_realization
        real = build(m)
        c = interleaved(real.injection, m, n)
        w = looped_isometry(m, n)
        p = linalg.dagger(w) @ w
        assert linalg.max_abs(p @ c - c) < 1e-12
        assert linalg.max_abs(symmetrizer(n, 2 * m) @ c - c) < 1e-12
        generators = [oracles.one_body_operator(a, b, m, n) for a in range(m) for b in range(m)]
        assert len(real.operators) == len(generators) == m * m
        for g, op in zip(generators, real.operators):
            dense = linalg.dagger(c) @ oracles.extend_internal(g, m, n) @ c
            assert linalg.max_abs(op - dense) < 1e-14
        assert real.leakage < 1e-14
        # the orbit-table oracle restricts the whole commutant basis
        basis = commutant_basis(m, n)
        orbit = oracles.invariant_realization(real.label, real.injection, m, n)
        assert len(orbit.operators) == len(basis)
        for a, op in zip(basis, orbit.operators):
            dense = linalg.dagger(c) @ oracles.extend_internal(a, m, n) @ c
            assert linalg.max_abs(op - dense) < 1e-14

    @pytest.mark.parametrize("m", [2, 3])
    def test_parafermion_against_kronecker(self, m):
        real = parafermion_realization(m)
        c = real.injection
        eye2 = np.eye(2)
        generators = [oracles.one_body_operator(a, b, m, 3) for a in range(m) for b in range(m)]
        for g, op in zip(generators, real.operators, strict=True):
            assert linalg.max_abs(op - linalg.dagger(c) @ np.kron(g, eye2) @ c) < 1e-14
        orbit = oracles.invariant_realization(real.label, c, m, 3)
        for a, op in zip(commutant_basis(m, 3), orbit.operators, strict=True):
            assert linalg.max_abs(op - linalg.dagger(c) @ np.kron(a, eye2) @ c) < 1e-14

    def test_leaking_carrier_is_refused(self):
        # the singlet carrier is antisymmetric in space; a generic spatial
        # operator outside the commutant does not preserve that
        m = 2
        carrier = bosonic_singlet_realization(m).injection
        a = np.random.default_rng(6).standard_normal((m * m, m * m))
        with pytest.raises(ConsistencyError, match="leaks"):
            realize("outside the commutant", carrier, [a])


class TestConstraintSpace:
    @pytest.mark.parametrize("m", [2, 3])
    def test_dimension_matches_sector_multiplicity(self, m):
        basis = parafermion_constraint_space(m)
        assert basis.shape[1] == oracles.weyl_multiplicity((2, 1), m)

    @pytest.mark.parametrize("m", [2, 3])
    def test_six_constraint_equations(self, m):
        basis = parafermion_constraint_space(m)
        rng = np.random.default_rng(4)
        coeff = rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1])
        psi = basis @ coeff
        residuals = oracles.parafermion_constraint_residuals(psi, m)
        assert len(residuals) == 6
        assert max(residuals.values()) < 1e-10

    def test_unconstrained_vector_fails_some_equation(self):
        m = 2
        rng = np.random.default_rng(5)
        psi = rng.standard_normal(m**3 * 2)
        assert max(oracles.parafermion_constraint_residuals(psi, m).values()) > 1e-3


class TestPropositions:
    @pytest.mark.parametrize("m", [2, 3])
    def test_prop2(self, m):
        cert = verify_singlet_fermion_equivalence(m)
        assert cert.equivalent
        assert cert.residual < 1e-10
        expected = oracles.antisymmetric_basis_count(m)
        assert cert.carrier_dims == (expected, expected)
        v = cert.intertwiner
        assert linalg.max_abs(v @ linalg.dagger(v) - np.eye(v.shape[0])) < 1e-10

    @pytest.mark.parametrize("m", [2, 3])
    def test_prop3(self, m):
        cert = verify_doublet_parafermion_equivalence(m)
        assert cert.equivalent
        assert cert.residual < 1e-10
        expected = oracles.weyl_multiplicity((2, 1), m)
        assert cert.carrier_dims == (expected, expected)

    def test_prop2_identity_action_restricts_to_identity(self):
        m = 2
        real = bosonic_singlet_realization(m)
        eye_big = np.eye((2 * m) ** 2)
        restricted = linalg.dagger(real.injection) @ eye_big @ real.injection
        assert linalg.max_abs(restricted - np.eye(real.carrier_dim)) < 1e-12

    def test_small_m_rejected(self):
        with pytest.raises(DomainError):
            verify_singlet_fermion_equivalence(1)
        with pytest.raises(DomainError):
            verify_doublet_parafermion_equivalence(1)

    def test_certificate_serializes(self):
        cert = verify_singlet_fermion_equivalence(2)
        data = cert.to_dict()
        assert data["equivalent"] is True
        assert json.dumps(data)


class TestGeneralEquivalence:
    def test_self_equivalence_gives_identity(self):
        real = fermionic_realization(3)
        cert = general_equivalence(real, real)
        assert cert.equivalent
        assert linalg.max_abs(cert.intertwiner - np.eye(real.carrier_dim)) < 1e-10

    def test_boson_fermion_inequivalent(self):
        m = 2
        ops = commutant_basis(m, 2)
        bosons = sector_realization_from_projector("bosons", symmetrizer(2, m), ops)
        fermions = sector_realization_from_projector("fermions", antisymmetrizer(2, m), ops)
        cert = general_equivalence(bosons, fermions)
        assert not cert.equivalent
        assert cert.carrier_dims == (3, 1)
        assert cert.intertwiner is None

    def test_unequal_carriers_refuted_without_solving(self, monkeypatch):
        # the 3- and 1-dim carriers cannot be unitarily equivalent: no
        # random element and no intertwiner space is needed to say so
        ops = commutant_basis(2, 2)
        bosons = sector_realization_from_projector("bosons", symmetrizer(2, 2), ops)
        fermions = sector_realization_from_projector("fermions", antisymmetrizer(2, 2), ops)

        def refuse(*args, **kwargs):
            raise AssertionError("searched for an intertwiner between unequal carriers")

        monkeypatch.setattr(linalg, "_intertwiner_from_random_element", refuse)
        monkeypatch.setattr(linalg, "intertwiner_basis", refuse)
        cert = general_equivalence(bosons, fermions)
        assert not cert.equivalent and cert.detail == "carrier dimensions differ (3 vs 1)"

    def test_parastatistics_copies_equivalent(self):
        # the two same-shape Young projector images carry equivalent actions
        m = 2
        ops = commutant_basis(m, 3)
        p = sector_realization_from_projector(
            "P copy", young_projector(StandardTableau(((1, 2), (3,))), m), ops
        )
        pp = sector_realization_from_projector(
            "P' copy", young_projector(StandardTableau(((1, 3), (2,))), m), ops
        )
        cert = general_equivalence(p, pp)
        assert cert.equivalent
        assert cert.residual < 1e-10

    def test_symmetry_of_equivalence(self):
        m = 2
        first = bosonic_singlet_realization(m)
        second = fermionic_realization(m)
        fwd = general_equivalence(first, second)
        bwd = general_equivalence(second, first)
        assert fwd.equivalent and bwd.equivalent
        # the adjoint of a forward intertwiner is a backward one
        assert linalg.intertwining_residual(
            linalg.dagger(fwd.intertwiner), list(second.operators), list(first.operators)
        ) < 1e-10

    def test_unequal_multiplicities_inequivalent(self):
        m = 2
        ops = commutant_basis(m, 3)
        sym = sector_realization_from_projector("sym", symmetrizer(3, m), ops)
        para = sector_realization_from_projector(
            "para", young_projector(StandardTableau(((1, 2), (3,))), m), ops
        )
        cert = general_equivalence(sym, para)
        assert not cert.equivalent

    def test_n4_smoke(self):
        # two same-shape copies at N=4 are still equivalent
        m = 2
        ops = commutant_basis(m, 4)
        first = sector_realization_from_projector(
            "copy 1", young_projector(StandardTableau(((1, 2, 3), (4,))), m), ops
        )
        second = sector_realization_from_projector(
            "copy 2", young_projector(StandardTableau(((1, 2, 4), (3,))), m), ops
        )
        cert = general_equivalence(first, second)
        assert cert.equivalent
        assert cert.residual < 1e-10

    def test_realization_validation(self):
        with pytest.raises(DomainError):
            realize("empty", np.eye(2), [])
        with pytest.raises(DomainError):
            realize("skewed", np.array([[1.0], [1.0]]), [np.eye(2)])

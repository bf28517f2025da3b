import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from sectorkit import linalg, permgroup, schur_weyl, tensor_rep
from sectorkit.errors import ConsistencyError, DomainError, ResourceLimitError
from sectorkit.permgroup import (
    Partition,
    Permutation,
    StandardTableau,
    enumerate_partitions,
    hook_dimension,
    irrep,
    iter_partitions,
    standard_tableaux,
    symmetric_group,
)
from sectorkit.tensor_rep import (
    TensorSpace,
    antisymmetrizer,
    central_projector,
    commutant_basis,
    commutant_dimension_nullspace,
    permutation_operator,
    symmetrizer,
    young_projector,
)
from sectorkit.schur_weyl import sector_decomposition

import oracles


class TestPermutationOperator:
    def test_identity(self):
        assert np.array_equal(
            permutation_operator(oracles.identity_permutation(3), 2), np.eye(8)
        )

    def test_transposition_is_involution(self):
        for m in (2, 3):
            u = permutation_operator(Permutation((2, 1)), m)
            assert linalg.max_abs(u @ u - np.eye(m**2)) == 0.0

    def test_swap_of_product_vector(self):
        # U(12) e_1 x e_2 = e_2 x e_1
        u = permutation_operator(Permutation((2, 1)), 2)
        e1, e2 = np.eye(2)
        assert np.allclose(u @ np.kron(e1, e2), np.kron(e2, e1))

    def test_slot_convention(self):
        # content of slot i moves to slot pi(i)
        pi = Permutation((2, 3, 1))
        m = 3
        u = permutation_operator(pi, m)
        rng = np.random.default_rng(0)
        psi = [rng.standard_normal(m) for _ in range(3)]
        lhs = u @ np.kron(np.kron(psi[0], psi[1]), psi[2])
        slots = [None] * 3
        for k in range(3):
            slots[pi(k + 1) - 1] = psi[k]
        rhs = np.kron(np.kron(slots[0], slots[1]), slots[2])
        assert np.allclose(lhs, rhs)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unitary_representation_all_pairs(self, n):
        m = 2
        group = symmetric_group(n)
        ops = {pi.images: permutation_operator(pi, m) for pi in group}
        eye = np.eye(m**n)
        for pi in group:
            u = ops[pi.images]
            assert linalg.max_abs(u @ u.conj().T - eye) < 1e-10
            for sg in group:
                product = ops[oracles.compose(pi, sg).images]
                assert linalg.max_abs(u @ ops[sg.images] - product) < 1e-10

    @pytest.mark.parametrize("n", [5, 6])
    def test_unitary_representation_sampled(self, n):
        m = 2
        rng = np.random.default_rng(7)
        group = symmetric_group(n)
        eye = np.eye(m**n)
        for _ in range(200):
            a, b = (group[int(i)] for i in rng.integers(0, len(group), 2))
            ua, ub = permutation_operator(a, m), permutation_operator(b, m)
            assert linalg.max_abs(ua @ ua.conj().T - eye) < 1e-10
            assert linalg.max_abs(ua @ ub - permutation_operator(oracles.compose(a, b), m)) < 1e-10

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            permutation_operator(oracles.identity_permutation(4), 10)
        with pytest.raises(ResourceLimitError, match="4096 exceeds cap 1024"):
            permutation_operator(oracles.identity_permutation(6), 4)

    def test_tensor_space_indexing(self):
        space = TensorSpace(3, 2)
        assert space.dimension == 9
        digits = space.digits()
        # slot 1 most significant: flat 5 = (1, 2)
        assert list(digits[5]) == [1, 2]
        with pytest.raises(DomainError):
            TensorSpace(0, 2)


class TestYoungProjectors:
    def test_n2_goldens(self):
        m = 2
        u12 = permutation_operator(Permutation((2, 1)), m)
        eye = np.eye(m**2)
        ps = young_projector(StandardTableau(((1, 2),)), m)
        pa = young_projector(StandardTableau(((1,), (2,))), m)
        assert linalg.max_abs(ps - (eye + u12) / 2) < 1e-12
        assert linalg.max_abs(pa - (eye - u12) / 2) < 1e-12

    def test_n3_goldens(self):
        m = 2
        u12 = permutation_operator(Permutation((2, 1, 3)), m)
        u13 = permutation_operator(Permutation((3, 2, 1)), m)
        eye = np.eye(m**3)
        p = young_projector(StandardTableau(((1, 2), (3,))), m)
        pp = young_projector(StandardTableau(((1, 3), (2,))), m)
        assert linalg.max_abs(p - (eye - u13) @ (eye + u12) / 3) < 1e-12
        assert linalg.max_abs(pp - (eye - u12) @ (eye + u13) / 3) < 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_idempotent_with_rank_equal_multiplicity(self, m, n):
        # an idempotent's trace is its rank; for a Young projector that is
        # the sector multiplicity (one irreducible copy of the isotypic
        # block per tableau)
        for shape in enumerate_partitions(n):
            for tab in standard_tableaux(shape):
                p = young_projector(tab, m)
                assert linalg.max_abs(p @ p - p) < 1e-10
                expected = oracles.weyl_multiplicity(shape.parts, m)
                assert np.trace(p).real == pytest.approx(expected, abs=1e-9)

    def test_pure_row_and_column_selfadjoint(self):
        m = 2
        for tab in (StandardTableau(((1, 2, 3),)), StandardTableau(((1,), (2,), (3,)))):
            p = young_projector(tab, m)
            assert linalg.max_abs(p - linalg.dagger(p)) < 1e-12

    def test_mixed_tableau_not_selfadjoint_but_range_projector_is(self):
        m = 2
        p = young_projector(StandardTableau(((1, 2), (3,))), m)
        assert linalg.max_abs(p - linalg.dagger(p)) > 1e-3
        q = linalg.orthonormal_range(p)
        r = q @ linalg.dagger(q)
        assert linalg.max_abs(r - linalg.dagger(r)) < 1e-12
        assert linalg.max_abs(r @ r - r) < 1e-10
        # same image: r fixes the range of p
        assert linalg.max_abs(r @ p - p) < 1e-10
        assert np.trace(r).real == pytest.approx(np.trace(p).real, abs=1e-9)

    def test_nonstandard_tableau_rejected(self):
        with pytest.raises(DomainError):
            young_projector(StandardTableau(((2, 1), (3,))), 2)

    def test_symmetrizers(self):
        m = 3
        sym = symmetrizer(2, m)
        assert np.trace(sym).real == pytest.approx(oracles.symmetric_basis_count(m))
        anti = antisymmetrizer(2, m)
        assert np.trace(anti).real == pytest.approx(oracles.antisymmetric_basis_count(m))


class TestCentralProjectors:
    def test_fermionic_sector_empty_for_small_m(self):
        z = central_projector(Partition((1, 1, 1)), 2)
        assert linalg.rank_of_hermitian_idempotent(z) == 0

    def test_n2_ranks_from_basis_enumeration(self):
        # oracle: explicit symmetric/antisymmetric basis counts in C^2 x C^2
        assert oracles.symmetric_basis_count(2) == 3
        assert oracles.antisymmetric_basis_count(2) == 1
        assert linalg.rank_of_hermitian_idempotent(central_projector(Partition((2,)), 2)) == 3
        assert (
            linalg.rank_of_hermitian_idempotent(central_projector(Partition((1, 1)), 2)) == 1
        )

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 3), (2, 4)])
    def test_resolution_of_identity(self, m, n):
        projectors = [central_projector(s, m) for s in enumerate_partitions(n)]
        total = sum(projectors)
        assert linalg.max_abs(total - np.eye(m**n)) < 1e-10
        assert sum(linalg.rank_of_hermitian_idempotent(z) for z in projectors) == m**n
        for i, zi in enumerate(projectors):
            assert linalg.max_abs(zi - linalg.dagger(zi)) < 1e-10
            assert linalg.max_abs(zi @ zi - zi) < 1e-10
            for zj in projectors[i + 1 :]:
                assert linalg.max_abs(zi @ zj) < 1e-10


class TestCommutant:
    def test_counts_against_nullspace_oracle(self):
        # frozen: 10 at (m=2, N=2), 20 at (m=2, N=3)
        for (m, n), expected in {(2, 2): 10, (2, 3): 20}.items():
            basis = commutant_basis(m, n)
            assert len(basis) == expected
            gens = [
                permutation_operator(pi, m)
                for pi in symmetric_group(n)
                if pi != oracles.identity_permutation(n)
            ]
            assert oracles.dense_commutant_dimension(gens) == expected

    def test_scalars_for_m1(self):
        basis = commutant_basis(1, 4)
        assert len(basis) == 1

    def test_orthonormal_and_commuting(self):
        m, n = 2, 3
        basis = commutant_basis(m, n)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                inner = np.trace(a.conj().T @ b)
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)
        ops = [permutation_operator(pi, m) for pi in symmetric_group(n)]
        for a in basis:
            for u in ops:
                assert linalg.max_abs(a @ u - u @ a) < 1e-12

    def test_preserves_isotypic_images(self):
        m, n = 2, 3
        basis = commutant_basis(m, n)
        for shape in enumerate_partitions(n):
            z = central_projector(shape, m)
            for a in basis:
                assert linalg.max_abs((np.eye(m**n) - z) @ a @ z) < 1e-10

    def test_nullspace_route_agreement(self):
        for m, n in [(1, 2), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (3, 4)]:
            assert commutant_dimension_nullspace(m, n) == len(commutant_basis(m, n))

    def test_block_restriction_is_multiplicity_algebra(self):
        # the commutant restricted to one isotypic block has commutant of
        # dimension (irrep dim)^2 within that block
        m = 2
        for n in (2, 3):
            basis = commutant_basis(m, n)
            for shape in enumerate_partitions(n):
                z = central_projector(shape, m)
                rank = linalg.rank_of_hermitian_idempotent(z)
                if rank == 0:
                    continue
                q = linalg.orthonormal_range(z)
                restricted = [q.conj().T @ a @ q for a in basis]
                assert (
                    len(linalg.commutant_basis_of(restricted))
                    == hook_dimension(shape) ** 2
                )

    def test_tensor_power_span_fills_commutant(self):
        # span of u^{xN} over random unitaries has the commutant dimension
        rng = np.random.default_rng(3)
        for m, n in [(2, 2), (2, 3)]:
            expected = len(commutant_basis(m, n))
            vecs = []
            for _ in range(3 * expected):
                g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
                u, _ = np.linalg.qr(g)
                power = u
                for _ in range(n - 1):
                    power = np.kron(power, u)
                vecs.append(power.reshape(-1))
            rank = np.linalg.matrix_rank(np.stack(vecs, axis=1), tol=1e-8)
            assert rank == expected


class TestSectorDecomposition:
    def test_m2_n2(self):
        report = sector_decomposition(2, 2)
        by_shape = {s.partition: s for s in report.sectors}
        assert by_shape[(2,)].multiplicity == 3
        assert by_shape[(1, 1)].multiplicity == 1
        assert report.commutant_dim == 10

    def test_m2_n3(self):
        report = sector_decomposition(2, 3)
        mults = {s.partition: s.multiplicity for s in report.sectors}
        assert mults == {(3,): 4, (2, 1): 2, (1, 1, 1): 0}
        assert report.commutant_dim == 20

    def test_m3_n3_fermionic_sector(self):
        report = sector_decomposition(3, 3)
        mults = {s.partition: s.multiplicity for s in report.sectors}
        assert mults[(1, 1, 1)] == 1

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counting_identities_and_weyl_oracle(self, m, n):
        report = sector_decomposition(m, n)
        assert sum(s.irrep_dim * s.multiplicity for s in report.sectors) == m**n
        assert report.commutant_dim == sum(s.multiplicity**2 for s in report.sectors)
        for s in report.sectors:
            assert s.multiplicity == oracles.weyl_multiplicity(s.partition, m)
        assert max(report.residuals.values()) < 1e-10

    @pytest.mark.parametrize("m,n", [(5, 4), (2, 8)])
    def test_frontier_sizes_against_weyl_and_multiset_count(self, m, n):
        # the commutant has one basis element per multiset of N matrix units
        report = sector_decomposition(m, n)
        for s in report.sectors:
            assert s.multiplicity == oracles.weyl_multiplicity(s.partition, m)
        assert report.commutant_dim == math.comb(m * m + n - 1, n)
        assert max(report.residuals.values()) < 1e-12

    def test_json_schema_keys(self):
        data = sector_decomposition(2, 2).to_dict()
        assert set(data) == {"m", "N", "sectors", "commutant_dim", "residuals"}
        assert json.dumps(data)  # serializable

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 4), (2, 8), (1, 20)])
    def test_to_dict_matches_the_asdict_form(self, m, n):
        # one pass over the records gives what asdict and a rebuilt
        # record list gave: same keys in the same order, same values
        report = sector_decomposition(m, n)
        reference = {
            **dataclasses.asdict(report),
            "sectors": [
                {**dataclasses.asdict(s), "partition": list(s.partition)} for s in report.sectors
            ],
        }
        data = report.to_dict()
        assert list(data) == list(reference)
        assert [list(s) for s in data["sectors"]] == [list(s) for s in reference["sectors"]]
        assert list(data["residuals"]) == list(reference["residuals"])
        assert data == reference
        assert json.dumps(data) == json.dumps(reference)
        assert data["residuals"] is not report.residuals


# The four N=3 sector spans, each spanned by the vectors
# sum of sign * psi_i x psi_j x psi_k over the listed arrangements (i, j, k).
THREE_PARTICLE_PATTERNS = {
    "S": [((1, 2, 3), 1), ((2, 1, 3), 1), ((3, 2, 1), 1), ((3, 1, 2), 1), ((1, 3, 2), 1), ((2, 3, 1), 1)],
    "A": [((1, 2, 3), 1), ((2, 1, 3), -1), ((3, 2, 1), -1), ((3, 1, 2), 1), ((1, 3, 2), -1), ((2, 3, 1), 1)],
    "P": [((1, 2, 3), 1), ((2, 1, 3), 1), ((3, 2, 1), -1), ((3, 1, 2), -1)],
    "P'": [((1, 2, 3), 1), ((3, 2, 1), 1), ((2, 1, 3), -1), ((2, 3, 1), -1)],
}

THREE_PARTICLE_TABLEAUX = {
    "S": StandardTableau(((1, 2, 3),)),
    "A": StandardTableau(((1,), (2,), (3,))),
    "P": StandardTableau(((1, 2), (3,))),
    "P'": StandardTableau(((1, 3), (2,))),
}


def three_particle_spans(m, seed):
    """Orthonormal bases of the four spans from 2 m^3 + 8 random triples."""
    rng = np.random.default_rng(seed)
    vectors = {key: [] for key in THREE_PARTICLE_PATTERNS}
    for _ in range(2 * m**3 + 8):
        psi = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        for key, pattern in THREE_PARTICLE_PATTERNS.items():
            acc = np.zeros(m**3, dtype=complex)
            for (i, j, k), sign in pattern:
                acc += sign * np.kron(np.kron(psi[i - 1], psi[j - 1]), psi[k - 1])
            vectors[key].append(acc)
    return {key: linalg.orthonormal_range(np.stack(v, axis=1)) for key, v in vectors.items()}


def range_projector(q):
    return q @ linalg.dagger(q)


class TestThreeParticleSpans:
    """The sector spans of three particles against the Young projector images."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_ranks_are_weyl_multiplicities(self, m):
        spans = three_particle_spans(m, seed=m)
        for key, tab in THREE_PARTICLE_TABLEAUX.items():
            assert spans[key].shape[1] == oracles.weyl_multiplicity(tab.shape.parts, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_spans_equal_young_projector_images(self, m):
        spans = three_particle_spans(m, seed=m)
        for key, tab in THREE_PARTICLE_TABLEAUX.items():
            image = linalg.orthonormal_range(young_projector(tab, m))
            residual = linalg.max_abs(range_projector(spans[key]) - range_projector(image))
            assert residual < linalg.RESIDUAL_TOL

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_spans_form_a_direct_sum_orthogonal_but_for_the_mixed_pair(self, m):
        spans = three_particle_spans(m, seed=m)
        stacked = np.concatenate(list(spans.values()), axis=1)
        assert stacked.shape[1] == m**3
        assert np.linalg.matrix_rank(stacked, tol=linalg.RANK_TOL) == m**3
        for a, b in itertools.combinations(spans, 2):
            if {a, b} != {"P", "P'"}:
                assert linalg.max_abs(linalg.dagger(spans[a]) @ spans[b]) < linalg.RESIDUAL_TOL

    @pytest.mark.parametrize("m", [2, 3])
    def test_mixed_copies_meet_at_a_fixed_angle(self, m):
        # the two copies of shape (2, 1) are never orthogonal: their
        # largest principal cosine is 1/2 whatever the random vectors
        spans = three_particle_spans(m, seed=m)
        overlap = linalg.dagger(spans["P"]) @ spans["P'"]
        assert np.linalg.svd(overlap, compute_uv=False)[0] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("m", [2, 3])
    def test_the_slot_swap_of_two_and_three_maps_p_onto_p_prime(self, m):
        spans = three_particle_spans(m, seed=m)
        proj_p, proj_pp = range_projector(spans["P"]), range_projector(spans["P'"])
        mapping = []
        for pi in symmetric_group(3)[1:]:
            u = permutation_operator(pi, m)
            if linalg.max_abs(u @ proj_p @ linalg.dagger(u) - proj_pp) < linalg.RESIDUAL_TOL:
                mapping.append(pi.images)
        assert (1, 3, 2) in mapping


class TestConsistencyGuards:
    def test_rank_sum_guard_triggers_on_bad_cap(self):
        # sanity: decomposition raises ConsistencyError only through bugs;
        # simulate by checking the exception type exists and is raised from
        # an impossible multiplicty request via monkeypatching-free path
        with pytest.raises(ResourceLimitError):
            sector_decomposition(3, 12)

    def test_consistency_error_is_distinct_type(self):
        assert issubclass(ConsistencyError, RuntimeError)


ORACLE_SIZES = [(2, 2), (2, 3), (3, 3), (2, 4)]


class TestAgainstDenseLoops:
    """Class-sum and orbit-label fast paths against per-element dense loops."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_mn_characters_match_per_element_traces(self, n):
        for shape in enumerate_partitions(n):
            rep = irrep(shape)
            for pi in symmetric_group(n):
                trace = np.trace(rep.matrix(pi)).real
                expected = oracles.mn_character(shape.parts, oracles.inverse_cycle_type(pi.images))
                assert trace == pytest.approx(expected, abs=1e-12)

    def test_slot_permutation_matrix_matches_operator(self):
        for pi in symmetric_group(3):
            expected = oracles.slot_permutation_matrix(pi.images, 3)
            assert np.array_equal(permutation_operator(pi, 3), expected)

    @pytest.mark.parametrize("m,n", ORACLE_SIZES)
    def test_central_projectors(self, m, n):
        for shape in enumerate_partitions(n):
            expected = oracles.dense_central_projector(shape.parts, m)
            assert linalg.max_abs(central_projector(shape, m) - expected) < 1e-12

    @pytest.mark.parametrize("m,n", ORACLE_SIZES)
    def test_symmetrizer_and_antisymmetrizer(self, m, n):
        order = math.factorial(n)
        sym = oracles.dense_group_sum(m, n, lambda images: 1) / order
        anti = oracles.dense_group_sum(m, n, oracles.permutation_sign) / order
        assert linalg.max_abs(symmetrizer(n, m) - sym) < 1e-12
        assert linalg.max_abs(antisymmetrizer(n, m) - anti) < 1e-12

    @pytest.mark.parametrize("m,n", ORACLE_SIZES)
    def test_commutant_basis_orbit_order_and_supports(self, m, n):
        orbits = oracles.generator_bfs_entry_orbits(m, n)
        basis = commutant_basis(m, n)
        assert [list(np.flatnonzero(a)) for a in basis] == orbits
        for a, orbit in zip(basis, orbits):
            assert np.all(a.ravel()[orbit] == 1.0 / math.sqrt(len(orbit)))


    @pytest.mark.parametrize("m,n", [(1, 6), (2, 5)])
    def test_sums_with_more_elements_than_columns(self, m, n):
        # a class or group larger than m**n hits entries repeatedly in one
        # scatter-add, which must accumulate every hit
        for shape in enumerate_partitions(n):
            expected = oracles.dense_central_projector(shape.parts, m)
            assert linalg.max_abs(central_projector(shape, m) - expected) < 1e-12
        order = math.factorial(n)
        sym = oracles.dense_group_sum(m, n, lambda images: 1) / order
        anti = oracles.dense_group_sum(m, n, oracles.permutation_sign) / order
        assert linalg.max_abs(symmetrizer(n, m) - sym) < 1e-12
        assert linalg.max_abs(antisymmetrizer(n, m) - anti) < 1e-12


class TestGroupCostEstimate:
    @pytest.mark.parametrize("m,n", [(1, 11), (2, 10), (2, 9)])
    def test_group_enumeration_refused_by_estimate(self, m, n, monkeypatch):
        def enumerate_group(degree):
            raise AssertionError(f"S_{degree} enumerated past the cost estimate")

        monkeypatch.setattr(tensor_rep, "symmetric_group", enumerate_group)
        for build in (
            lambda: symmetrizer(n, m),
            lambda: antisymmetrizer(n, m),
            lambda: central_projector(Partition((n,)), m),
            lambda: young_projector(StandardTableau((tuple(range(1, n + 1)),)), m),
        ):
            with pytest.raises(ResourceLimitError, match="enumerating"):
                build()

    @pytest.mark.parametrize("m,n", [(5, 3), (9, 2)])
    def test_commutant_basis_refused_by_estimate(self, m, n, monkeypatch):
        def label_orbits(*args):
            raise AssertionError("entry orbits computed past the cost estimate")

        monkeypatch.setattr(tensor_rep, "_entry_orbits", label_orbits)
        with pytest.raises(ResourceLimitError, match="commutant basis"):
            commutant_basis(m, n)

    def test_commutant_estimate_admits_equiv_sizes(self):
        # (4, 3) ~53 MB and (8, 2) ~136 MB stay under the 256 MiB cap
        for m, n in [(2, 2), (8, 2), (2, 3), (3, 3), (4, 3), (3, 4)]:
            tensor_rep._check_commutant_cost(m, n)

    def test_group_estimate_admits_benchmark_sizes(self):
        for m, n in [(3, 4), (4, 4), (2, 6), (3, 5), (2, 7), (5, 4), (4, 5), (2, 8)]:
            tensor_rep._check_group_cost(m, n)


def split_weight_blocks(m, n):
    """(shapes with <= m rows, [WeightBlock per sorted weight]) as the decomposition builds them."""
    shapes = list(iter_partitions(n, m))
    return shapes, list(schur_weyl._weight_blocks(m, shapes))


def compositions(m, n):
    """Every weight of (C^m)^{xN}: letter counts (a_0, ..., a_{m-1}) summing to n."""
    return [a for a in itertools.product(range(n + 1), repeat=m) if sum(a) == n]


class TestWeightBlocks:
    """Per-weight spectral split against dense and combinatorial oracles."""

    @pytest.mark.parametrize("m,n", ORACLE_SIZES[1:] + [(3, 4)])
    def test_block_projectors_reassemble_central_projectors(self, m, n):
        shapes, blocks = split_weight_blocks(m, n)
        z = {shape: np.zeros((m**n, m**n)) for shape in shapes}
        place = m ** np.arange(n - 1, -1, -1)
        for block in blocks:
            seen = set()
            # every weight of this sorted type: block letter i -> letters[i]
            for letters in itertools.permutations(range(m), len(block.weight)):
                weight = [0] * m
                for letter, count in zip(letters, block.weight):
                    weight[letter] = count
                if tuple(weight) in seen:
                    continue
                seen.add(tuple(weight))
                flat = np.array(letters)[block.words] @ place
                for s, shape in enumerate(shapes):
                    v = block.vectors[:, block.sector == s]
                    z[shape][np.ix_(flat, flat)] += v @ v.T
        for shape in enumerate_partitions(n):
            expected = oracles.dense_central_projector(shape.parts, m)
            got = z.get(shape.parts, np.zeros_like(expected))
            assert linalg.max_abs(got - expected) < 1e-12

    @pytest.mark.parametrize("m,n", [(2, 4), (3, 4), (3, 5), (4, 5), (3, 6), (4, 6)])
    def test_block_ranks_are_kostka_times_irrep_dim(self, m, n):
        shapes, blocks = split_weight_blocks(m, n)
        for block in blocks:
            ranks = np.bincount(block.sector, minlength=len(shapes))
            for shape, rank in zip(shapes, ranks):
                kostka = oracles.bruteforce_kostka(shape, block.weight)
                assert rank == kostka * hook_dimension(Partition(shape))

    @pytest.mark.parametrize("m,n", [(2, 9), (2, 10), (3, 7), (3, 8), (4, 7), (10, 6)])
    def test_frontier_multiplicities_against_hook_content(self, m, n):
        report = sector_decomposition(m, n)
        for s in report.sectors:
            assert s.multiplicity == oracles.weyl_multiplicity(s.partition, m)
            assert s.rank == s.multiplicity * s.irrep_dim
        assert report.commutant_dim == math.comb(m * m + n - 1, n)
        assert max(report.residuals.values()) < 1e-10

    @pytest.mark.parametrize("m,n", [(1, 11), (2, 9), (2, 10)])
    def test_no_group_enumeration_or_irrep(self, m, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the weight-block path enumerated S_N or built an irrep")

        names = ("symmetric_group", "_operator_sum", "irrep", "character", "_central_projectors")
        # schur_weyl holds none of them by name; patch them where they are defined
        assert not any(hasattr(schur_weyl, name) for name in names)
        for name in names:
            monkeypatch.setattr(tensor_rep, name, refuse)
        for name in ("symmetric_group", "irrep", "character"):
            monkeypatch.setattr(permgroup, name, refuse)
        report = sector_decomposition(m, n)
        assert sum(s.rank for s in report.sectors) == m**n

    def test_peak_traced_memory_at_4_5(self):
        # the central-projector path peaked at ~145 MiB here
        tracemalloc.start()
        try:
            sector_decomposition(4, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_content_characters_are_class_sum_eigenvalues(self, n):
        # omega_lambda(C) = |C| chi_lambda(C) / d_lambda, by Murnaghan-Nakayama
        shapes = [s.parts for s in enumerate_partitions(n)]
        omega, _ = schur_weyl._separating_combination(shapes)
        for shape, (w2, w3) in zip(shapes, omega):
            d = oracles.mn_character(shape, (1,) * n)
            chi2 = oracles.mn_character(shape, (2,) + (1,) * (n - 2))
            assert w2 * d == math.comb(n, 2) * chi2
            chi3 = oracles.mn_character(shape, (3,) + (1,) * (n - 3)) if n >= 3 else 0
            assert w3 * d == 2 * math.comb(n, 3) * chi3

    def test_contents_separate_up_to_14_and_collide_at_15(self):
        for n in range(1, 15):
            schur_weyl._separating_combination([s.parts for s in enumerate_partitions(n)])
        for m, n in [(5, 15), (4, 16)]:
            with pytest.raises(ConsistencyError, match="do not separate"):
                schur_weyl._separating_combination(list(iter_partitions(n, m)))

    def test_stray_eigenvalue_raises(self):
        predicted = np.array([0.0, 2.0, 5.0])
        landed = schur_weyl._assign_sectors(np.array([5.0, 0.0, 2.0]), predicted, (1,))
        assert list(landed) == [2, 0, 1]
        with pytest.raises(ConsistencyError, match="eigenvalue"):
            schur_weyl._assign_sectors(np.array([0.0, 2.0 + 1e-3]), predicted, (1,))

    def test_wrong_prediction_raises_from_the_eigenvalues(self, monkeypatch):
        # omega_3 without its -C(N, 2): no eigenvalue lands on a prediction
        separate = schur_weyl._separating_combination

        def shifted(shapes):
            omega, scale = separate(shapes)
            return omega + [0, math.comb(sum(shapes[0]), 2)], scale

        monkeypatch.setattr(schur_weyl, "_separating_combination", shifted)
        with pytest.raises(ConsistencyError, match="eigenvalue"):
            sector_decomposition(3, 4)

    @pytest.mark.parametrize("m,n", [(1, 4), (2, 4), (3, 4), (4, 3), (3, 5)])
    def test_words_and_weight_counts_against_enumeration(self, m, n):
        weights = compositions(m, n)
        for weight in iter_partitions(n, m):
            expected = sorted(set(itertools.permutations(
                [letter for letter, count in enumerate(weight) for _ in range(count)]
            )))
            assert [tuple(w) for w in schur_weyl._weight_words(weight)] == expected
            same_type = [
                a for a in weights if tuple(sorted((c for c in a if c), reverse=True)) == weight
            ]
            assert schur_weyl._weight_count(weight, m) == len(same_type)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_cycle_images_are_the_classes(self, n):
        group = list(itertools.permutations(range(1, n + 1)))
        for length in (2, 3):
            cycle_type = (length,) + (1,) * (n - length)
            expected = sorted(p for p in group if oracles.inverse_cycle_type(p) == cycle_type)
            assert sorted(map(tuple, schur_weyl._cycle_images(n, length))) == expected


class TestSectorCostEstimate:
    @pytest.mark.parametrize(
        "m,n,reason",
        [(1, 100000, "records"), (1, 36, "records"), (2, 30, "MiB"), (3, 12, "MiB"),
         (3, 9, "block operations"), (10**400, 3, "digits")],
    )
    def test_refused_before_any_block(self, m, n, reason, monkeypatch):
        def build(*args):
            raise AssertionError("a weight block was built past the estimate")

        monkeypatch.setattr(schur_weyl, "_weight_block", build)
        with pytest.raises(ResourceLimitError, match=f"sector decomposition.*{reason}"):
            sector_decomposition(m, n)

    def test_admits_the_frontier(self):
        for m, n in [(2, 10), (3, 8), (4, 7), (10, 6), (2, 12), (1, 35), (10**50, 3)]:
            schur_weyl._check_sector_cost(m, n)

    def test_record_count_matches_enumeration(self):
        for n in range(1, 25):
            assert schur_weyl._partition_count(n, 10**6) == len(enumerate_partitions(n))
        assert schur_weyl._partition_count(35, 2**14) == 14883
        assert schur_weyl._partition_count(10**5, 2**14) == 2**14 + 1

    def test_huge_m_counts_exactly(self):
        m = 10**12
        report = sector_decomposition(m, 3)
        for s in report.sectors:
            assert s.multiplicity == oracles.weyl_multiplicity(s.partition, m)
        assert report.commutant_dim == math.comb(m * m + 2, 3)

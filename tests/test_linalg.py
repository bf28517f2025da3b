import random
import tracemalloc

import numpy as np
import pytest

import oracles
from sectorkit import linalg, tolerances
from sectorkit.errors import DomainError
from sectorkit.permgroup import Partition, irrep, symmetric_group

S3 = symmetric_group(3)


def rep_of(parts):
    rep = irrep(Partition(parts))
    return [rep.matrix(pi) for pi in symmetric_group(sum(parts))]


def regular_s3():
    index = {pi.images: i for i, pi in enumerate(S3)}
    mats = []
    for pi in S3:
        mat = np.zeros((6, 6))
        for j, sigma in enumerate(S3):
            mat[index[oracles.compose(pi, sigma).images], j] = 1.0
        mats.append(mat)
    return mats


def direct_sum(ops1, ops2):
    out = []
    for a, b in zip(ops1, ops2):
        mat = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
        mat[: a.shape[0], : a.shape[0]] = a
        mat[a.shape[0] :, a.shape[0] :] = b
        out.append(mat)
    return out


def random_unitary(d, seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(z)
    return q


class TestCommutantDimension:
    def test_irreducible_matches_oracle(self):
        ops = rep_of((2, 1))
        assert len(linalg.commutant_basis_of(ops)) == oracles.dense_commutant_dimension(ops) == 1

    @pytest.mark.parametrize(
        "ops, expected",
        [
            (regular_s3(), 6),
            (direct_sum(rep_of((2, 1)), rep_of((2, 1))), 4),
            (direct_sum(rep_of((3,)), rep_of((1, 1, 1))), 2),
        ],
        ids=["regular", "irrep+irrep", "trivial+sign"],
    )
    def test_reducible_falls_back_to_true_dimension(self, ops, expected):
        assert len(linalg.commutant_basis_of(ops)) == expected
        assert oracles.dense_commutant_dimension(ops) == expected

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            linalg.commutant_basis_of([])

    def test_operator_arrays_accepted(self):
        ops = np.array(rep_of((2, 1)))
        assert len(linalg.commutant_basis_of(ops)) == 1
        assert len(linalg.commutant_basis_of(np.array(regular_s3()))) == 6
        assert linalg.intertwiner_basis(ops, np.array(rep_of((3,)))).shape[1] == 0


def intertwiner_dimension(ops1, ops2):
    return linalg.intertwiner_basis(ops1, ops2).shape[1]


class TestIntertwinerDimension:
    """Intertwiner dimensions, the width of intertwiner_basis, against the
    dense Sylvester oracle; pairs spanning M_d1 x M_d2 admit none (Burnside)."""

    @pytest.mark.parametrize("parts", [(2, 1), (3, 1)])
    def test_equivalent_pair(self, parts):
        ops = rep_of(parts)
        w = random_unitary(ops[0].shape[0], seed=4)
        conj = [w @ a @ linalg.dagger(w) for a in ops]
        assert intertwiner_dimension(ops, conj) == 1
        assert oracles.dense_intertwiner_dimension(ops, conj) == 1

    @pytest.mark.parametrize(
        "first, second",
        [((2, 1), (3,)), ((2, 1), (1, 1, 1)), ((3,), (1, 1, 1))],
    )
    def test_inequivalent_pair_matches_oracle(self, first, second):
        ops1, ops2 = rep_of(first), rep_of(second)
        assert oracles.dense_intertwiner_dimension(ops1, ops2) == 0
        assert intertwiner_dimension(ops1, ops2) == 0

    def test_reducible_inequivalent_pair_falls_back(self):
        # trivial+trivial against sign: no nonzero intertwiner exists
        trivial2 = direct_sum(rep_of((3,)), rep_of((3,)))
        sign = rep_of((1, 1, 1))
        assert intertwiner_dimension(trivial2, sign) == 0
        assert oracles.dense_intertwiner_dimension(trivial2, sign) == 0

    def test_reducible_pair_counts_multiplicity(self):
        ops = rep_of((2, 1))
        twice = direct_sum(ops, ops)
        assert intertwiner_dimension(ops, twice) == 2
        assert oracles.dense_intertwiner_dimension(ops, twice) == 2

    def test_misaligned_lists_rejected(self):
        with pytest.raises(DomainError):
            linalg.intertwiner_basis(rep_of((2, 1)), rep_of((3,))[:2])


def projector(basis):
    return basis @ basis.conj().T


def conjugated(ops, seed):
    w = random_unitary(ops[0].shape[0], seed)
    return [w @ a @ linalg.dagger(w) for a in ops]


COMMUTANT_CASES = {
    "irrep": lambda: rep_of((2, 1)),
    "regular": regular_s3,
    "irrep+irrep": lambda: direct_sum(rep_of((2, 1)), rep_of((2, 1))),
    "trivial+sign": lambda: direct_sum(rep_of((3,)), rep_of((1, 1, 1))),
}

def generic_pairs():
    # the zero and identity pairs restrict nothing; each generic pair does
    rng = np.random.default_rng(8)
    d = 4
    gen = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2)]
    ops1 = [np.zeros((d, d)), np.eye(d), *gen]
    return ops1, conjugated(ops1, 9)


INTERTWINER_CASES = {
    "S3 equivalent": lambda: (rep_of((2, 1)), conjugated(rep_of((2, 1)), 4)),
    "S4 equivalent": lambda: (rep_of((3, 1)), conjugated(rep_of((3, 1)), 4)),
    "standard vs trivial": lambda: (rep_of((2, 1)), rep_of((3,))),
    "standard vs sign": lambda: (rep_of((2, 1)), rep_of((1, 1, 1))),
    "trivial vs sign": lambda: (rep_of((3,)), rep_of((1, 1, 1))),
    "trivial+trivial vs sign": lambda: (
        direct_sum(rep_of((3,)), rep_of((3,))),
        rep_of((1, 1, 1)),
    ),
    "irrep vs irrep+irrep": lambda: (
        rep_of((2, 1)),
        direct_sum(rep_of((2, 1)), rep_of((2, 1))),
    ),
    "irrep+irrep vs rotated": lambda: (
        direct_sum(rep_of((2, 1)), rep_of((2, 1))),
        conjugated(direct_sum(rep_of((2, 1)), rep_of((2, 1))), 5),
    ),
    "regular vs rotated": lambda: (regular_s3(), conjugated(regular_s3(), 6)),
    "zero, identity, then generic pairs": generic_pairs,
}


class TestSuccessiveRestriction:
    """The pair-by-pair null space against one stacked Kronecker SVD."""

    @pytest.mark.parametrize("case", sorted(INTERTWINER_CASES))
    def test_intertwiner_projector_matches_stacked_svd(self, case):
        ops1, ops2 = INTERTWINER_CASES[case]()
        basis = linalg.intertwiner_basis(ops1, ops2)
        dense = oracles.dense_intertwiner_basis(ops1, ops2)
        assert basis.shape == dense.shape
        assert linalg.max_abs(basis.conj().T @ basis - np.eye(basis.shape[1])) < 1e-12
        assert linalg.max_abs(projector(basis) - projector(dense)) < 1e-12
        for k in range(basis.shape[1]):
            v = basis[:, k].reshape(ops2[0].shape[0], ops1[0].shape[0])
            assert linalg.intertwining_residual(v, ops1, ops2) < 1e-12

    @pytest.mark.parametrize("case", sorted(COMMUTANT_CASES))
    def test_commutant_projector_matches_stacked_svd(self, case):
        ops = COMMUTANT_CASES[case]()
        d = ops[0].shape[0]
        basis = linalg.commutant_basis_of(ops)
        flat = np.stack([x.ravel() for x in basis], axis=1)
        dense = oracles.dense_intertwiner_basis(ops, ops)
        assert flat.shape == dense.shape
        assert linalg.max_abs(projector(flat) - projector(dense)) < 1e-12
        for x in basis:
            assert max(linalg.max_abs(x @ a - a @ x) for a in ops) < 1e-12
        assert len(basis) == oracles.dense_commutant_dimension(ops)
        assert flat.shape[0] == d * d

    def test_every_pair_restricts(self):
        ops1, ops2 = generic_pairs()
        assert linalg.intertwiner_basis(ops1, ops2).shape[1] == 1
        assert linalg.intertwiner_basis(ops1[:3], ops2[:3]).shape[1] == 4
        assert linalg.intertwiner_basis(ops1[:2], ops2[:2]).shape[1] == 16

    def test_multiplicity_space_has_dimension_four(self):
        ops1, ops2 = INTERTWINER_CASES["irrep+irrep vs rotated"]()
        assert linalg.intertwiner_basis(ops1, ops2).shape[1] == 4
        ops1, ops2 = INTERTWINER_CASES["regular vs rotated"]()
        assert linalg.intertwiner_basis(ops1, ops2).shape[1] == 6

    def test_many_pairs_without_kronecker_stack(self):
        # 816 pairs of 20 x 20 operators: the stacked system would hold
        # 326,400 x 400 complex entries (2.09 GB); one restriction step
        # holds at most 400 x 400
        rng = np.random.default_rng(11)
        d, count = 20, 816
        u = random_unitary(d, seed=12)
        ops1 = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(count)]
        ops2 = [u @ a @ linalg.dagger(u) for a in ops1]
        tracemalloc.start()
        try:
            basis = linalg.intertwiner_basis(ops1, ops2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 20
        assert basis.shape == (d * d, 1)
        overlap = np.vdot(u.ravel() / np.sqrt(d), basis[:, 0])
        assert abs(overlap) == pytest.approx(1.0, abs=1e-12)

    def test_zero_carriers(self):
        empty = [np.zeros((0, 0))] * 6
        assert linalg.intertwiner_basis(empty, rep_of((2, 1))).shape == (0, 0)
        assert linalg.commutant_basis_of(empty) == []


class TestNormalizePhase:
    @pytest.mark.parametrize("noise", [1e-15, -1e-15])
    def test_tied_pivot_is_first_entry(self, noise):
        # entries of equal magnitude up to rounding: the first one is made
        # real positive, whichever rounds larger
        v = np.array([[0.5, -1.0], [1.0 + noise, 0.25j]])
        out = linalg.normalize_phase(v)
        assert out[0, 1] == pytest.approx(1.0)
        assert out[1, 0] == pytest.approx(-1.0)

    def test_unique_pivot(self):
        v = np.array([0.1, -2j, 1.0])
        out = linalg.normalize_phase(v)
        assert out[1] == pytest.approx(2.0)
        assert np.allclose(np.abs(out), np.abs(v))


class TestRestrict:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_explicit_kronecker(self, k):
        rng = np.random.default_rng(20 + k)
        n = 5
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        raw = rng.standard_normal((n * k, 4)) + 1j * rng.standard_normal((n * k, 4))
        c = linalg.orthonormal_range(raw)
        big = np.kron(a, np.eye(k))
        restricted, leakage = linalg.restrict(a, c)
        assert linalg.max_abs(restricted - linalg.dagger(c) @ big @ c) < 1e-14
        image = big @ c
        assert leakage == pytest.approx(linalg.max_abs(image - c @ linalg.dagger(c) @ image))

    def test_invariant_carrier_has_no_leakage(self):
        # span{e_0 x e_j} is invariant under diagonal A x 1
        a = np.diag([1.0, 2.0, 3.0]).astype(complex)
        c = np.eye(6)[:, :2]
        restricted, leakage = linalg.restrict(a, c)
        assert leakage == 0.0
        assert linalg.max_abs(restricted - np.eye(2)) == 0.0

    def test_non_invariant_carrier_leaks(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # swaps the spatial index
        c = np.eye(4)[:, :2]  # spatial index 0 only
        _, leakage = linalg.restrict(a, c)
        assert leakage > linalg.RESIDUAL_TOL

    def test_rows_must_divide(self):
        with pytest.raises(DomainError):
            linalg.restrict(np.eye(3), np.eye(4)[:, :1])
        with pytest.raises(DomainError):
            linalg.restrict(np.ones((2, 3)), np.eye(6)[:, :1])


def random_orbits(n, seed):
    """A random partition of the n * n entries into orbits of sizes 1 to 7, as a table."""
    rng = np.random.default_rng(seed)
    entries = rng.permutation(n * n)
    cuts = np.cumsum(rng.integers(1, 8, size=n * n))
    starts = np.concatenate(([0], cuts[cuts < n * n], [n * n]))
    return entries, starts


class TestRestrictOrbits:
    """The orbit-table restriction against restrict of each dense indicator.

    restrict_orbits and orbit_restrictions live in the oracles: they
    restricted the K orbit operators of the equiv realizations and of the
    cover census before each was built from a generating set.
    """

    @pytest.mark.parametrize("k, dtype", [(1, float), (2, complex), (3, float)])
    @pytest.mark.parametrize("chunk", [1, 1 << 20])
    def test_matches_restrict_of_dense_indicators(self, k, dtype, chunk, monkeypatch):
        # chunk = 1 byte makes every chunk a single orbit
        monkeypatch.setattr(tolerances, "CHUNK_BYTES", chunk)
        n, r = 5, 4
        rng = np.random.default_rng(30 + k)
        raw = rng.standard_normal((n * k, r)).astype(dtype)
        if dtype is complex:
            raw = raw + 1j * rng.standard_normal((n * k, r))
        c = linalg.orthonormal_range(raw)
        entries, starts = random_orbits(n, seed=k)
        rows, cols = np.divmod(entries, n)
        restricted, leakage = oracles.restrict_orbits(c, n, rows, cols, starts)
        assert restricted.shape == (len(starts) - 1, r, r)
        worst = 0.0
        for o in range(len(starts) - 1):
            a = np.zeros(n * n)
            orbit = entries[starts[o] : starts[o + 1]]
            a[orbit] = 1.0 / np.sqrt(len(orbit))
            expected, leak = linalg.restrict(a.reshape(n, n), c)
            assert linalg.max_abs(restricted[o] - expected) < 1e-14
            worst = max(worst, leak)
        assert leakage == pytest.approx(worst, rel=1e-12, abs=1e-15)
        assert leakage > linalg.RESIDUAL_TOL  # a random carrier is not invariant

    def test_invariant_carrier_has_no_leakage(self):
        # orbits of the swap (i, j) <-> (j, i) on 3 x 3 entries; the carrier
        # spans e_0 x C^2 + e_1 x C^2 + e_2 x C^2, all of C^6
        n = 3
        entries = np.array([0, 1, 3, 2, 6, 4, 5, 7, 8])
        starts = np.array([0, 1, 3, 5, 6, 8, 9])
        rows, cols = np.divmod(entries, n)
        c = np.eye(n * 2)
        restricted, leakage = oracles.restrict_orbits(c, n, rows, cols, starts)
        assert leakage == 0.0
        expected = np.zeros((n, n))
        expected[0, 1] = expected[1, 0] = 1 / np.sqrt(2)
        assert linalg.max_abs(restricted[1] - np.kron(expected, np.eye(2))) < 1e-15

    def test_orbit_restrictions_of_blocks(self):
        # the gather-and-segment-sum, against a loop over the entries
        rng = np.random.default_rng(40)
        n, k, r = 6, 2, 3
        blocks = rng.standard_normal((n, k, r)) + 1j * rng.standard_normal((n, k, r))
        entries, starts = random_orbits(n, seed=41)
        rows, cols = np.divmod(entries, n)
        out = oracles.orbit_restrictions(blocks, rows, cols, starts)
        for o in range(len(starts) - 1):
            seg = range(starts[o], starts[o + 1])
            expected = sum(blocks[rows[e]].conj().T @ blocks[cols[e]] for e in seg)
            assert linalg.max_abs(out[o] - expected / np.sqrt(len(seg))) < 1e-13

    def test_rows_must_divide(self):
        entries, starts = random_orbits(3, seed=0)
        rows, cols = np.divmod(entries, 3)
        with pytest.raises(DomainError):
            oracles.restrict_orbits(np.eye(4)[:, :1], 3, rows, cols, starts)


def refuse_fallback(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("successive-restriction fallback taken")

    monkeypatch.setattr(linalg, "intertwiner_basis", refuse)


def without_random_element(monkeypatch):
    monkeypatch.setattr(linalg, "_intertwiner_from_random_element", lambda *args: None)


class TestRandomElementIntertwiner:
    """The random-combination path and the successive-restriction fallback."""

    EQUIVALENT = {
        "S3 standard": lambda: (rep_of((2, 1)), conjugated(rep_of((2, 1)), 4)),
        "S4 (3, 1)": lambda: (rep_of((3, 1)), conjugated(rep_of((3, 1)), 5)),
        "S4 (2, 2)": lambda: (rep_of((2, 2)), conjugated(rep_of((2, 2)), 6)),
        "S4 (2, 1, 1) with itself": lambda: (rep_of((2, 1, 1)), rep_of((2, 1, 1))),
    }
    INEQUIVALENT = {
        "S4 (3, 1) vs (2, 1, 1)": lambda: (rep_of((3, 1)), rep_of((2, 1, 1))),
        "S3 trivial vs sign": lambda: (rep_of((3,)), rep_of((1, 1, 1))),
        "S3 standard vs twice trivial": lambda: (
            rep_of((2, 1)),
            direct_sum(rep_of((3,)), rep_of((3,))),
        ),
        # the same Hermitian parts: a random combination alone has equal
        # spectra, but the product Y2 Y3 turns into (Y3 Y2)^T
        "S4 (3, 1) vs its transposes": lambda: (
            [a.real for a in rep_of((3, 1))],
            [a.real.T for a in rep_of((3, 1))],
        ),
    }

    @pytest.mark.parametrize("case", sorted(EQUIVALENT))
    def test_equivalent_pairs_agree_on_both_paths(self, case, monkeypatch):
        ops1, ops2 = self.EQUIVALENT[case]()
        with monkeypatch.context() as patch:
            refuse_fallback(patch)
            fast, res_fast, detail = linalg.unitary_intertwiner(ops1, ops2)
        without_random_element(monkeypatch)
        slow, res_slow, _ = linalg.unitary_intertwiner(ops1, ops2)
        assert detail == "unitary intertwiner found"
        assert res_fast < 1e-12 and res_slow < 1e-12
        d = fast.shape[0]
        assert linalg.max_abs(fast @ linalg.dagger(fast) - np.eye(d)) < 1e-12
        # an irreducible pair has one intertwiner up to the phase both fix
        assert linalg.max_abs(fast - slow) < 1e-10

    @pytest.mark.parametrize("case", sorted(INEQUIVALENT))
    def test_inequivalent_pairs_take_the_fallback(self, case, monkeypatch):
        # with the random element switched off, the fallback alone refutes
        ops1, ops2 = self.INEQUIVALENT[case]()
        without_random_element(monkeypatch)
        calls = []
        basis = linalg.intertwiner_basis
        monkeypatch.setattr(
            linalg, "intertwiner_basis", lambda *args: calls.append(1) or basis(*args)
        )
        v, residual, detail = linalg.unitary_intertwiner(ops1, ops2)
        assert calls == [1]
        assert v is None and residual == float("inf")
        assert detail != "unitary intertwiner found"

    @pytest.mark.parametrize("case", sorted(INEQUIVALENT))
    def test_mismatched_spectra_are_refuted(self, case, monkeypatch):
        # equivalent actions give the random element equal spectra
        ops1, ops2 = self.INEQUIVALENT[case]()
        refuse_fallback(monkeypatch)
        v, residual, detail = linalg.unitary_intertwiner(ops1, ops2)
        assert v is None and residual == float("inf")
        assert detail.startswith("spectra of a random algebra element differ by ")
        assert float(detail.split()[-1]) > linalg.EIGEN_CLUSTER_TOL

    def test_unequal_dimensions_are_refuted_before_any_search(self, monkeypatch):
        # the fallback's byte estimate at 60 x 100 (~5.5 GiB) is never reached
        refuse_fallback(monkeypatch)
        monkeypatch.setattr(
            linalg, "_intertwiner_from_random_element", lambda *args: pytest.fail("searched")
        )
        v, residual, detail = linalg.unitary_intertwiner([np.eye(60)], [np.eye(100)])
        assert v is None and residual == float("inf")
        assert detail == "carrier dimensions differ (60 vs 100)"

    def test_degenerate_spectrum_falls_back(self, monkeypatch):
        # two copies of one irreducible: every Hermitian element of the
        # algebra has doubly degenerate eigenvalues
        ops = direct_sum(rep_of((2, 1)), rep_of((2, 1)))
        assert linalg._intertwiner_from_random_element(ops, ops, random.Random(1)) is None
        calls = []
        basis = linalg.intertwiner_basis
        monkeypatch.setattr(
            linalg, "intertwiner_basis", lambda *args: calls.append(1) or basis(*args)
        )
        v, residual, _ = linalg.unitary_intertwiner(ops, ops)
        assert calls == [1]
        assert residual < 1e-12

    def test_multiplicity_free_sum_needs_no_fallback(self, monkeypatch):
        # inequivalent summands: the spectrum is simple, Q1* Y4 Q1 has no
        # entry between the summands, and each tree of the forest fixes
        # its own phases
        refuse_fallback(monkeypatch)
        ops1 = direct_sum(rep_of((3, 1)), rep_of((2, 1, 1)))
        w = np.zeros((6, 6), dtype=complex)
        w[:3, :3], w[3:, 3:] = random_unitary(3, 7), random_unitary(3, 8)
        ops2 = [w @ a @ linalg.dagger(w) for a in ops1]
        v, residual, detail = linalg.unitary_intertwiner(ops1, ops2)
        assert detail == "unitary intertwiner found" and residual < 1e-12
        assert linalg.max_abs(v[:3, 3:]) < 1e-12 and linalg.max_abs(v[3:, :3]) < 1e-12

    def test_tree_phases_solve_the_phase_equations(self):
        # d_i m1_ij = m2_ij d_j, with the zero block between the two trees
        rng = np.random.default_rng(9)
        m1 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        m1[:2, 2:] = m1[2:, :2] = 0.0
        d = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        m2 = d[:, None] * m1 / d[None, :]
        found = linalg._tree_phases(m1, m2)
        assert linalg.max_abs(np.abs(found) - 1) < 1e-15
        assert linalg.max_abs(found[:, None] * m1 - m2 * found[None, :]) < 1e-14
        assert found[0] == 1.0 and found[2] == 1.0  # one root per tree

    def test_real_operators_give_a_real_intertwiner(self, monkeypatch):
        refuse_fallback(monkeypatch)
        ops = [a.real for a in rep_of((3, 1))]
        w = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        v, residual, _ = linalg.unitary_intertwiner(ops, [w @ a @ w.T for a in ops])
        assert not np.iscomplexobj(v) and residual < 1e-12

    def test_empty_or_misaligned_lists_rejected(self):
        with pytest.raises(DomainError):
            linalg.unitary_intertwiner([], [])
        with pytest.raises(DomainError):
            linalg.unitary_intertwiner(rep_of((2, 1)), rep_of((2, 1))[:2])

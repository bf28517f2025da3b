import numpy as np
import pytest

import oracles
from sectorkit import linalg
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
            mat[index[(pi * sigma).images], j] = 1.0
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


@pytest.fixture
def no_sylvester(monkeypatch):
    """Make the null-space fallback fail loudly, so only span ranks can answer."""

    def refuse(*args, **kwargs):
        raise AssertionError("Sylvester fallback taken")

    monkeypatch.setattr(linalg, "commutant_basis_of", refuse)
    monkeypatch.setattr(linalg, "intertwiner_basis", refuse)


class TestCommutantDimension:
    def test_irreducible_by_span_rank(self, no_sylvester):
        ops = rep_of((2, 1))
        assert linalg.commutant_dimension_of(ops) == 1

    def test_irreducible_matches_oracle(self):
        ops = rep_of((2, 1))
        assert linalg.commutant_dimension_of(ops) == oracles.dense_commutant_dimension(ops) == 1

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
        assert linalg._span_rank(ops) < ops[0].shape[0] ** 2
        assert linalg.commutant_dimension_of(ops) == expected
        assert oracles.dense_commutant_dimension(ops) == expected

    def test_reducible_needs_fallback(self, no_sylvester):
        with pytest.raises(AssertionError, match="fallback"):
            linalg.commutant_dimension_of(regular_s3())

    def test_empty_list_rejected(self):
        with pytest.raises(DomainError):
            linalg.commutant_dimension_of([])


class TestIntertwinerDimension:
    @pytest.mark.parametrize("parts", [(2, 1), (3, 1)])
    def test_equivalent_pair(self, parts):
        # S_4 has 24 >= 3**2 + 3**2 elements, so there the joint span rank
        # is computed, falls short at 9, and the fallback must answer
        ops = rep_of(parts)
        w = random_unitary(ops[0].shape[0], seed=4)
        conj = [w @ a @ linalg.dagger(w) for a in ops]
        assert linalg.intertwiner_dimension(ops, conj) == 1
        assert oracles.dense_intertwiner_dimension(ops, conj) == 1
        assert linalg.intertwiner_dimension(ops, conj) == linalg.intertwiner_basis(
            ops, conj
        ).shape[1]

    @pytest.mark.parametrize(
        "first, second",
        [((2, 1), (3,)), ((2, 1), (1, 1, 1)), ((3,), (1, 1, 1))],
    )
    def test_inequivalent_pair_by_span_rank(self, first, second, no_sylvester):
        assert linalg.intertwiner_dimension(rep_of(first), rep_of(second)) == 0

    @pytest.mark.parametrize(
        "first, second",
        [((2, 1), (3,)), ((2, 1), (1, 1, 1)), ((3,), (1, 1, 1))],
    )
    def test_inequivalent_pair_matches_oracle(self, first, second):
        ops1, ops2 = rep_of(first), rep_of(second)
        assert oracles.dense_intertwiner_dimension(ops1, ops2) == 0
        assert linalg.intertwiner_dimension(ops1, ops2) == 0

    def test_reducible_inequivalent_pair_falls_back(self):
        # trivial+trivial against sign: the joint span is too small to
        # certify, yet no nonzero intertwiner exists
        trivial2 = direct_sum(rep_of((3,)), rep_of((3,)))
        sign = rep_of((1, 1, 1))
        assert linalg._span_rank(
            [np.concatenate((a.ravel(), b.ravel())) for a, b in zip(trivial2, sign)]
        ) < 4 + 1
        assert linalg.intertwiner_dimension(trivial2, sign) == 0
        assert oracles.dense_intertwiner_dimension(trivial2, sign) == 0

    def test_reducible_pair_counts_multiplicity(self):
        ops = rep_of((2, 1))
        twice = direct_sum(ops, ops)
        assert linalg.intertwiner_dimension(ops, twice) == 2
        assert oracles.dense_intertwiner_dimension(ops, twice) == 2

    def test_misaligned_lists_rejected(self):
        with pytest.raises(DomainError):
            linalg.intertwiner_dimension(rep_of((2, 1)), rep_of((3,))[:2])

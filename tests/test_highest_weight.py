"""The exact `equiv` certificate against the float realizations it replaced.

The float carriers of parastat_equiv (thin SVDs of the slot-averaged
columns) and its one-body generators are the oracle: the exact carriers
must span the same spaces, and the V the certificate reports must
intertwine every float generator in the bases it names."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from sectorkit import errors, highest_weight, linalg, parastat_equiv
from sectorkit.highest_weight import (
    DOUBLET,
    FERMIONS,
    PAIRS,
    PARAFERMIONS,
    SINGLET,
    Carrier,
    certify,
    certify_pair,
    check_certificate_cost,
)

SIZES = [(m, n) for n in (2, 3) for m in (2, 3, 4)]


def float_carrier(carrier, m):
    """parastat_equiv's orthonormal carrier, rows (spatial word, internal index)."""
    if carrier is SINGLET:
        vectors, internal = parastat_equiv.SINGLET_VECTORS, parastat_equiv._internal_slot_permutation
    elif carrier is DOUBLET:
        vectors, internal = parastat_equiv.DOUBLET_VECTORS, parastat_equiv._internal_slot_permutation
    elif carrier is FERMIONS:
        vectors, internal = np.ones((1, 1)), lambda pi: np.array([[pi.sign()]])
    else:
        return parastat_equiv.parafermion_constraint_space(m)
    return parastat_equiv._carrier(m, carrier.n, vectors, internal)


def as_float_rows(carrier, m, vector):
    """A dict vector as a float column; the parafermions' C^3 taken to the
    two-component block of PARAFERMION_BASIS, which the float carrier uses."""
    column = np.zeros(m**carrier.n * carrier.internal_dim)
    for key, c in vector.items():
        column[key] = c
    if carrier is PARAFERMIONS:
        column = (column.reshape(-1, 3) @ parastat_equiv.PARAFERMION_BASIS[:, 1:]).ravel()
    return column


def projector(basis):
    return basis @ linalg.dagger(basis)


def row_weights(m, n, k):
    """The sorted word of each row spatial * k + internal."""
    return [tuple(sorted(word)) for word in itertools.product(range(m), repeat=n) for _ in range(k)]


def declared_basis(c, basis, m, n):
    """The certificate's named basis rebuilt in floats from the float carrier c:
    h spans c's rows of the highest weight, F_word h for each listed word,
    then Gram-Schmidt within each weight block in the listed order."""
    k = c.shape[0] // m**n
    weights = row_weights(m, n, k)
    top = tuple(basis[0][0])
    mask = np.array([w == top for w in weights], dtype=float)
    u, s, _ = np.linalg.svd(mask[:, None] * c, full_matrices=False)
    assert s[0] > 0.5 and (len(s) == 1 or s[1] < 1e-12)  # one vector of the highest weight
    h = u[:, 0]
    lowering = {a: np.kron(oracles.one_body_operator(a + 1, a, m, n), np.eye(k)) for a in range(m - 1)}
    columns, blocks = [], {}
    for weight, word in basis:
        v = h
        for a in reversed(word):
            v = lowering[a] @ v
        for j in blocks.setdefault(tuple(weight), []):
            v = v - columns[j] * (columns[j] @ v)
        blocks[tuple(weight)].append(len(columns))
        columns.append(v / np.linalg.norm(v))
    return np.array(columns).T


class TestAgainstFloatCarriers:
    @pytest.mark.parametrize("m,n", SIZES)
    def test_exact_carriers_span_the_float_carriers(self, m, n):
        for carrier in PAIRS[n]:
            spaces = highest_weight._Space(carrier, m).weight_spaces()
            columns = [as_float_rows(carrier, m, x) for echelon in spaces.values() for _, x in echelon]
            exact = linalg.orthonormal_range(np.array(columns).T)
            floats = float_carrier(carrier, m)
            assert exact.shape == floats.shape == (floats.shape[0], highest_weight.carrier_dim(m, n))
            assert linalg.max_abs(projector(exact) - projector(floats)) < 1e-12

    @pytest.mark.parametrize("m,n", SIZES)
    def test_reported_v_intertwines_every_float_generator(self, m, n):
        cert = certify_pair(m, n)
        assert cert.equivalent and cert.residual == 0
        v = np.array([[complex(*z) for z in row] for row in cert.intertwiner])
        r = highest_weight.carrier_dim(m, n)
        assert v.shape == (r, r)
        assert linalg.max_abs(linalg.dagger(v) @ v - np.eye(r)) < 1e-12
        first, second = (
            parastat_equiv.one_body_realization(
                carrier.label, declared_basis(float_carrier(carrier, m), cert.basis, m, n), m, n
            )
            for carrier in PAIRS[n]
        )
        assert len(first.operators) == len(second.operators) == m * m
        assert first.leakage < 1e-12 and second.leakage < 1e-12
        assert linalg.intertwining_residual(v, first.operators, second.operators) < 1e-12


class TestCertificate:
    @pytest.mark.parametrize(
        "m,n", [(m, 2) for m in (2, 3, 4, 9, 10, 11, 12, 20)] + [(m, 3) for m in (2, 3, 4, 9, 10, 11, 12, 13)]
    )
    def test_dimensions_and_highest_weights(self, m, n):
        cert = certify_pair(m, n)
        dim = oracles.weyl_multiplicity((1, 1) if n == 2 else (2, 1), m)
        assert cert.equivalent and cert.carrier_dims == (dim, dim)
        assert cert.highest_weights == [[(1, 1) if n == 2 else (2, 1)]] * 2
        assert len(cert.basis) == dim

    def test_intertwiner_entries_are_not_aliased(self):
        # rows are distinct lists and entries immutable pairs: an edit to one
        # slot of the reported V changes no other
        cert = certify_pair(3, 3)
        rows = cert.intertwiner
        assert len({id(row) for row in rows}) == len(rows) == 8
        assert all(type(z) is tuple and len(z) == 2 for row in rows for z in row)
        rows[0][0] = (0, 0)
        assert rows[1][1] == (1, 0) and rows[0][1] == rows[1][0] == (0, 0)

    @pytest.mark.parametrize("m,n", [(3, 2), (4, 3), (5, 3)])
    def test_basis_words_lower_the_highest_weight(self, m, n):
        # each listed (weight, word): F_a1 ... F_al moves one letter a to
        # a + 1 per step, from the highest weight to the listed one
        cert = certify_pair(m, n)
        top = cert.basis[0]
        assert top[1] == [] and top[0] == [0] * (n - 1) + [1]
        for weight, word in cert.basis:
            counts = [top[0].count(a) for a in range(m)]
            for a in reversed(word):
                assert counts[a] > 0
                counts[a] -= 1
                counts[a + 1] += 1
            assert sorted(weight) == weight
            assert [weight.count(a) for a in range(m)] == counts

    @pytest.mark.parametrize(
        "m,n,weights",
        [(3, 2, [[(2,)], [(1, 1)]]), (4, 3, [[(3,)], [(1, 1, 1)]])],
    )
    def test_bosons_against_fermions_refuted(self, m, n, weights):
        bosons = Carrier("bosons", n, 1, ({0: 1},), lambda p, j, n: (j, 1))
        fermions = FERMIONS if n == 2 else Carrier("fermions", 3, 1, ({0: 1},), highest_weight._sign)
        cert = certify(bosons, fermions, m)
        assert not cert.equivalent
        assert cert.highest_weights == weights
        assert cert.carrier_dims == (math.comb(m + n - 1, n), math.comb(m, n))
        assert cert.intertwiner is None and cert.residual is None

    def test_reducible_carrier_refuted(self):
        # a two-state label in the natural action, trivial + sign: the carrier
        # is Sym^2 + Lambda^2, of highest weights (2) and (1, 1)
        labelled = Carrier("two particles, two-state label", 2, 2, ({0: 1}, {1: 1}), highest_weight._natural)
        cert = certify(labelled, FERMIONS, 3)
        assert cert.carrier_dims == (9, 3)
        assert not cert.equivalent
        assert sorted(cert.highest_weights[0]) == [(1, 1), (2,)]
        assert "need one each" in cert.detail


class TestEstimate:
    @pytest.mark.parametrize("m,n", [(14, 3), (40, 2), (10**6, 2), (10**6, 3)])
    def test_refused_before_building(self, m, n, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built past the cost estimate")

        monkeypatch.setattr(highest_weight._Space, "weight_spaces", refuse)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(errors.ResourceLimitError, match="exact equivalence certificate"):
                certify_pair(m, n)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0 and peak < 1 << 20

    def test_carrier_dim_against_the_closed_forms(self):
        # dim S_(1,1)(C^m) = C(m, 2) and dim S_(2,1)(C^m) = m (m^2 - 1) / 3
        for m in range(2, 41):
            assert highest_weight.carrier_dim(m, 2) == math.comb(m, 2)
            assert highest_weight.carrier_dim(m, 3) == m * (m * m - 1) // 3

    def test_frontier_admitted(self):
        # the edges before the exact certificate, (9, 3) and (20, 2), and the new ones
        for m, n in [(9, 3), (20, 2), (12, 3), (35, 2), (13, 3), (39, 2)]:
            check_certificate_cost(m, n)

    @pytest.mark.parametrize("m,n", [(4, 3), (9, 3), (20, 2)])
    def test_estimate_bounds_the_traced_peak_of_the_certificate(self, m, n):
        # V's rendering aside, the weight spaces and bases stay under their share
        tracemalloc.start()
        try:
            cert = certify_pair(m, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        r = highest_weight.carrier_dim(m, n)
        assert cert.equivalent
        assert peak < highest_weight.certificate_bytes(m, n) - r * r * errors.RENDERED_ENTRY_BYTES

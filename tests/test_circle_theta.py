import math
import tracemalloc

import numpy as np
import pytest

import oracles
from sectorkit import circle_theta, linalg
from sectorkit.circle_theta import (
    ThetaSector,
    fd_convergence,
    gauge_equivalence_check,
    grid,
    momentum_spectrum,
    position_operator,
    reference_eigenvalues,
    spectrum_rows,
    translation_unitary,
    twisted_momentum,
)
from sectorkit.errors import ConsistencyError, DomainError, ResourceLimitError

TWO_PI = 2 * math.pi


class TestThetaSector:
    def test_reduction_window(self):
        assert 0.0 <= ThetaSector(17.3).theta < TWO_PI
        assert ThetaSector(-1.0).theta == pytest.approx(TWO_PI - 1.0)
        assert ThetaSector(TWO_PI).theta == 0.0  # exact for one full turn

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(DomainError, match="finite"):
            ThetaSector(value)
        with pytest.raises(DomainError, match="finite"):
            twisted_momentum(value, 16)

    def test_report_dicts(self):
        gauge = gauge_equivalence_check(1.0, 16).to_dict()
        assert list(gauge) == [
            "theta", "n", "method", "residual", "measured_constant", "theta_over_2pi",
            "eigenvalue_agreement",
        ]
        conv = fd_convergence(1.0, k_max=2, grid_sizes=(32, 64)).to_dict()
        assert list(conv) == [
            "theta", "k_max", "grid_sizes", "errors", "pairwise_orders", "fitted_order",
        ]
        assert conv["grid_sizes"] == [32, 64]
        assert all(type(conv[key]) is list for key in ("grid_sizes", "errors", "pairwise_orders"))

    def test_reduction_idempotent(self):
        for value in (0.0, 1.0, 3.9, -2.5, 12.0):
            once = ThetaSector(value).theta
            assert ThetaSector(once).theta == once

    def test_periodicity_of_spectrum(self):
        # exact at theta = 0 (2*pi reduces to 0.0 bitwise)
        assert np.array_equal(
            momentum_spectrum(TWO_PI, 64, 4), momentum_spectrum(0.0, 64, 4)
        )
        # floating point addition of 2*pi costs one rounding step elsewhere
        for theta in (1.0, 3.0):
            a = momentum_spectrum(theta + TWO_PI, 64, 4)
            b = momentum_spectrum(theta, 64, 4)
            assert linalg.max_abs(a - b) < 1e-12


class TestSpectra:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 3.0])
    def test_spectral_reproduces_continuum(self, theta):
        rows = spectrum_rows(theta, 128, 16, method="spectral")
        assert max(r["error"] for r in rows) < 1e-9

    def test_untwisted_multiples_of_2pi(self):
        values = momentum_spectrum(0.0, 128, 4)
        assert np.allclose(values, TWO_PI * np.arange(-4, 5), atol=1e-10)

    def test_half_twist_offsets(self):
        # analytic eigenfunctions give pi + 2*pi*k = 2*pi*(k + 1/2)
        rows = spectrum_rows(math.pi, 128, 4)
        for row in rows:
            assert row["eigenvalue"] == pytest.approx(
                TWO_PI * (row["k"] + 0.5), abs=1e-10
            )

    def test_spectrum_is_zero_centered_window(self):
        values = momentum_spectrum(0.5, 128, 3)
        assert len(values) == 7
        assert np.all(np.diff(values) > 0)

    def test_set_shift_by_theta(self):
        theta = 1.0
        base = momentum_spectrum(0.0, 128, 6)
        shifted = momentum_spectrum(theta, 128, 8)
        for value in base:
            assert np.min(np.abs(shifted - (value + theta))) < 1e-9

    def test_reference_list(self):
        refs = reference_eigenvalues(0.5, 2)
        assert [k for k, _ in refs] == [-2, -1, 0, 1, 2]
        assert refs[2][1] == pytest.approx(0.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            momentum_spectrum(0.0, 4, 1)
        with pytest.raises(DomainError):
            momentum_spectrum(0.0, 16, 8)  # window exceeds n // 2
        with pytest.raises(DomainError):
            twisted_momentum(0.0, 64, method="upwind")

    def test_hermitian_operators(self):
        for method in ("spectral", "fd"):
            mat = twisted_momentum(1.3, 32, method)
            assert linalg.max_abs(mat - linalg.dagger(mat)) < 1e-12


class TestFiniteDifferences:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 3.0])
    def test_convergence_order(self, theta):
        report = fd_convergence(theta, k_max=4, grid_sizes=(64, 128, 256))
        assert report.fitted_order >= 1.9
        assert all(order >= 1.9 for order in report.pairwise_orders)

    def test_error_model_bound(self):
        # |lambda_k - mu_k| <= (2*pi*(|k|+1))^3 / (6 n^2) for the stencil
        theta = math.pi / 2
        for n in (64, 128, 256):
            for row in spectrum_rows(theta, n, 4, method="fd"):
                bound = (TWO_PI * (abs(row["k"]) + 1)) ** 3 / (6 * n**2)
                assert row["error"] <= bound * 1.01

    def test_exact_dispersion(self):
        # the stencil's eigenvalues are exactly n sin(mu / n)
        theta, n = 1.1, 64
        for row in spectrum_rows(theta, n, 3, method="fd"):
            mu = row["reference"]
            assert row["eigenvalue"] == pytest.approx(n * math.sin(mu / n), abs=1e-9)


class TestGauge:
    def test_theta_zero_identical(self):
        report = gauge_equivalence_check(0.0, 128)
        assert report.residual < 1e-12

    def test_spectral_residual(self):
        report = gauge_equivalence_check(math.pi / 2, 256)
        assert report.residual < 1e-8
        assert report.measured_constant == pytest.approx(math.pi / 2, abs=1e-9)
        assert report.theta_over_2pi == pytest.approx(0.25)
        assert report.eigenvalue_agreement < 1e-8

    def test_fd_residual_decreases_at_order_two(self):
        residuals = [
            gauge_equivalence_check(math.pi / 2, n, method="fd", k_max=4).residual
            for n in (64, 128, 256)
        ]
        orders = [
            math.log(residuals[i] / residuals[i + 1]) / math.log(2.0)
            for i in range(len(residuals) - 1)
        ]
        assert all(order >= 1.9 for order in orders)

    @pytest.mark.parametrize("n", [8, 16, 33, 64])
    def test_fd_default_window_fits_the_grid(self, n):
        # the widest window up to k_max = 8 that the grid admits
        k_max = min(8, (n // 2 - 1) // 2)
        report = gauge_equivalence_check(1.0, n, method="fd")
        assert report == gauge_equivalence_check(1.0, n, method="fd", k_max=k_max)
        if k_max < 8:
            with pytest.raises(DomainError, match="too large"):
                gauge_equivalence_check(1.0, n, method="fd", k_max=k_max + 1)

    def test_fd_measured_constant_converges(self):
        theta = 3.0
        constants = [
            gauge_equivalence_check(theta, n, method="fd", k_max=4).measured_constant
            for n in (64, 256)
        ]
        assert abs(constants[1] - theta) < abs(constants[0] - theta)
        assert constants[1] == pytest.approx(theta, abs=0.02)


class TestTranslations:
    def test_zero_shift_identity(self):
        assert np.array_equal(translation_unitary(0.0, 1.0, 32), np.eye(32))

    def test_unitarity(self):
        u = translation_unitary(0.25, 2.2, 64)
        assert linalg.max_abs(u @ linalg.dagger(u) - np.eye(64)) < 1e-12

    def test_group_law_with_wrap_phase(self):
        theta, n = 1.7, 64
        ua = translation_unitary(0.75, theta, n)
        ub = translation_unitary(0.5, theta, n)
        uc = translation_unitary(0.25, theta, n)
        # wrapping past 1 contributes exactly one factor exp(i theta)
        assert linalg.max_abs(ua @ ub - np.exp(1j * theta) * uc) < 1e-12

    def test_full_turn_phase_linear_in_theta(self):
        n = 32
        phases = []
        for theta in (0.7, 1.4):
            u = translation_unitary(1.0 / n, theta, n)
            full = np.linalg.matrix_power(u, n)
            assert linalg.max_abs(full - np.exp(1j * theta) * np.eye(n)) < 1e-10
            phases.append(np.angle(full[0, 0]))
        assert phases[1] == pytest.approx(2 * phases[0], abs=1e-9)

    def test_incompatible_shift_needs_interpolation(self):
        with pytest.raises(DomainError):
            translation_unitary(0.1, 0.0, 64)
        u = translation_unitary(0.1, 0.0, 64, interpolation="spectral")
        assert linalg.max_abs(u @ linalg.dagger(u) - np.eye(64)) < 1e-10

    def test_interpolation_matches_grid_shift(self):
        theta, n = 0.9, 32
        exact = translation_unitary(0.25, theta, n)
        interp = translation_unitary(0.25, theta, n, interpolation="spectral")
        assert linalg.max_abs(exact - interp) < 1e-10

    def test_out_of_range_shift(self):
        with pytest.raises(DomainError):
            translation_unitary(1.5, 0.0, 32)


class TestPosition:
    def test_constant_function_is_identity(self):
        op = position_operator(np.ones(16))
        assert np.array_equal(op, np.eye(16))

    def test_multiplication_operators_commute(self):
        rng = np.random.default_rng(0)
        f = position_operator(rng.standard_normal(16))
        g = position_operator(rng.standard_normal(16))
        assert linalg.max_abs(f @ g - g @ f) == 0.0

    def test_translation_conjugates_position(self):
        n, theta, a = 64, 1.3, 0.25
        x = grid(n)
        f = np.exp(2j * math.pi * x)
        u = translation_unitary(a, theta, n)
        lhs = u @ position_operator(f) @ linalg.dagger(u)
        rhs = position_operator(np.exp(2j * math.pi * ((x + a) % 1.0)))
        assert linalg.max_abs(lhs - rhs) < 1e-12

    def test_rejects_tiny_or_multidim(self):
        with pytest.raises(DomainError):
            position_operator(np.ones(4))
        with pytest.raises(DomainError):
            position_operator(np.ones((8, 8)))


def wrong_wrap_phase(monkeypatch):
    """Replace the stencil by one that wraps with exp(-i theta) instead of exp(i theta)."""
    stencil = circle_theta._apply_fd
    monkeypatch.setattr(circle_theta, "_apply_fd", lambda theta, vectors: stencil(-theta, vectors))


class TestMatrixFree:
    """Certified plane-wave eigenvalues against the dense eigh path they replace."""

    THETAS = [0.0, 0.5, math.pi / 2, math.pi, 3.0, 6.2]

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("method", ["spectral", "fd"])
    def test_rows_match_the_dense_eigenvector_overlap(self, theta, method):
        # the full window: for the stencil it holds band-edge aliases of low modes
        for n in (16, 32, 64, 128, 256, 512):
            k_max = (n // 2 - 1) // 2
            rows = spectrum_rows(theta, n, k_max, method)
            dense = oracles.dense_spectrum_rows(ThetaSector(theta).theta, n, k_max, method)
            assert [r["k"] for r in rows] == [r["k"] for r in dense]
            for row, ref in zip(rows, dense):
                assert row["reference"] == ref["reference"]
                scale = max(1.0, abs(ref["eigenvalue"]))
                assert abs(row["eigenvalue"] - ref["eigenvalue"]) <= 1e-12 * scale
                assert row["residual"] <= circle_theta.SPECTRAL_ERROR_TOL

    @pytest.mark.parametrize("theta", THETAS)
    def test_gauge_matches_the_dense_report(self, theta):
        for n in (16, 128, 512):
            report = gauge_equivalence_check(theta, n)
            dense = oracles.dense_gauge_report(ThetaSector(theta).theta, n)
            assert report.measured_constant == pytest.approx(dense["measured_constant"], abs=1e-12)
            for key in ("residual", "eigenvalue_agreement"):
                assert getattr(report, key) < circle_theta.GAUGE_RESIDUAL_TOL
                assert dense[key] < circle_theta.GAUGE_RESIDUAL_TOL

    @pytest.mark.parametrize("method", ["spectral", "fd"])
    @pytest.mark.parametrize("n", [8, 17, 64])
    def test_application_is_the_dense_operator(self, method, n):
        # row j of the application to the identity is column j of the operator
        for theta in (0.0, 1.3, math.pi):
            applied = circle_theta._apply(theta, np.eye(n, dtype=complex), method)
            dense = twisted_momentum(theta, n, method)
            assert linalg.max_abs(applied - dense.T) < 1e-12 * n

    def test_wrong_wrap_phase_fails_the_residual_check(self, monkeypatch):
        wrong_wrap_phase(monkeypatch)
        with pytest.raises(ConsistencyError, match="residual"):
            spectrum_rows(1.0, 64, 4, method="fd")
        with pytest.raises(ConsistencyError, match="residual"):
            fd_convergence(1.0)

    def test_gauge_pass_stays_within_its_byte_estimate(self):
        n = 2048
        estimate = 16 * n * (circle_theta.PASS_VECTORS + circle_theta.PASS_CHUNKS * 32)
        assert circle_theta._chunk_rows(n) == 32
        tracemalloc.start()
        try:
            gauge_equivalence_check(1.0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= estimate < 16 * n * n // 4  # no n x n array

    def test_refused_grid_allocates_nothing(self, monkeypatch):
        def allocated(*args):
            raise AssertionError("a plane wave was built")

        monkeypatch.setattr(circle_theta, "_plane_waves", allocated)
        for n in (8192, 100000, 10**9):
            with pytest.raises(ResourceLimitError, match=f"gauge check on a {n}-point grid"):
                gauge_equivalence_check(1.0, n)
        with pytest.raises(ResourceLimitError, match="plane-wave eigenvalues"):
            spectrum_rows(1.0, 10**9, 4)

    def test_dense_builders_refuse_before_allocating(self):
        n = 100000  # one n x n complex array is 149 GiB
        builders = [
            lambda: twisted_momentum(0.0, n),
            lambda: twisted_momentum(0.0, n, "fd"),
            lambda: momentum_spectrum(0.0, n, 4),
            lambda: translation_unitary(0.5, 0.0, n),
            lambda: translation_unitary(0.1, 0.0, n, interpolation="spectral"),
            lambda: position_operator(np.ones(n)),
        ]
        tracemalloc.start()
        try:
            for build in builders:
                with pytest.raises(ResourceLimitError, match=f"dense operator on {n} points"):
                    build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("method", ["spectral", "fd"])
    def test_dense_builds_stay_within_their_estimate(self, method):
        n = 256
        estimate = 16 * circle_theta.DENSE_ARRAYS * n * n
        for build in (
            lambda: twisted_momentum(1.3, n, method),
            lambda: momentum_spectrum(1.3, n, 4, method),
            lambda: translation_unitary(0.1, 1.3, n, interpolation="spectral"),
        ):
            tracemalloc.start()
            try:
                build()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= estimate

import math
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from sectorkit import circle_theta, linalg
from sectorkit.cli import _round_floats
from sectorkit.circle_theta import (
    ThetaSector,
    fd_convergence,
    gauge_equivalence_check,
    reference_eigenvalues,
    spectrum_rows,
)
from sectorkit.errors import ConsistencyError, DomainError, ResourceLimitError

TWO_PI = 2 * math.pi


def eigenvalues(rows):
    return np.array([row["eigenvalue"] for row in rows])


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
            spectrum_rows(value, 16, 2)
        with pytest.raises(DomainError, match="finite"):
            gauge_equivalence_check(value, 16)

    def test_report_dicts(self):
        gauge = _round_floats(gauge_equivalence_check(1.0, 16))
        assert list(gauge) == [
            "theta", "n", "method", "residual", "measured_constant", "theta_over_2pi",
            "eigenvalue_agreement",
        ]
        conv = _round_floats(fd_convergence(1.0, k_max=2, grid_sizes=(32, 64)))
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
        assert spectrum_rows(TWO_PI, 64, 4) == spectrum_rows(0.0, 64, 4)
        assert gauge_equivalence_check(TWO_PI, 64) == gauge_equivalence_check(0.0, 64)
        # floating point addition of 2*pi costs one rounding step elsewhere
        for theta in (1.0, 3.0):
            a = eigenvalues(spectrum_rows(theta + TWO_PI, 64, 4))
            b = eigenvalues(spectrum_rows(theta, 64, 4))
            assert linalg.max_abs(a - b) < 1e-12
            shifted = gauge_equivalence_check(theta + TWO_PI, 64)
            assert shifted.measured_constant == pytest.approx(theta, abs=1e-12)


class TestSpectra:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 3.0])
    def test_spectral_reproduces_continuum(self, theta):
        rows = spectrum_rows(theta, 128, 16, method="spectral")
        assert max(r["error"] for r in rows) < 1e-9

    def test_untwisted_multiples_of_2pi(self):
        values = eigenvalues(spectrum_rows(0.0, 128, 4))
        assert np.allclose(values, TWO_PI * np.arange(-4, 5), atol=1e-10)

    def test_half_twist_offsets(self):
        # analytic eigenfunctions give pi + 2*pi*k = 2*pi*(k + 1/2)
        rows = spectrum_rows(math.pi, 128, 4)
        for row in rows:
            assert row["eigenvalue"] == pytest.approx(
                TWO_PI * (row["k"] + 0.5), abs=1e-10
            )

    def test_spectrum_is_zero_centered_window(self):
        rows = spectrum_rows(0.5, 128, 3)
        assert [row["k"] for row in rows] == list(range(-3, 4))
        assert np.all(np.diff(eigenvalues(rows)) > 0)

    def test_set_shift_by_theta(self):
        theta = 1.0
        base = eigenvalues(spectrum_rows(0.0, 128, 6))
        shifted = eigenvalues(spectrum_rows(theta, 128, 8))
        for value in base:
            assert np.min(np.abs(shifted - (value + theta))) < 1e-9

    def test_reference_list(self):
        refs = reference_eigenvalues(0.5, 2)
        assert [k for k, _ in refs] == [-2, -1, 0, 1, 2]
        assert refs[2][1] == pytest.approx(0.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="grid size"):
            spectrum_rows(0.0, 4, 1)
        with pytest.raises(DomainError, match="too large"):
            spectrum_rows(0.0, 16, 8)  # window exceeds n // 2
        with pytest.raises(DomainError, match="k_max must be >= 0"):
            spectrum_rows(0.0, 16, -1)
        with pytest.raises(DomainError, match="unknown discretization"):
            spectrum_rows(0.0, 64, 4, method="upwind")
        # the stencil is certified by fd_convergence, not by a gauge check
        for method in ("fd", "upwind"):
            with pytest.raises(DomainError, match="unknown discretization"):
                gauge_equivalence_check(0.0, 64, method=method)

    @pytest.mark.parametrize("method", ["spectral", "fd"])
    @pytest.mark.parametrize("n", [8, 16, 33, 64])
    def test_widest_window_fits_the_grid(self, method, n):
        # 2 k_max + 1 modes must fit in n // 2
        k_max = (n // 2 - 1) // 2
        rows = spectrum_rows(1.0, n, k_max, method)
        assert [row["k"] for row in rows] == list(range(-k_max, k_max + 1))
        with pytest.raises(DomainError, match="too large"):
            spectrum_rows(1.0, n, k_max + 1, method)

    def test_hermitian_operators(self):
        # the application to the identity is the transposed operator
        for method in ("spectral", "fd"):
            mat = circle_theta._apply(1.3, np.eye(32, dtype=complex), method)
            assert linalg.max_abs(mat - linalg.dagger(mat)) < 1e-12


class TestFiniteDifferences:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 3.0])
    def test_convergence_order(self, theta):
        report = fd_convergence(theta, k_max=4, grid_sizes=(64, 128, 256))
        assert report.fitted_order >= 1.9
        assert all(order >= 1.9 for order in report.pairwise_orders)

    @pytest.mark.parametrize(
        "grid_sizes,thetas",
        [
            ((64, 128, 256), np.linspace(0.0, TWO_PI, 68, endpoint=False)),
            ((32, 64), [0.0, 1.0, math.pi]),
            ((40, 96, 200, 512), [0.0, 1.0, math.pi]),
        ],
        ids=["circle-grids", "two-grids", "uneven-grids"],
    )
    def test_closed_form_slope_matches_polyfit(self, grid_sizes, thetas):
        # the report prints fitted_order to 10 significant digits
        for theta in thetas:
            report = fd_convergence(theta, k_max=4, grid_sizes=grid_sizes)
            expected = oracles.polyfit_order(report.grid_sizes, report.errors)
            assert report.fitted_order == pytest.approx(expected, rel=1e-13, abs=0.0)
            assert f"{report.fitted_order:.10g}" == f"{expected:.10g}", theta

    def test_fit_calls_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg.lstsq called")

        # numpy.linalg and every module that holds lstsq by name, np.polyfit's included
        lstsq = np.linalg.lstsq
        for module in list(sys.modules.values()):
            if getattr(module, "lstsq", None) is lstsq:
                monkeypatch.setattr(module, "lstsq", refuse)
        report = fd_convergence(1.0)
        with pytest.raises(AssertionError, match="lstsq called"):  # the patch reaches polyfit
            oracles.polyfit_order(report.grid_sizes, report.errors)
        assert report.fitted_order >= circle_theta.MIN_FD_ORDER

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


def grid_step(theta, vectors):
    """psi(x) -> psi(x + 1/n) on each row, wrapping as psi(1) = exp(i theta) psi(0)."""
    ahead = np.roll(vectors, -1, axis=-1)
    ahead[..., -1] *= np.exp(1j * theta)
    return ahead


class TestPlaneWaves:
    """The twisted plane waves and the translations, gauge and position
    multipliers that act on them, checked without forming an n x n operator."""

    THETAS = [0.0, 0.7, 1.4, math.pi, 3.0, 6.2]

    @pytest.mark.parametrize("theta", THETAS)
    def test_one_grid_step_is_the_twisted_phase(self, theta):
        # every mode, band edge included, picks up exp(i (theta + 2 pi k) / n)
        n = 64
        modes = circle_theta._mode_numbers(n)
        waves = circle_theta._plane_waves(theta, modes, n)
        phases = np.exp(1j * (theta + TWO_PI * modes) / n)
        assert linalg.max_abs(grid_step(theta, waves) - phases[:, None] * waves) < 1e-12
        # n steps make one full turn: the phase exp(i theta), linear in theta
        assert linalg.max_abs(phases**n - np.exp(1j * theta)) < 1e-12

    @pytest.mark.parametrize("theta", [0.0, 1.3, math.pi])
    @pytest.mark.parametrize("method", ["spectral", "fd"])
    def test_operators_commute_with_the_grid_step(self, method, theta):
        rng = np.random.default_rng(3)
        n = 33
        vectors = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
        moved_then_applied = circle_theta._apply(theta, grid_step(theta, vectors), method)
        applied_then_moved = grid_step(theta, circle_theta._apply(theta, vectors, method))
        assert linalg.max_abs(moved_then_applied - applied_then_moved) < 1e-11 * n

    @pytest.mark.parametrize("n", [8, 17, 64])
    def test_orthonormal_basis(self, n):
        waves = circle_theta._plane_waves(1.3, circle_theta._mode_numbers(n), n)
        assert linalg.max_abs(waves @ linalg.dagger(waves) - np.eye(n)) < 1e-13

    @pytest.mark.parametrize("theta", [0.5, math.pi, 6.2])
    def test_multipliers_move_between_waves(self, theta):
        n = 64
        x = circle_theta.grid(n)
        modes = circle_theta._mode_numbers(n)
        waves = circle_theta._plane_waves(theta, modes, n)
        # the gauge multiplier exp(-i theta x) untwists each wave
        untwisted = np.exp(-1j * theta * x) * waves
        assert linalg.max_abs(untwisted - circle_theta._plane_waves(0.0, modes, n)) < 1e-13
        # the position multiplier exp(2 pi i x) raises the mode by one
        raised = np.exp(2j * math.pi * x) * waves
        assert linalg.max_abs(raised - circle_theta._plane_waves(theta, modes + 1, n)) < 1e-13


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
            dense = oracles.twisted_momentum(theta, n, method)
            assert linalg.max_abs(applied - dense.T) < 1e-12 * n

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("n", [8, 17, 128, 2048])
    def test_in_place_passes_match_the_out_of_place_expressions_bitwise(self, theta, n):
        # numpy's complex multiply is not bitwise commutative: t * a and a * t
        # can differ in the last bit of the imaginary part. The in-place passes
        # keep the left operand of every product, and array_equal, not a
        # tolerance, holds them to it.
        # At 2048 points the spectrum and the gauge pass span several chunks.
        theta = ThetaSector(theta).theta
        modes = circle_theta._mode_numbers(n)[:: max(1, n // 64)]
        waves = circle_theta._plane_waves(theta, modes, n)
        assert np.array_equal(waves, oracles.out_of_place_plane_waves(theta, modes, n))
        k_max = min((n // 2 - 1) // 2, 40)
        for method in ("spectral", "fd"):
            applied = circle_theta._apply(theta, waves, method)
            assert np.array_equal(applied, oracles.out_of_place_apply(theta, waves, method))
            certified = circle_theta._certified_eigenvalues(
                theta, waves, method, np.empty_like(waves)
            )
            expected = oracles.out_of_place_certified_eigenvalues(theta, waves, method)
            assert all(np.array_equal(a, b) for a, b in zip(certified, expected))
            window = np.arange(-k_max, k_max + 1)
            _, values, residuals = oracles.out_of_place_certified_eigenvalues(
                theta, oracles.out_of_place_plane_waves(theta, window, n), method
            )
            rows = spectrum_rows(theta, n, k_max, method)
            assert [row["eigenvalue"] for row in rows] == values.tolist()
            assert [row["residual"] for row in rows] == residuals.tolist()
        report = gauge_equivalence_check(theta, n)
        expected = oracles.out_of_place_gauge_report(theta, n)
        assert {key: getattr(report, key) for key in expected} == expected

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

    @pytest.mark.parametrize("method", ["spectral", "fd"])
    def test_spectrum_pass_stays_within_its_byte_estimate(self, method):
        n = 2048
        estimate = 16 * n * (circle_theta.PASS_VECTORS + circle_theta.PASS_CHUNKS * 32)
        tracemalloc.start()
        try:
            spectrum_rows(1.0, n, (n // 2 - 1) // 2, method)  # 1023 modes, 32 per chunk
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

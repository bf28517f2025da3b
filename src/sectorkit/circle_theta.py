"""Theta-sectors of a particle on the unit circle, discretized.

The circle has circumference 1 and the sector angle theta in [0, 2*pi)
enters through the twisted boundary condition psi(1) = exp(i theta)
psi(0). Two discretizations of the momentum operator -i d/dx are
provided: an exact spectral one built on the twisted plane-wave basis
(eigenvalues theta + 2*pi*k to machine precision) and a second-order
central difference (eigenvalues n*sin((theta + 2*pi*k)/n), converging at
order 2). A gauge conjugation psi -> exp(-i theta x) psi moves the
twist from the boundary condition into an additive constant of the
operator; the constant is measured, not assumed, because normalization
conventions for it differ (theta here, theta/2*pi in some unit
conventions).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import DomainError

TWO_PI = 2.0 * math.pi
MIN_GRID = 8
# A circle report passes when the spectral eigenvalues are within
# SPECTRAL_ERROR_TOL of theta + 2 pi k, the gauge residual is below
# GAUGE_RESIDUAL_TOL and the difference stencil's fitted order of
# convergence (2 in theory) is at least MIN_FD_ORDER.
SPECTRAL_ERROR_TOL = 1e-9
GAUGE_RESIDUAL_TOL = 1e-8
MIN_FD_ORDER = 1.9
# translation_unitary takes a shift a as a grid move when a * n is this
# close to an integer.
GRID_SHIFT_TOL = 1e-9


@dataclass(frozen=True)
class ThetaSector:
    """Sector angle, reduced modulo 2*pi into [0, 2*pi); must be finite."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(float(self.theta)):
            raise DomainError(f"theta must be finite, got {self.theta}")
        theta = math.fmod(float(self.theta), TWO_PI)
        if theta < 0.0:
            theta += TWO_PI
        object.__setattr__(self, "theta", theta)


def _as_angle(theta) -> float:
    if isinstance(theta, ThetaSector):
        return theta.theta
    return ThetaSector(float(theta)).theta


def _check_grid(n: int) -> None:
    if n < MIN_GRID:
        raise DomainError(f"grid size must be >= {MIN_GRID}, got {n}")


def grid(n: int) -> np.ndarray:
    """Sample points j/n on [0, 1)."""
    _check_grid(n)
    return np.arange(n) / n


def _mode_numbers(n: int) -> np.ndarray:
    """Integer Fourier mode numbers in the symmetric window."""
    return ((np.arange(n) + n // 2) % n) - n // 2


def twisted_momentum(theta, n: int, method: str = "spectral") -> np.ndarray:
    """Discretized -i d/dx with boundary psi(1) = exp(i theta) psi(0).

    "spectral": plane-wave diagonalization, exact eigenvalues
    theta + 2*pi*k. "fd": second-order central differences with the
    twisted wrap-around.
    """
    theta = _as_angle(theta)
    _check_grid(n)
    if method == "spectral":
        x = grid(n)
        mu = theta + TWO_PI * _mode_numbers(n)
        modes = np.exp(1j * np.outer(x, mu)) / math.sqrt(n)
        mat = (modes * mu) @ linalg.dagger(modes)
        return (mat + linalg.dagger(mat)) / 2
    if method == "fd":
        coeff = -1j * n / 2.0
        mat = np.zeros((n, n), dtype=complex)
        idx = np.arange(n - 1)
        mat[idx, idx + 1] = coeff
        mat[idx + 1, idx] = -coeff
        mat[n - 1, 0] = coeff * np.exp(1j * theta)
        mat[0, n - 1] = -coeff * np.exp(-1j * theta)
        return mat
    raise DomainError(f"unknown discretization {method!r}")


def reference_eigenvalues(theta, k_max: int) -> list[tuple[int, float]]:
    """(k, theta + 2*pi*k) for k in [-k_max, k_max], ascending."""
    theta = _as_angle(theta)
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    return [(k, theta + TWO_PI * k) for k in range(-k_max, k_max + 1)]


def momentum_spectrum(theta, n: int, k_max: int, method: str = "spectral") -> np.ndarray:
    """The 2*k_max+1 eigenvalues nearest zero, sorted ascending.

    With the spectral discretization these are exactly the continuum
    values theta + 2*pi*k nearest zero. The difference stencil folds
    its dispersion back at the band edge, so its high modes alias into
    this window; use :func:`spectrum_rows` to pair references with
    eigenvalues when assessing the stencil.
    """
    _check_grid(n)
    if 2 * k_max + 1 > n // 2:
        raise DomainError(f"k_max={k_max} too large for grid size {n}")
    eigs = np.linalg.eigvalsh(twisted_momentum(theta, n, method))
    order = np.argsort(np.abs(eigs), kind="stable")
    return np.sort(eigs[order[: 2 * k_max + 1]])


def spectrum_rows(theta, n: int, k_max: int, method: str = "spectral") -> list[dict]:
    """Continuum references paired with their computed eigenvalues.

    One row per mode number k in [-k_max, k_max]: the reference
    theta + 2*pi*k, the eigenvalue of the discretized operator whose
    eigenvector overlaps the mode's twisted plane wave most strongly,
    and their distance. Matching by eigenvector keeps band-edge aliases
    of the difference stencil from being mistaken for low modes.
    """
    angle = _as_angle(theta)
    _check_grid(n)
    if 2 * k_max + 1 > n // 2:
        raise DomainError(f"k_max={k_max} too large for grid size {n}")
    eigvals, eigvecs = np.linalg.eigh(twisted_momentum(angle, n, method))
    x = grid(n)
    rows = []
    for k, ref in reference_eigenvalues(angle, k_max):
        wave = np.exp(1j * ref * x) / math.sqrt(n)
        overlaps = np.abs(wave.conj() @ eigvecs)
        value = float(eigvals[int(np.argmax(overlaps))])
        rows.append(
            {
                "k": k,
                "eigenvalue": value,
                "reference": float(ref),
                "error": float(abs(value - ref)),
            }
        )
    return rows


@dataclass(frozen=True)
class GaugeReport:
    """Result of conjugating the twist out of the momentum operator."""

    theta: float
    n: int
    method: str
    residual: float
    measured_constant: float
    theta_over_2pi: float
    eigenvalue_agreement: float

    def to_dict(self) -> dict:
        return asdict(self)


def gauge_equivalence_check(theta, n: int, method: str = "spectral", k_max: int = 8) -> GaugeReport:
    """Conjugate the twisted operator by exp(-i theta x) and compare.

    The conjugated operator must equal the periodic operator plus a
    constant. With the spectral discretization the identity is exact and
    the residual is the max-abs deviation from (periodic + c); with
    finite differences only the low part of the spectrum obeys it, so
    the residual compares the 2*k_max+1 central eigenvalues. The
    measured constant c (theta, in circumference-1 units) is reported
    next to theta/2*pi, the value quoted under other normalizations.
    """
    theta = _as_angle(theta)
    _check_grid(n)
    twisted = twisted_momentum(theta, n, method)
    periodic = twisted_momentum(0.0, n, method)
    gauge = np.diag(np.exp(-1j * theta * grid(n)))
    conjugated = gauge @ twisted @ linalg.dagger(gauge)
    if method == "spectral":
        diff = conjugated - periodic
        constant = float(np.mean(np.diag(diff)).real)
        residual = linalg.max_abs(diff - constant * np.eye(n))
        eig_twist = np.sort(np.linalg.eigvalsh(conjugated))
        eig_per = np.sort(np.linalg.eigvalsh(periodic)) + constant
        agreement = float(np.max(np.abs(eig_twist - eig_per)))
        return GaugeReport(theta, n, method, residual, constant, theta / TWO_PI, agreement)
    if method == "fd":
        eig_twist = np.array(
            [r["eigenvalue"] for r in spectrum_rows(theta, n, k_max, method)]
        )
        eig_per = np.array([r["eigenvalue"] for r in spectrum_rows(0.0, n, k_max, method)])
        diffs = eig_twist - eig_per
        constant = float(np.mean(diffs))
        residual = float(np.max(np.abs(diffs - theta)))
        agreement = float(np.max(np.abs(diffs - constant)))
        return GaugeReport(theta, n, method, residual, constant, theta / TWO_PI, agreement)
    raise DomainError(f"unknown discretization {method!r}")


def translation_unitary(a: float, theta, n: int, interpolation: str | None = None) -> np.ndarray:
    """Translation by a on the periodic (gauge-fixed) realization.

    For grid-compatible shifts (a*n integral) this is the cyclic shift
    times the phase exp(i a theta); the phase slope in theta is the
    measured translation constant (a, in circumference-1 units). Other
    shifts need interpolation="spectral", which exponentiates the
    spectral momentum operator and agrees with the shift formula on grid
    moves.
    """
    theta = _as_angle(theta)
    _check_grid(n)
    if not 0.0 <= a < 1.0:
        raise DomainError("shift must lie in [0, 1)")
    steps = a * n
    if abs(steps - round(steps)) < GRID_SHIFT_TOL:
        s = int(round(steps)) % n
        shift = np.zeros((n, n), dtype=complex)
        cols = (np.arange(n) + s) % n
        shift[np.arange(n), cols] = 1.0
        return np.exp(1j * a * theta) * shift
    if interpolation == "spectral":
        mu = theta + TWO_PI * _mode_numbers(n)
        modes = np.exp(1j * np.outer(grid(n), TWO_PI * _mode_numbers(n))) / math.sqrt(n)
        return (modes * np.exp(1j * a * mu)) @ linalg.dagger(modes)
    raise DomainError(
        f"shift a={a} is not grid compatible for n={n}; pass interpolation='spectral'"
    )


def position_operator(samples) -> np.ndarray:
    """Multiplication operator of a sampled function on the grid.

    The same diagonal matrix in every sector: the angle never enters
    position observables.
    """
    values = np.asarray(samples, dtype=complex)
    if values.ndim != 1:
        raise DomainError("samples must be one-dimensional")
    _check_grid(values.size)
    return np.diag(values)


@dataclass(frozen=True)
class ConvergenceReport:
    """Empirical convergence of the finite-difference spectrum."""

    theta: float
    k_max: int
    grid_sizes: tuple[int, ...]
    errors: tuple[float, ...]
    pairwise_orders: tuple[float, ...]
    fitted_order: float

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def fd_convergence(
    theta, k_max: int = 4, grid_sizes: tuple[int, ...] = (64, 128, 256)
) -> ConvergenceReport:
    """Worst spectral error of the difference stencil over growing grids."""
    theta = _as_angle(theta)
    errors = []
    for n in grid_sizes:
        rows = spectrum_rows(theta, n, k_max, method="fd")
        errors.append(max(r["error"] for r in rows))
    orders = tuple(
        math.log(errors[i] / errors[i + 1]) / math.log(grid_sizes[i + 1] / grid_sizes[i])
        for i in range(len(errors) - 1)
    )
    fit = -np.polyfit(np.log(np.array(grid_sizes, float)), np.log(np.array(errors)), 1)[0]
    return ConvergenceReport(
        theta=theta,
        k_max=k_max,
        grid_sizes=tuple(grid_sizes),
        errors=tuple(errors),
        pairwise_orders=orders,
        fitted_order=float(fit),
    )

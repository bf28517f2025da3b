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

The certificates neither form nor diagonalize an n x n operator. The
twisted plane wave exp(i (theta + 2 pi k) x)/sqrt(n) is an exact
eigenvector of both discretizations. Each operator is applied to it
matrix-free (_apply: the stencil as a difference of shifted slices with the
exp(+-i theta) wrap, the spectral operator by FFT), and its Rayleigh
quotient is certified by the residual, which bounds the distance to the
spectrum of a Hermitian operator (Parlett, The Symmetric Eigenvalue
Problem). The gauge identity is checked on the whole plane-wave basis,
in chunks of bounded size, after a byte and a work estimate.
"""

from __future__ import annotations

import math

# sectorkit modules before numpy (README Conventions)
from .errors import ConsistencyError, DomainError, Value, check_bytes, check_work
from . import tolerances

import numpy as np

TWO_PI = 2.0 * math.pi
MIN_GRID = 8
# A circle report passes when the spectral eigenvalues are within
# SPECTRAL_ERROR_TOL of theta + 2 pi k, the gauge residual is below
# GAUGE_RESIDUAL_TOL and the difference stencil's fitted order of
# convergence (2 in theory) is at least MIN_FD_ORDER. Every plane-wave
# eigenvalue is certified by a residual ||H v - lambda v|| within
# SPECTRAL_ERROR_TOL, else ConsistencyError.
SPECTRAL_ERROR_TOL = 1e-9
GAUGE_RESIDUAL_TOL = 1e-8
MIN_FD_ORDER = 1.9
COMPLEX_BYTES = 16
# A matrix-free pass holds at most PASS_VECTORS length-n vectors (grid,
# phases, mode numbers, roots of unity, multipliers, the two spectra and the
# gauge diagonal) and PASS_CHUNKS arrays of one chunk of plane waves. The
# operators work in place, so the gauge pass, the largest, holds four: the
# waves, their two images and one work array for the Rayleigh products and
# residuals, with the gather indices or |columns| (half a chunk each) in
# passing. The other chunks bound what resident memory adds on top of the
# arrays: FFT buffers, the allocator's kept blocks and code pages (a Tier-1
# test checks peak RSS against the estimate).
PASS_VECTORS = 12
PASS_CHUNKS = 10


class ThetaSector(Value):
    """Sector angle, reduced modulo 2*pi into [0, 2*pi); must be finite."""

    _fields = ("theta",)

    def _validate(self):
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


def _chunk_rows(n: int) -> int:
    """Plane waves per chunk: tolerances.CHUNK_BYTES worth, one at least."""
    return max(1, tolerances.CHUNK_BYTES // (COMPLEX_BYTES * n))


def _check_cost(n: int, transforms: int, what: str) -> None:
    """Refuse a matrix-free pass of `transforms` length-n FFTs before allocating.

    Bytes: PASS_VECTORS vectors and PASS_CHUNKS chunks of length n.
    Work: n log2 n per transform (the stencil costs less).
    """
    check_bytes(COMPLEX_BYTES * n * (PASS_VECTORS + PASS_CHUNKS * _chunk_rows(n)), what)
    check_work(transforms * n * math.log2(n), what)


def check_gauge_cost(n: int) -> None:
    """Refuse the spectral gauge check on n points beyond the byte or work budget.

    Its pass applies two operators (an FFT and an inverse each) to all n
    plane waves and transforms their difference: 5 n transforms.
    """
    _check_grid(n)
    _check_cost(n, 5 * n, f"the gauge check on a {n}-point grid")


def _plane_waves(theta: float, modes: np.ndarray, n: int) -> np.ndarray:
    """Rows exp(i (theta + 2 pi m) x)/sqrt(n) on the grid, one per mode number m.

    The phase is exp(i theta x) times an n-th root of unity indexed by
    m j mod n, exact to rounding for every m; exp(i mu x) itself would
    lose about |mu| ulp in its argument.
    """
    j = np.arange(n)
    roots = np.exp(2j * math.pi * j / n) / math.sqrt(n)
    index = np.multiply.outer(modes, j)
    waves = roots[np.remainder(index, n, out=index)]
    return np.multiply(np.exp(1j * theta * grid(n)), waves, out=waves)


def _apply_spectral(theta: float, vectors: np.ndarray) -> np.ndarray:
    """The spectral operator applied to each row, by FFT, in one new array."""
    n = vectors.shape[-1]
    twist = np.exp(1j * theta * grid(n))
    mu = theta + TWO_PI * _mode_numbers(n)  # in numpy's FFT frequency order
    # each phase stays the left operand: numpy's complex multiply is not
    # bitwise commutative, and the reports are pinned to the last bit
    out = np.multiply(twist.conj(), vectors)
    np.fft.fft(out, out=out)
    np.multiply(mu, out, out=out)
    np.fft.ifft(out, out=out)
    return np.multiply(twist, out, out=out)


def _apply_fd(theta: float, vectors: np.ndarray) -> np.ndarray:
    """The central-difference stencil applied to each row, in O(n) per row and one new array.

    Row j is -i n/2 (psi(x_j + 1/n) - psi(x_j - 1/n)), wrapping as
    psi(1) = e^{i theta} psi(0) at both ends.
    """
    n = vectors.shape[-1]
    out = np.empty_like(vectors, dtype=complex)
    np.subtract(vectors[..., 2:], vectors[..., :-2], out=out[..., 1:-1])
    np.subtract(vectors[..., 1], vectors[..., -1] * np.exp(-1j * theta), out=out[..., 0])
    np.subtract(vectors[..., 0] * np.exp(1j * theta), vectors[..., -2], out=out[..., -1])
    return np.multiply(-0.5j * n, out, out=out)


def _apply(theta: float, vectors: np.ndarray, method: str) -> np.ndarray:
    """The discretized -i d/dx applied to each row of `vectors`, without forming it."""
    if method == "spectral":
        return _apply_spectral(theta, vectors)
    if method == "fd":
        return _apply_fd(theta, vectors)
    raise DomainError(f"unknown discretization {method!r}")


def _certified_eigenvalues(
    theta: float, waves: np.ndarray, method: str, work: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Images H v, Rayleigh quotients v* H v and residuals of the unit rows v of `waves`.

    For Hermitian H some eigenvalue lies within ||H v - (v* H v) v|| of
    v* H v. A residual past SPECTRAL_ERROR_TOL raises ConsistencyError:
    v is then no eigenvector and its quotient certifies nothing. `work`,
    a complex array of the shape of `waves`, holds the Rayleigh products
    and then the residual vectors; the images are the one new array.
    """
    images = _apply(theta, waves, method)
    np.conjugate(waves, out=work)
    # np.sum sums pairwise: a sequential dot product loses ~sqrt(n) |lambda| ulp
    values = np.sum(np.multiply(work, images, out=work), axis=-1).real
    np.subtract(images, np.multiply(values[:, None], waves, out=work), out=work)
    # numpy's norm along a row, sqrt(add.reduce((x.conj() * x).real)), one row
    # at a time so that x.conj() is a row and not a second chunk
    residuals = np.array(
        [math.sqrt(np.add.reduce(np.multiply(r.conj(), r, out=r).real)) for r in work]
    )
    worst = float(residuals.max())
    if not worst <= SPECTRAL_ERROR_TOL:
        raise ConsistencyError(
            f"a plane wave of the {method} operator (theta={theta:.6g}, n={waves.shape[-1]}) "
            f"has residual {worst:.3e}, over SPECTRAL_ERROR_TOL {SPECTRAL_ERROR_TOL:g}"
        )
    return images, values, residuals


def reference_eigenvalues(theta, k_max: int) -> list[tuple[int, float]]:
    """(k, theta + 2*pi*k) for k in [-k_max, k_max], ascending."""
    theta = _as_angle(theta)
    if k_max < 0:
        raise DomainError("k_max must be >= 0")
    return [(k, theta + TWO_PI * k) for k in range(-k_max, k_max + 1)]


def spectrum_rows(theta, n: int, k_max: int, method: str = "spectral") -> list[dict]:
    """Continuum references paired with certified eigenvalues.

    One row per mode number k in [-k_max, k_max]: the reference
    theta + 2*pi*k, the eigenvalue of the discretized operator on the
    mode's twisted plane wave (its Rayleigh quotient; the wave is an exact
    eigenvector of both discretizations), their distance, and the
    residual that certifies the eigenvalue (ConsistencyError past
    SPECTRAL_ERROR_TOL). Following each mode's own plane wave keeps
    band-edge aliases of the difference stencil from being mistaken for
    low modes.
    """
    angle = _as_angle(theta)
    _check_grid(n)
    if 2 * k_max + 1 > n // 2:
        raise DomainError(f"k_max={k_max} too large for grid size {n}")
    refs = reference_eigenvalues(angle, k_max)
    _check_cost(n, 2 * len(refs), f"{len(refs)} plane-wave eigenvalues on a {n}-point grid")
    step = _chunk_rows(n)
    work = np.empty((min(step, len(refs)), n), dtype=complex)
    rows = []
    for start in range(0, len(refs), step):
        chunk = refs[start : start + step]
        waves = _plane_waves(angle, np.array([k for k, _ in chunk]), n)
        values, residuals = _certified_eigenvalues(angle, waves, method, work[: len(chunk)])[1:]
        del waves  # free this chunk before the next is built
        rows += [
            {
                "k": k,
                "eigenvalue": float(value),
                "reference": float(ref),
                "error": float(abs(value - ref)),
                "residual": float(residual),
            }
            for (k, ref), value, residual in zip(chunk, values, residuals)
        ]
    return rows


class GaugeReport(Value):
    """Result of conjugating the twist out of the momentum operator."""

    _fields = (
        "theta",
        "n",
        "method",
        "residual",
        "measured_constant",
        "theta_over_2pi",
        "eigenvalue_agreement",
    )

    def to_dict(self) -> dict:
        return self._asdict()


def _spectral_gauge(theta: float, n: int) -> GaugeReport:
    """The spectral gauge identity G T_theta G* = T_0 + c on the whole plane-wave basis.

    G = diag(exp(-i theta x)). For each periodic plane wave w_m (an
    eigenvector of T_0) and v_m = G* w_m (one of T_theta), both operators
    are applied and both eigenvalues certified; W* (G T_theta v_m - T_0 w_m)
    is column m of the difference in the plane-wave basis, by one more
    FFT. Chunks of _chunk_rows(n) waves keep every array at n x chunk, and
    each chunk is worked in place in four such arrays (PASS_CHUNKS).
    """
    modes = _mode_numbers(n)
    twist = np.exp(1j * theta * grid(n))
    untwist = twist.conj()
    twisted_values = np.empty(n)
    periodic_values = np.empty(n)
    diagonal = np.empty(n, dtype=complex)
    off_diagonal = 0.0
    step = _chunk_rows(n)
    work = np.empty((min(step, n), n), dtype=complex)
    for start in range(0, n, step):
        block = modes[start : start + step]
        stop = start + len(block)
        scratch = work[: len(block)]
        waves = _plane_waves(0.0, block, n)
        periodic, periodic_values[start:stop], _ = _certified_eigenvalues(
            0.0, waves, "spectral", scratch
        )
        np.multiply(twist, waves, out=waves)  # v_m = G* w_m
        columns, twisted_values[start:stop], _ = _certified_eigenvalues(
            theta, waves, "spectral", scratch
        )
        # W* (G T_theta v_m - T_0 w_m), W* being the FFT over sqrt(n), in place of T_theta v_m
        np.multiply(untwist, columns, out=columns)
        np.subtract(columns, periodic, out=columns)
        np.fft.fft(columns, out=columns)
        np.divide(columns, math.sqrt(n), out=columns)
        rows, own = np.arange(len(block)), block % n  # FFT index of mode m
        diagonal[start:stop] = columns[rows, own]
        columns[rows, own] = 0.0
        off_diagonal = max(off_diagonal, tolerances.max_abs(columns))
        del waves, periodic, columns  # free this chunk before the next is built
    constant = float(np.mean(diagonal).real)
    residual = max(off_diagonal, tolerances.max_abs(diagonal - constant))
    agreement = tolerances.max_abs(twisted_values - periodic_values - constant)
    return GaugeReport(theta, n, "spectral", residual, constant, theta / TWO_PI, agreement)


def gauge_equivalence_check(theta, n: int, method: str = "spectral") -> GaugeReport:
    """Conjugate the twisted spectral operator by exp(-i theta x) and compare.

    The conjugated operator must equal the periodic operator plus a
    constant, exactly: the residual is the max-abs deviation from
    (periodic + c) of its matrix in the plane-wave basis, over the whole
    space, and the eigenvalue agreement compares the two certified
    plane-wave spectra (_spectral_gauge). The measured constant c (theta,
    in circumference-1 units) is reported next to theta/2*pi, the value
    quoted under other normalizations. Only the spectral discretization
    is checked; fd_convergence certifies the difference stencil.
    """
    theta = _as_angle(theta)
    _check_grid(n)
    if method != "spectral":
        raise DomainError(f"unknown discretization {method!r}")
    check_gauge_cost(n)
    return _spectral_gauge(theta, n)


class ConvergenceReport(Value):
    """Empirical convergence of the finite-difference spectrum.

    grid_sizes, errors and pairwise_orders are tuples.
    """

    _fields = ("theta", "k_max", "grid_sizes", "errors", "pairwise_orders", "fitted_order")

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in self._asdict().items()}


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
    # least-squares slope of log error against log n in closed form: a
    # LAPACK fit would fault in ~1 MB of its library code for three points
    xs = [math.log(n) for n in grid_sizes]
    ys = [math.log(e) for e in errors]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    fit = -sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) / sum(
        (x - x_mean) ** 2 for x in xs
    )
    return ConvergenceReport(
        theta=theta,
        k_max=k_max,
        grid_sizes=tuple(grid_sizes),
        errors=tuple(errors),
        pairwise_orders=orders,
        fitted_order=float(fit),
    )


def _run_circle(args) -> tuple[int, bytes]:
    """The ``circle`` report: the spectra, the gauge check and the convergence order."""
    from .cli import EXIT_CHECK_FAILED, EXIT_OK, SCHEMA, _render_csv, _render_json, _render_pretty

    theta = ThetaSector(args.theta).theta
    n = args.grid
    k_max = args.k_max
    # the whole-space gauge pass is the costliest step: refuse before computing anything
    check_gauge_cost(n)
    rows = spectrum_rows(theta, n, k_max, method="spectral")
    eigen_residual = max(r.pop("residual") for r in rows)
    gauge = gauge_equivalence_check(theta, n, method="spectral")
    sizes = (64, 128, 256)
    convergence = fd_convergence(theta, k_max=4, grid_sizes=sizes)
    worst = max(r["error"] for r in rows)
    ok = (
        worst < SPECTRAL_ERROR_TOL
        and gauge.residual < GAUGE_RESIDUAL_TOL
        and convergence.fitted_order >= MIN_FD_ORDER
    )
    code = EXIT_OK if ok else EXIT_CHECK_FAILED
    if args.format == "csv":
        csv_rows = [
            [theta, r["k"], r["eigenvalue"], r["reference"], r["error"]] for r in rows
        ]
        return code, _render_csv(["theta", "k", "eigenvalue", "reference", "error"], csv_rows)
    payload = {
        "schema": SCHEMA,
        "command": "circle",
        "config": {"theta": theta, "grid": n, "k_max": k_max, "seed": args.seed},
        "rows": rows,
        "worst_spectral_error": worst,
        "eigen_residual_max": eigen_residual,
        "gauge": gauge.to_dict(),
        "fd_convergence": convergence.to_dict(),
        "passed": ok,
    }
    if args.format == "pretty":
        lines = [
            f"theta = {theta:.6f}, grid {n}",
            f"worst spectral eigenvalue error (|k| <= {k_max}): {worst:.3e}",
            f"largest eigenvalue residual: {eigen_residual:.3e}",
            f"gauge residual: {gauge.residual:.3e} "
            f"(measured constant {gauge.measured_constant:.6f}, "
            f"theta/2pi = {gauge.theta_over_2pi:.6f})",
            f"fd convergence order: {convergence.fitted_order:.3f}",
            f"passed: {ok}",
        ]
        return code, _render_pretty(lines)
    return code, _render_json(payload)

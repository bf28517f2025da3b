"""Batch command-line front end.

Subcommands expose each module with machine-readable output:

* ``tableaux``: partitions, tableau counts, hook dimensions;
* ``sectors``: isotypic decomposition of (C^m)^{xN};
* ``equiv``: the boson-with-internal-index equivalence certificates;
* ``cover``: sector census of a finite cover;
* ``circle``: theta-sector spectra, gauge check, convergence.

Each handler imports the modules it uses, so a run loads only what its
subcommand computes: numpy is loaded inside the numeric handlers only,
and ``tableaux``, ``--help`` and usage errors run without it.

``main(argv)`` is the in-process API. ``entry()`` is the process entry of
both launchers, ``python -m sectorkit`` and the ``sectorkit`` script; it
ends the process once the report is written, without interpreter teardown.

Exit codes: 0 all checks passed, 2 usage error (a malformed command
line or cover document, an unwritable ``--out`` and, from ``entry()``, a
closed or full stdout included), 3 resource cap or out of memory, 4
consistency or equivalence failure. Errors write one JSON line to
stderr. Output is deterministic for a fixed seed (floats are rounded to
10 significant digits before serialization).
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import math
import numbers
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

from .errors import ConsistencyError, DomainError, ResourceLimitError

if TYPE_CHECKING:
    from .permgroup import Partition

SCHEMA = "sector-kit/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_CHECK_FAILED = 4


def _round_floats(obj, sig: int = 10):
    """Round every float to `sig` significant digits, recursively."""
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return None
        return float(f"{obj:.{sig}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, sig) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, sig) for v in obj]
    # numpy scalars register with the numbers ABCs (np.bool_ does not): np.integer
    # becomes int, np.floating a rounded float; Python int and bool pass unchanged
    if isinstance(obj, numbers.Integral) and not isinstance(obj, int):
        return int(obj)
    if isinstance(obj, numbers.Real) and not isinstance(obj, numbers.Integral):
        return _round_floats(float(obj), sig)
    return obj


def _parse_partition(text: str) -> Partition:
    from .permgroup import Partition

    try:
        parts = tuple(int(p) for p in text.replace("(", "").replace(")", "").split(",") if p.strip())
        return Partition(parts)
    except (ValueError, DomainError) as exc:
        raise DomainError(f"cannot parse partition {text!r}: {exc}") from exc


def _render_json(payload: dict) -> bytes:
    return (json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n").encode()


def _render_csv(header: list[str], rows: list[list]) -> bytes:
    import csv

    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_round_floats(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def _render_pretty(lines: list[str]) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def _run_tableaux(args) -> tuple[int, bytes]:
    from .permgroup import enumerate_partitions, hook_dimension, standard_tableaux

    n = args.N
    if not 1 <= n <= 8:
        raise DomainError(f"--N must be in 1..8, got {n}")
    shapes = enumerate_partitions(n)
    if args.lam is not None:
        wanted = _parse_partition(args.lam)
        if wanted.total != n:
            raise DomainError(f"partition {wanted.parts} is not a partition of {n}")
        shapes = [s for s in shapes if s.parts == wanted.parts]
    records = []
    for shape in shapes:
        dim = hook_dimension(shape)
        count = len(standard_tableaux(shape))
        records.append({"parts": list(shape.parts), "hook_dim": dim, "tableau_count": count})
    sum_sq = sum(r["hook_dim"] ** 2 for r in records)
    payload = {
        "schema": SCHEMA,
        "command": "tableaux",
        "config": {"N": n, "lambda": args.lam, "seed": args.seed},
        "partitions": records,
        "sum_of_squares": sum_sq,
        "factorial_N": math.factorial(n),
        "identity_ok": args.lam is not None or sum_sq == math.factorial(n),
    }
    counts_ok = all(r["hook_dim"] == r["tableau_count"] for r in records)
    code = EXIT_OK if payload["identity_ok"] and counts_ok else EXIT_CHECK_FAILED
    if args.format == "csv":
        rows = [[",".join(map(str, r["parts"])), r["hook_dim"], r["tableau_count"]] for r in records]
        return code, _render_csv(["partition", "hook_dim", "tableau_count"], rows)
    if args.format == "pretty":
        lines = [f"partitions of {n}:"]
        lines += [
            f"  {tuple(r['parts'])}: dim {r['hook_dim']}, {r['tableau_count']} standard tableaux"
            for r in records
        ]
        lines.append(f"sum of squared dims: {sum_sq} (N! = {math.factorial(n)})")
        return code, _render_pretty(lines)
    return code, _render_json(payload)


def _run_sectors(args) -> tuple[int, bytes]:
    wanted = _parse_partition(args.lam) if args.lam is not None else None
    # schur_weyl before linalg, which loads numpy (README Conventions)
    from . import schur_weyl
    from . import linalg

    report = schur_weyl.sector_decomposition(args.m, args.N)
    data = report.to_dict()
    if wanted is not None:
        data["sectors"] = [s for s in data["sectors"] if tuple(s["partition"]) == wanted.parts]
        if not data["sectors"]:
            raise DomainError(f"{wanted.parts} is not a partition of {args.N}")
    payload = {
        "schema": SCHEMA,
        "command": "sectors",
        "config": {"m": args.m, "N": args.N, "lambda": args.lam, "seed": args.seed},
        **data,
    }
    worst = max(payload["residuals"].values())
    code = EXIT_OK if worst < linalg.RESIDUAL_TOL else EXIT_CHECK_FAILED
    if args.format == "csv":
        rows = [
            [",".join(map(str, s["partition"])), s["irrep_dim"], s["multiplicity"], s["rank"]]
            for s in data["sectors"]
        ]
        return code, _render_csv(["partition", "irrep_dim", "multiplicity", "rank"], rows)
    if args.format == "pretty":
        lines = [f"sectors of (C^{args.m})^(x{args.N}):"]
        lines += [
            f"  {tuple(s['partition'])}: irrep dim {s['irrep_dim']}, multiplicity "
            f"{s['multiplicity']}, rank {s['rank']}"
            for s in data["sectors"]
        ]
        lines.append(f"commutant dimension: {data['commutant_dim']}")
        return code, _render_pretty(lines)
    return code, _render_json(payload)


def _run_equiv(args) -> tuple[int, bytes]:
    if args.N not in (2, 3):
        raise DomainError(f"--N must be 2 or 3 for equiv, got {args.N}")
    if args.m < 2:
        raise DomainError("--m must be >= 2 for the equivalence certificates")
    if args.format == "csv":
        raise DomainError("csv output is not defined for equiv; use json or pretty")
    from . import parastat_equiv

    if args.N == 2:
        first = parastat_equiv.bosonic_singlet_realization(args.m)
        second = parastat_equiv.fermionic_realization(args.m)
    else:
        first = parastat_equiv.bosonic_doublet_realization(args.m)
        second = parastat_equiv.parafermion_realization(args.m)
    cert = parastat_equiv.general_equivalence(first, second, seed=args.seed)
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


def _run_cover(args) -> tuple[int, bytes]:
    if args.format == "csv":
        raise DomainError("csv output is not defined for cover; use json or pretty")
    if args.cover_json is not None:
        if args.q_size is not None or args.N is not None:
            raise DomainError("cover takes either --cover-json or --q-size and --N, not both")
    elif args.q_size is None or args.N is None:
        raise DomainError("cover needs --q-size and --N (or --cover-json)")
    elif args.q_size < 0:
        raise DomainError(f"--q-size must be >= 0, got {args.q_size}")
    from . import cover_quant

    if args.cover_json is not None:
        cover = cover_quant.cover_from_json(Path(args.cover_json))
        source = {"cover_json": str(args.cover_json)}
    else:
        # refuse from (q, N) alone: enumerating the cover may already exceed the cap
        cover_quant.check_census_cost(args.q_size, args.N)
        cover = cover_quant.symmetric_cover(args.q_size, args.N)
        source = {"q_size": args.q_size, "N": args.N}
    report = cover_quant.sector_census(cover, seed=args.seed)
    payload = {
        "schema": SCHEMA,
        "command": "cover",
        "config": {**source, "seed": args.seed},
        **report.to_dict(),
    }
    code = EXIT_OK if report.passed else EXIT_CHECK_FAILED
    if args.format == "pretty":
        lines = [
            f"cover: {report.total_size} points over {report.base_size} base points, "
            f"deck group of order {report.group_order}",
            f"invariant kernel space: {report.kernel_space_dim}",
        ]
        lines += [
            f"  sector {s.label}: carrier dim {s.carrier_dim}, commutant dim {s.commutant_dim}"
            for s in report.sectors
        ]
        lines.append(f"dimension margin: {report.dimension_margin:.3e}")
        lines.append(f"dimension identity: {report.dimension_identity_ok}")
        lines.append(f"intertwining residual: {report.intertwining_residual_max:.3e}")
        lines.append(f"passed: {report.passed}")
        return code, _render_pretty(lines)
    return code, _render_json(payload)


def _run_circle(args) -> tuple[int, bytes]:
    from . import circle_theta

    theta = circle_theta.ThetaSector(args.theta).theta
    n = args.grid
    k_max = args.k_max
    # the whole-space gauge pass is the costliest step: refuse before computing anything
    circle_theta.check_gauge_cost(n)
    rows = circle_theta.spectrum_rows(theta, n, k_max, method="spectral")
    eigen_residual = max(r.pop("residual") for r in rows)
    gauge = circle_theta.gauge_equivalence_check(theta, n, method="spectral")
    sizes = (64, 128, 256)
    convergence = circle_theta.fd_convergence(theta, k_max=4, grid_sizes=sizes)
    worst = max(r["error"] for r in rows)
    ok = (
        worst < circle_theta.SPECTRAL_ERROR_TOL
        and gauge.residual < circle_theta.GAUGE_RESIDUAL_TOL
        and convergence.fitted_order >= circle_theta.MIN_FD_ORDER
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


class _Parser(argparse.ArgumentParser):
    """Raises DomainError on a malformed command line, so that it exits 2
    with one JSON error line like every other usage error."""

    def error(self, message):
        if "expected one argument" in message:
            option = message.split()[1].rstrip(":")
            message += f" (write a negative value attached to the option, as in {option}=-1e3)"
        raise DomainError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sectorkit",
        description="Sector structure of permutation-invariant algebras, finite covers, "
        "and circle theta-sectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(text: str) -> int:
        """random.Random seeds with |s|, so s and -s would draw the same numbers."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"--seed must be >= 0, got {value}")
        return value

    def common(p):
        p.add_argument("--seed", type=seed, default=0)
        p.add_argument("--format", choices=("json", "csv", "pretty"), default="json")
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("tableaux", help="partitions, tableaux, hook dimensions")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=str, default=None)
    common(p)
    p.set_defaults(func=_run_tableaux)

    p = sub.add_parser("sectors", help="isotypic decomposition of (C^m)^(xN)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=str, default=None)
    common(p)
    p.set_defaults(func=_run_sectors)

    p = sub.add_parser("equiv", help="internal-index equivalence certificates")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(func=_run_equiv)

    p = sub.add_parser("cover", help="sector census of a finite cover")
    p.add_argument("--q-size", dest="q_size", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--cover-json", dest="cover_json", type=str, default=None)
    common(p)
    p.set_defaults(func=_run_cover)

    p = sub.add_parser("circle", help="theta-sector spectra on the circle")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--k-max", dest="k_max", type=int, default=16)
    common(p)
    p.set_defaults(func=_run_circle)

    return parser


def _fail(kind: str, error: str, code: int) -> int:
    """Write one JSON error line to stderr and return the exit code."""
    sys.stderr.write(json.dumps({"schema": SCHEMA, "error": error, "kind": kind}) + "\n")
    return code


def _run(argv: list[str] | None) -> tuple[int, bytes]:
    """Parse `argv`, run its subcommand and write any --out file: the exit
    code and the bytes that belong on stdout (empty after --out or an error)."""
    try:
        args = _build_parser().parse_args(argv)
        code, payload = args.func(args)
    except DomainError as exc:
        return _fail("usage", str(exc), EXIT_USAGE), b""
    except (ResourceLimitError, MemoryError) as exc:
        return _fail("resource", str(exc) or "out of memory", EXIT_RESOURCE), b""
    except ConsistencyError as exc:
        return _fail("consistency", str(exc), EXIT_CHECK_FAILED), b""
    if args.out is None:
        return code, payload
    try:
        Path(args.out).write_bytes(payload)
    except OSError as exc:  # a directory, a missing parent, a full or read-only disk
        return _fail("usage", f"cannot write --out {args.out!r}: {exc}", EXIT_USAGE), b""
    return code, b""


def main(argv: list[str] | None = None) -> int:
    """Run one command line in-process: write the report to stdout unless
    --out names a file, and return the exit code."""
    code, stdout = _run(argv)
    if stdout:
        sys.stdout.buffer.write(stdout)
    return code


def entry() -> NoReturn:
    """Process entry of ``python -m sectorkit`` and the ``sectorkit`` script.

    Writes and flushes the report itself, so that a closed or full stdout
    exits 2 like an unwritable --out. It then flushes stderr and ends the
    process with ``os._exit``: the report is written, so the interpreter's
    teardown (atexit handlers, the collector, module deallocation) serves
    nothing. Code that must run on exit calls ``main`` instead.
    """
    try:
        code, stdout = _run(None)
    except SystemExit as exc:  # --help has printed its text
        code, stdout = exc.code, b""
    try:
        if sys.stdout is not None:
            sys.stdout.buffer.write(stdout)
            sys.stdout.flush()
        elif stdout:  # the process started with fd 1 closed
            raise OSError(errno.EBADF, "stdout is closed")
    except OSError as exc:  # a closed pipe or fd, a full device
        code = _fail("usage", f"cannot write stdout: {exc}", EXIT_USAGE)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    sys.exit(entry())

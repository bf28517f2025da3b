"""Batch command-line front end.

Subcommands expose each module with machine-readable output:

* ``tableaux``: partitions, tableau counts, hook dimensions;
* ``sectors``: isotypic decomposition of (C^m)^{xN};
* ``equiv``: the boson-with-internal-index equivalence certificates;
* ``cover``: sector census of a finite cover;
* ``circle``: theta-sector spectra, gauge check, convergence.

This module keeps the parser, the dispatch, the one renderer and the
exit-code contract. Each handler, ``_run_<subcommand>``, lives beside the
computation it reports (partitions, schur_weyl, highest_weight,
cover_quant or, for ``--cover-json``, cover_document, and circle_theta)
and returns ``(passed, config, body, lines, table)``: whether the report
passes, its config without the seed, the JSON fields past the header,
the pretty lines and the csv ``(header, rows)``, or None where the route
refuses csv. ``_render`` writes the chosen format and maps ``passed`` to
the exit code; no handler module imports this one. A subcommand's route
runs the usage checks that need no numeric module and only then imports
the handler: a run compiles only its own subcommand's code, numpy is
loaded by the numeric modules alone, and ``tableaux``, ``--help`` and
usage errors run without it.

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
from typing import NoReturn

from .errors import ConsistencyError, DomainError, ResourceLimitError, Value

SCHEMA = "sector-kit/1"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_CHECK_FAILED = 4


def _round_floats(obj, sig: int = 10):
    """Round every float to `sig` significant digits, recursively, in fresh
    lists and dicts: tuples become lists and an errors.Value the dict of its
    fields, in declaration order."""
    if isinstance(obj, Value):
        obj = obj._asdict()
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


def _render(args, passed: bool, config: dict, body: dict, lines: list[str], table):
    """A handler's report in args.format, and its exit code: 0 if it passed, else 4.

    The JSON report is the schema, the command and the config with the
    seed, then the body's fields, every float rounded (_round_floats).
    errors.RENDERED_ENTRY_BYTES, which the equiv estimate charges, is what
    this spends per [re, im] entry with the encoder settings below; a
    change to them must re-measure it.
    """
    code = EXIT_OK if passed else EXIT_CHECK_FAILED
    if args.format == "csv":
        import csv

        header, rows = table
        buf = io.StringIO(newline="")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_round_floats(v) if isinstance(v, float) else v for v in row])
        return code, buf.getvalue().encode()
    if args.format == "pretty":
        return code, ("\n".join(lines) + "\n").encode()
    payload = {
        "schema": SCHEMA,
        "command": args.command,
        "config": {**config, "seed": args.seed},
        **body,
    }
    return code, (json.dumps(_round_floats(payload), sort_keys=True, indent=2) + "\n").encode()


# A subcommand's route runs its usage checks that need no numeric module,
# then imports its handler from the module of the computation it reports.


def _parse_lambda(args, prefix: str) -> None:
    """Set args.wanted to the --lambda partition, or None; DomainError if it
    is malformed or not a partition of args.N (prefix opens the message)."""
    args.wanted = None
    if args.lam is not None:
        from .partitions import parse_partition

        args.wanted = parse_partition(args.lam)
        if args.wanted.total != args.N:
            raise DomainError(f"{prefix}{args.wanted.parts} is not a partition of {args.N}")


def _route_tableaux(args):
    if not 1 <= args.N <= 8:
        raise DomainError(f"--N must be in 1..8, got {args.N}")
    _parse_lambda(args, "partition ")
    from .partitions import _run_tableaux

    return _run_tableaux


def _route_sectors(args):
    # a malformed --lambda, or a partition of another N, is a usage error
    # before schur_weyl is compiled
    _parse_lambda(args, "")
    from .schur_weyl import _run_sectors

    return _run_sectors


def _route_equiv(args):
    if args.N not in (2, 3):
        raise DomainError(f"--N must be 2 or 3 for equiv, got {args.N}")
    if args.m < 2:
        raise DomainError("--m must be >= 2 for the equivalence certificates")
    if args.format == "csv":
        raise DomainError("csv output is not defined for equiv; use json or pretty")
    from .highest_weight import _run_equiv

    return _run_equiv


def _route_cover(args):
    if args.format == "csv":
        raise DomainError("csv output is not defined for cover; use json or pretty")
    if args.cover_json is not None:
        if args.q_size is not None or args.N is not None:
            raise DomainError("cover takes either --cover-json or --q-size and --N, not both")
        from .cover_document import _run_cover

        return _run_cover
    if args.q_size is None or args.N is None:
        raise DomainError("cover needs --q-size and --N (or --cover-json)")
    if args.q_size < 0:
        raise DomainError(f"--q-size must be >= 0, got {args.q_size}")
    from .cover_quant import _run_cover

    return _run_cover


def _route_circle(args):
    from .circle_theta import _run_circle

    return _run_circle


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
    p.set_defaults(route=_route_tableaux)

    p = sub.add_parser("sectors", help="isotypic decomposition of (C^m)^(xN)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=str, default=None)
    common(p)
    p.set_defaults(route=_route_sectors)

    p = sub.add_parser("equiv", help="internal-index equivalence certificates")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    common(p)
    p.set_defaults(route=_route_equiv)

    p = sub.add_parser("cover", help="sector census of a finite cover")
    p.add_argument("--q-size", dest="q_size", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--cover-json", dest="cover_json", type=str, default=None)
    common(p)
    p.set_defaults(route=_route_cover)

    p = sub.add_parser("circle", help="theta-sector spectra on the circle")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--k-max", dest="k_max", type=int, default=16)
    common(p)
    p.set_defaults(route=_route_circle)

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
        code, payload = _render(args, *args.route(args)(args))
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

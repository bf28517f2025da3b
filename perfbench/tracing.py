"""Per-layer spans for the traced run, recorded from outside the program.

Run as a script, this is the traced child of one job::

    python perfbench/tracing.py SPANS_FILE JOB_ID <sectorkit CLI args>

It wraps each function in ``TRACED`` on every sectorkit module namespace
that holds a reference to it (several modules import by name), calls
``sectorkit.cli.main(args)`` in-process, keeps the spans in memory and
writes them to SPANS_FILE when the call returns or raises. A span is
``[id, name, start_ns, end_ns, parent_id, sizes]``; ``parent_id`` is -1
at the top. ``layer_metrics`` turns the span files of a pass into the
per-layer metrics. This module imports sectorkit only in the child.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

COMPLEX_BYTES = 16


def _commutant_sizes(args, result) -> dict:
    return {"matrices": len(result), "bytes_computed": sum(int(m.nbytes) for m in result)}


def _nullspace_sizes(args, result) -> dict:
    rows, cols = args[0].shape  # the stacked system, taken as complex
    return {"rows_max": rows, "bytes_max_computed": rows * cols * COMPLEX_BYTES}


def _kernel_sizes(args, result) -> dict:
    return {"kernels": len(result)}


# (module, attribute, span name, sizes from (args, result) or None)
TRACED = [
    ("permgroup", "IrrepMatrices.matrix", "permgroup.irrep_matrix", None),
    ("permgroup", "character", "permgroup.character", None),
    ("permgroup", "symmetric_group", "permgroup.symmetric_group", None),
    ("tensor_rep", "permutation_operator", "tensor_rep.permutation_operator", None),
    ("tensor_rep", "central_projector", "tensor_rep.central_projector", None),
    ("tensor_rep", "sector_decomposition", "tensor_rep.sector_decomposition", None),
    ("tensor_rep", "commutant_basis", "tensor_rep.commutant_basis", _commutant_sizes),
    ("tensor_rep", "symmetrizer", "tensor_rep.symmetrizer", None),
    ("linalg", "nullspace", "linalg.nullspace", _nullspace_sizes),
    ("linalg", "commutant_basis_of", "linalg.commutant_basis_of", None),
    ("linalg", "intertwiner_basis", "linalg.intertwiner_basis", None),
    ("linalg", "unitary_intertwiner", "linalg.unitary_intertwiner", None),
    ("linalg", "orthonormal_range", "linalg.orthonormal_range", None),
    ("linalg", "rank_of_hermitian_idempotent", "linalg.rank_of_hermitian_idempotent", None),
    ("cover_quant", "symmetric_cover", "cover_quant.symmetric_cover", None),
    ("cover_quant", "irreps_of", "cover_quant.irreps_of", None),
    ("cover_quant", "kernel_orbit_basis", "cover_quant.kernel_orbit_basis", _kernel_sizes),
    ("cover_quant", "constrained_action", "cover_quant.constrained_action", None),
    ("cover_quant", "section_action", "cover_quant.section_action", None),
    ("cover_quant", "sector_census", "cover_quant.sector_census", None),
    ("parastat_equiv", "realize", "parastat_equiv.realize", None),
    ("parastat_equiv", "general_equivalence", "parastat_equiv.general_equivalence", None),
    (
        "parastat_equiv",
        "parafermion_constraint_space",
        "parastat_equiv.parafermion_constraint_space",
        None,
    ),
    ("circle_theta", "spectrum_rows", "circle_theta.spectrum_rows", None),
    ("circle_theta", "gauge_equivalence_check", "circle_theta.gauge_equivalence_check", None),
    ("circle_theta", "fd_convergence", "circle_theta.fd_convergence", None),
    ("cli", "main", "cli.main", None),
]

# Size metrics and their units; a "_max" size is reduced by max, others summed.
SIZE_UNITS = {
    "tensor_rep.commutant_basis.matrices": "count",
    "tensor_rep.commutant_basis.bytes_computed": "bytes",
    "linalg.nullspace.rows_max": "count",
    "linalg.nullspace.bytes_max_computed": "bytes",
    "cover_quant.kernel_orbit_basis.kernels": "count",
}


def metric_units(outcomes: tuple[str, ...]) -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for _, _, name, _ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(SIZE_UNITS)
    units.update({f"cli.jobs_by_outcome.{o}": "count" for o in outcomes})
    units["trace.overhead_s"] = "s"
    return units


class Recorder:
    """Spans of one job, kept in memory until the job ends."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._origin = time.perf_counter_ns()

    def wrap(self, fn, name: str, sizer):
        spans, stack, origin = self.spans, self._stack, self._origin

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            span = [span_id, name, time.perf_counter_ns() - origin, 0, parent, None]
            spans.append(span)
            stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns() - origin
                stack.pop()
            if sizer is not None:
                span[5] = sizer(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a sectorkit module holds it."""
        for module, _, _, _ in TRACED:
            importlib.import_module(f"sectorkit.{module}")
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "sectorkit" or key.startswith("sectorkit.")
        ]
        for module, attr, name, sizer in TRACED:
            owner = sys.modules[f"sectorkit.{module}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(getattr(cls, method), name, sizer))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(original, name, sizer)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)


def layer_metrics(jobs_spans: list[list]) -> dict[str, float]:
    """Calls, inclusive seconds, self seconds and sizes, summed over jobs.

    Inclusive time counts only spans with no ancestor of the same name, so
    recursion is not counted twice. Self time is a span's duration minus
    that of its direct children, which cannot overlap in one thread.
    """
    out: dict[str, float] = defaultdict(int)
    for spans in jobs_spans:
        child_ns = [0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for span_id, name, start, end, parent, sizes in spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start - child_ns[span_id]) / 1e9
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][1] != name:
                ancestor = spans[ancestor][4]
            if ancestor < 0:
                out[f"{name}.s"] += (end - start) / 1e9
            for key, value in (sizes or {}).items():
                metric = f"{name}.{key}"
                out[metric] = max(out[metric], value) if "_max" in key else out[metric] + value
    return dict(out)


def main(argv: list[str]) -> int:
    spans_file, job_id, *cli_args = argv
    recorder = Recorder()
    recorder.install()
    cli = sys.modules["sectorkit.cli"]
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"job_id": job_id, "spans": recorder.spans}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

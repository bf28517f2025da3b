"""Print, as one JSON line, the environment the benchmark's jobs run in.

Run in a child with the same environment as the jobs, so the BLAS thread
count it reads back from the loaded OpenBLAS is the one jobs get.
"""

from __future__ import annotations

import ctypes
import json
import platform


def _openblas_threads() -> int | None:
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> None:
    import numpy as np
    import sectorkit

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "blas_name": blas.get("name"),
                "blas_version": blas.get("version"),
                "blas_threads_measured": _openblas_threads(),
                "sectorkit_file": sectorkit.__file__,
            }
        )
    )


if __name__ == "__main__":
    main()

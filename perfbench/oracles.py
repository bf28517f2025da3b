"""Independent checks of every job's output.

Nothing here calls sectorkit: each report is checked against closed-form
counts computed in plain Python (hook lengths, hook contents, binomials)
or against the report's own internal consistency. ``check`` returns a
list of problems; an empty list means the output is accepted.
"""

from __future__ import annotations

import csv
import io
import json
import math

TOL = 1e-9


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n as non-increasing tuples."""
    out: list[tuple[int, ...]] = []

    def rec(rest: int, largest: int, prefix: tuple[int, ...]) -> None:
        if rest == 0:
            out.append(prefix)
        for part in range(min(rest, largest), 0, -1):
            rec(rest - part, part, prefix + (part,))

    rec(n, n, ())
    return out


def _cells(shape: tuple[int, ...]):
    conj = [sum(1 for row in shape if row > j) for j in range(shape[0])] if shape else []
    for i, row in enumerate(shape):
        for j in range(row):
            yield j - i, (row - j - 1) + (conj[j] - i - 1) + 1  # content, hook length


def hook_dim(shape: tuple[int, ...]) -> int:
    """Dimension of the S_N irrep: N! over the product of hook lengths."""
    return math.factorial(sum(shape)) // math.prod(h for _, h in _cells(shape))


def ssyt_count(shape: tuple[int, ...], m: int) -> int:
    """Semistandard tableaux with entries <= m, by the hook-content formula."""
    num = math.prod(m + c for c, _ in _cells(shape))
    return num // math.prod(h for _, h in _cells(shape))


def _label(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.strip("()").split(",") if p.strip())


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_sectors(rep: dict, m: int, n: int) -> list[str]:
    bad = []
    sectors = rep["sectors"]
    if [tuple(s["partition"]) for s in sectors] != partitions(n):
        bad.append("sector partitions are not the partitions of N")
    for s in sectors:
        shape = tuple(s["partition"])
        if s["irrep_dim"] != hook_dim(shape):
            bad.append(f"{shape}: irrep_dim {s['irrep_dim']} != hook-length {hook_dim(shape)}")
        if s["multiplicity"] != ssyt_count(shape, m):
            bad.append(f"{shape}: multiplicity {s['multiplicity']} != {ssyt_count(shape, m)}")
        if s["rank"] != s["irrep_dim"] * s["multiplicity"]:
            bad.append(f"{shape}: rank {s['rank']} != irrep_dim * multiplicity")
    if sum(s["rank"] for s in sectors) != m**n:
        bad.append(f"sector ranks do not sum to m^N = {m**n}")
    if rep["commutant_dim"] != math.comb(m * m + n - 1, n):
        bad.append(f"commutant_dim {rep['commutant_dim']} != C(m^2+N-1, N)")
    if not all(v < 1e-10 for v in rep["residuals"].values()):
        bad.append(f"residuals too large: {rep['residuals']}")
    return bad


def check_cover(rep: dict, q: int, n: int) -> list[str]:
    bad = []
    if rep["passed"] is not True:
        bad.append("census did not pass")
    order = math.factorial(n)
    if rep["group_order"] != order:
        bad.append(f"group_order {rep['group_order']} != N!")
    if rep["base_size"] != math.comb(q, n):
        bad.append(f"base_size {rep['base_size']} != C(q, N)")
    if rep["total_size"] != math.perm(q, n):
        bad.append(f"total_size {rep['total_size']} != q!/(q-N)!")
    if rep["kernel_space_dim"] != rep["base_size"] ** 2 * order:
        bad.append("kernel_space_dim != base^2 * |G|")
    sectors = rep["sectors"]
    if sum(s["carrier_dim"] ** 2 for s in sectors) != rep["kernel_space_dim"]:
        bad.append("sum of carrier_dim^2 != kernel_space_dim")
    if sorted(_label(s["label"]) for s in sectors) != sorted(partitions(n)):
        bad.append("sectors are not one per partition of N")
    for s in sectors:
        if s["internal_dim"] != hook_dim(_label(s["label"])):
            bad.append(f"{s['label']}: internal_dim != hook-length dimension")
        if s["carrier_dim"] != rep["base_size"] * s["internal_dim"]:
            bad.append(f"{s['label']}: carrier_dim != base_size * internal_dim")
        if s["commutant_dim"] != 1:
            bad.append(f"{s['label']}: sector is not irreducible")
    if any(v != 0 for v in rep["pairwise_intertwiner_dims"].values()):
        bad.append("distinct sectors intertwine")
    return bad


def check_equiv(rep: dict, m: int, n: int) -> list[str]:
    bad = []
    cert = rep["certificate"]
    if cert["equivalent"] is not True:
        bad.append("realizations not certified equivalent")
    want = math.comb(m, 2) if n == 2 else m * (m * m - 1) // 3
    if cert["carrier_dims"] != [want, want]:
        bad.append(f"carrier_dims {cert['carrier_dims']} != [{want}, {want}]")
    v = [[complex(re, im) for re, im in row] for row in cert.get("intertwiner", [])]
    if len(v) != want or any(len(row) != want for row in v):
        bad.append("intertwiner missing or of the wrong shape")
    else:
        gram_err = max(
            abs(sum(v[k][i].conjugate() * v[k][j] for k in range(want)) - (i == j))
            for i in range(want)
            for j in range(want)
        )
        if gram_err > 1e-8:
            bad.append(f"intertwiner is not unitary ({gram_err:.2e})")
    return bad


def _check_spectrum(rows: list[dict], theta: float, k_max: int) -> list[str]:
    if [int(r["k"]) for r in rows] != list(range(-k_max, k_max + 1)):
        bad = ["spectrum rows do not cover |k| <= k_max"]
    else:
        bad = []
    for r in rows:
        exact = 2 * math.pi * int(r["k"]) + theta
        if not (_close(float(r["reference"]), exact) and _close(float(r["eigenvalue"]), exact)):
            bad.append(f"k={r['k']}: eigenvalue {r['eigenvalue']} != 2 pi k + theta")
    return bad


def check_circle(rep: dict, theta: float, k_max: int) -> list[str]:
    bad = _check_spectrum(rep["rows"], theta, k_max)
    if rep["passed"] is not True:
        bad.append("circle checks did not pass")
    return bad


def check_tableaux(rep: dict, n: int) -> list[str]:
    bad = []
    if rep["identity_ok"] is not True:
        bad.append("sum of squared dims != N!")
    if [tuple(r["parts"]) for r in rep["partitions"]] != partitions(n):
        bad.append("partitions are not the partitions of N")
    for r in rep["partitions"]:
        dim = hook_dim(tuple(r["parts"]))
        if r["hook_dim"] != dim or r["tableau_count"] != dim:
            bad.append(f"{r['parts']}: dims {r['hook_dim']}/{r['tableau_count']} != {dim}")
    return bad


def _option(args: list[str], name: str, default: str | None = None) -> str | None:
    return args[args.index(name) + 1] if name in args else default


def check(args: list[str], output: bytes) -> list[str]:
    """Problems with the output of ``sectorkit <args>``; empty when correct."""
    command = args[0]
    try:
        text = output.decode()
        if command == "circle":
            theta = float(_option(args, "--theta")) % (2 * math.pi)
            k_max = int(_option(args, "--k-max", "16"))
        if _option(args, "--format") == "csv":
            rows = list(csv.DictReader(io.StringIO(text)))
            if command == "tableaux":
                parts = [{"parts": _label(r["partition"]), "hook_dim": int(r["hook_dim"]),
                          "tableau_count": int(r["tableau_count"])} for r in rows]
                return check_tableaux({"identity_ok": True, "partitions": parts},
                                      int(_option(args, "--N")))
            if command == "circle":
                return _check_spectrum(rows, theta, k_max)
            return [f"no csv oracle for {command}"]
        rep = json.loads(text)
        if command == "sectors":
            return check_sectors(rep, int(_option(args, "--m")), int(_option(args, "--N")))
        if command == "cover":
            return check_cover(rep, int(_option(args, "--q-size")), int(_option(args, "--N")))
        if command == "equiv":
            return check_equiv(rep, int(_option(args, "--m")), int(_option(args, "--N")))
        if command == "circle":
            return check_circle(rep, theta, k_max)
        if command == "tableaux":
            return check_tableaux(rep, int(_option(args, "--N")))
        return [f"no oracle for {command}"]
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]

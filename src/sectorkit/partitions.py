"""Partitions, standard Young tableaux and hook dimensions: exact integer combinatorics.

Partitions of N label the irreducible representations of S_N and
standard tableaux of a shape index their bases (permgroup builds the
matrices). Nothing here imports numpy, so the ``tableaux`` subcommand,
whose handler lives here, and cli's ``--lambda`` parsing run without it;
``sectors`` takes its partitions from this module and loads no
permgroup.
"""

from __future__ import annotations

import math
from functools import reduce

from .errors import DomainError, Value


class Partition(Value):
    """Non-increasing positive parts; labels an irreducible of S_total."""

    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(int(p) for p in parts)
        if not parts:
            raise DomainError("empty partition")
        if any(p <= 0 for p in parts):
            raise DomainError(f"parts must be positive: {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise DomainError(f"parts must be non-increasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        return Partition(tuple(sum(1 for p in self.parts if p > j) for j in range(self.parts[0])))

    def hooks(self) -> list[list[int]]:
        """Hook length of every cell, rows as in the frame."""
        conj = self.conjugate().parts
        return [
            [(row - (j + 1)) + (conj[j] - (i + 1)) + 1 for j in range(row)]
            for i, row in enumerate(self.parts)
        ]


def iter_partitions(n: int, max_parts: int | None = None):
    """Partitions of n with at most max_parts parts, as tuples, one at a time.

    Reverse-lexicographic order, (n,) first; nothing is held beyond the
    current partition, so a caller may stop after any prefix.
    """
    if n < 1:
        raise DomainError(f"no partitions of {n}")

    def gen(rest: int, max_part: int, slots: int):
        if rest == 0:
            yield ()
            return
        # the remaining slots must absorb rest with parts of at most `first`
        for first in range(min(rest, max_part), 0, -1):
            if slots < 1 or first * slots < rest:
                return
            for tail in gen(rest - first, first, slots - 1):
                yield (first,) + tail

    return gen(n, n, n if max_parts is None else max_parts)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n,) first."""
    return [Partition(p) for p in iter_partitions(n)]


class StandardTableau(Value):
    """Filling of a frame with 1..N, increasing along rows and down columns."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        rows = tuple(tuple(int(v) for v in r) for r in rows)
        n = Partition(tuple(len(r) for r in rows)).total  # validates the frame
        entries = [v for row in rows for v in row]
        if sorted(entries) != list(range(1, n + 1)):
            raise DomainError(f"entries must be exactly 1..{n}: {rows}")
        for row in rows:
            if any(a >= b for a, b in zip(row, row[1:])):
                raise DomainError(f"rows must increase left to right: {rows}")
        for i in range(1, len(rows)):
            for j in range(len(rows[i])):
                if rows[i - 1][j] >= rows[i][j]:
                    raise DomainError(f"columns must increase top to bottom: {rows}")
        object.__setattr__(self, "rows", rows)

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @property
    def size(self) -> int:
        return sum(len(r) for r in self.rows)

    def position(self, value: int) -> tuple[int, int]:
        """(row, col), 0-based, of an entry."""
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v == value:
                    return i, j
        raise DomainError(f"{value} not in tableau")

    def content_distance(self, k: int) -> int:
        """Axial distance content(k+1) - content(k), content = col - row."""
        ri, ci = self.position(k)
        rj, cj = self.position(k + 1)
        return (cj - rj) - (ci - ri)

    def swap(self, k: int) -> "StandardTableau | None":
        """Exchange entries k and k+1; None if the result is not standard."""
        rows = [list(r) for r in self.rows]
        (ri, ci), (rj, cj) = self.position(k), self.position(k + 1)
        rows[ri][ci], rows[rj][cj] = k + 1, k
        try:
            return StandardTableau(tuple(tuple(r) for r in rows))
        except DomainError:
            return None


def standard_tableaux(shape: Partition) -> list[StandardTableau]:
    """All standard tableaux of the given shape, in a fixed generation order.

    Values 1..N are placed in increasing order; value v may extend any row
    that is still shorter than the row above it (and than its target length).
    """
    n = shape.total
    results: list[StandardTableau] = []

    def place(v: int, rows: list[list[int]]):
        if v > n:
            results.append(StandardTableau(tuple(tuple(r) for r in rows)))
            return
        for i, target in enumerate(shape.parts):
            if len(rows[i]) < target and (i == 0 or len(rows[i - 1]) > len(rows[i])):
                rows[i].append(v)
                place(v + 1, rows)
                rows[i].pop()

    place(1, [[] for _ in shape.parts])
    return results


def hook_dimension(shape: Partition) -> int:
    """Dimension of the irreducible labeled by the shape (hook-length formula)."""
    hook_product = reduce(lambda a, b: a * b, (h for row in shape.hooks() for h in row), 1)
    return math.factorial(shape.total) // hook_product


def content_sum(shape: Partition) -> int:
    """Sum of the contents col - row over the cells of the shape."""
    return sum(j - i for i, row in enumerate(shape.parts) for j in range(row))


def parse_partition(text: str) -> Partition:
    """The partition written as "3,2,1" or "(3, 2, 1)", or DomainError."""
    try:
        parts = tuple(int(p) for p in text.replace("(", "").replace(")", "").split(",") if p.strip())
        return Partition(parts)
    except (ValueError, DomainError) as exc:
        raise DomainError(f"cannot parse partition {text!r}: {exc}") from exc


def _run_tableaux(args):
    """The ``tableaux`` report: each partition's hook dimension and tableau
    count; cli checked N and parsed --lambda into args.wanted."""
    n = args.N
    shapes = enumerate_partitions(n)
    if args.wanted is not None:
        shapes = [s for s in shapes if s.parts == args.wanted.parts]
    records = []
    for shape in shapes:
        dim = hook_dimension(shape)
        count = len(standard_tableaux(shape))
        records.append({"parts": list(shape.parts), "hook_dim": dim, "tableau_count": count})
    sum_sq = sum(r["hook_dim"] ** 2 for r in records)
    identity_ok = args.lam is not None or sum_sq == math.factorial(n)
    body = {
        "partitions": records,
        "sum_of_squares": sum_sq,
        "factorial_N": math.factorial(n),
        "identity_ok": identity_ok,
    }
    passed = identity_ok and all(r["hook_dim"] == r["tableau_count"] for r in records)
    lines = [f"partitions of {n}:"]
    lines += [
        f"  {tuple(r['parts'])}: dim {r['hook_dim']}, {r['tableau_count']} standard tableaux"
        for r in records
    ]
    lines.append(f"sum of squared dims: {sum_sq} (N! = {math.factorial(n)})")
    rows = [[",".join(map(str, r["parts"])), r["hook_dim"], r["tableau_count"]] for r in records]
    table = (["partition", "hook_dim", "tableau_count"], rows)
    return passed, {"N": n, "lambda": args.lam}, body, lines, table

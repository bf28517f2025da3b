"""The ``--cover-json`` path: cover documents and the regular-representation split.

A cover document names the points and the deck group's action words
(cover_from_json); its group carries no permutations, so its
irreducibles come from splitting the regular representation
(_regular_irreps), which cover_quant.irreps_of imports from here for
any group without `perms`. A ``cover --q-size/--N`` run needs neither
and never loads this module; cover_quant.cover_from_json resolves here
on first access.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

# sectorkit modules before numpy (README Conventions); cover_quant loads numpy
from .errors import ConsistencyError, DomainError, check_bytes
from .cover_quant import FiniteCover, FiniteGroup, GroupRep, _cover_report, cover_from_action
from . import tolerances

import numpy as np


def _load_json(data):
    """A JSON document given as a dict, or as a path to read it from.

    A file that cannot be read or parsed is a usage error (DomainError):
    ValueError covers undecodable bytes, malformed JSON and an integer
    literal past the interpreter's int-conversion limit (4300 digits),
    RecursionError a document nested deeper than the recursion limit.
    """
    if not isinstance(data, (str, Path)):
        return data
    try:
        return json.loads(Path(data).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise DomainError(f"cannot read JSON from {str(data)!r}: {exc}") from exc


def _is_int_list(value) -> bool:
    """A list of ints; bools, an int subclass in Python, are not indices."""
    return isinstance(value, list) and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    )


def cover_from_json(data) -> FiniteCover:
    """Load a cover from its JSON description (or a path to one).

    The document is an object with `points`, a non-empty list of distinct
    strings, and `group`, a non-empty list of words, each a list of ints;
    optional `group_labels` hold one string per word and `section` a list
    of point indices, one per orbit in any order. Anything else raises
    DomainError, as does a table that is not a free group action (see
    cover_from_action).
    """
    data = _load_json(data)
    if not isinstance(data, dict):
        raise DomainError(f"a cover document is a JSON object, not {type(data).__name__}")
    points = data.get("points")
    if not (isinstance(points, list) and points and all(isinstance(p, str) for p in points)):
        raise DomainError("cover 'points' must be a non-empty list of strings")
    if len(set(points)) != len(points):
        raise DomainError("cover 'points' must be distinct")
    group = data.get("group")
    if not (isinstance(group, list) and group and all(_is_int_list(w) for w in group)):
        raise DomainError("cover 'group' must be a non-empty list of lists of ints")
    labels = data.get("group_labels")
    if labels is not None and not (
        isinstance(labels, list)
        and len(labels) == len(group)
        and all(isinstance(label, str) for label in labels)
    ):
        raise DomainError("cover 'group_labels' must hold one string per group element")
    section = data.get("section")
    if section is not None and not (
        _is_int_list(section) and all(0 <= i < len(points) for i in section)
    ):
        raise DomainError(
            f"cover 'section' must be a list of point indices in 0..{len(points) - 1}"
        )
    return cover_from_action(
        tuple(points),
        group,
        group_labels=tuple(labels) if labels is not None else None,
        section=section,
    )


def _regular_bytes(n: int, width: int) -> int:
    """Peak bytes of _regular_irreps at order n when its widest eigenspace has `width` columns.

    Four complex n x n arrays (H, its eigenvectors, eigh's work), two int
    n x n index tables, one n x n array of kept characters and the kept
    stacks (n sum d**2 = n**2 entries), and one eigenspace's three
    (n, n, width) complex gathers.
    """
    return 16 * n * n * (6 + 3 * width)


def _irreducible_blocks(bases: list[np.ndarray], left: np.ndarray) -> list | None:
    """(character, (n, d, d) matrices) of each inequivalent irreducible eigenspace B.

    L(g) only permutes rows, (L(g) B)[i] = B[g^-1 i], so M(g) = B* L(g) B is
    one row gather and a product for all g. None if some B is not invariant
    or its character norm n**-1 sum_g |chi(g)|**2, which is 1 exactly for
    irreducibles (Serre, 2.3), is not; a B whose character inner product
    with a kept one rounds to 1 is a repeat, found by one product with the
    kept characters, held as the rows of one array.
    """
    n = len(left)
    kept = []
    chars_kept = np.empty((len(bases), n), dtype=complex)
    for basis in bases:
        moved = basis[left]
        mats = basis.conj().T @ moved
        moved -= basis @ mats
        if tolerances.max_abs(moved) > tolerances.INVARIANT_SUBSPACE_TOL:
            return None
        chars = np.trace(mats, axis1=1, axis2=2)
        if np.rint(np.vdot(chars, chars).real / n) != 1:
            return None
        if not np.rint(np.abs(chars_kept[: len(kept)] @ chars.conj()) / n).any():
            chars_kept[len(kept)] = chars
            kept.append((chars, mats))
    return kept


def _regular_irreps(group: FiniteGroup, seed: int) -> list[GroupRep]:
    """All irreducibles by splitting the left regular representation L.

    The right multiplications R(k) e_j = e_{j k} span the commutant of
    L(g) e_j = e_{g j} (Serre, Linear Representations of Finite Groups,
    2.4), so the eigenspaces of a random Hermitian H = sum_k c_k R(k) + h.c.,
    scattered from the Cayley table, are generically irreducible, each
    irreducible appearing (dim) times, so no wider than isqrt(|G|).
    _irreducible_blocks restricts, checks and deduplicates them; when the
    squared dimensions sum to |G| they are returned as GroupReps. A failed
    split retries with a fresh random.Random(seed + attempt) (numpy.random
    is not loaded). _regular_bytes is refused over errors.BYTES_CAP at width
    1 before eigh, since every eigenspace has a column, and again at the
    widest eigenspace before any is gathered.
    """
    n = group.order
    what = f"splitting the regular representation of a deck group of order {n}"
    check_bytes(_regular_bytes(n, 1), what)
    left = group.cayley[group._inverse]
    for attempt in range(20):
        rng = random.Random(seed + attempt)
        h = np.zeros((n, n), dtype=complex)
        # R(k) has its one entry of column j in row j k; the real parts of
        # the n weights c_k are drawn first, then their imaginary parts
        normals = np.array([rng.gauss(0.0, 1.0) for _ in range(2 * n)])
        h[group.cayley, np.arange(n)[:, None]] = normals[:n] + 1j * normals[n:]
        eigvals, eigvecs = np.linalg.eigh(h + h.conj().T)
        del h
        gaps = np.flatnonzero(np.diff(eigvals) >= tolerances.EIGEN_CLUSTER_TOL)
        cuts = np.concatenate(([0], gaps + 1, [n]))
        width = int(np.diff(cuts).max())
        if width > math.isqrt(n):  # d**2 <= n
            continue
        check_bytes(_regular_bytes(n, width), what)
        distinct = _irreducible_blocks(np.split(eigvecs, cuts[1:-1], axis=1), left)
        if distinct is None or sum(mats.shape[1] ** 2 for _, mats in distinct) != n:
            continue
        distinct.sort(key=lambda item: (item[1].shape[1], np.round(item[0].real, 6).tolist()))
        try:
            return [
                GroupRep(group=group, matrices=mats, label=f"chi{i}")
                for i, (_, mats) in enumerate(distinct)
            ]
        except DomainError:
            continue
    raise ConsistencyError("failed to split the regular representation")


def _run_cover(args) -> tuple[int, bytes]:
    """The ``cover --cover-json`` report: the census of the document's cover."""
    cover = cover_from_json(Path(args.cover_json))
    return _cover_report(args, cover, {"cover_json": str(args.cover_json)})

"""Finite models of covering-space quantization.

A finite set with a free action of a finite group is the desk-scale
stand-in for a universal cover over its quotient. Group-invariant
kernels on the total set form the observable algebra; for every unitary
irreducible of the deck group the algebra acts irreducibly on the space
of equivariant functions (the constrained realization) and, unitarily
equivalently, on functions over the quotient tensored with the internal
space (the section realization). This module constructs both
realizations, the unitary relating them, and a census verifying the
sector correspondence and its dimension identity.

Measure conventions: kernels act by plain matrix multiplication on
functions over the total set; the inner product on equivariant functions
weights each fiber by 1/|G| so that evaluation along a section is
unitary onto the quotient realization.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from pathlib import Path

# sectorkit modules before numpy (README Conventions); linalg loads numpy
from .errors import ConsistencyError, DomainError, Value, check_bytes
from .permgroup import Permutation, enumerate_partitions, hook_dimension, irrep, symmetric_group
from . import linalg

import numpy as np


class FiniteGroup(Value, eq=False):
    """Finite group presented by its Cayley table.

    cayley[i, j] is the index of the product g_i g_j, composed so that a
    right action satisfies x.(g_i g_j) = (x.g_i).g_j; labels names each
    element. A symmetric group acting by slot permutation carries its
    Permutation objects in perms, which give exact irreducibles.
    """

    _fields = ("cayley", "labels", "perms")
    _defaults = {"perms": None}

    def _validate(self):
        cayley = np.asarray(self.cayley, dtype=np.int64)
        object.__setattr__(self, "cayley", cayley)
        n = cayley.shape[0]
        if cayley.shape != (n, n) or len(self.labels) != n:
            raise DomainError("cayley table and labels are inconsistent")
        if cayley.size and (cayley.min() < 0 or cayley.max() >= n):
            raise DomainError("cayley table entries must be element indices")
        idx = np.arange(n)
        ident = np.flatnonzero(
            np.all(cayley == idx, axis=1) & np.all(cayley == idx[:, None], axis=0)
        )
        if len(ident) != 1:
            raise DomainError("group must have exactly one identity")
        e = int(ident[0])
        object.__setattr__(self, "_identity", e)
        two_sided = (cayley == e) & (cayley.T == e)
        if not np.all(two_sided.any(axis=1)):
            raise DomainError("group element without inverse")
        object.__setattr__(self, "_inverse", two_sided.argmax(axis=1).astype(np.int64))
        object.__setattr__(self, "_generators", _generating_set(cayley, e))
        # (g_i g_j) g_k == g_i (g_j g_k) for k over generators: the k it holds
        # for are closed under products (Light's test; Clifford and Preston, 1.2)
        for k in self._generators:
            if not np.array_equal(cayley[cayley, k], cayley[:, cayley[:, k]]):
                raise DomainError("multiplication is not associative")
        object.__setattr__(self, "_diameter", _cayley_diameter(cayley, e, self._generators))

    @property
    def order(self) -> int:
        return self.cayley.shape[0]

    @property
    def identity(self) -> int:
        return self._identity


class FiniteCover(Value, eq=False):
    """Free action of a finite group on a finite set, with quotient data.

    points is a tuple or array of the points; action[x, g] is the image of
    point x under group element g; section picks one point per orbit, in
    any order, which gives each point x = section(tau(x)) . h(x) its base
    point tau(x) and its deck element h(x) (deck_element).
    """

    _fields = ("points", "group", "action", "section")

    def _validate(self):
        action = np.asarray(self.action, dtype=np.int64)
        section = np.asarray(self.section)
        npts, ng = action.shape
        if len(self.points) != npts or ng != self.group.order:
            raise DomainError("action table shape mismatch")
        # an empty section converts as floats; the orbit check below refuses it
        if section.size and (
            section.dtype.kind not in "iu" or section.min() < 0 or section.max() >= npts
        ):
            raise DomainError(f"section entries must be point indices in 0..{npts - 1}")
        section = section.astype(np.int64, copy=False)
        object.__setattr__(self, "action", action)
        object.__setattr__(self, "section", section)
        e = self.group.identity
        fixed = np.count_nonzero(action == np.arange(npts)[:, None], axis=0)
        if fixed[e] != npts:
            raise DomainError("identity must act trivially")
        fixed[e] = 0
        if fixed.any():
            g = np.flatnonzero(fixed)[0]
            raise DomainError(f"action is not free: element {self.group.labels[g]}")
        # (x.g).h == x.(g h) for every x, g and h over generators: by
        # associativity the h it holds for are closed under products
        for h in self.group._generators:
            if not np.array_equal(action[action, h], action[:, self.group.cayley[:, h]]):
                raise DomainError("action is incompatible with the group law")
        # the section picks one point per orbit exactly when it holds |total| / |G|
        # points and scattering q |G| + h to section(q) . h reaches every point
        index = np.full(npts, -1, dtype=np.int64)
        index[action[section].ravel()] = np.arange(section.size * ng)
        if section.shape != (npts // ng,) or np.any(index < 0):
            raise DomainError("section must pick one point per orbit")
        tau, deck = np.divmod(index, ng)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "_deck", deck)

    @property
    def total_size(self) -> int:
        return len(self.points)

    @property
    def base_size(self) -> int:
        return len(self.section)

    def deck_element(self) -> np.ndarray:
        """h_of[x]: the unique h with section(tau(x)) . h = x."""
        return self._deck


def cover_from_action(
    points,
    words,
    group_labels: tuple[str, ...] | None = None,
    perms: tuple[Permutation, ...] | None = None,
    section: np.ndarray | None = None,
) -> FiniteCover:
    """Build a cover from the action permutations of the deck group.

    words[g] holds the images of the points under element g, a (|G|,
    |points|) integer array or nested lists; unlabeled elements are named
    by index. A free action is fixed by the image of one point, so the
    Cayley table is read off the first point's images.
    """
    npts = len(points)
    try:
        images = np.asarray(words, dtype=np.int64).reshape(len(words), npts)
    except (ValueError, TypeError, OverflowError) as exc:
        raise DomainError(f"group words are not lists of {npts} point indices: {exc}") from exc
    if npts == 0:
        raise DomainError("a cover needs at least one point")
    # entries outside the points would index past (or wrap around) the
    # tables below; that each word is a permutation follows from
    # FiniteCover's checks: with e acting trivially and (x.g).h = x.(g h)
    # for all g and h, (x.g).g^-1 = x, so every word is injective
    outside = np.flatnonzero((images.min(axis=1) < 0) | (images.max(axis=1) >= npts))
    if outside.size:
        word = tuple(images[outside[0]].tolist())
        raise DomainError(f"not a permutation of the point set: {word}")
    ng = len(images)
    # g -> 0.g is injective on a free action
    lookup = np.full(npts, -1, dtype=np.int64)
    lookup[images[:, 0]] = np.arange(ng)
    if np.count_nonzero(lookup >= 0) != ng:
        raise DomainError("group elements agree at the first point: duplicates or not free")
    # cayley[i, j] is the element taking 0 to 0.(g_i g_j) = (0.g_i).g_j; that it
    # agrees with the composition at every point is FiniteCover's group-law check
    cayley = lookup[images[:, images[:, 0]]].T
    if np.any(cayley < 0):
        raise DomainError("action maps are not closed under composition")
    labels = group_labels if group_labels is not None else tuple(map(str, range(ng)))
    group = FiniteGroup(cayley=cayley, labels=tuple(labels), perms=perms)

    action = images.T  # action[x, g]
    if section is None:
        # each orbit represented by its smallest point, in increasing order
        section = np.flatnonzero(action.min(axis=1) == np.arange(npts))
    return FiniteCover(points=points, group=group, action=action, section=section)


def symmetric_cover(q: int, n_particles: int) -> FiniteCover:
    """Injective tuples over q points, with the slot permutation action.

    The points are the rows of all ordered injective n-tuples of 0..q-1
    (removing the extended diagonal keeps the action free), in
    lexicographic order, so that read in base q they are increasing codes;
    the quotient is the n-element subsets, the section the sorted tuples.
    """
    n = n_particles
    if n < 1:
        raise DomainError(f"need at least one particle, got N={n}")
    if q < n:
        raise DomainError(f"need |Q| >= N, got |Q|={q}, N={n}")
    tuples = np.fromiter(
        itertools.permutations(range(q), n), dtype=(np.int64, n), count=math.perm(q, n)
    )
    perms = tuple(symmetric_group(n))
    weights = q ** np.arange(n - 1, -1, -1)
    # slot i of t.pi holds t[pi(i)], so t.pi's code weighs t[pi(i)] by weights[i]
    moved = np.zeros((len(perms), n), dtype=np.int64)
    np.put_along_axis(moved, np.array([pi.images for pi in perms]) - 1, weights, axis=1)
    words = np.searchsorted(tuples @ weights, moved @ tuples.T)
    return cover_from_action(
        tuples, words, group_labels=tuple(str(pi.images) for pi in perms), perms=perms
    )


def randomize_section(cover: FiniteCover, seed: int = 0) -> FiniteCover:
    """Same cover with a uniformly random representative per orbit."""
    picks = np.random.default_rng(seed).integers(cover.group.order, size=cover.base_size)
    return FiniteCover(cover.points, cover.group, cover.action, cover.action[cover.section, picks])


def _load_json(data):
    """A JSON document given as a dict, or as a path to read it from.

    A file that cannot be read or parsed is a usage error (DomainError).
    """
    if not isinstance(data, (str, Path)):
        return data
    try:
        return json.loads(Path(data).read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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


class GroupRep(Value, eq=False):
    """Unitary representation of a FiniteGroup: matrices[g] is U(g), a (|G|, d, d) stack.

    A real stack stays real (Young's orthogonal forms); anything else is
    promoted to at least float64, so complex stacks stay complex.
    """

    _fields = ("group", "matrices", "label")

    def _validate(self):
        mats = np.asarray(self.matrices)  # ragged: numpy's ValueError
        mats = mats.astype(np.result_type(mats, np.float64), copy=False)
        object.__setattr__(self, "matrices", mats)
        n = self.group.order
        if mats.ndim != 3 or len(mats) != n or not 0 < mats.shape[1] == mats.shape[2]:
            raise DomainError("need one square matrix per group element, all of one shape")
        d = mats.shape[1]
        defects = np.abs(mats @ mats.conj().swapaxes(1, 2) - np.eye(d))
        bad = np.flatnonzero(defects.max(axis=(1, 2), initial=0.0) > linalg.GROUP_LAW_TOL)
        if bad.size:
            raise DomainError(f"matrix {bad[0]} is not unitary")
        if _group_law_bound(self.group, mats) > linalg.GROUP_LAW_TOL:
            raise DomainError("matrices do not respect the group law")

    @property
    def dimension(self) -> int:
        return self.matrices.shape[1]

    def inverse_matrices(self) -> np.ndarray:
        """U(g^-1) for every element g, stacked as (|G|, d, d)."""
        return self.matrices[self.group._inverse]


def _group_law_bound(group: FiniteGroup, mats: np.ndarray) -> float:
    """A bound on max_abs(U(x) U(y) - U(xy)) over all pairs, from the generators.

    delta is the largest entry of U(e) - 1 and of U(x) U(s) - U(xs) over
    every x and every generator s, one (|G|, d, d) product per s. Write y
    as a word s_1 ... s_l in the generators; with U unitary,
    U(x) U(ys) - U(xys) = -U(x) (U(y) U(s) - U(ys)) + (U(x) U(y) - U(xy)) U(s)
    + (U(xy) U(s) - U(xys)), and an entry bound delta bounds the operator
    norm by d delta, so by induction on l every pair is within 2 l d delta
    (d delta for y = e). l is at most the Cayley graph's diameter D, so
    2 max(D, 1) d delta bounds every pair: held to GROUP_LAW_TOL it
    certifies the law as strictly as checking all |G|**2 pairs, whose
    check is kept as the test oracle.
    """
    d = mats.shape[1]
    delta = linalg.max_abs(mats[group.identity] - np.eye(d))
    for s in group._generators:
        defect = mats @ mats[s]
        defect -= mats[group.cayley[:, s]]
        delta = max(delta, linalg.max_abs(defect))
    return 2 * max(group._diameter, 1) * d * delta


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
        mats = linalg.dagger(basis) @ moved
        moved -= basis @ mats
        if linalg.max_abs(moved) > linalg.INVARIANT_SUBSPACE_TOL:
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
        # R(k) has its one entry of column j in row j k
        h[group.cayley, np.arange(n)[:, None]] = (
            linalg._normals(rng, n) + 1j * linalg._normals(rng, n)
        )
        eigvals, eigvecs = np.linalg.eigh(h + linalg.dagger(h))
        del h
        gaps = np.flatnonzero(np.diff(eigvals) >= linalg.EIGEN_CLUSTER_TOL)
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


def irreps_of(group: FiniteGroup, seed: int = 0) -> list[GroupRep]:
    """All inequivalent unitary irreducibles of the deck group.

    Symmetric groups attached through `perms` get the exact orthogonal
    representations labeled by partitions; any other group is split
    numerically through its regular representation.
    """
    if group.perms is not None:
        n = group.perms[0].degree
        out = []
        for shape in enumerate_partitions(n):
            rep = irrep(shape)
            out.append(
                GroupRep(
                    group=group,
                    matrices=np.array([rep.matrix(pi) for pi in group.perms]),
                    label=str(shape.parts),
                )
            )
        return out
    return _regular_irreps(group, seed)


class InvariantKernel(Value, eq=False):
    """Kernel on the total set, invariant under the diagonal deck action."""

    _fields = ("cover", "matrix")

    def _validate(self):
        mat = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", mat)
        npts = self.cover.total_size
        if mat.shape != (npts, npts):
            raise DomainError("kernel must be square over the total set")
        action = self.cover.action
        for g in range(self.cover.group.order):
            moved = mat[np.ix_(action[:, g], action[:, g])]
            err = np.abs(moved - mat)
            worst = float(err.max()) if err.size else 0.0
            if worst > linalg.KERNEL_INVARIANCE_TOL:
                x, y = np.unravel_index(int(err.argmax()), err.shape)
                raise DomainError(
                    "kernel is not invariant: "
                    f"A({x}.g, {y}.g) != A({x}, {y}) for g={self.cover.group.labels[g]}"
                )


def random_invariant_kernel(
    cover: FiniteCover, rng: np.random.Generator, hermitian: bool = False
) -> InvariantKernel:
    """Group-average of a random dense kernel; exactly invariant."""
    npts = cover.total_size
    raw = rng.standard_normal((npts, npts)) + 1j * rng.standard_normal((npts, npts))
    acc = np.zeros_like(raw)
    for g in range(cover.group.order):
        sel = cover.action[:, g]
        acc += raw[np.ix_(sel, sel)]
    acc /= cover.group.order
    if hermitian:
        acc = (acc + linalg.dagger(acc)) / 2
    return InvariantKernel(cover=cover, matrix=acc)


def kernel_orbit_basis(cover: FiniteCover) -> list[np.ndarray]:
    """Orthonormal basis of the invariant kernels, one per entry orbit.

    Each orbit of the (free) diagonal action on index pairs holds one pair
    whose row point is on the section: the |base|**2 |group| orbits are
    {(section(q).g, b.g) : g} over base points q and points b, ordered by
    smallest flat index row * |total| + col.
    """
    npts = cover.total_size
    rows = np.repeat(cover.action[cover.section], npts, axis=0)
    cols = np.tile(cover.action, (cover.base_size, 1))
    basis = []
    for o in np.argsort((rows * npts + cols).min(axis=1)):
        mat = np.zeros((npts, npts), dtype=complex)
        mat[rows[o], cols[o]] = 1.0 / math.sqrt(cover.group.order)
        basis.append(mat)
    return basis


def _fiber_blocks(cover: FiniteCover, rep: GroupRep) -> np.ndarray:
    """The fiber blocks W_x = |G|**-1/2 U(h(x)^-1) of constrained_space, as (|total|, d, d).

    h(x) is the deck element taking x's section point to x (deck_element).
    Row block x of the constrained basis is W_x in column block tau(x) and
    zero elsewhere, so these blocks are the whole basis.
    """
    if rep.group is not cover.group:
        raise DomainError("representation must belong to the cover's deck group")
    blocks = rep.matrices[cover.group._inverse[cover.deck_element()]]
    blocks *= 1.0 / math.sqrt(cover.group.order)
    return blocks


def constrained_space(cover: FiniteCover, rep: GroupRep) -> np.ndarray:
    """Orthonormal basis (columns) of the equivariant functions.

    Functions psi with psi(x.h) = U(h^-1) psi(x), encoded as vectors with
    index (point, component); the 1/sqrt(|G|) scaling realizes the
    quotient measure so that the columns are orthonormal and evaluation
    along the section is unitary. The fiber blocks (_fiber_blocks) are
    scattered onto the block diagonal of (point, base point).
    """
    blocks = _fiber_blocks(cover, rep)
    npts, d = blocks.shape[:2]
    basis = np.zeros((npts, d, cover.base_size, d), dtype=blocks.dtype)
    basis[np.arange(npts), :, cover.tau, :] = blocks
    return basis.reshape(npts * d, cover.base_size * d)


def constrained_action(kernel: InvariantKernel, rep: GroupRep) -> np.ndarray:
    """Matrix of the kernel action restricted to the equivariant functions.

    The kernel acts as (matrix x identity) on vector-valued functions;
    invariance keeps the constrained subspace stable, which is checked
    (leakage must stay below linalg.RESIDUAL_TOL).
    """
    return _restrict(kernel, constrained_space(kernel.cover, rep))


def _restrict(kernel: InvariantKernel, basis: np.ndarray) -> np.ndarray:
    """constrained_action on a precomputed constrained_space basis."""
    restricted, leakage = linalg.restrict(kernel.matrix, basis)
    if leakage > linalg.RESIDUAL_TOL:
        raise ConsistencyError(f"constrained subspace leaks: {leakage:.2e}")
    return restricted


def section_action(kernel: InvariantKernel, rep: GroupRep) -> np.ndarray:
    """Kernel action transported to functions on the quotient.

    On psi: base -> internal space,
    (A psi)(q) = sum_{h, q'} A(sigma(q), sigma(q').h) U(h^-1) psi(q');
    this is the conjugate of the constrained action by the section
    evaluation unitary. The entries A(sigma(q), sigma(q').h) are gathered
    as one (base, base, G) array and contracted with U(h^-1) stacked
    over h.
    """
    cover = kernel.cover
    if rep.group is not cover.group:
        raise DomainError("representation must belong to the cover's deck group")
    entries = kernel.matrix[cover.section][:, cover.action[cover.section]]
    size = cover.base_size * rep.dimension
    return np.einsum("qph,hij->qipj", entries, rep.inverse_matrices()).reshape(size, size)


def realization_unitary(cover: FiniteCover, rep: GroupRep) -> np.ndarray:
    """Unitary from the constrained to the quotient realization.

    Evaluation along the section, expressed in the coordinates provided
    by constrained_space: U psi = psi(sigma(.)). Conjugation by it turns
    every constrained action into the matching section action.
    """
    basis = constrained_space(cover, rep)
    rows = (cover.section[:, None] * rep.dimension + np.arange(rep.dimension)).ravel()
    return math.sqrt(cover.group.order) * basis[rows, :]


class SectorCensusRecord(Value):
    _fields = ("label", "internal_dim", "carrier_dim", "commutant_dim")

    def to_dict(self) -> dict:
        return self._asdict()


class SectorCensusReport(Value):
    """Verification record for the sector correspondence on one cover.

    sectors holds one SectorCensusRecord per irreducible, and
    pairwise_intertwiner_dims maps "label|label" to the intertwiner
    dimension of each pair.
    """

    _fields = (
        "total_size",
        "base_size",
        "group_order",
        "kernel_space_dim",
        "sectors",
        "pairwise_intertwiner_dims",
        "dimension_margin",
        "dimension_identity_ok",
        "intertwining_residual_max",
        "passed",
    )

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "sectors": [s.to_dict() for s in self.sectors],
            "pairwise_intertwiner_dims": dict(self.pairwise_intertwiner_dims),
        }


def _orbit_chunk(ng: int, d: int, itemsize: int) -> int:
    """Orbits per chunk: (rows, |G|, d, d) arrays of at most linalg.CHUNK_BYTES, one row at least."""
    return max(1, linalg.CHUNK_BYTES // (itemsize * ng * d * d))


def _census_bytes(npts: int, nbase: int, ng: int, dims: list[int], itemsize: int) -> int:
    """Peak bytes of sector_census on |total| = npts, |base| = nbase, |G| = ng.

    itemsize is the bytes of one entry of the irreducibles: 8 for Young's
    real orthogonal forms, 16 for the complex regular split. The stacks of
    all irreducibles (|G| sum d_chi**2 entries) are held throughout; one
    sector at a time, at its d: the |total| d**2 fiber blocks with their
    |total| int64 index, the |G| d**2 blocks of the first orbit and their
    adjoint, and three chunks of the k <= |base| + log2 |G| generating
    orbits (_orbit_chunk): their gather, a product and a residual. The deck
    elements are the cover's own, so nothing of the action's size is formed.
    """
    k = nbase + ng.bit_length() - 1
    sector = max(
        itemsize * d * d * (npts + 2 * ng + 3 * min(k, _orbit_chunk(ng, d, itemsize)) * ng)
        for d in set(dims)
    )
    return itemsize * ng * sum(d * d for d in dims) + 8 * npts + sector


def check_census_cost(q: int, n_particles: int) -> None:
    """Refuse the census of symmetric_cover(q, N), the cover included, from (q, N) alone.

    The build takes 8 bytes per entry of the (|total|, N) tuples and six
    |total| vectors (cover_from_action's lookup and section with FiniteCover's
    scattered orbits, values and index, or that index with its tau and h),
    and 25 per entry of the (|total|, |G|) action and the Cayley table (each
    with two int64 gathers and a boolean comparison while its law is
    checked), added to _census_bytes at 8 bytes per entry of Young's real
    forms. |total| = q!/(q - N)! is multiplied factor by factor and the
    tuples and vectors checked after each, so nothing of the cover's size
    is formed before a refusal. (q, N) outside symmetric_cover's domain are
    left to its DomainError.
    """
    n = n_particles
    if not 1 <= n <= q:
        return
    what = f"cover census of the {n}-particle cover of {q} points"
    total = 1
    for k in range(q, q - n, -1):
        total *= k
        check_bytes(8 * total * (n + 6), what)
    order = math.factorial(n)
    dims = [hook_dimension(shape) for shape in enumerate_partitions(n)]
    tables = 8 * total * (n + 6) + 25 * (total + order) * order
    check_bytes(tables + _census_bytes(total, total // order, order, dims, 8), what)


def _sector_dimensions(reps: list[GroupRep]) -> tuple[list[int], dict, float]:
    """Commutant and pairwise intertwiner dimensions from one character Gram matrix.

    The kernels act on sector pi as M_|base| x pi(C[G]) (sector_census),
    so Hom(pi, pi') has dimension sum_chi m_chi m'_chi over the
    multiplicities of the irreducibles chi in pi and pi': the character
    inner product |G|**-1 sum_g chi_pi(g) conj(chi_pi'(g)) (Schur
    orthogonality; Serre, Linear Representations of Finite Groups, 2.3).

    Rounded, the diagonal gives the commutant dimensions and the upper
    triangle the intertwiner dimensions; the largest distance of an entry
    from its integer is the margin, past linalg.RESIDUAL_TOL a
    ConsistencyError.
    """
    chars = np.array([np.trace(rep.matrices, axis1=1, axis2=2) for rep in reps])
    gram = chars @ chars.conj().T / chars.shape[1]
    dims = np.rint(gram.real)
    margin = linalg.max_abs(gram - dims)
    if margin > linalg.RESIDUAL_TOL:
        raise ConsistencyError(f"character Gram matrix is {margin:.2e} from integral")
    commutant = [int(dims[i, i]) for i in range(len(reps))]
    pairwise = {
        f"{reps[i].label}|{reps[j].label}": int(dims[i, j])
        for i, j in itertools.combinations(range(len(reps)), 2)
    }
    return commutant, pairwise, margin


def _generating_set(cayley: np.ndarray, identity: int) -> np.ndarray:
    """A generating set of a group, grown greedily from its Cayley table.

    Each generator is the first element outside the subgroup generated so
    far, which it at least doubles (Lagrange), so there are at most
    log2 |G| of them. In a finite group the generated subgroup is the
    closure under products, reached by squaring the member set.
    """
    inside = np.arange(len(cayley)) == identity
    gens: list[int] = []
    while not inside.all():
        gens.append(int(np.argmin(inside)))
        inside[gens[-1]] = True
        size = 0
        while size < np.count_nonzero(inside):
            size = np.count_nonzero(inside)
            members = np.flatnonzero(inside)
            inside[cayley[np.ix_(members, members)]] = True
    return np.array(gens, dtype=np.int64)


def _cayley_diameter(cayley: np.ndarray, identity: int, gens: np.ndarray) -> int:
    """Longest shortest word in the generators: the depth of a breadth-first search.

    Layer l holds the elements first reached as products of l generators;
    the next layer is scattered as flags from their right products (no
    np.unique, which loads numpy.ma). Finite groups are generated as monoids
    by any generating set, so the search reaches every element.
    """
    reached = np.arange(len(cayley)) == identity
    layer = reached.copy()
    depth = 0
    while not reached.all():
        grown = np.zeros_like(reached)
        grown[cayley[np.ix_(np.flatnonzero(layer), gens)]] = True
        layer = grown & ~reached
        reached |= layer
        depth += 1
    return depth


def sector_census(cover: FiniteCover, seed: int = 0) -> SectorCensusReport:
    """Verify the sector correspondence for one cover.

    For every irreducible of the deck group the constrained action must
    have scalar commutant, distinct irreducibles no intertwiner, the
    squared carrier dimensions must exhaust the invariant kernels, and the
    realization unitary must conjugate the constrained action into the
    section action on every kernel. `seed` only reaches irreps_of.

    The orbit of a point pair (a, b) restricts to one d x d block at
    (tau(a), tau(b)), R = |G|**-1/2 sum_g W_{a.g}^* W_{b.g} over the fiber
    blocks W_x = |G|**-1/2 U(h(x)^-1). FiniteCover checked the group law
    of the free action and that the section's orbits partition the points,
    so x = sigma(tau(x)).h(x) gives h(x.g) = h(x) g, and R = |G|**-1/2
    U(h(a) h(b)^-1): for a on the section, the section action's block (the
    realization unitary is the identity). So the census takes the
    dimensions from the characters (_sector_dimensions), and restricts,
    with the leakage check, a generating set of the kernels M_|base| x
    C[G]: the orbits of (sigma(q0), sigma(q)) for every q and of (sigma(q0),
    sigma(q0).g) for the generators g. Their largest distance from
    |G|**-1/2 U(h(b)^-1) is intertwining_residual_max; both realizations
    are *-homomorphisms, so agreement on generators is agreement on every
    kernel; the column points cover every fiber, so a wrong h(x) leaks.
    The orbits are checked in chunks (_orbit_chunk), in the irreducibles'
    own dtype, and _census_bytes is refused over errors.BYTES_CAP first.
    """
    reps = irreps_of(cover.group, seed=seed)
    npts, nbase, ng = cover.total_size, cover.base_size, cover.group.order
    itemsize = reps[0].matrices.itemsize
    check_bytes(
        _census_bytes(npts, nbase, ng, [rep.dimension for rep in reps], itemsize),
        f"cover census of {npts} points over {nbase} base points (deck group of order {ng})",
    )
    commutant, pairwise, margin = _sector_dimensions(reps)

    start = cover.action[cover.section[0]]
    ends = np.concatenate((cover.section, start[cover.group._generators]))
    inverse_deck = cover.group._inverse[cover.deck_element()[ends]]
    root = math.sqrt(ng)
    residual = 0.0
    for rep in reps:
        fibers = _fiber_blocks(cover, rep)
        left = fibers[start]
        left_adjoint = left.conj().swapaxes(1, 2)
        rows = _orbit_chunk(ng, rep.dimension, itemsize)
        for i in range(0, len(ends), rows):
            right = fibers[cover.action[ends[i : i + rows]]]
            restricted = np.matmul(left_adjoint, right).sum(axis=1)
            restricted /= root
            right /= root
            right -= left @ restricted[:, None]
            leakage = linalg.max_abs(right)
            if leakage > linalg.RESIDUAL_TOL:
                raise ConsistencyError(f"constrained subspace leaks: {leakage:.2e}")
            restricted -= rep.matrices[inverse_deck[i : i + rows]] / root
            residual = max(residual, linalg.max_abs(restricted))
        del fibers, left, left_adjoint, right
    records = [
        SectorCensusRecord(
            label=rep.label,
            internal_dim=rep.dimension,
            carrier_dim=nbase * rep.dimension,
            commutant_dim=dim,
        )
        for rep, dim in zip(reps, commutant)
    ]
    kernel_dim = nbase * nbase * ng
    identity_ok = sum(r.carrier_dim**2 for r in records) == kernel_dim

    passed = (
        identity_ok
        and all(r.commutant_dim == 1 for r in records)
        and all(v == 0 for v in pairwise.values())
        and residual < linalg.RESIDUAL_TOL
    )
    return SectorCensusReport(
        total_size=npts,
        base_size=nbase,
        group_order=ng,
        kernel_space_dim=kernel_dim,
        sectors=tuple(records),
        pairwise_intertwiner_dims=pairwise,
        dimension_margin=margin,
        dimension_identity_ok=identity_ok,
        intertwining_residual_max=residual,
        passed=passed,
    )

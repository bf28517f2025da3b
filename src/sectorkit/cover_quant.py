"""Finite models of covering-space quantization.

A finite set with a free action of a finite group, a bijection of its
points with base x G, is the desk-scale stand-in for a universal cover
over its quotient. Group-invariant kernels on the total set form the
observable algebra; for every unitary irreducible of the deck group it
acts irreducibly on the equivariant functions (the constrained
realization) and, unitarily equivalently, on functions over the quotient
tensored with the internal space (the section realization). This module
builds covers and their deck groups' irreducibles and runs the census of
that correspondence, with the handler of ``cover --q-size/--N``. The
``--cover-json`` reader and the regular split (cover_document) and the
dense realizations (cover_reference) resolve here on first access (PEP 562).

Measure conventions: kernels act by plain matrix multiplication on
functions over the total set; the inner product on equivariant functions
weights each fiber by 1/|G| so that evaluation along a section is
unitary onto the quotient realization.
"""

from __future__ import annotations

import importlib
import itertools
import math

# sectorkit modules before numpy (README Conventions); tolerances loads numpy
from .errors import ConsistencyError, DomainError, Value, check_bytes
from .partitions import content_sum, enumerate_partitions, hook_dimension
from .permgroup import Permutation, irrep, symmetric_group
from . import tolerances

import numpy as np

# the names that live beside the census, by the module that holds them
_ELSEWHERE = {
    "cover_from_json": "cover_document",
    "InvariantKernel": "cover_reference",
    "constrained_action": "cover_reference",
    "constrained_space": "cover_reference",
    "kernel_orbit_basis": "cover_reference",
    "random_invariant_kernel": "cover_reference",
    "realization_unitary": "cover_reference",
    "section_action": "cover_reference",
}


def __getattr__(name: str):
    """Resolve a name of _ELSEWHERE on first access and keep it here (PEP 562)."""
    module = _ELSEWHERE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


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


def _point_indices(values, npts: int, what: str) -> np.ndarray:
    """values as an int64 array of point indices in 0..npts-1, or DomainError naming `what`."""
    values = np.asarray(values)  # an empty list converts as floats
    if values.size and (values.dtype.kind not in "iu" or values.min() < 0 or values.max() >= npts):
        raise DomainError(f"{what} entries must be point indices in 0..{npts - 1}")
    return np.ascontiguousarray(values, dtype=np.int64)


class FiniteCover(Value, eq=False):
    """Free action of a finite group on a finite set, as a bijection of its points with base x G.

    points is a tuple or array of the points; orbits[q, g] is the point
    section(q) . g, so row q is the orbit of section(q) = orbits[q, e], the
    rows in any order. Listing every point once, the table gives each point
    x = orbits[tau(x), h(x)] its base point tau(x) and deck element h(x)
    (deck_element), and the action x.g = orbits[tau(x), h(x) g] is free and
    follows the group law by construction: that scatter is the only check.
    """

    _fields = ("points", "group", "orbits")

    def _validate(self):
        npts, ng = len(self.points), self.group.order
        orbits = _point_indices(self.orbits, npts, "orbit table")
        if orbits.ndim != 2 or orbits.shape[1] != ng:
            raise DomainError("orbit table needs one column per group element")
        tau = np.full(npts, -1, dtype=np.int64)
        tau[orbits] = np.arange(len(orbits))[:, None]
        if orbits.size != npts or tau.min(initial=0) < 0:
            raise DomainError("section must pick one point per orbit")
        deck = np.empty(npts, dtype=np.int64)
        deck[orbits] = np.arange(ng)
        object.__setattr__(self, "orbits", orbits)
        object.__setattr__(self, "section", orbits[:, self.group.identity])
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "_deck", deck)

    @property
    def total_size(self) -> int:
        return len(self.points)

    @property
    def base_size(self) -> int:
        return len(self.orbits)

    def deck_element(self) -> np.ndarray:
        """h_of[x]: the unique h with section(tau(x)) . h = x."""
        return self._deck

    def action(self) -> np.ndarray:
        """action[x, g] = x.g = orbits[tau(x), h(x) g], for the dense references."""
        return self.orbits[self.tau[:, None], self.group.cayley[self._deck]]


def cover_from_action(
    points,
    words,
    group_labels: tuple[str, ...] | None = None,
    section: np.ndarray | None = None,
) -> FiniteCover:
    """Build a cover from the action permutations of the deck group.

    words[g] holds the images of the points under element g, a (|G|,
    |points|) integer array or nested lists; unlabeled elements are named
    by index. A free action is fixed by the image of one point, so the
    Cayley table is read off the first point's images. The orbits of each
    orbit's smallest point, in increasing order, make a cover, and every
    word must equal its action: that one check implies the identity,
    freeness, the group law and that each word is a permutation.
    """
    npts = len(points)
    try:
        images = np.asarray(words, dtype=np.int64).reshape(len(words), npts)
    except (ValueError, TypeError, OverflowError) as exc:
        raise DomainError(f"group words are not lists of {npts} point indices: {exc}") from exc
    if npts == 0:
        raise DomainError("a cover needs at least one point")
    # entries outside the points would index past (or wrap around) the tables below
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
    # cayley[i, j] is the element taking 0 to 0.(g_i g_j) = (0.g_i).g_j
    cayley = lookup[images[:, images[:, 0]]].T
    if np.any(cayley < 0):
        raise DomainError("action maps are not closed under composition")
    labels = group_labels if group_labels is not None else tuple(map(str, range(ng)))
    group = FiniteGroup(cayley=cayley, labels=tuple(labels))

    idx = np.arange(npts)
    try:
        cover = FiniteCover(points, group, images[:, images.min(axis=0) == idx].T)
    except DomainError:
        cover = None
    # word g takes orbits[q, k] to orbits[q, k g]
    if cover is None or any(
        not np.array_equal(images[g, cover.orbits], cover.orbits[:, cayley[:, g]])
        for g in range(ng)
    ):
        fixed = np.flatnonzero((images == idx).any(axis=1) & (np.arange(ng) != group.identity))
        if fixed.size:
            raise DomainError(f"action is not free: element {labels[fixed[0]]}")
        raise DomainError("action is incompatible with the group law")
    if section is not None:
        cover = FiniteCover(points, group, images[:, _point_indices(section, npts, "section")].T)
    return cover


def symmetric_cover(q: int, n_particles: int) -> FiniteCover:
    """Injective tuples over q points, with the slot permutation action.

    The points are the rows of all ordered injective n-tuples of 0..q-1
    (removing the extended diagonal keeps the action free), in
    lexicographic order, so that read in base q they are increasing codes;
    the quotient is the n-element subsets, the section the sorted tuples.
    The orbit table searches the sorted tuples' moved codes (the tuples
    freed first), the Cayley table those of (0, ..., n-1).pi_i = pi_i - 1.
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
    first = np.array([pi.images for pi in perms]) - 1
    weights = q ** np.arange(n - 1, -1, -1)
    # slot i of t.pi holds t[pi(i)], so t.pi's code weighs t[pi(i)] by weights[i]
    moved = np.zeros_like(first)
    np.put_along_axis(moved, first, weights, axis=1)
    cayley = np.searchsorted(first @ weights, first @ moved.T)
    group = FiniteGroup(cayley=cayley, labels=tuple(str(pi.images) for pi in perms), perms=perms)
    sections = itertools.combinations(range(q), n)
    orbits = np.searchsorted(
        tuples @ weights,
        np.fromiter(sections, dtype=(np.int64, n), count=math.comb(q, n)) @ moved.T,
    )
    return FiniteCover(points=tuples, group=group, orbits=orbits)


def randomize_section(cover: FiniteCover, seed: int = 0) -> FiniteCover:
    """Same cover with a random representative p per orbit: row q becomes orbits[q, p g]."""
    picks = np.random.default_rng(seed).integers(cover.group.order, size=cover.base_size)
    rows = np.arange(cover.base_size)[:, None]
    return FiniteCover(cover.points, cover.group, cover.orbits[rows, cover.group.cayley[picks]])


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
        bad = np.flatnonzero(defects.max(axis=(1, 2), initial=0.0) > tolerances.GROUP_LAW_TOL)
        if bad.size:
            raise DomainError(f"matrix {bad[0]} is not unitary")
        if _group_law_bound(self.group, mats) > tolerances.GROUP_LAW_TOL:
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
    delta = tolerances.max_abs(mats[group.identity] - np.eye(d))
    for s in group._generators:
        defect = mats @ mats[s]
        defect -= mats[group.cayley[:, s]]
        delta = max(delta, tolerances.max_abs(defect))
    return 2 * max(group._diameter, 1) * d * delta


def irreps_of(group: FiniteGroup, seed: int = 0) -> list[GroupRep]:
    """All inequivalent unitary irreducibles of the deck group.

    Symmetric groups attached through `perms` get the exact orthogonal
    representations labeled by partitions; any other group is split
    numerically through its regular representation.
    """
    if group.perms is not None:
        reps = [(shape, irrep(shape)) for shape in enumerate_partitions(group.perms[0].degree)]
        return [
            GroupRep(group, np.array([rep.matrix(pi) for pi in group.perms]), str(shape.parts))
            for shape, rep in reps
        ]
    from .cover_document import _regular_irreps

    return _regular_irreps(group, seed)


def _fiber_blocks(cover: FiniteCover, rep: GroupRep) -> np.ndarray:
    """The fiber blocks of constrained_space by deck element, as (|G|, d, d).

    Row block x of the constrained basis is W_x = |G|**-1/2 U(h(x)^-1) in
    column block tau(x), h(x) = deck_element()[x]: row h(x) of this table.
    """
    if rep.group is not cover.group:
        raise DomainError("representation must belong to the cover's deck group")
    blocks = rep.inverse_matrices()
    blocks *= 1.0 / math.sqrt(cover.group.order)
    return blocks


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
        "total_size", "base_size", "group_order", "kernel_space_dim", "sectors",
        "pairwise_intertwiner_dims", "dimension_margin", "dimension_identity_ok",
        "intertwining_residual_max", "passed",
    )

    def to_dict(self) -> dict:
        return {
            **self._asdict(),
            "sectors": [s.to_dict() for s in self.sectors],
            "pairwise_intertwiner_dims": dict(self.pairwise_intertwiner_dims),
        }


def _orbit_chunk(ng: int, d: int, itemsize: int) -> int:
    """Orbits per chunk: (rows, |G|, d, d) arrays of at most CHUNK_BYTES, one row at least."""
    return max(1, tolerances.CHUNK_BYTES // (itemsize * ng * d * d))


def _census_bytes(nbase: int, ng: int, dims: list[int], itemsize: int) -> int:
    """Peak bytes of sector_census on |base| = nbase, |G| = ng.

    itemsize is the bytes of one entry of the irreducibles: 8 for Young's
    real orthogonal forms, 16 for the complex regular split. The stacks of
    all irreducibles (|G| sum d_chi**2 entries) are held throughout; one
    sector at a time, at its d: the |G| d**2 fiber blocks by deck element,
    those of the first orbit and their adjoint, and three chunks of the
    k <= |base| + log2 |G| generating orbits (_orbit_chunk), their gather,
    a product and a residual, with 16 bytes per point for the chunk's
    points and deck elements: nothing of the cover's size.
    """
    k = nbase + ng.bit_length() - 1
    rows = {d: min(k, _orbit_chunk(ng, d, itemsize)) for d in dims}
    sector = max(ng * (3 * itemsize * d * d * (1 + r) + 16 * r) for d, r in rows.items())
    return itemsize * ng * sum(d * d for d in dims) + sector


def check_census_cost(q: int, n_particles: int) -> None:
    """Refuse the census of symmetric_cover(q, N), the cover included, from (q, N) alone.

    The build holds at most 8 bytes per entry of the (|total|, N) tuples
    and four |total| vectors (the tuples' codes, the sorted tuples of
    |base| N <= |total| entries, their moved codes and the orbit table, or
    that table with tau and h), and 25 per entry of the Cayley table (two
    int64 gathers and a comparison check its law), added to _census_bytes
    for Young's real forms. |total| = q!/(q - N)! is multiplied factor by
    factor and the tuples and vectors checked after each, so nothing of the
    cover's size is formed before a refusal. (q, N) outside
    symmetric_cover's domain are left to its DomainError.
    """
    n = n_particles
    if not 1 <= n <= q:
        return
    what = f"cover census of the {n}-particle cover of {q} points"
    total = 1
    for k in range(q, q - n, -1):
        total *= k
        check_bytes(8 * total * (n + 4), what)
    order = math.factorial(n)
    dims = [hook_dimension(shape) for shape in enumerate_partitions(n)]
    build = 8 * total * (n + 4) + 25 * order * order
    check_bytes(build + _census_bytes(total // order, order, dims, 8), what)


def _sector_dimensions(reps: list[GroupRep]) -> tuple[list[int], dict, float]:
    """Commutant and pairwise intertwiner dimensions from one character Gram matrix.

    The kernels act on sector pi as M_|base| x pi(C[G]) (sector_census),
    so Hom(pi, pi') has dimension sum_chi m_chi m'_chi over the
    multiplicities of the irreducibles chi in pi and pi': the character
    inner product |G|**-1 sum_g chi_pi(g) conj(chi_pi'(g)) (Schur
    orthogonality; Serre, Linear Representations of Finite Groups, 2.3).

    Rounded, the diagonal gives the commutant dimensions and the upper
    triangle the intertwiner dimensions; the largest distance of an entry
    from its integer is the margin, past tolerances.RESIDUAL_TOL a
    ConsistencyError.
    """
    chars = np.array([np.trace(rep.matrices, axis1=1, axis2=2) for rep in reps])
    gram = chars @ chars.conj().T / chars.shape[1]
    dims = np.rint(gram.real)
    margin = tolerances.max_abs(gram - dims)
    if margin > tolerances.RESIDUAL_TOL:
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


def _check_labels(group: FiniteGroup, reps: list[GroupRep]) -> None:
    """ConsistencyError unless each sector labelled by a partition of N carries its character.

    On a transposition that is d_lambda sum_x c(x) / C(N, 2) over the
    contents c(x) of lambda's cells (Frobenius), so (N) is the trivial
    sector and (1^N) the sign. Only deck groups with `perms` have such
    labels, and S_1 no transposition.
    """
    n = group.perms[0].degree if group.perms is not None else 1
    if n == 1:
        return
    t = group.perms.index(Permutation.transposition(n, 1, 2))
    shapes = {str(shape.parts): shape for shape in enumerate_partitions(n)}
    for rep in (rep for rep in reps if rep.label in shapes):
        shape = shapes[rep.label]
        expected = hook_dimension(shape) * content_sum(shape) / math.comb(n, 2)
        found = np.trace(rep.matrices[t])
        if abs(found - expected) > tolerances.RESIDUAL_TOL:
            raise ConsistencyError(
                f"sector {rep.label} has character {found:.6g} on a transposition, not {expected:g}"
            )


def sector_census(cover: FiniteCover, seed: int = 0) -> SectorCensusReport:
    """Verify the sector correspondence for one cover.

    For every irreducible of the deck group the constrained action must
    have scalar commutant, distinct irreducibles no intertwiner, the
    squared carrier dimensions must exhaust the invariant kernels, and the
    realization unitary must conjugate the constrained action into the
    section action on every kernel. `seed` only reaches irreps_of.

    The orbit of a point pair (a, b) restricts to one d x d block at
    (tau(a), tau(b)), R = |G|**-1/2 sum_g W_{a.g}^* W_{b.g} over the fiber
    blocks W_x = |G|**-1/2 U(h(x)^-1). The cover is a bijection of its
    points with base x G, x = sigma(tau(x)).h(x), so h(x.g) = h(x) g and
    R = |G|**-1/2 U(h(a) h(b)^-1): for a on the section, the section
    action's block (the realization unitary is the identity). So the census
    takes the dimensions from the characters (_sector_dimensions), checks
    the labels (_check_labels), and restricts, with the leakage check, a
    generating set of the kernels M_|base| x C[G]: the orbits of (sigma(q0),
    sigma(q)) for every q and of (sigma(q0), sigma(q0).g) for the generators
    g, rows of the orbit table. Their largest distance from |G|**-1/2
    U(h(b)^-1) is intertwining_residual_max; both realizations are
    *-homomorphisms, so agreement on generators is agreement on every
    kernel; the column points cover every fiber, so a wrong h(x) leaks.
    Each chunk of orbits (_orbit_chunk) gathers the fiber blocks of its own
    points, in the irreducibles' dtype, after _census_bytes is admitted.
    """
    reps = irreps_of(cover.group, seed=seed)
    npts, nbase, ng = cover.total_size, cover.base_size, cover.group.order
    itemsize = reps[0].matrices.itemsize
    check_bytes(
        _census_bytes(nbase, ng, [rep.dimension for rep in reps], itemsize),
        f"cover census of {npts} points over {nbase} base points (deck group of order {ng})",
    )
    _check_labels(cover.group, reps)
    commutant, pairwise, margin = _sector_dimensions(reps)

    group, orbits, deck = cover.group, cover.orbits, cover.deck_element()
    generated = orbits[0, group.cayley[group._generators]]
    root = math.sqrt(ng)
    residual = 0.0
    for rep in reps:
        blocks = _fiber_blocks(cover, rep)
        left = blocks[deck[orbits[0]]]
        left_adjoint = left.conj().swapaxes(1, 2)
        rows = _orbit_chunk(ng, rep.dimension, itemsize)
        for i in range(0, nbase + len(generated), rows):
            tail = generated[max(i - nbase, 0) : max(i + rows - nbase, 0)]
            points = np.concatenate((orbits[i : i + rows], tail))
            right = blocks[deck[points]]
            restricted = np.matmul(left_adjoint, right).sum(axis=1)
            restricted /= root
            right /= root
            right -= left @ restricted[:, None]
            leakage = tolerances.max_abs(right)
            if leakage > tolerances.RESIDUAL_TOL:
                raise ConsistencyError(f"constrained subspace leaks: {leakage:.2e}")
            restricted -= rep.matrices[group._inverse[deck[points[:, group.identity]]]] / root
            residual = max(residual, tolerances.max_abs(restricted))
        del blocks, left, left_adjoint, right
    # label, internal_dim, carrier_dim, commutant_dim
    records = tuple(
        SectorCensusRecord(rep.label, rep.dimension, nbase * rep.dimension, dim)
        for rep, dim in zip(reps, commutant)
    )
    kernel_dim = nbase * nbase * ng
    identity_ok = sum(r.carrier_dim**2 for r in records) == kernel_dim
    passed = (
        identity_ok
        and all(r.commutant_dim == 1 for r in records)
        and all(v == 0 for v in pairwise.values())
        and residual < tolerances.RESIDUAL_TOL
    )
    return SectorCensusReport(
        total_size=npts, base_size=nbase, group_order=ng, kernel_space_dim=kernel_dim,
        sectors=records, pairwise_intertwiner_dims=pairwise, dimension_margin=margin,
        dimension_identity_ok=identity_ok, intertwining_residual_max=residual, passed=passed,
    )


def _run_cover(args) -> tuple[int, bytes]:
    """The ``cover --q-size/--N`` report; cli checked the options before importing this module."""
    # refuse from (q, N) alone: enumerating the cover may already exceed the cap
    check_census_cost(args.q_size, args.N)
    cover = symmetric_cover(args.q_size, args.N)
    return _cover_report(args, cover, {"q_size": args.q_size, "N": args.N})


def _cover_report(args, cover: FiniteCover, source: dict) -> tuple[int, bytes]:
    """The census of `cover`, rendered; `source` names the cover in the report's config."""
    from .cli import EXIT_CHECK_FAILED, EXIT_OK, SCHEMA, _render_json, _render_pretty

    report = sector_census(cover, seed=args.seed)
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

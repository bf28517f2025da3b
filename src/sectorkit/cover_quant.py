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

Everything here is plain Python, so a ``cover --q-size/--N`` run loads no
numpy: index tables are one array('q') (IndexTable), representations
one list of floats or complexes (MatrixStack), and every pass over them
runs through map and sum over whole vectors, an entry of every matrix or
a column of every block at once. numpy reads both types (``__array__``),
as cover_document and cover_reference do.

Measure conventions: kernels act by plain matrix multiplication on
functions over the total set; the inner product on equivariant functions
weights each fiber by 1/|G| so that evaluation along a section is
unitary onto the quotient realization.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import numbers
from array import array
from itertools import chain, cycle, repeat
from operator import add, eq, getitem, mul, setitem, sub, truediv

from .errors import ConsistencyError, DomainError, Value, check_bytes, check_work
from .partitions import content_sum, enumerate_partitions, hook_dimension
from .permgroup import Permutation, symmetric_group, young_generators
from . import tolerances

# the names that live beside the census, by the module that holds them
_ELSEWHERE = {
    "cover_from_action": "cover_document",
    "cover_from_json": "cover_document",
    "InvariantKernel": "cover_reference",
    "constrained_action": "cover_reference",
    "constrained_space": "cover_reference",
    "kernel_orbit_basis": "cover_reference",
    "random_invariant_kernel": "cover_reference",
    "randomize_section": "cover_reference",
    "realization_unitary": "cover_reference",
    "section_action": "cover_reference",
}

# CPython object sizes on a 64-bit build: an array('q') entry or a list
# slot; a float or a complex in the allocator's 16-byte blocks; and a slot
# of a list built from an iterator, whose last growth holds its old and new
# slot arrays at once.
INDEX_BYTES = 8
NUMBER_BYTES = 32
GROWN_SLOT_BYTES = 16
# Per group element besides its table rows: the Permutation, its images and
# its label, the dict from images to index, and the breadth-first search's
# lists and triples.
ELEMENT_BYTES = 640
# What an admitted run touches that a refused one does not, whatever its
# size: the allocator's arenas for the group, the report and its rendering.
ADMITTED_BYTES = 2**20
# What a census allocates whatever its group: the partitions and labels,
# the records and the report (4-23 KB traced on Python 3.10 and 3.11).
CENSUS_BASE_BYTES = 2**15
# Per point of a symmetric cover: its orbit-table entry and h. The closed
# form fills the table ORBIT_CHUNK_ROWS rows at a time from its runs, one
# per sorted (N-1)-tuple of 0..q-2: the tuple in a list, its entries by
# position, its start and length, with their ints, RUN_BYTES in all.
POINT_BYTES = 2 * INDEX_BYTES
ORBIT_CHUNK_ROWS = 2**14
RUN_BYTES = 192
# One step of a map or sum over a vector (a multiply, add, gather or
# compare of Python numbers, 10-25 ns on a 2-core VM) in the units of
# errors.WORK_CAP, whose other counts run at about 3 ns per operation. A
# point of a symmetric cover takes about 18 steps: its closed-form number,
# the scatter of h, the bounds and coverage checks and the deck comparison.
STEP_OPERATIONS = 6
POINT_STEPS = 18


def __getattr__(name: str):
    """Resolve a name of _ELSEWHERE on first access and keep it here (PEP 562)."""
    module = _ELSEWHERE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


class IndexTable:
    """A table of indices, row-major in one array('q') of `width` columns.

    table[i] is row i as an array, table[i, j] one entry and
    table.column(j) column j; numpy reads the table as an int64 array
    of its shape (``__array__``), as the dense references do. Tables are
    built once and kept, not copied, by the types below.
    """

    __slots__ = ("data", "width")

    def __init__(self, data: array, width: int):
        self.data = data
        self.width = width

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.data) // self.width if self.width else 0, self.width)

    def __len__(self) -> int:
        return self.shape[0]

    def _offset(self, i: int, j: int) -> int:
        return range(len(self))[i] * self.width + range(self.width)[j]

    def __getitem__(self, key):
        if isinstance(key, tuple):
            return self.data[self._offset(*key)]
        start = self._offset(key, 0) if self.width else 0
        return self.data[start : start + self.width]

    def column(self, j: int) -> array:
        return self.data[j :: self.width]

    def __array__(self, dtype=None, copy=None):
        import numpy as np  # only numpy calls this, so numpy is loaded already

        return np.array(self.data, dtype=np.int64).reshape(self.shape).astype(dtype or np.int64)


def _index_table(rows, width: int, bound: int, shape_error: str, entry_error: str) -> IndexTable:
    """rows, an IndexTable or rows of ints, as an IndexTable of `width`
    columns with entries in 0..bound-1; DomainError otherwise."""
    if not isinstance(rows, IndexTable):
        try:
            rows = list(rows)
            ragged = any(len(row) != width for row in rows)
        except TypeError as exc:
            raise DomainError(shape_error) from exc
        if ragged:
            raise DomainError(shape_error)
        try:  # array('q') takes ints alone: a float, even 1.0, is no index
            rows = IndexTable(array("q", chain.from_iterable(rows)), width)
        except (TypeError, OverflowError) as exc:
            raise DomainError(entry_error) from exc
    elif rows.width != width:
        raise DomainError(shape_error)
    if rows.data and (min(rows.data) < 0 or max(rows.data) >= bound):
        raise DomainError(entry_error)
    return rows


def _breadth_first(n: int, identity: int, steps: list[array]) -> tuple[list, int]:
    """The elements reached from `identity` by right multiplications, layer by layer.

    steps[i][x] is x s_i. Returns the (element, parent, i) of every element
    reached past the identity, in the order reached, with element = parent
    s_i, and the number of layers past the first: the longest shortest
    word in the s_i, the diameter of the Cayley graph when they generate.
    """
    reached = bytearray(n)
    reached[identity] = 1
    layer, tree, depth = [identity], [], 0
    while True:
        grown = []
        for x in layer:
            for i, step in enumerate(steps):
                y = step[x]
                if not reached[y]:
                    reached[y] = 1
                    grown.append(y)
                    tree.append((y, x, i))
        if not grown:
            return tree, depth
        layer, depth = grown, depth + 1


def _positions(row: array, value: int):
    """The positions of `value` in row, in increasing order."""
    j = -1
    while True:
        try:
            j = row.index(value, j + 1)
        except ValueError:
            return
        yield j


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
        n = len(self.labels)
        cayley = _index_table(
            self.cayley, n, n,
            "cayley table and labels are inconsistent",
            "cayley table entries must be element indices",
        )
        if len(cayley) != n:
            raise DomainError("cayley table and labels are inconsistent")
        object.__setattr__(self, "cayley", cayley)
        ident = array("q", range(n))
        found = [i for i in range(n) if cayley[i] == ident and cayley.column(i) == ident]
        if len(found) != 1:
            raise DomainError("group must have exactly one identity")
        e = found[0]
        object.__setattr__(self, "_identity", e)
        inverse = array("q", [0]) * n
        for i in range(n):
            column = cayley.column(i)
            j = next((j for j in _positions(cayley[i], e) if column[j] == e), None)
            if j is None:
                raise DomainError("group element without inverse")
            inverse[i] = j
        object.__setattr__(self, "_inverse", inverse)
        gens = _generating_set(cayley, e, self.perms)
        object.__setattr__(self, "_generators", gens)
        # (g_i g_j) g_k == g_i (g_j g_k) for k over generators: the k it holds
        # for are closed under products (Light's test; Clifford and Preston, 1.2)
        for k in gens:
            column = cayley.column(k)
            for row in map(cayley.__getitem__, range(n)):
                if list(map(column.__getitem__, row)) != list(map(row.__getitem__, column)):
                    raise DomainError("multiplication is not associative")
        _, diameter = _breadth_first(n, e, [cayley.column(k) for k in gens])
        object.__setattr__(self, "_diameter", diameter)

    @property
    def order(self) -> int:
        return len(self.cayley)

    @property
    def identity(self) -> int:
        return self._identity


def _generating_set(cayley: IndexTable, identity: int, perms=None) -> list[int]:
    """A generating set of a group, from its permutations or grown greedily from its Cayley table.

    The transposition (1 2) and the cycle (1 2 ... N) generate S_N, so a
    group with `perms` gets those two (one for N = 2) when its table
    confirms it: every generator costs the census one generating orbit
    per sector and the group law one pass per stack. Otherwise each
    generator is the first element outside the subgroup generated so far,
    which it at least doubles (Lagrange), so there are at most log2 |G| of
    them. In a finite group the generated subgroup is the closure of the
    identity under right multiplication by the generators, found breadth
    first.
    """
    n = len(cayley)
    if perms is not None and perms[0].degree > 1:
        degree = perms[0].degree
        cycle = Permutation((*range(2, degree + 1), 1))
        gens = sorted({perms.index(Permutation.transposition(degree, 1, 2)), perms.index(cycle)})
        tree, _ = _breadth_first(n, identity, [cayley.column(g) for g in gens])
        if len(tree) == n - 1:
            return gens
    inside = bytearray(n)
    inside[identity] = 1
    gens = []
    while 0 in inside:
        gens.append(inside.index(0))
        tree, _ = _breadth_first(n, identity, [cayley.column(g) for g in gens])
        for x, _, _ in tree:
            inside[x] = 1
    return gens


class FiniteCover(Value, eq=False):
    """Free action of a finite group on a finite set, as a bijection of its points with base x G.

    points is a sequence of the points; orbits[q, g] is the point
    section(q) . g, so row q is the orbit of section(q) = orbits[q, e], the
    rows in any order. Listing every point once, the table gives each point
    x = orbits[tau(x), h(x)] its base point tau(x) and deck element h(x)
    (deck_element), and the action x.g = orbits[tau(x), h(x) g] is free and
    follows the group law by construction: the scatter of h, which must
    reach every point, is the only check.
    """

    _fields = ("points", "group", "orbits")

    def _validate(self):
        npts, ng = len(self.points), self.group.order
        orbits = _index_table(
            self.orbits, ng, npts,
            "orbit table needs one column per group element",
            f"orbit table entries must be point indices in 0..{npts - 1}",
        )
        deck = array("q", [-1]) * npts
        # h of each listed point is its column; any() runs the scatter to the end
        any(map(setitem, repeat(deck), orbits.data, cycle(range(ng))))
        if len(orbits.data) != npts or -1 in deck:
            raise DomainError("section must pick one point per orbit")
        object.__setattr__(self, "orbits", orbits)
        object.__setattr__(self, "_deck", deck)

    @functools.cached_property
    def section(self) -> array:
        """section[q] = orbits[q, e], the representative of base point q."""
        return self.orbits.column(self.group.identity)

    @functools.cached_property
    def tau(self) -> array:
        """tau[x]: the base point q of x, whose row of the orbit table lists x.

        Scattered on first use: the census reads h alone, and the dense
        references, which read tau, run on small covers.
        """
        tau = array("q", [0]) * self.total_size
        rows = chain.from_iterable(map(repeat, range(self.base_size), repeat(self.group.order)))
        any(map(setitem, repeat(tau), self.orbits.data, rows))
        return tau

    @property
    def total_size(self) -> int:
        return len(self.points)

    @property
    def base_size(self) -> int:
        return len(self.orbits)

    def deck_element(self) -> array:
        """h_of[x]: the unique h with section(tau(x)) . h = x."""
        return self._deck

    def action(self) -> IndexTable:
        """action[x, g] = x.g = orbits[tau(x), h(x) g], for the dense references."""
        ng, orbits, cayley = self.group.order, self.orbits.data, self.group.cayley.data
        data = array("q", (
            orbits[q * ng + cayley[h * ng + g]]
            for q, h in zip(self.tau, self._deck)
            for g in range(ng)
        ))
        return IndexTable(data, ng)


def symmetric_cover(q: int, n_particles: int) -> FiniteCover:
    """Injective tuples over q points, with the slot permutation action.

    The points are the ordered injective n-tuples of 0..q-1 (removing the
    extended diagonal keeps the action free), numbered in lexicographic
    order; the quotient is the n-element subsets, the section the sorted
    tuples. No tuple is stored: the orbit table has a closed form
    (_symmetric_orbits), and the Cayley table is built column by column
    from the adjacent transpositions (_symmetric_cayley).
    """
    n = n_particles
    if n < 1:
        raise DomainError(f"need at least one particle, got N={n}")
    if q < n:
        raise DomainError(f"need |Q| >= N, got |Q|={q}, N={n}")
    perms = tuple(symmetric_group(n))
    labels = tuple(str(pi.images) for pi in perms)
    group = FiniteGroup(cayley=_symmetric_cayley(perms), labels=labels, perms=perms)
    orbits = _symmetric_orbits(q, perms)
    return FiniteCover(points=range(math.perm(q, n)), group=group, orbits=orbits)


def _swapped(images: tuple[int, ...], k: int) -> tuple[int, ...]:
    """One-line images of pi s_k: entries k and k + 1 (1-based) exchanged."""
    return images[: k - 1] + (images[k], images[k - 1]) + images[k + 1 :]


def _symmetric_cayley(perms: tuple[Permutation, ...]) -> IndexTable:
    """cayley[i, j] = index of pi_i pi_j over S_N in lexicographic order.

    Column j = parent s_k of the breadth-first tree over the adjacent
    transpositions is column parent moved by s_k: index(pi_i parent s_k)
    is step_k at index(pi_i parent), step_k[x] = index(pi_x s_k) looked up
    once per element. The identity, first in lexicographic order, has
    column 0..n-1.
    """
    n, degree = len(perms), perms[0].degree
    index = {pi.images: i for i, pi in enumerate(perms)}
    steps = [array("q", [index[_swapped(pi.images, k)] for pi in perms]) for k in range(1, degree)]
    data = array("q", [0]) * (n * n)
    data[0::n] = array("q", range(n))
    tree, _ = _breadth_first(n, 0, steps)
    for child, parent, k in tree:
        data[child::n] = array("q", map(steps[k].__getitem__, data[parent::n]))
    return IndexTable(data, n)


def _symmetric_orbits(q: int, perms: tuple[Permutation, ...]) -> IndexTable:
    """orbits[s, pi] = the number of the tuple s.pi, for sorted s, in closed form.

    Slot i of t.pi holds t[pi(i)]. The lexicographic number of an injective
    tuple t is sum_i (t_i - #{j < i : t_j < t_i}) w_i with the place values
    w_i = (q-1-i)!/(q-N)!, so for increasing s it is sum_k s_k W_pi[k] -
    C_pi, with W_pi[pi(i)] = w_i and C_pi = sum_i w_i #{j < i : pi(j) <
    pi(i)}. The sorted tuples, in lexicographic order, run through their
    last entry with the others held, so each column is one arithmetic
    progression of step W_pi[N-1] per run, filled as a range, for the runs
    of ORBIT_CHUNK_ROWS rows at a time.
    """
    n, ng = perms[0].degree, len(perms)
    place = [math.perm(q - 1 - i, n - 1 - i) for i in range(n)]
    heads = list(itertools.combinations(range(q - 1), n - 1))  # the entries before the last
    held = [[head[k] for head in heads] for k in range(n - 1)]
    starts = [head[-1] + 1 for head in heads] if n > 1 else [0]
    lengths = [q - s for s in starts]
    del heads
    columns = []  # W_pi and C_pi
    for pi in perms:
        p = [x - 1 for x in pi.images]
        weight = [0] * n
        for i, slot in enumerate(p):
            weight[slot] = place[i]
        shift = sum(w * sum(p[j] < p[i] for j in range(i)) for i, w in enumerate(place))
        columns.append((weight, shift))
    data = array("q", [0]) * (math.comb(q, n) * ng)
    row, lo = 0, 0
    while lo < len(starts):
        hi, rows = lo + 1, lengths[lo]
        while hi < len(starts) and rows + lengths[hi] <= ORBIT_CHUNK_ROWS:
            rows, hi = rows + lengths[hi], hi + 1
        for column, (weight, shift) in enumerate(columns):
            step = weight[-1]
            first = list(map(sub, map(mul, starts[lo:hi], repeat(step)), repeat(shift)))
            for k in range(n - 1):
                first = list(map(add, first, map(mul, held[k][lo:hi], repeat(weight[k]))))
            stop = map(add, first, map(mul, lengths[lo:hi], repeat(step)))
            runs = chain.from_iterable(map(range, first, stop, repeat(step)))
            data[row * ng + column : (row + rows) * ng : ng] = array("q", runs)
        row, lo = row + rows, hi
    return IndexTable(data, ng)


class MatrixStack:
    """|G| square d x d matrices, row-major one after another in one list.

    The entries are all Python floats (Young's orthogonal forms) or all
    complexes. block(g) is matrix g, row-major; numpy reads the stack as
    a (|G|, d, d) array (``__array__``). entries[r*d + c :: d*d]
    is entry (r, c) of every matrix and entries[c :: d] column c of all
    matrices stacked: the vectors every pass below runs on.
    """

    __slots__ = ("entries", "dimension")

    def __init__(self, entries: list, dimension: int):
        self.entries = entries
        self.dimension = dimension

    def __len__(self) -> int:
        return len(self.entries) // self.dimension**2

    def block(self, g: int) -> list:
        """Matrix g, row-major."""
        dd = self.dimension**2
        return self.entries[g * dd : (g + 1) * dd]

    @property
    def is_complex(self) -> bool:
        return bool(self.entries) and type(self.entries[0]) is complex

    def gather(self, elements) -> MatrixStack:
        """The matrices of `elements`, in their order."""
        dd = self.dimension**2
        entries = self.entries
        if dd == 1:  # one entry per matrix, as in every irreducible of an abelian group
            return MatrixStack(list(map(entries.__getitem__, elements)), 1)
        return MatrixStack(
            list(chain.from_iterable(entries[g * dd : (g + 1) * dd] for g in elements)),
            self.dimension,
        )

    def traces(self) -> list:
        d, dd = self.dimension, self.dimension**2
        acc = self.entries[0::dd]
        for r in range(1, d):
            acc = list(map(add, acc, self.entries[r * (d + 1) :: dd]))
        return acc

    def __array__(self, dtype=None, copy=None):
        import numpy as np  # only numpy calls this, so numpy is loaded already

        d = self.dimension
        return np.array(self.entries, dtype=dtype).reshape(len(self), d, d)


def _conjugate(vector: list) -> list:
    return list(map(complex.conjugate, vector))


def _matrix_stack(matrices) -> MatrixStack:
    """matrices as a MatrixStack: kept if one, else read as |G| nested d x d rows.

    Real numbers become floats; if any entry is not real, every entry
    becomes a complex (numpy's scalars register with the numbers ABCs).
    """
    if isinstance(matrices, MatrixStack):
        return matrices
    shape_error = "need one square matrix per group element, all of one shape"
    try:
        mats = [[list(row) for row in m] for m in matrices]
    except TypeError as exc:
        raise DomainError(shape_error) from exc
    d = len(mats[0]) if mats else 0
    if d == 0 or any(len(m) != d or any(len(row) != d for row in m) for m in mats):
        raise DomainError(shape_error)
    entries = list(chain.from_iterable(chain.from_iterable(mats)))
    if not all(isinstance(x, numbers.Complex) for x in entries):
        raise DomainError("matrix entries must be numbers")
    kind = float if all(isinstance(x, numbers.Real) for x in entries) else complex
    return MatrixStack(list(map(kind, entries)), d)


class GroupRep(Value, eq=False):
    """Unitary representation of a FiniteGroup: matrices[g] is U(g).

    matrices is a MatrixStack, or nested (|G|, d, d) rows read into one;
    a real stack stays real (Young's orthogonal forms), a stack with any
    complex entry is complex throughout.
    """

    _fields = ("group", "matrices", "label")

    def _validate(self):
        mats = _matrix_stack(self.matrices)
        object.__setattr__(self, "matrices", mats)
        if len(mats) != self.group.order:
            raise DomainError("need one square matrix per group element, all of one shape")
        if _unitarity_defect(mats) > tolerances.GROUP_LAW_TOL:
            bad = next(
                g for g in range(len(mats))
                if _unitarity_defect(mats.gather([g])) > tolerances.GROUP_LAW_TOL
            )
            raise DomainError(f"matrix {bad} is not unitary")
        if _group_law_bound(self.group, mats) > tolerances.GROUP_LAW_TOL:
            raise DomainError("matrices do not respect the group law")

    @property
    def dimension(self) -> int:
        return self.matrices.dimension

    def inverse_matrices(self) -> MatrixStack:
        """U(g^-1) for every element g, in element order."""
        return self.matrices.gather(self.group._inverse)


def _entry_vectors(mats: MatrixStack) -> list[list]:
    """vectors[r*d + c]: entry (r, c) of every matrix, in element order."""
    dd = mats.dimension**2
    return [mats.entries[k::dd] for k in range(dd)]


def _unitarity_defect(mats: MatrixStack) -> float:
    """max |(U U*)_rs - delta_rs| over every matrix U and every row pair r <= s at once."""
    d = mats.dimension
    entry = _entry_vectors(mats)
    adjoint = [_conjugate(v) for v in entry] if mats.is_complex else entry
    worst = 0.0
    for r in range(d):
        for s in range(r, d):
            acc = map(mul, entry[r * d], adjoint[s * d])
            for c in range(1, d):
                acc = map(add, acc, map(mul, entry[r * d + c], adjoint[s * d + c]))
            worst = max(worst, max(map(abs, map(sub, acc, repeat(1.0)) if r == s else acc)))
    return worst


def _group_law_bound(group: FiniteGroup, mats: MatrixStack) -> float:
    """A bound on max_abs(U(x) U(y) - U(xy)) over all pairs, from the generators.

    delta is the largest entry of U(e) - 1 and of U(x) U(s) - U(xs) over
    every x and every generator s, each entry (r, c) for all x at once
    over the nonzero entries of column c of U(s). Write y as a word s_1
    ... s_l in the generators; with U unitary,
    U(x) U(ys) - U(xys) = -U(x) (U(y) U(s) - U(ys)) + (U(x) U(y) - U(xy)) U(s)
    + (U(xy) U(s) - U(xys)), and an entry bound delta bounds the operator
    norm by d delta, so by induction on l every pair is within 2 l d delta
    (d delta for y = e). l is at most the Cayley graph's diameter D, so
    2 max(D, 1) d delta bounds every pair: held to GROUP_LAW_TOL it
    certifies the law as strictly as checking all |G|**2 pairs, whose
    check is kept as the test oracle.
    """
    d = mats.dimension
    identity = mats.block(group.identity)
    delta = max(abs(x - (1.0 if k % (d + 1) == 0 else 0.0)) for k, x in enumerate(identity))
    entry = _entry_vectors(mats)
    for s in group._generators:
        u = mats.block(s)
        moved = _entry_vectors(mats.gather(group.cayley.column(s)))  # U(x s) for every x
        for r in range(d):
            for c in range(d):
                product = repeat(0.0, len(mats))
                for m in range(d):
                    if u[m * d + c] != 0:
                        term = map(mul, entry[r * d + m], repeat(u[m * d + c]))
                        product = map(add, product, term)
                delta = max(delta, max(map(abs, map(sub, product, moved[r * d + c]))))
    return 2 * max(group._diameter, 1) * d * delta


def _stack_from_generators(
    group: FiniteGroup, elements: list[int], generators: list[list], d: int
) -> MatrixStack:
    """U of every element from U(s) of the generators s = elements[i], breadth first.

    U(x s) = U(x) U(s) down the breadth-first tree of the Cayley graph.
    Each product runs over the nonzero entries of U(s)'s columns only, as
    terms (index, values): (M U(s))[r, c] = sum_t M[index_t[r d + c]]
    values_t[r d + c], term t holding the t-th nonzero entry of column c
    (0.0 past the last). Young's forms have at most two per column.
    """
    n, dd = group.order, d * d
    terms = []
    for u in generators:
        nonzero = [[(m, u[m * d + c]) for m in range(d) if u[m * d + c] != 0] for c in range(d)]
        column_terms = []
        for t in range(max(1, max(map(len, nonzero)))):
            picks = [nonzero[c][t] if t < len(nonzero[c]) else (c, 0.0) for c in range(d)]
            index = [r * d + m for r in range(d) for m, _ in picks]
            column_terms.append((index, [v for _ in range(d) for _, v in picks]))
        terms.append(column_terms)
    tree, _ = _breadth_first(n, group.identity, [group.cayley.column(s) for s in elements])
    if len(tree) != n - 1:
        raise ConsistencyError("the generators of a representation do not generate its group")
    entries = [0.0] * (n * dd)
    entries[group.identity * dd : (group.identity + 1) * dd] = [
        1.0 if k % (d + 1) == 0 else 0.0 for k in range(dd)
    ]
    for child, parent, i in tree:
        block = entries[parent * dd : (parent + 1) * dd]
        product = repeat(0.0, dd)
        for index, values in terms[i]:
            product = map(add, product, map(mul, map(block.__getitem__, index), values))
        entries[child * dd : (child + 1) * dd] = product
    return MatrixStack(entries, d)


def irreps_of(group: FiniteGroup, seed: int = 0) -> list[GroupRep]:
    """All inequivalent unitary irreducibles of the deck group.

    Symmetric groups attached through `perms` get Young's orthogonal
    representations labeled by partitions, built from the adjacent
    transpositions' matrices (permgroup.young_generators) by
    _stack_from_generators; any other group is split numerically through
    its regular representation (cover_document).
    """
    if group.perms is not None:
        n = group.perms[0].degree
        elements = [group.perms.index(Permutation.transposition(n, k, k + 1)) for k in range(1, n)]
        reps = []
        for shape in enumerate_partitions(n):
            generators = young_generators(shape)
            stack = _stack_from_generators(group, elements, generators, hook_dimension(shape))
            reps.append(GroupRep(group, stack, str(shape.parts)))
        return reps
    from .cover_document import _regular_irreps

    return _regular_irreps(group, seed)


def _fiber_blocks(cover: FiniteCover, rep: GroupRep) -> MatrixStack:
    """The fiber blocks of constrained_space by deck element.

    Row block x of the constrained basis is W_x = |G|**-1/2 U(h(x)^-1) in
    column block tau(x), h(x) = deck_element()[x]: matrix h(x) of this stack.
    """
    if rep.group is not cover.group:
        raise DomainError("representation must belong to the cover's deck group")
    blocks = rep.inverse_matrices()
    scale = 1.0 / math.sqrt(cover.group.order)
    return MatrixStack(list(map(mul, blocks.entries, repeat(scale))), blocks.dimension)


class SectorCensusRecord(Value):
    _fields = ("label", "internal_dim", "carrier_dim", "commutant_dim")


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


def _census_bytes(ng: int, dims: list[int], complex_entries: bool) -> int:
    """Peak bytes of sector_census past the cover, for |G| = ng and irreducibles of dims.

    CENSUS_BASE_BYTES, and held throughout: every stack and the characters
    (|G| sum d**2 and r |G| numbers, each a slot and a NUMBER_BYTES
    object). Then the larger of two stages at the largest d. Checking its
    stack: its entry vectors (a slot per entry, and a conjugated copy when
    complex), the gather U(x s) of one generator s (a grown list) and its
    entry vectors, and three vectors over the group. Restricting its
    sector: the fiber blocks (new numbers in a grown list), the gathers of
    the first orbit and of one generating orbit (grown lists) and their
    columns (slots), the conjugated columns when complex, and the r x r
    character Gram matrix. The deck comparison allocates nothing, so
    nothing here grows with the cover.
    """
    number = INDEX_BYTES + NUMBER_BYTES
    conjugated = number if complex_entries else 0
    widest = ng * max(d * d for d in dims)
    stacks = CENSUS_BASE_BYTES + (ng * sum(d * d for d in dims) + len(dims) * ng) * number
    check = widest * (2 * INDEX_BYTES + GROWN_SLOT_BYTES + conjugated) + 3 * ng * number
    sector = (
        widest * (NUMBER_BYTES + 3 * GROWN_SLOT_BYTES + 2 * INDEX_BYTES + conjugated)
        + len(dims) ** 2 * number
    )
    return stacks + max(check, sector)


def _census_work(npts: int, ng: int, dims: list[int]) -> int:
    """Vector steps of a census of npts points, in STEP_OPERATIONS, by |G| and dims alone.

    With k <= log2 |G| generators: each stack costs 2 |G| d**2 steps to
    build from Young's sparse generators, |G| d**3 to check unitarity and
    k |G| d**3 for the group law; each of the 1 + k generating orbits
    costs at most 4 |G| d**3 to restrict and check (the dots of its block,
    the bound on its leakage and, past RESIDUAL_TOL, the leakage itself);
    Light's test takes 2 k |G|**2 and the deck comparison 4 per point.
    """
    k = ng.bit_length() - 1
    cubes = ng * sum(d**3 for d in dims)
    steps = (1 + k) * cubes + 2 * ng * sum(d * d for d in dims) + 4 * (1 + k) * cubes
    return STEP_OPERATIONS * (steps + 2 * k * ng * ng + 4 * npts)


def check_census_cost(q: int, n_particles: int) -> None:
    """Refuse the census of symmetric_cover(q, N), the cover included, from (q, N) alone.

    The cover holds POINT_BYTES per point (its orbit-table entry and h)
    and RUN_BYTES per run of the closed form, the group INDEX_BYTES per
    entry of its Cayley table and ELEMENT_BYTES per element, added to
    _census_bytes for Young's real forms and ADMITTED_BYTES. |total| =
    q!/(q - N)! is multiplied factor by factor and the points checked after
    each, so nothing of the cover's size is formed before a refusal. The
    work, POINT_STEPS per point and _census_work, is checked against
    errors.WORK_CAP. (q, N) outside symmetric_cover's domain are left to
    its DomainError.
    """
    n = n_particles
    if not 1 <= n <= q:
        return
    what = f"cover census of the {n}-particle cover of {q} points"
    total = 1
    for k in range(q, q - n, -1):
        total *= k
        check_bytes(POINT_BYTES * total, what)
    order = math.factorial(n)
    dims = [hook_dimension(shape) for shape in enumerate_partitions(n)]
    cover = POINT_BYTES * total + RUN_BYTES * math.comb(q - 1, n - 1)
    group = INDEX_BYTES * order * order + ELEMENT_BYTES * order
    census = _census_bytes(order, dims, complex_entries=False)
    check_bytes(cover + group + census + ADMITTED_BYTES, what)
    check_work(STEP_OPERATIONS * POINT_STEPS * total + _census_work(total, order, dims), what)


def _gram_dimensions(reps: list[GroupRep]) -> tuple[list[list[int]], float]:
    """The character Gram matrix rounded, and its largest distance from the rounding.

    gram[i][j] = |G|**-1 sum_g chi_i(g) conj(chi_j(g)), for i <= j (the
    lower triangle is its conjugate, at the same distance), in plain
    Python: r**2 |G| products (see _sector_dimensions).
    """
    chars = [rep.matrices.traces() for rep in reps]
    adjoint = [_conjugate(c) if rep.matrices.is_complex else c for c, rep in zip(chars, reps)]
    n, r = len(chars[0]), len(reps)
    dims = [[0] * r for _ in range(r)]
    margin = 0.0
    for i in range(r):
        for j in range(i, r):
            value = sum(map(mul, chars[i], adjoint[j])) / n
            dims[i][j] = dims[j][i] = round(value.real)
            margin = max(margin, abs(value - dims[i][j]))
    return dims, margin


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
    ConsistencyError. Two implementations form the matrix, chosen by the
    group: a symmetric group (`perms`) has few irreducibles, p(N) <= 11
    at the N <= 6 check_census_cost admits, so _gram_dimensions forms it
    in plain Python; a group without `perms` can have as many
    irreducibles as elements, r**2 |G| ~ 1.1e9 products at order 1024, so
    cover_document's _regular_gram_dimensions forms it in numpy, which
    the regular split that made those irreducibles has loaded already.
    """
    if reps[0].group.perms is None:
        from .cover_document import _regular_gram_dimensions

        dims, margin = _regular_gram_dimensions(reps)
    else:
        dims, margin = _gram_dimensions(reps)
    if margin > tolerances.RESIDUAL_TOL:
        raise ConsistencyError(f"character Gram matrix is {margin:.2e} from integral")
    commutant = [dims[i][i] for i in range(len(reps))]
    pairwise = {
        f"{reps[i].label}|{reps[j].label}": dims[i][j]
        for i, j in itertools.combinations(range(len(reps)), 2)
    }
    return commutant, pairwise, margin


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
        found = sum(rep.matrices.block(t)[:: rep.dimension + 1])
        if abs(found - expected) > tolerances.RESIDUAL_TOL:
            raise ConsistencyError(
                f"sector {rep.label} has character {found:.6g} on a transposition, not {expected:g}"
            )


def _check_deck(orbits: IndexTable, deck: array, ng: int) -> None:
    """ConsistencyError unless deck[orbits[q, g]] == g for every base point q and element g.

    Every row q of the orbit table reads the fiber blocks of
    deck[orbits[q]]; when this one comparison holds they are 0..|G|-1 for
    every q, so the |base| rows restrict one identical block and the
    first stands for all. A wrong h(x) would leak from the constrained
    space there; here it fails the comparison.
    """
    if all(map(eq, map(getitem, repeat(deck), orbits.data), cycle(range(ng)))):
        return
    k = next(k for k, x in enumerate(orbits.data) if deck[x] != k % ng)
    x = orbits.data[k]
    raise ConsistencyError(
        f"constrained subspace leaks: point {x} has deck element {deck[x]}, not {k % ng}"
    )


def _restriction(
    left: list, adjoint: list, row_norm: float, right: MatrixStack, root: float, expected: list
) -> tuple[list, float]:
    """The orbit's block R = |G|**-1/2 sum_g L_g* R_g (row-major) and a bound on its leakage.

    left[i] is column i of the first orbit's fiber blocks L_g, all g
    stacked, adjoint[i] its conjugate and row_norm the largest 2-norm of
    a row of any L_g; right holds the orbit's column blocks R_g, expected
    the section action's block X. The leakage max |R_g / root - L_g R|
    over every g is at most max |R_g / root - L_g X| + row_norm max_j
    |(R - X) e_j| (Cauchy-Schwarz on L_g (R - X)), whose first term runs
    over the nonzero entries of X alone: one per column on the first
    orbit, at most two on the Young form of the transposition (1 2).
    Past RESIDUAL_TOL the leakage itself is formed, with R, one column of
    R at a time over all blocks.
    """
    d = right.dimension
    columns = [right.entries[j::d] for j in range(d)]
    block = [sum(map(mul, adjoint[i], columns[j])) / root for i in range(d) for j in range(d)]
    bound = 0.0
    for j in range(d):
        image = map(truediv, columns[j], repeat(root))
        for i in range(d):
            if expected[i * d + j] != 0:
                image = map(sub, image, map(mul, left[i], repeat(expected[i * d + j])))
        bound = max(bound, max(map(abs, image)))
    off = max(math.hypot(*map(abs, map(sub, block[j::d], expected[j::d]))) for j in range(d))
    if bound + row_norm * off <= tolerances.RESIDUAL_TOL:
        return block, bound + row_norm * off
    leakage = 0.0
    for j in range(d):
        image = map(truediv, columns[j], repeat(root))
        for i in range(d):
            image = map(sub, image, map(mul, left[i], repeat(block[i * d + j])))
        leakage = max(leakage, max(map(abs, image)))
    return block, leakage


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
    g, rows of the orbit table. The |base| orbits of the first kind read
    the same blocks once every h(x) agrees with the table (_check_deck),
    so the first of them is restricted for all. Their largest distance
    from |G|**-1/2 U(h(b)^-1) is intertwining_residual_max; both
    realizations are *-homomorphisms, so agreement on generators is
    agreement on every kernel.
    """
    reps = irreps_of(cover.group, seed=seed)
    npts, nbase, ng = cover.total_size, cover.base_size, cover.group.order
    dims = [rep.dimension for rep in reps]
    what = f"cover census of {npts} points over {nbase} base points (deck group of order {ng})"
    check_bytes(_census_bytes(ng, dims, any(rep.matrices.is_complex for rep in reps)), what)
    check_work(_census_work(npts, ng, dims), what)
    _check_labels(cover.group, reps)
    commutant, pairwise, margin = _sector_dimensions(reps)

    group, orbits, deck = cover.group, cover.orbits, cover.deck_element()
    _check_deck(orbits, deck, ng)
    first = orbits[0]
    # the first orbit and the generating orbits of (sigma(q0), sigma(q0).s)
    rows = [first]
    rows += [array("q", map(first.__getitem__, group.cayley[s])) for s in group._generators]
    root = math.sqrt(ng)
    residual = 0.0
    for rep in reps:
        blocks = _fiber_blocks(cover, rep)
        d = rep.dimension
        left = blocks.gather(map(deck.__getitem__, first))
        columns = [left.entries[i::d] for i in range(d)]
        adjoint = [_conjugate(c) for c in columns] if left.is_complex else columns
        # the largest 2-norm of a row of any L_g, entry k of every row at once
        norm = max(map(math.hypot, *(map(abs, left.entries[k::d]) for k in range(d))))
        for points in rows:
            right = blocks.gather(map(deck.__getitem__, points))
            section = rep.matrices.block(group._inverse[deck[points[group.identity]]])
            expected = list(map(truediv, section, repeat(root)))
            block, leakage = _restriction(columns, adjoint, norm, right, root, expected)
            if leakage > tolerances.RESIDUAL_TOL:
                raise ConsistencyError(f"constrained subspace leaks: {leakage:.2e}")
            residual = max(residual, max(map(abs, map(sub, block, expected))))
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


def _run_cover(args):
    """The ``cover --q-size/--N`` report; cli checked the options before importing this module."""
    # refuse from (q, N) alone: enumerating the cover may already exceed the cap
    check_census_cost(args.q_size, args.N)
    cover = symmetric_cover(args.q_size, args.N)
    return _cover_report(args, cover, {"q_size": args.q_size, "N": args.N})


def _cover_report(args, cover: FiniteCover, config: dict):
    """The census of `cover` as cli renders it; `config` names the cover."""
    report = sector_census(cover, seed=args.seed)
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
    return report.passed, config, report._asdict(), lines, None

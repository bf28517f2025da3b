"""`equiv` in exact integers: both equivalences certified by highest weights.

A carrier of N particles is the range of P (1 x Q), P = sum_pi U(pi) x M(pi)
taken without 1/N!, U(pi) moving the content of slot i to slot pi(i) and
M(pi) the carrier's internal action: the slot permutation of (C^2)^{xN}
for the bosons, the sign for the fermions and the natural action on C^3
for the parafermions. It is spanned by the integer vectors P(e_w x v)
over the sorted words w and the internal vectors v (Carrier): the
singlet psi_01 - psi_10, the doublet psi_010 - psi_001 and
-2 psi_100 + psi_010 + psi_001, the parafermions' sum-zero e_0 - e_1 and
e_1 - e_2 (isomorphic to parastat_equiv's two-component block by an
internal change of basis, which commutes with every A x 1). P keeps the
letter counts of a word, so a sorted word is a weight of gl(m), and each
carrier is kept as its weight spaces: an echelon basis of dict vectors
per sorted word, at most two vectors at N <= 3.

The certificate, every step an exact integer identity (Goodman and
Wallach, Symmetry, Representations, and Invariants):

1. Invariance. Each Chevalley generator G_{a,a+-1} = sum_i E_{a,a+-1}^(i)
   maps each weight space into the carrier's weight space of the moved
   weight. With the diagonal G_aa, which keep every weight space, they
   generate gl(m), and by Schur-Weyl duality the S_N-invariant algebra,
   which holds every observable A x 1.
2. Irreducibility. Over the dominant weights the joint kernel of the
   raising operators G_{a,a+1} is one vector h: every irreducible summand
   has one such vector (the theorem of the highest weight). Both sides
   must have it at the same weight lambda; other weights refute, and so
   does a count other than one.
3. Equivalence. The lowering words F_a = G_{a+1,a} applied to h give a
   basis of the first carrier, chosen greedily in word order per weight;
   the same words give the second side's vectors. Their Gram matrices
   must be proportional, by the one ratio |h_2|^2 / |h_1|^2, and every
   Chevalley generator must have the same matrix in both. So the map
   F_word h_1 -> F_word h_2, rescaled, is a unitary intertwiner V of the
   whole algebra. In the orthonormal bases that Gram-Schmidt gives per
   weight block in the listed order, V is the identity: the report names
   those bases and writes V there, with residual exactly 0.

A carrier that leaks raises ConsistencyError. Nothing here uses floating
point, numpy or a threshold, and one estimate, checked before anything
is built, bounds the weight spaces, the bases and the rendered V.
Vectors are dicts from row (spatial_flat * k + internal index, slot 1
most significant, as parastat_equiv orders its carriers) to a nonzero
int; negative keys tag the combination an echelon vector came from.
"""

from __future__ import annotations

import itertools
import math

from .errors import RENDERED_ENTRY_BYTES, ConsistencyError, Value, check_bytes
from .partitions import Partition, hook_content

# CPython sizes on a 64-bit build, rounded up to the allocator's blocks. One
# dict vector of up to 21 int entries: its table (632 bytes) and its keys
# (32 bytes each), with the table it drops while growing.
VECTOR_BYTES = 2048
# Dict vectors alive per carrier dimension on one side: the weight space's
# echelon, the matched basis on both sides and their two tagged echelons.
VECTORS_PER_DIMENSION = 5


def _slot_move(p: tuple[int, ...], j: int, n: int) -> tuple[int, int]:
    """Slot permutation of (C^2)^{xN}: bit i of j (slot 1 most significant) to bit p[i]."""
    moved = sum(((j >> (n - 1 - i)) & 1) << (n - 1 - p[i]) for i in range(n))
    return moved, 1


def _sign(p: tuple[int, ...], j: int, n: int) -> tuple[int, int]:
    inversions = sum(p[i] > p[k] for i in range(n) for k in range(i + 1, n))
    return j, -1 if inversions % 2 else 1


def _natural(p: tuple[int, ...], j: int, n: int) -> tuple[int, int]:
    """Natural action on C^N: e_j -> e_{p[j]}."""
    return p[j], 1


class Carrier(Value):
    """Range of P (1 x Q) for N particles: internal dimension k, the integer
    internal vectors spanning range(Q) (dicts index -> int) and the internal
    action move(p, j, N) -> (index, factor) of the slot permutation p."""

    _fields = ("label", "n", "internal_dim", "vectors", "move")


SINGLET = Carrier(
    "two bosonic doublets, internal singlet", 2, 4, ({0b01: 1, 0b10: -1},), _slot_move
)
FERMIONS = Carrier("two spinless fermions", 2, 1, ({0: 1},), _sign)
DOUBLET = Carrier(
    "three bosonic doublets, internal doublet",
    3,
    8,
    ({0b010: 1, 0b001: -1}, {0b100: -2, 0b010: 1, 0b001: 1}),
    _slot_move,
)
PARAFERMIONS = Carrier(
    "parafermion doublet wave functions", 3, 3, ({0: 1, 1: -1}, {1: 1, 2: -1}), _natural
)
PAIRS = {2: (SINGLET, FERMIONS), 3: (DOUBLET, PARAFERMIONS)}


class HighestWeightCertificate(Value):
    """Outcome of the exact equivalence certificate.

    highest_weights lists, per side, the weight (as a partition) of each
    highest-weight vector; basis names the matched bases as (sorted word
    of the weight, lowering word a_1 a_2 ... for F_a1 F_a2 ... h) and
    intertwiner is V in them, r rows of r (re, im) pairs, or None.
    """

    _fields = (
        "equivalent", "carrier_dims", "highest_weights", "residual", "basis", "intertwiner",
        "detail",
    )


def carrier_dim(m: int, n: int) -> int:
    """Dimension of both carriers, dim S_lambda(C^m): lambda = (1, 1) at N = 2, (2, 1) at N = 3."""
    return hook_content(Partition((1, 1) if n == 2 else (2, 1)), m)


def certificate_bytes(m: int, n: int) -> int:
    """Peak bytes of an `equiv` run above the interpreter, from (m, N) alone.

    The rendered r x r V dominates: errors.RENDERED_ENTRY_BYTES per entry,
    charged to every format so that one edge holds for all of them. The
    weight spaces hold one echelon per sorted word and the matched bases
    VECTORS_PER_DIMENSION dict vectors per carrier dimension, on each
    side.
    """
    r = carrier_dim(m, n)
    words = math.comb(m + n - 1, n)
    vectors = words * 2 + r * VECTORS_PER_DIMENSION
    return r * r * RENDERED_ENTRY_BYTES + 2 * vectors * VECTOR_BYTES


def check_certificate_cost(m: int, n: int) -> None:
    """Refuse the N = 2 or N = 3 certificate over errors.BYTES_CAP, before building anything."""
    r = carrier_dim(m, n)
    check_bytes(
        certificate_bytes(m, n),
        f"the exact equivalence certificate on two carriers of dim {r} "
        f"and its {r} x {r} intertwiner",
    )


def _combine(s: int, x: dict, t: int, y: dict) -> dict:
    """s x + t y, without zero entries."""
    out = {key: s * c for key, c in x.items()}
    for key, c in y.items():
        out[key] = out.get(key, 0) + t * c
    return {key: c for key, c in out.items() if c}


def _reduce(x: dict, echelon: list) -> dict:
    """x less its components on the echelon [(pivot, vector)], by fraction-free
    steps: its row entries vanish iff x lies in the echelon's span."""
    for pivot, u in echelon:
        if x.get(pivot):
            x = _combine(u[pivot], x, -x[pivot], u)
    return x


def _insert(x: dict, echelon: list) -> bool:
    """Append x's reduction to the echelon unless its row entries vanish; True if appended."""
    x = _reduce(x, echelon)
    pivot = next((key for key in x if key >= 0), None)
    if pivot is not None:
        echelon.append((pivot, x))
    return pivot is not None


def _tagged(x: dict, tag: int) -> dict:
    return {**x, -1 - tag: 1}


def _coordinates(y: dict, echelon: list) -> tuple[int, ...] | None:
    """y = sum_j c_j z_j over the tagged basis z_j of the echelon, as the
    primitive integer tuple (d c_1, ..., d c_n, d) with d > 0; None if y
    leaves their span."""
    n = len(echelon)
    rest = _reduce(_tagged(y, n), echelon)
    if any(key >= 0 for key in rest):
        return None
    coords = [-rest.get(-1 - j, 0) for j in range(n)] + [rest[-1 - n]]
    g = math.gcd(*coords) * (1 if coords[-1] > 0 else -1)
    return tuple(c // g for c in coords)


def _dot(x: dict, y: dict) -> int:
    return sum(c * y.get(key, 0) for key, c in x.items() if key >= 0)


class _Space:
    """(C^m)^{xN} x C^k with the carrier's internal action: its rows, its
    sorted words and its one-body generators on dict vectors."""

    def __init__(self, carrier: Carrier, m: int):
        self.carrier, self.m, self.n, self.k = carrier, m, carrier.n, carrier.internal_dim
        self.places = [m ** (self.n - 1 - i) for i in range(self.n)]
        self.perms = list(itertools.permutations(range(self.n)))

    def spanning_vector(self, w: tuple[int, ...], v: dict) -> dict:
        """P (e_w x v): the joint slot permutations of the word and the internal index."""
        n, k, move = self.n, self.k, self.carrier.move
        out = {}
        for p in self.perms:
            spatial = sum(w[i] * self.places[p[i]] for i in range(n))
            for j, c in v.items():
                j2, factor = move(p, j, n)
                key = spatial * k + j2
                out[key] = out.get(key, 0) + factor * c
        return {key: c for key, c in out.items() if c}

    def apply(self, x: dict, a: int, b: int) -> dict:
        """G_ab x: each slot holding letter b moved to letter a."""
        k, m = self.k, self.m
        out = {}
        for key, c in x.items():
            spatial = key // k
            for place in self.places:
                if spatial // place % m == b:
                    moved = key + (a - b) * place * k
                    out[moved] = out.get(moved, 0) + c
        return {key: c for key, c in out.items() if c}

    def weight_spaces(self) -> dict:
        """Sorted word -> echelon basis of the carrier's weight space."""
        spaces = {}
        for w in itertools.combinations_with_replacement(range(self.m), self.n):
            echelon = []
            for v in self.carrier.vectors:
                _insert(self.spanning_vector(w, v), echelon)
            spaces[w] = echelon
        return spaces


def _moves(w: tuple[int, ...], m: int):
    """Chevalley generators G_ab, |a - b| = 1, that act on weight w: (a, b, moved weight)."""
    for b in sorted(set(w)):
        for a in (b - 1, b + 1):
            if 0 <= a < m:
                moved = list(w)
                moved[moved.index(b)] = a
                yield a, b, tuple(sorted(moved))


def _highest_weight_vectors(space: _Space, spaces: dict) -> list:
    """(sorted word, vector) for a basis of the joint kernel of the raising
    operators G_{a,a+1} on each dominant weight space, after checking that
    every Chevalley image of every weight-space vector lies in the weight
    space of its moved weight. Each image is taken once, for both uses."""
    m = space.m
    found = []
    for w, echelon in spaces.items():
        counts = [w.count(a) for a in range(m)]
        dominant = bool(echelon) and all(counts[a] >= counts[a + 1] for a in range(m - 1))
        # the raising images of basis vector j side by side, tagged with j
        raised = [{-1 - j: 1} for j in range(len(echelon))]
        for a, b, target in _moves(w, m):
            for j, (_, x) in enumerate(echelon):
                image = space.apply(x, a, b)
                if any(key >= 0 for key in _reduce(image, spaces[target])):
                    raise ConsistencyError(
                        f"carrier of {space.carrier.label!r} leaks under G_{a}{b} at weight {w}"
                    )
                if dominant and a == b - 1:
                    raised[j].update((key * (m - 1) + a, c) for key, c in image.items())
        if not dominant:
            continue
        images = []
        for y in raised:
            rest = _reduce(y, images)
            if not _insert(rest, images):
                h = {}
                for i, (_, x) in enumerate(echelon):
                    h = _combine(1, h, rest.get(-1 - i, 0), x)
                found.append((w, h))
    return found


def _partition(w: tuple[int, ...]) -> tuple[int, ...]:
    """The letter counts of a dominant sorted word, its zero tail dropped."""
    return tuple(w.count(a) for a in range(max(w) + 1))


def _matched_bases(spaces: tuple, top: tuple[int, ...], h1: dict, h2: dict) -> dict:
    """Sorted word -> [(lowering word, vector of side 1, vector of side 2)].

    Weights in word order, so that each F_a = G_{a+1,a}, which turns a
    letter a into a + 1, comes from a weight already done; a candidate
    F_a x is kept if its side-1 vector is independent of those kept.
    """
    space1, space2 = spaces
    blocks = {top: [((), h1, h2)]}
    for w in itertools.combinations_with_replacement(range(space1.m), space1.n):
        if w <= top:
            continue
        chosen, echelon = [], []
        for a, b, source in _moves(w, space1.m):
            if a != b - 1:
                continue  # source holds letter a where w holds b = a + 1
            for word, x1, x2 in blocks.get(source, ()):
                y1 = space1.apply(x1, b, a)
                if _insert(y1, echelon):
                    chosen.append(((a,) + word, y1, space2.apply(x2, b, a)))
        if chosen:
            blocks[w] = chosen
    return blocks


def _compare(spaces: tuple, blocks: dict, n1: int, n2: int) -> str | None:
    """Why the matched bases do not give an intertwiner, or None: the Gram
    matrices must be proportional by n2 / n1 = |h_2|^2 / |h_1|^2 on every
    weight block, and each Chevalley generator must have the same
    coordinates on both sides."""
    echelons = ({}, {})
    for w, chosen in blocks.items():
        for _, x1, x2 in chosen:
            for _, y1, y2 in chosen:
                if _dot(x2, y2) * n1 != _dot(x1, y1) * n2:
                    return f"Gram matrices not proportional at weight {w}"
        for side, echelon in enumerate(echelons):
            echelon[w] = []
            for i, vectors in enumerate(chosen):
                _insert(_tagged(vectors[1 + side], i), echelon[w])
    for w, chosen in blocks.items():
        for a, b, target in _moves(w, spaces[0].m):
            for _, *vectors in chosen:
                c1, c2 = (
                    _coordinates(space.apply(x, a, b), echelon.get(target, []))
                    for space, x, echelon in zip(spaces, vectors, echelons)
                )
                if c1 is None or c1 != c2:
                    return f"G_{a}{b} differs at weight {w}"
    return None


def certify(first: Carrier, second: Carrier, m: int) -> HighestWeightCertificate:
    """The exact certificate of first ~ second on (C^m)^{xN}; leaks raise ConsistencyError."""
    spaces = (_Space(first, m), _Space(second, m))
    weight_spaces = [space.weight_spaces() for space in spaces]
    tops = [_highest_weight_vectors(*pair) for pair in zip(spaces, weight_spaces)]
    dims = tuple(sum(map(len, ws.values())) for ws in weight_spaces)
    weights = [[_partition(w) for w, _ in top] for top in tops]

    def refuted(detail):
        return HighestWeightCertificate(False, dims, weights, None, None, None, detail)

    if [len(top) for top in tops] != [1, 1]:
        return refuted(f"highest-weight vectors: {len(tops[0])} and {len(tops[1])}, need one each")
    (top, h1), (top2, h2) = tops[0][0], tops[1][0]
    if top != top2:
        return refuted(f"highest weights differ: {weights[0][0]} vs {weights[1][0]}")
    blocks = _matched_bases(spaces, top, h1, h2)
    r = sum(map(len, blocks.values()))
    if (r, r) != dims:
        return refuted(f"the lowering words from h span {r} of dims {dims}")
    mismatch = _compare(spaces, blocks, _dot(h1, h1), _dot(h2, h2))
    if mismatch:
        return refuted(mismatch)
    basis = [[list(w), list(word)] for w, chosen in blocks.items() for word, _, _ in chosen]
    # immutable pairs, shared across the rows without aliasing an entry a caller edits
    one, zero = (1, 0), (0, 0)
    identity = [[one if i == j else zero for j in range(r)] for i in range(r)]
    return HighestWeightCertificate(
        True, dims, weights, 0, basis, identity,
        "one highest-weight vector on each side; V = 1 in the Gram-Schmidt bases of F_word h",
    )


def certify_pair(m: int, n: int) -> HighestWeightCertificate:
    """The N = 2 singlet-fermion or N = 3 doublet-parafermion certificate, after its estimate."""
    check_certificate_cost(m, n)
    return certify(*PAIRS[n], m)


def _run_equiv(args):
    """The ``equiv`` report; cli checked m, N and the format before importing this module."""
    cert = certify_pair(args.m, args.N)
    first, second = PAIRS[args.N]
    body = {
        "realizations": [first.label, second.label],
        "certificate": cert,
    }
    lines = [
        f"{first.label}  ~  {second.label}",
        f"carrier dims: {cert.carrier_dims}",
        f"highest weights: {cert.highest_weights[0]} and {cert.highest_weights[1]}",
        f"equivalent: {cert.equivalent} (residual {cert.residual})",
    ]
    return cert.equivalent, {"m": args.m, "N": args.N}, body, lines, None

import itertools
import json
import math
import re
import tracemalloc
from array import array
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sectorkit import cover_document, cover_quant, cover_reference, errors, linalg, permgroup
from sectorkit.cover_quant import (
    FiniteCover,
    FiniteGroup,
    GroupRep,
    InvariantKernel,
    constrained_action,
    constrained_space,
    cover_from_action,
    cover_from_json,
    irreps_of,
    kernel_orbit_basis,
    random_invariant_kernel,
    randomize_section,
    realization_unitary,
    section_action,
    sector_census,
    symmetric_cover,
)
from sectorkit.errors import ConsistencyError, DomainError, ResourceLimitError


@pytest.fixture(scope="module")
def cover32():
    return symmetric_cover(3, 2)


@pytest.fixture(scope="module")
def cover43():
    return symmetric_cover(4, 3)


class TestCoverConstruction:
    def test_counts(self, cover32):
        assert cover32.total_size == 6  # injective pairs: 3 * 2
        assert cover32.base_size == 3
        assert cover32.group.order == 2

    def test_single_fiber(self):
        cover = symmetric_cover(3, 3)
        assert cover.base_size == 1
        assert cover.total_size == math.factorial(3)

    def test_single_particle_trivial_group(self):
        cover = symmetric_cover(4, 1)
        assert cover.group.order == 1
        assert cover.total_size == cover.base_size == 4

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            symmetric_cover(2, 3)

    def test_group_law_matches_permutation_composition(self, cover43):
        perms = cover43.group.perms
        for i, a in enumerate(perms):
            for j, b in enumerate(perms):
                assert perms[cover43.group.cayley[i, j]] == oracles.compose(a, b)

    def test_section_is_sorted_tuple(self, cover32):
        tuples, _ = oracles.dict_symmetric_cover(3, 2)
        base_points = np.array([tuples[s] for s in cover32.section])
        assert np.all(np.diff(base_points, axis=1) > 0)
        assert len(base_points) == cover32.base_size

    @pytest.mark.parametrize("q,n", [(q, n) for q in range(1, 7) for n in range(1, q + 1)])
    def test_array_build_matches_the_dict_build(self, q, n):
        # the closed-form orbit table numbers the tuples as the dict lists them
        cover = symmetric_cover(q, n)
        tuples, action = oracles.dict_symmetric_cover(q, n)
        tau, smallest = oracles.looped_orbit_labels(action)
        assert cover.points == range(len(tuples))
        assert np.array_equal(cover.action(), action)
        assert np.array_equal(cover.tau, tau)
        assert np.array_equal(cover.section, smallest)
        expected = oracles.dict_composition_cayley(np.ascontiguousarray(action.T))
        assert np.array_equal(cover.group.cayley, expected)

    def test_nonfree_action_rejected(self):
        # the swap fixes the middle point of a 3-point set
        with pytest.raises(DomainError):
            cover_from_action(("a", "b", "c"), [(0, 1, 2), (2, 1, 0)])

    def test_nonclosed_action_rejected(self):
        with pytest.raises(DomainError, match="not closed"):
            cover_from_action(
                tuple(range(4)), [(0, 1, 2, 3), (1, 2, 3, 0)]
            )  # missing the square of the 4-cycle

    def test_randomized_section_valid(self, cover32):
        other = randomize_section(cover32, seed=3)
        tau = np.asarray(other.tau)
        assert np.array_equal(tau[np.asarray(other.section)], np.arange(other.base_size))

    @pytest.mark.parametrize(
        "make, default_section",
        [
            (lambda: symmetric_cover(4, 3), True),
            (lambda: randomize_section(symmetric_cover(4, 3), seed=7), False),
            (lambda: cover_from_json(oracles.cover_to_json(symmetric_cover(5, 2))), True),
            # Z_3 with orbits {0, 5, 7}, {1, 3, 8}, {2, 4, 6}
            (
                lambda: cover_from_action(
                    tuple(range(9)),
                    [tuple(range(9)), (5, 3, 4, 8, 6, 7, 2, 0, 1), (7, 8, 6, 1, 2, 0, 4, 5, 3)],
                ),
                True,
            ),
        ],
    )
    def test_orbit_labels_and_deck_elements_match_the_loops(self, make, default_section):
        cover = make()
        tau, smallest = oracles.looped_orbit_labels(cover.action())
        assert np.array_equal(cover.tau, tau)
        assert np.array_equal(cover.section, smallest) == default_section
        assert np.array_equal(cover.deck_element(), oracles.looped_deck_element(cover))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_orbit_labels_and_deck_elements_follow_a_permuted_section(self, data):
        # any representative per orbit, the orbits in any order: base point k
        # is the orbit of section[k], whatever the scan's label of that orbit
        cover = data.draw(st.sampled_from(SWAPPABLE_COVERS))
        order = data.draw(st.permutations(range(cover.base_size)))
        size = cover.base_size
        picks = data.draw(
            st.lists(st.integers(0, cover.group.order - 1), min_size=size, max_size=size)
        )
        # row k of the table is row order[k] turned by picks[k]
        cayley = np.asarray(cover.group.cayley)
        rows = np.asarray(cover.orbits)[np.array(order)[:, None], cayley[picks]]
        permuted = FiniteCover(cover.points, cover.group, rows.tolist())
        action = np.asarray(cover.action())
        assert np.array_equal(permuted.section, action[np.asarray(cover.section)[order], picks])
        tau, _ = oracles.looped_orbit_labels(action)
        relabel = np.argsort(tau[np.asarray(permuted.section)])
        assert np.array_equal(permuted.tau, relabel[tau])
        assert np.array_equal(permuted.deck_element(), oracles.looped_deck_element(permuted))

    def test_invalid_section_rejected(self, cover32):
        bad = np.asarray(cover32.orbits).tolist()
        bad[1] = bad[0]  # two orbits share a representative
        with pytest.raises(DomainError, match="section must pick one point per orbit"):
            FiniteCover(cover32.points, cover32.group, bad)
        words = np.asarray(cover32.action()).T
        with pytest.raises(DomainError, match="section must pick one point per orbit"):
            cover_from_action(cover32.points, words, section=[0, 0, 3])

    def test_integer_tables_are_kept_not_copied(self, cover32):
        # a copied orbit table of (1000, 2) holds ~8 MB more at the census peak
        again = FiniteCover(cover32.points, cover32.group, cover32.orbits)
        assert again.orbits is cover32.orbits
        assert again.orbits.data is cover32.orbits.data
        assert again.group.cayley is cover32.group.cayley

    @pytest.mark.parametrize(
        "entry,message",
        [(-1, "entries must be point indices in 0..5"), (6, "entries must be point indices"),
         (3, "one point per orbit"), (0.5, "entries must be point indices")],
        ids=["negative", "past-the-last-point", "duplicate", "fractional"],
    )
    def test_one_corrupted_orbit_entry_is_refused(self, cover32, entry, message):
        # the table [[0, 2], [1, 4], [3, 5]] with its entry (1, 1) replaced
        bad = np.asarray(cover32.orbits).tolist()
        bad[1][1] = entry
        with pytest.raises(DomainError, match=re.escape(message)):
            FiniteCover(cover32.points, cover32.group, bad)

    @pytest.mark.parametrize(
        "section",
        [[0, 1, -1], [0, 1, 99], [0.7, 1, 3]],
        ids=["negative-wraps-to-a-point", "past-the-last-point", "fractional"],
    )
    def test_section_entries_must_be_point_indices(self, cover32, section):
        # -1 would wrap to point 5 (an orbit representative), 99 would index
        # past the words and 0.7 would truncate to the valid 0
        assert cover32.section.tolist() == [0, 1, 3]
        with pytest.raises(DomainError, match=r"section entries must be point indices in 0\.\.5"):
            cover_from_action(cover32.points, np.asarray(cover32.action()).T, section=section)


def z3_on_two_orbits_with_a_wrong_square():
    """Words e, a, b on the orbits {0, 1, 2} and {3, 4, 5}: a turns both
    by one, b turns the first by two and the second by one. Their products
    agree with e, a, b at point 0, and form Z_3 there, but a a is not b."""
    return (
        tuple(range(6)),
        [(0, 1, 2, 3, 4, 5), (1, 2, 0, 4, 5, 3), (2, 0, 1, 4, 5, 3)],
    )


class TestCayleyFromOnePoint:
    @pytest.mark.parametrize(
        "make",
        [lambda q=q, n=n: symmetric_cover(q, n) for q in (3, 4, 5) for n in (2, 3)]
        + [lambda n=n: cover_from_json(oracles.cyclic_document(n)) for n in (1, 2, 6, 12)]
        + [lambda n=n: cover_from_json(oracles.dihedral_document(n)) for n in (3, 4, 5, 8)]
        + [
            lambda: cover_from_json(
                oracles.cover_to_json(randomize_section(symmetric_cover(4, 3), 2))
            )
        ],
    )
    def test_table_matches_dict_composition(self, make):
        cover = make()
        expected = oracles.dict_composition_cayley(np.ascontiguousarray(np.asarray(cover.action()).T))
        assert np.array_equal(cover.group.cayley, expected)

    def test_table_of_one_point_is_checked_at_every_point(self):
        points, words = z3_on_two_orbits_with_a_wrong_square()
        assert oracles.dict_composition_cayley(np.array(words)) is None
        with pytest.raises(DomainError, match="incompatible with the group law"):
            cover_from_action(points, words)

    def test_no_points_rejected(self):
        with pytest.raises(DomainError, match="at least one point"):
            cover_from_action((), [()])

    @pytest.mark.parametrize("bad", [[2, 0, 3], [-1, 0, 1]], ids=["past", "negative"])
    def test_first_word_off_the_points_is_named(self, bad):
        words = [[0, 1, 2], bad, [2, 2, 5]]
        message = f"not a permutation of the point set: {tuple(bad)}"
        with pytest.raises(DomainError, match=re.escape(message)):
            cover_from_action(("a", "b", "c"), words)

    @pytest.mark.parametrize(
        "words",
        [
            [[0, 1, 2], [1, 1, 0]],
            [[0, 1, 2], [1, 2, 0], [2, 2, 1]],
            [[0, 1, 2], [1, 2, 2], [2, 0, 1]],
            [[0, 1, 2, 3], [1, 0, 3, 3]],
            [[1, 1, 2, 3], [0, 0, 3, 2]],
        ],
    )
    def test_words_that_are_not_permutations_are_refused(self, words):
        # no word is sorted against the points: the group and cover checks
        # refuse them, since a group action's words are bijections
        assert any(sorted(w) != list(range(len(w))) for w in words)
        with pytest.raises(DomainError):
            cover_from_action(tuple("abcd"[: len(words[0])]), words)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_changed_entry_of_a_valid_cover_is_refused_or_a_cover(self, data):
        # one entry of one word of a valid table moved to another point: the
        # result is refused, or every word is still a permutation
        cover = data.draw(st.sampled_from(SWAPPABLE_COVERS))
        words = np.asarray(cover.action()).T.copy()
        g = data.draw(st.integers(0, len(words) - 1))
        x = data.draw(st.integers(0, words.shape[1] - 1))
        words[g, x] = data.draw(st.integers(0, words.shape[1] - 1))
        try:
            built = cover_from_action(cover.points, words)
        except DomainError:
            return
        assert all(sorted(w) == list(range(len(w))) for w in np.asarray(built.action()).T.tolist())


def _fill_row(rows: list, row: list, order: list) -> bool:
    """Complete row[1:] so that no symbol repeats in the row or in a column
    of rows, trying symbols in `order`; False if there is no completion."""
    j = next((j for j, v in enumerate(row) if v is None), None)
    if j is None:
        return True
    for v in order:
        if v not in row and all(r[j] != v for r in rows):
            row[j] = v
            if _fill_row(rows, row, order):
                return True
    row[j] = None
    return False


@st.composite
def loops(draw, max_order=7):
    """Latin squares with identity 0 (loops), row i starting with i and the
    rest filled in a drawn symbol order. Any Latin rectangle extends by a
    row (Hall), also one that starts with the one symbol its first column
    lacks, so every row completes. Most loops of order 5 or more are not
    associative."""
    n = draw(st.integers(1, max_order))
    rows = [list(range(n))]
    for i in range(1, n):
        row = [i] + [None] * (n - 1)
        assert _fill_row(rows, row, draw(st.permutations(range(n))))
        rows.append(row)
    return rows


SWAPPABLE_COVERS = [
    symmetric_cover(3, 2),
    symmetric_cover(3, 3),
    symmetric_cover(4, 3),
    cover_from_json(oracles.cyclic_document(4)),
    cover_from_json(oracles.dihedral_document(3)),
    cover_from_json(oracles.dihedral_document(4)),
]


def swapped_action(cover, data):
    """cover's action unchanged, with two columns swapped, or with two
    entries of one column swapped, as drawn."""
    action = np.asarray(cover.action()).copy()
    npts, ng = action.shape
    kind = data.draw(st.sampled_from(["none", "columns", "entries"]))
    if kind == "columns":
        g, h = data.draw(st.lists(st.integers(0, ng - 1), min_size=2, max_size=2, unique=True))
        action[:, [g, h]] = action[:, [h, g]]
    elif kind == "entries":
        g = data.draw(st.integers(0, ng - 1))
        x, y = data.draw(st.lists(st.integers(0, npts - 1), min_size=2, max_size=2, unique=True))
        action[[x, y], g] = action[[y, x], g]
    return action


class TestGroupValidation:
    def labels(self, n):
        return tuple(str(i) for i in range(n))

    def test_no_identity_rejected(self):
        with pytest.raises(DomainError, match="exactly one identity"):
            FiniteGroup(cayley=[[0, 0], [0, 0]], labels=self.labels(2))

    def test_missing_inverse_rejected(self):
        with pytest.raises(DomainError, match="without inverse"):
            FiniteGroup(cayley=[[0, 1], [1, 1]], labels=self.labels(2))

    def test_nonassociative_loop_rejected(self):
        # a Latin square with identity 0 in which every element is its own
        # inverse; the only group of order 5 is Z_5, which has no such
        # element besides 0, so associativity must fail
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(DomainError, match="not associative"):
            FiniteGroup(cayley=table, labels=self.labels(5))

    def test_out_of_range_entry_rejected(self):
        with pytest.raises(DomainError, match="element indices"):
            FiniteGroup(cayley=[[0, 2], [1, 0]], labels=self.labels(2))

    def test_action_against_group_law_rejected(self):
        # the Klein four-group on the orbit {0, 1, 2, 3}, whose images of 0
        # give the Cayley table, and Z_4 on {4, 5, 6, 7}: free, but not
        # Klein's law there
        klein = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
        words = [klein[g] + [4 + (x + g) % 4 for x in range(4)] for g in range(4)]
        with pytest.raises(DomainError, match="incompatible with the group law"):
            cover_from_action(tuple(range(8)), words)
        # a table is a bijection with base x G: the Z_4 orbit read as a row of
        # a Klein cover acts by Klein's law
        group = FiniteGroup(cayley=klein, labels=self.labels(4))
        cover = FiniteCover(points=tuple(range(4)), group=group, orbits=[[0, 1, 2, 3]])
        assert np.asarray(cover.action()).tolist() == klein

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_validation_matches_loop_oracle(self, data):
        # relabeled group tables of Z_n, Klein and S_3, and loops of order
        # up to 7, optionally with one entry overwritten, so accepted and
        # rejected tables both occur; associativity is checked on generators
        groups = [
            (np.add.outer(np.arange(n), np.arange(n)) % n).tolist() for n in (1, 2, 3, 4)
        ]
        groups.append([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
        groups.append(np.asarray(symmetric_cover(3, 3).group.cayley).tolist())
        base = data.draw(st.sampled_from(groups) | loops())
        n = len(base)
        relabel = data.draw(st.permutations(range(n)))
        table = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                table[relabel[i]][relabel[j]] = relabel[base[i][j]]
        if data.draw(st.booleans()):
            i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
            table[i][j] = data.draw(st.integers(-1, n))
        expected = oracles.bruteforce_group_structure(table)
        if expected is None:
            with pytest.raises(DomainError):
                FiniteGroup(cayley=table, labels=self.labels(n))
        else:
            group = FiniteGroup(cayley=table, labels=self.labels(n))
            assert group.identity == expected[0]
            assert group._inverse.tolist() == expected[1]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_cover_validation_matches_the_bruteforce_oracle(self, data):
        # cover_from_action compares every word with the induced action once;
        # the oracle composes every pair of words and tries every (x, g, h)
        cover = data.draw(st.sampled_from(SWAPPABLE_COVERS))
        action = swapped_action(cover, data)
        section = cover.section.tolist()
        cayley = oracles.dict_composition_cayley(np.ascontiguousarray(action.T))
        structure = cayley is not None and oracles.bruteforce_group_structure(cayley.tolist())
        if structure and oracles.bruteforce_cover_is_valid(
            action.tolist(), cayley.tolist(), structure[0], section
        ):
            built = cover_from_action(cover.points, action.T, section=section)
            assert np.array_equal(built.action(), action)
            assert np.array_equal(built.group.cayley, cayley)
        else:
            with pytest.raises(DomainError):
                cover_from_action(cover.points, action.T, section=section)


class TestIrreps:
    def test_symmetric_group_path_labels(self, cover43):
        reps = irreps_of(cover43.group)
        assert [r.label for r in reps] == ["(3,)", "(2, 1)", "(1, 1, 1)"]
        assert [r.dimension for r in reps] == [1, 2, 1]

    def test_regular_path_matches_exact_path(self, cover32):
        # strip the permutation structure and re-derive irreps numerically
        data = oracles.cover_to_json(cover32)
        generic = cover_from_json(data)
        assert generic.group.perms is None
        reps = irreps_of(generic.group, seed=0)
        assert sorted(r.dimension for r in reps) == [1, 1]
        # character tables agree up to relabeling
        exact = irreps_of(cover32.group)
        exact_chars = {
            tuple(np.round([np.trace(m).real for m in np.asarray(r.matrices)], 6)) for r in exact
        }
        generic_chars = {
            tuple(np.round([np.trace(m).real for m in np.asarray(r.matrices)], 6)) for r in reps
        }
        assert exact_chars == generic_chars

    def test_regular_path_s3(self):
        cover = symmetric_cover(4, 3)
        generic = cover_from_json(oracles.cover_to_json(cover))
        reps = irreps_of(generic.group, seed=0)
        assert sorted(r.dimension for r in reps) == [1, 1, 2]
        assert sum(r.dimension**2 for r in reps) == 6

    def test_regular_path_validates_each_irrep_once(self, monkeypatch):
        group = regular_path_cover().group
        validated = []
        exact = GroupRep._validate

        def counting(self):
            validated.append(self.label)
            exact(self)

        monkeypatch.setattr(GroupRep, "_validate", counting)
        reps = irreps_of(group, seed=0)
        assert validated == [rep.label for rep in reps] == ["chi0", "chi1", "chi2"]

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
    def test_cyclic_characters_are_the_roots_of_unity(self, n):
        # word k is the shift by k, so chi(k) = chi(1)**k, chi(1) = e^{2 pi i j / n}
        reps = irreps_of(cover_from_json(oracles.cyclic_document(n)).group, seed=0)
        assert [r.dimension for r in reps] == [1] * n
        chars = np.array([[m[0][0] for m in np.asarray(r.matrices)] for r in reps])
        found = np.rint(np.angle(chars[:, 1 % n]) * n / (2 * math.pi)).astype(int) % n
        assert sorted(found) == list(range(n))
        k = np.arange(n)
        expected = np.exp(2j * math.pi * np.outer(found, k) / n)
        assert linalg.max_abs(chars - expected) < 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 9])
    def test_dihedral_irreducibles(self, n):
        # 2 linear characters for odd n and 4 for even n; the rest are 2-dim,
        # r^a -> diag(w^ja, w^-ja) with w = e^{2 pi i / n} and 1 <= j < n / 2:
        # trace 2 cos(2 pi j a / n) on rotations and 0 on every reflection
        reps = irreps_of(cover_from_json(oracles.dihedral_document(n)).group, seed=0)
        linear = 2 if n % 2 else 4
        dims = [r.dimension for r in reps]
        assert dims == [1] * linear + [2] * ((n - 1) // 2)
        chars = np.array([[np.trace(m) for m in np.asarray(r.matrices)] for r in reps[linear:]])
        assert linalg.max_abs(chars[:, n:]) < 1e-12
        a = np.arange(n)
        expected = {
            tuple(np.round(2 * np.cos(2 * math.pi * j * a / n), 9)) for j in range(1, (n + 1) // 2)
        }
        assert {tuple(np.round(c.real, 9) + 0.0) for c in chars[:, :n]} == expected
        assert linalg.max_abs(chars.imag) < 1e-12

    @pytest.mark.parametrize(
        "document",
        [
            oracles.cyclic_document(64),
            oracles.dihedral_document(16),
            oracles.cover_to_json(symmetric_cover(4, 4)),
        ],
        ids=["Z64", "D16", "S4"],
    )
    def test_regular_split_estimate(self, document, monkeypatch):
        # a generic split's widest eigenspace is its largest irreducible
        group = cover_from_json(document).group
        tracemalloc.start()
        try:
            reps = cover_document._regular_irreps(group, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(r.dimension**2 for r in reps) == group.order
        estimate = cover_document._regular_bytes(group.order, max(r.dimension for r in reps))
        assert peak <= estimate
        monkeypatch.setattr(errors, "BYTES_CAP", estimate)
        cover_document._regular_irreps(group, 0)
        monkeypatch.setattr(errors, "BYTES_CAP", estimate - 1)
        with pytest.raises(ResourceLimitError, match="regular representation"):
            cover_document._regular_irreps(group, 0)

    def test_group_rep_validation(self, cover32):
        bad = [np.eye(1) * 2.0 for _ in range(cover32.group.order)]
        with pytest.raises(DomainError):
            GroupRep(group=cover32.group, matrices=tuple(bad), label="bad")
        non_hom = (np.eye(1), np.eye(1))  # sign rep required for the swap? no: identity
        # identity matrices on S_2 form the trivial rep: valid
        GroupRep(group=cover32.group, matrices=non_hom, label="trivial")

    def test_group_rep_names_a_late_non_unitary_matrix(self, cover43):
        mats = np.array(irreps_of(cover43.group)[1].matrices)
        last = len(mats) - 1
        mats[last] *= 1.01
        with pytest.raises(DomainError, match=f"matrix {last} is not unitary"):
            GroupRep(group=cover43.group, matrices=mats, label="bad")

    def test_group_rep_rejects_unitaries_that_break_the_group_law(self, cover43):
        # one non-identity element sent to the phase i, every other to 1
        mats = [np.eye(1, dtype=complex) for _ in range(cover43.group.order)]
        mats[-1] = 1j * mats[-1]
        with pytest.raises(DomainError, match="group law"):
            GroupRep(group=cover43.group, matrices=tuple(mats), label="bad")

    def test_group_rep_checks_the_law_of_its_own_group(self):
        # r^a s^b -> i^a is a character of Z_4 x Z_2, not of D_4; with r^a s^b at
        # index a + 4 b, both groups multiply alike from the left by r^a, and
        # the rows of the reflections r^a s break D_4's law
        dihedral = cover_from_json(oracles.dihedral_document(4)).group
        b, a = np.divmod(np.arange(8), 4)
        abelian = FiniteGroup(
            cayley=(a[:, None] + a) % 4 + 4 * ((b[:, None] + b) % 2), labels=dihedral.labels
        )
        chars = (1j ** a).reshape(8, 1, 1)
        GroupRep(group=abelian, matrices=chars, label="chi")
        assert oracles.all_pairs_law_defect(abelian.cayley, chars) == 0.0
        first = chars[:4, None] @ chars - chars[np.asarray(dihedral.cayley)[:4]]
        assert linalg.max_abs(first) == 0.0
        assert oracles.all_pairs_law_defect(dihedral.cayley, chars) == 2.0
        with pytest.raises(DomainError, match="group law"):
            GroupRep(group=dihedral, matrices=chars, label="chi")

    def test_irreducible_stacks_keep_their_field(self, cover43):
        # Young's orthogonal forms are real; the regular split's eigenvectors are complex
        def kinds(rep):
            return {type(x) for x in rep.matrices.entries}

        assert [kinds(rep) for rep in irreps_of(cover43.group)] == [{float}] * 3
        generic = cover_from_json(oracles.cover_to_json(cover43)).group
        assert [kinds(rep) for rep in irreps_of(generic)] == [{complex}] * 3
        ints = GroupRep(group=cover43.group, matrices=np.ones((6, 1, 1), dtype=np.int8), label="1")
        assert kinds(ints) == {float}
        singles = np.ones((6, 1, 1), dtype=np.complex64)
        assert kinds(GroupRep(group=cover43.group, matrices=singles, label="1")) == {complex}
        mixed = [[[1]], [[1.0]], [[1 + 0j]], [[1]], [[1]], [[1]]]
        assert kinds(GroupRep(group=cover43.group, matrices=mixed, label="1")) == {complex}
        assert np.asarray(GroupRep(group=cover43.group, matrices=mixed, label="1").matrices).shape == (6, 1, 1)

    @pytest.mark.parametrize(
        "group",
        [
            lambda: symmetric_cover(3, 3).group,
            lambda: symmetric_cover(4, 4).group,
            lambda: cover_from_json(oracles.dihedral_document(4)).group,
            lambda: cover_from_json(oracles.cyclic_document(6)).group,
        ],
        ids=["S3", "S4", "D4", "Z6"],
    )
    def test_every_single_entry_corruption_is_refused(self, group):
        # U(g) + c e_i e_j^T for every element g, generator or not, and every
        # entry: the generator bound and the all-pairs oracle both exceed
        # GROUP_LAW_TOL at |c| = 10 GROUP_LAW_TOL, and GroupRep refuses it
        group = group()
        amount = 10 * linalg.GROUP_LAW_TOL
        for rep in irreps_of(group):
            mats = np.asarray(rep.matrices)
            assert cover_quant._group_law_bound(group, rep.matrices) <= linalg.GROUP_LAW_TOL
            assert oracles.all_pairs_law_defect(group.cayley, mats) <= linalg.GROUP_LAW_TOL
            d = rep.dimension
            for g, i, j, c in itertools.product(
                range(group.order), range(d), range(d), (amount, -1j * amount)
            ):
                bad = mats.astype(complex)
                bad[g, i, j] += c
                stack = cover_quant._matrix_stack(bad)
                assert cover_quant._group_law_bound(group, stack) > linalg.GROUP_LAW_TOL
                assert oracles.all_pairs_law_defect(group.cayley, bad) > linalg.GROUP_LAW_TOL
                with pytest.raises(DomainError):
                    GroupRep(group=group, matrices=bad, label="bad")


class TestConstrainedSpace:
    def test_trivial_rep_dimension(self, cover32):
        basis = constrained_space(cover32, irreps_of(cover32.group)[0])
        assert basis.shape == (6, 3)
        assert linalg.max_abs(linalg.dagger(basis) @ basis - np.eye(3)) < 1e-12

    def test_sign_rep_dimension(self, cover32):
        sign = irreps_of(cover32.group)[1]
        basis = constrained_space(cover32, sign)
        assert basis.shape[1] == 3  # |X| * dim(chi)

    def test_dimension_identity_all_reps(self, cover43):
        total = sum(
            (cover43.base_size * rep.dimension) ** 2 for rep in irreps_of(cover43.group)
        )
        assert total == cover43.base_size**2 * cover43.group.order

    @pytest.mark.parametrize(
        "make",
        [
            lambda: symmetric_cover(3, 2),
            lambda: symmetric_cover(4, 3),
            lambda: regular_path_cover(),
            lambda: randomize_section(symmetric_cover(4, 3), seed=4),
        ],
        ids=["cover32", "cover43", "regular_path_cover", "random_section"],
    )
    def test_scatter_matches_the_loop(self, make):
        cover = make()
        for rep in irreps_of(cover.group):
            expected = oracles.looped_constrained_space(cover, rep)
            assert np.array_equal(constrained_space(cover, rep), expected)

    def test_rep_of_another_group_rejected(self, cover32, cover43):
        with pytest.raises(DomainError, match="deck group"):
            constrained_space(cover32, irreps_of(cover43.group)[0])

    def test_equivariance_of_basis_columns(self, cover32):
        for rep in irreps_of(cover32.group):
            basis = constrained_space(cover32, rep)
            d = rep.dimension
            values = basis.reshape(cover32.total_size, d, -1)
            action, mats = np.asarray(cover32.action()), np.asarray(rep.matrices)
            for g in range(cover32.group.order):
                moved = values[action[:, g]]
                # U(g^-1) = U(g)* for a unitary representation
                expected = np.einsum("ab,xbc->xac", mats[g].conj().T, values)
                assert linalg.max_abs(moved - expected) < 1e-12


class TestKernels:
    def test_orbit_basis_count(self, cover32, cover43):
        assert len(kernel_orbit_basis(cover32)) == 18
        assert len(kernel_orbit_basis(cover43)) == 96

    def test_invariance_validation(self, cover32):
        bad = np.zeros((6, 6))
        bad[0, 1] = 1.0  # not constant on the diagonal orbit
        with pytest.raises(DomainError, match="not invariant"):
            InvariantKernel(cover=cover32, matrix=bad)

    def test_random_kernel_invariant(self, cover32):
        rng = np.random.default_rng(0)
        kernel = random_invariant_kernel(cover32, rng)  # validation inside
        assert kernel.matrix.shape == (6, 6)

    def test_identity_kernel_acts_as_identity(self, cover32):
        kernel = InvariantKernel(cover=cover32, matrix=np.eye(6, dtype=complex))
        for rep in irreps_of(cover32.group):
            act = constrained_action(kernel, rep)
            assert linalg.max_abs(act - np.eye(act.shape[0])) < 1e-12
            sec = section_action(kernel, rep)
            assert linalg.max_abs(sec - np.eye(sec.shape[0])) < 1e-12

    def test_fiber_averaging_kernel(self, cover32):
        # A(x, y) = delta(tau(x), tau(y)): |G| times the invariant-internal
        # projector per fiber, hence zero on every nontrivial irreducible
        mat = np.array(
            [[1.0 if cover32.tau[x] == cover32.tau[y] else 0.0 for y in range(6)] for x in range(6)],
            dtype=complex,
        )
        kernel = InvariantKernel(cover=cover32, matrix=mat)
        triv, sign = irreps_of(cover32.group)
        act_triv = constrained_action(kernel, triv)
        assert linalg.max_abs(act_triv - cover32.group.order * np.eye(3)) < 1e-12
        # Schur orthogonality oracle: mean of a nontrivial irreducible is 0
        mean_sign = np.asarray(sign.matrices).sum(axis=0) / cover32.group.order
        assert linalg.max_abs(mean_sign) < 1e-12
        assert linalg.max_abs(constrained_action(kernel, sign)) < 1e-12

    def test_restriction_is_homomorphism(self, cover32):
        rng = np.random.default_rng(1)
        a = random_invariant_kernel(cover32, rng)
        b = random_invariant_kernel(cover32, rng)
        product = InvariantKernel(cover=cover32, matrix=a.matrix @ b.matrix)
        for rep in irreps_of(cover32.group):
            lhs = constrained_action(product, rep)
            rhs = constrained_action(a, rep) @ constrained_action(b, rep)
            assert linalg.max_abs(lhs - rhs) < 1e-10

    def test_hermiticity_transport(self, cover32):
        rng = np.random.default_rng(2)
        kernel = random_invariant_kernel(cover32, rng, hermitian=True)
        for rep in irreps_of(cover32.group):
            act = constrained_action(kernel, rep)
            assert linalg.max_abs(act - linalg.dagger(act)) < 1e-12
        assert linalg.max_abs(linalg.dagger(kernel.matrix) - kernel.matrix) < 1e-12


class TestSectionRealization:
    def test_trivial_group_reduces_to_plain_kernel(self):
        cover = symmetric_cover(4, 1)
        rng = np.random.default_rng(3)
        kernel = random_invariant_kernel(cover, rng)
        rep = irreps_of(cover.group)[0]
        assert linalg.max_abs(section_action(kernel, rep) - kernel.matrix) < 1e-12

    def test_spectra_match(self, cover43):
        rng = np.random.default_rng(4)
        for rep in irreps_of(cover43.group):
            for _ in range(3):
                kernel = random_invariant_kernel(cover43, rng, hermitian=True)
                con = np.sort(np.linalg.eigvalsh(constrained_action(kernel, rep)))
                sec = np.sort(np.linalg.eigvalsh(section_action(kernel, rep)))
                assert linalg.max_abs(con - sec) < 1e-10

    def test_trivial_sector_unitary_is_identity(self, cover32):
        # invariant functions are identified with functions on the base,
        # and with the canonical basis ordering that map is literally 1
        u = realization_unitary(cover32, irreps_of(cover32.group)[0])
        assert linalg.max_abs(u - np.eye(cover32.base_size)) < 1e-12

    def test_realization_unitary_intertwines(self):
        cover = symmetric_cover(4, 2)
        rng = np.random.default_rng(5)
        for rep in irreps_of(cover.group):
            u = realization_unitary(cover, rep)
            assert linalg.max_abs(u @ linalg.dagger(u) - np.eye(u.shape[0])) < 1e-12
            assert linalg.max_abs(linalg.dagger(u) @ u - np.eye(u.shape[0])) < 1e-12
            for _ in range(50):
                kernel = random_invariant_kernel(cover, rng)
                conj = u @ constrained_action(kernel, rep) @ linalg.dagger(u)
                assert linalg.max_abs(conj - section_action(kernel, rep)) < 1e-10

    def test_section_independence(self):
        base = symmetric_cover(4, 2)
        rng = np.random.default_rng(6)
        base_reps = irreps_of(base.group)
        for seed in (1, 2):
            other = randomize_section(base, seed=seed)
            for rep in base_reps:  # same deck group, so the reps carry over
                u = realization_unitary(other, rep)
                kernel = random_invariant_kernel(other, rng)
                conj = u @ constrained_action(kernel, rep) @ linalg.dagger(u)
                assert linalg.max_abs(conj - section_action(kernel, rep)) < 1e-10
                # spectra do not depend on the section at all
                herm = random_invariant_kernel(other, rng, hermitian=True)
                base_kernel = InvariantKernel(cover=base, matrix=herm.matrix)
                a = np.linalg.eigvalsh(section_action(herm, rep))
                b = np.linalg.eigvalsh(section_action(base_kernel, rep))
                assert linalg.max_abs(np.sort(a) - np.sort(b)) < 1e-10


def looped_section_action(kernel, rep):
    cover = kernel.cover
    _, inverses = oracles.bruteforce_group_structure(np.asarray(cover.group.cayley).tolist())
    return oracles.looped_section_action(
        kernel.matrix,
        np.asarray(cover.action()),
        np.asarray(cover.section),
        inverses,
        list(np.asarray(rep.matrices)),
    )


class TestBatchedSectionAction:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: symmetric_cover(3, 2),
            lambda: symmetric_cover(4, 3),
            lambda: symmetric_cover(5, 2),
            # no Permutation objects (regular-representation irreps, one of
            # dimension 2) and a random representative per orbit
            lambda: randomize_section(regular_path_cover(), seed=3),
        ],
    )
    def test_matches_loop(self, make):
        cover = make()
        rng = np.random.default_rng(11)
        reps = irreps_of(cover.group)
        assert max(rep.dimension for rep in reps) == (2 if cover.group.order == 6 else 1)
        for _ in range(2):
            kernel = random_invariant_kernel(cover, rng)
            for rep in reps:
                batched = section_action(kernel, rep)
                assert linalg.max_abs(batched - looped_section_action(kernel, rep)) < 1e-14

    def test_randomized_section_still_conjugates(self):
        cover = randomize_section(regular_path_cover(), seed=3)
        assert not np.array_equal(cover.section, regular_path_cover().section)
        rng = np.random.default_rng(12)
        kernel = random_invariant_kernel(cover, rng)
        for rep in irreps_of(cover.group):
            u = realization_unitary(cover, rep)
            conj = u @ constrained_action(kernel, rep) @ linalg.dagger(u)
            assert linalg.max_abs(conj - section_action(kernel, rep)) < 1e-12


class TestCensus:
    def test_two_point_cover(self):
        cover = cover_from_action(("p0", "p1"), [(0, 1), (1, 0)])
        report = sector_census(cover, seed=0)
        assert report.kernel_space_dim == 2
        assert [s.carrier_dim for s in report.sectors] == [1, 1]
        assert report.dimension_identity_ok
        assert report.passed

    def test_census_32(self, cover32):
        report = sector_census(cover32, seed=0)
        assert report.kernel_space_dim == 18
        assert sorted(s.carrier_dim for s in report.sectors) == [3, 3]
        assert all(s.commutant_dim == 1 for s in report.sectors)
        assert all(v == 0 for v in report.pairwise_intertwiner_dims.values())
        assert report.passed

    def test_census_43(self, cover43):
        report = sector_census(cover43, seed=0)
        assert report.kernel_space_dim == 96
        assert sorted(s.carrier_dim for s in report.sectors) == [4, 4, 8]
        assert report.dimension_identity_ok
        assert report.passed

    def test_completeness_by_spectra(self):
        # direct sum over sectors (each with multiplicity dim chi)
        # reproduces the spectrum on the whole total set
        for cover in (symmetric_cover(3, 2), symmetric_cover(4, 2), symmetric_cover(4, 3)):
            assert cover.total_size <= 48
            rng = np.random.default_rng(8)
            reps = irreps_of(cover.group)
            for _ in range(20):
                kernel = random_invariant_kernel(cover, rng, hermitian=True)
                full = np.sort(np.linalg.eigvalsh(kernel.matrix))
                pieces = []
                for rep in reps:
                    eigs = np.linalg.eigvalsh(constrained_action(kernel, rep))
                    pieces.extend([eigs] * rep.dimension)
                combined = np.sort(np.concatenate(pieces))
                assert linalg.max_abs(full - combined) < 1e-9

    def test_census_53_past_the_sylvester_frontier(self):
        # the Kronecker-product Sylvester stacks needed 240000 x 400 here
        report = sector_census(symmetric_cover(5, 3), seed=0)
        assert report.kernel_space_dim == 600
        assert [s.carrier_dim for s in report.sectors] == [10, 20, 10]
        assert all(s.commutant_dim == 1 for s in report.sectors)
        assert len(report.pairwise_intertwiner_dims) == 3
        assert all(v == 0 for v in report.pairwise_intertwiner_dims.values())
        assert report.passed

    def test_census_62_certified_by_characters_alone(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Sylvester path taken")

        monkeypatch.setattr(linalg, "commutant_basis_of", refuse)
        monkeypatch.setattr(linalg, "intertwiner_basis", refuse)
        report = sector_census(symmetric_cover(6, 2), seed=0)
        assert report.kernel_space_dim == 450
        assert [s.commutant_dim for s in report.sectors] == [1, 1]
        assert report.pairwise_intertwiner_dims == {"(2,)|(1, 1)": 0}
        assert report.passed

    def test_duplicate_irrep_gets_exact_dimensions(self, cover43, monkeypatch):
        # a rotated copy of (2, 1) added to the irreducibles: the character
        # Gram matrix must count the one intertwiner between the two copies
        exact = cover_quant.irreps_of
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])

        def with_duplicate(group, seed=0):
            reps = exact(group, seed)
            copy = [rotation @ m @ rotation.T for m in np.asarray(reps[1].matrices)]
            return reps + [GroupRep(group=group, matrices=tuple(copy), label="dup")]

        monkeypatch.setattr(cover_quant, "irreps_of", with_duplicate)
        report = sector_census(cover43, seed=0)
        monkeypatch.undo()
        commutant, pairwise = oracle_dimensions(cover43, with_duplicate(cover43.group))
        assert [s.commutant_dim for s in report.sectors] == commutant == [1, 1, 1, 1]
        assert report.pairwise_intertwiner_dims == pairwise
        assert pairwise["(2, 1)|dup"] == 1 and sum(pairwise.values()) == 1
        assert not report.dimension_identity_ok
        assert report.intertwining_residual_max < linalg.RESIDUAL_TOL
        assert not report.passed

    def test_rotated_fiber_blocks_are_caught(self, cover43, monkeypatch):
        # W_x V spans the same equivariant functions, so nothing leaks, but the
        # section evaluation of that basis is V, not the identity: the
        # restricted generators are V* R V, which misses U(h^-1) on the
        # 2-dim irreducible (a rotation commutes with every 1 x 1 block)
        exact = cover_quant._fiber_blocks
        rotation = np.array([[0.6, -0.8], [0.8, 0.6]])

        def rotated(cover, rep):
            blocks = np.asarray(exact(cover, rep))
            return cover_quant._matrix_stack(blocks @ (rotation if rep.dimension == 2 else np.eye(1)))

        monkeypatch.setattr(cover_quant, "_fiber_blocks", rotated)
        report = sector_census(cover43, seed=0)
        assert report.intertwining_residual_max > linalg.RESIDUAL_TOL
        assert not report.passed

    @pytest.mark.parametrize(
        "make", [lambda: symmetric_cover(4, 3), lambda: randomize_section(symmetric_cover(3, 2), 5)]
    )
    def test_section_blocks_of_the_orbit_basis(self, make):
        # the census compares each transported orbit kernel with the block
        # |G|**-1/2 U(h^-1) at (tau(a), tau(b)); section_action agrees
        cover = make()
        rows, cols = oracles.entry_orbits(cover)
        e = cover.group.identity
        h_of = cover.deck_element()
        nbase, ng = cover.base_size, cover.group.order
        for rep in irreps_of(cover.group):
            d = rep.dimension
            for kernel, row, col in zip(orbit_kernels(cover), rows, cols):
                expected = np.zeros((nbase * d, nbase * d), dtype=complex)
                a, b = cover.tau[row[e]], cover.tau[col[e]]
                u_inv = np.asarray(rep.matrices)[int(h_of[col[e]])].conj().T  # U(h^-1) = U(h)*
                expected[a * d : (a + 1) * d, b * d : (b + 1) * d] = u_inv / math.sqrt(ng)
                assert linalg.max_abs(section_action(kernel, rep) - expected) < 1e-15

    def test_census_serializes(self, cover32):
        report = sector_census(cover32, seed=0)
        data = report.to_dict()
        assert json.dumps(data)
        assert data["kernel_space_dim"] == 18
        assert list(data) == [
            "total_size", "base_size", "group_order", "kernel_space_dim", "sectors",
            "pairwise_intertwiner_dims", "dimension_margin", "dimension_identity_ok",
            "intertwining_residual_max", "passed",
        ]
        assert 0.0 <= data["dimension_margin"] < linalg.RESIDUAL_TOL
        assert type(data["sectors"]) is list
        assert data["sectors"][0] == {
            "label": "(2,)", "internal_dim": 1, "carrier_dim": 3, "commutant_dim": 1,
        }


def z4_cover():
    """Z_4 over three base points: complex characters."""
    return cover_from_action(
        tuple(range(12)),
        [tuple(4 * (x // 4) + (x + k) % 4 for x in range(12)) for k in range(4)],
    )


def direct_sum_rep(first, second, label):
    mats = []
    for a, b in zip(np.asarray(first.matrices), np.asarray(second.matrices)):
        mat = np.zeros((a.shape[0] + b.shape[0],) * 2, dtype=complex)
        mat[: a.shape[0], : a.shape[0]] = a
        mat[a.shape[0] :, a.shape[0] :] = b
        mats.append(mat)
    return GroupRep(group=first.group, matrices=tuple(mats), label=label)


class TestCharacterGram:
    @pytest.mark.parametrize(
        "make", [lambda: symmetric_cover(4, 3), lambda: regular_path_cover()],
        ids=["cover43", "regular_path_cover"],
    )
    def test_reducible_sectors_match_the_dense_oracle(self, make, monkeypatch):
        # (2, 1) doubled, and trivial (+) sign, next to the irreducibles
        cover = make()
        irreps = irreps_of(cover.group)
        two = next(r for r in irreps if r.dimension == 2)
        ones = [r for r in irreps if r.dimension == 1]
        trivial = next(r for r in ones if np.allclose(np.asarray(r.matrices)[:, 0, 0], 1.0))
        sign = next(r for r in ones if r is not trivial)
        reps = irreps + [
            direct_sum_rep(two, two, "2x(2, 1)"),
            direct_sum_rep(trivial, sign, "trivial+sign"),
        ]
        monkeypatch.setattr(cover_quant, "irreps_of", lambda group, seed=0: reps)
        report = sector_census(cover, seed=0)
        commutant, pairwise = oracle_dimensions(cover, reps)
        assert [s.commutant_dim for s in report.sectors] == commutant
        assert commutant == [1, 1, 1, 4, 2]
        assert report.pairwise_intertwiner_dims == pairwise
        assert pairwise[f"{two.label}|2x(2, 1)"] == 2
        assert pairwise[f"{trivial.label}|trivial+sign"] == 1
        assert pairwise[f"{sign.label}|trivial+sign"] == 1
        assert pairwise["2x(2, 1)|trivial+sign"] == 0
        assert report.dimension_margin < linalg.RESIDUAL_TOL
        assert report.intertwining_residual_max < linalg.RESIDUAL_TOL
        assert not report.passed

    def test_non_integral_gram_raises(self, cover43):
        # characters off by one part in a million: no dimension count (the
        # scaled matrices are no longer unitary, so they bypass GroupRep)
        reps = [
            SimpleNamespace(
                label=rep.label,
                group=rep.group,
                matrices=cover_quant.MatrixStack(
                    [(1 + 1e-6) * x for x in rep.matrices.entries], rep.dimension
                ),
            )
            for rep in irreps_of(cover43.group)
        ]
        with pytest.raises(ConsistencyError, match="integral"):
            cover_quant._sector_dimensions(reps)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: symmetric_cover(3, 2),
            lambda: symmetric_cover(4, 3),
            lambda: symmetric_cover(5, 4),
            z4_cover,
        ],
    )
    def test_gram_is_the_character_inner_product(self, make):
        # the census sees |G|**-1/2 U(h^-1) on every diagonal orbit, so its
        # Gram matrix is sum_h chi(h) conj(chi'(h)) / |G|
        cover = make()
        reps = irreps_of(cover.group)
        chars = np.array([[np.trace(m) for m in np.asarray(rep.matrices)] for rep in reps])
        inner = chars @ chars.conj().T / cover.group.order
        assert linalg.max_abs(inner - np.eye(len(reps))) < 1e-12
        report = sector_census(cover, seed=0)
        assert [s.commutant_dim for s in report.sectors] == [1] * len(reps)
        assert all(v == 0 for v in report.pairwise_intertwiner_dims.values())
        assert report.dimension_margin < 1e-13


def oracle_dimensions(cover, reps):
    """Commutant and pairwise intertwiner dimensions by dense Sylvester SVDs."""
    kernels = orbit_kernels(cover)
    actions = []
    for rep in reps:
        basis = constrained_space(cover, rep)
        actions.append([cover_reference._restrict(k, basis) for k in kernels])
    commutant = [oracles.dense_intertwiner_dimension(acts, acts) for acts in actions]
    pairwise = {
        f"{reps[i].label}|{reps[j].label}": oracles.dense_intertwiner_dimension(
            actions[i], actions[j]
        )
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
    }
    return commutant, pairwise


def orbit_kernels(cover):
    """Normalized orbit indicators as validated dense kernels, in table order."""
    rows, cols = oracles.entry_orbits(cover)
    npts = cover.total_size
    kernels = []
    for row, col in zip(rows, cols):
        mat = np.zeros((npts, npts), dtype=complex)
        mat[row, col] = 1.0 / math.sqrt(len(row))
        kernels.append(InvariantKernel(cover=cover, matrix=mat))
    return kernels


def regular_path_cover():
    """symmetric_cover(4, 3) without its Permutation objects: irreps_of splits
    the regular representation instead of using Young's forms."""
    return cover_from_json(oracles.cover_to_json(symmetric_cover(4, 3)))


class TestBatchedCensus:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: symmetric_cover(3, 2),
            lambda: symmetric_cover(4, 3),
            lambda: symmetric_cover(5, 3),
            regular_path_cover,
        ],
    )
    def test_oracle_restriction_matches_per_kernel(self, make):
        # the K-orbit oracle of the census, against _restrict of each kernel
        cover = make()
        rows, cols = oracles.entry_orbits(cover)
        npts = cover.total_size
        scanned = oracles.scanned_entry_orbits(cover.action())
        assert np.sort(rows * npts + cols, axis=1).tolist() == scanned
        kernels = []
        for members in scanned:
            mat = np.zeros((npts, npts), dtype=complex)
            mat[np.divmod(members, npts)] = 1.0 / math.sqrt(len(members))
            kernels.append(InvariantKernel(cover=cover, matrix=mat))
        nbase = cover.base_size
        for rep in irreps_of(cover.group):
            d = rep.dimension
            basis = oracles.looped_constrained_space(cover, rep)
            fibers = oracles.looped_fiber_blocks(cover, rep)
            starts = np.arange(len(rows) + 1) * cover.group.order
            blocks = oracles.orbit_restrictions(fibers, rows.ravel(), cols.ravel(), starts)
            assert blocks.shape == (len(kernels), d, d)
            placed = np.zeros((len(kernels), nbase * d, nbase * d), dtype=complex)
            for o, block in enumerate(blocks):
                a, b = cover.tau[rows[o, 0]], cover.tau[cols[o, 0]]
                placed[o, a * d : (a + 1) * d, b * d : (b + 1) * d] = block
            single = np.array([cover_reference._restrict(kernel, basis) for kernel in kernels])
            assert linalg.max_abs(placed - single) < 1e-14

    def test_orbit_basis_built_from_the_orbit_tables(self, cover43):
        npts = cover43.total_size
        scanned = oracles.scanned_entry_orbits(cover43.action())
        for mat, members in zip(kernel_orbit_basis(cover43), scanned):
            assert sorted(np.flatnonzero(mat).tolist()) == members
            assert np.allclose(mat.ravel()[members], 1.0 / math.sqrt(cover43.group.order))
        assert len(kernel_orbit_basis(cover43)) == len(scanned) == npts * cover43.base_size

    @pytest.mark.parametrize("point", range(24))
    def test_broken_deck_identity_raises(self, cover43, point, monkeypatch):
        # h(x.g) = h(x) g is what the closed form rests on: the point moved to
        # any other element of its fiber breaks it, and the census's own
        # leakage check sees that
        exact = FiniteCover.deck_element
        group = cover43.group
        for g in set(range(group.order)) - {group.identity}:

            def broken(cover):
                h_of = exact(cover)[:]
                h_of[point] = cover.group.cayley[h_of[point], g]
                return h_of

            monkeypatch.setattr(FiniteCover, "deck_element", broken)
            with pytest.raises(ConsistencyError, match="constrained subspace leaks"):
                sector_census(cover43, seed=0)

    @pytest.mark.parametrize("point", [0, 7, 23])
    def test_corrupted_fiber_block_leaks(self, cover43, point, monkeypatch):
        # the block of one point's deck element no longer equivariant, in
        # every fiber, whichever element it is
        exact = cover_quant._fiber_blocks

        def corrupted(cover, rep):
            blocks = np.asarray(exact(cover, rep))
            blocks[cover.deck_element()[point]] *= 2.0
            return cover_quant._matrix_stack(blocks)

        monkeypatch.setattr(cover_quant, "_fiber_blocks", corrupted)
        with pytest.raises(ConsistencyError, match="leaks"):
            sector_census(cover43, seed=0)

    @pytest.mark.parametrize(
        "make",
        [lambda: symmetric_cover(5, 3), lambda: randomize_section(symmetric_cover(4, 3), 6),
         regular_path_cover],
        ids=["cover53", "random-section-43", "regular-path"],
    )
    def test_fiber_rows_match_the_full_gather(self, make, monkeypatch):
        # the blocks the census gathers by deck element at its orbit-table
        # points, bit for bit the rows of the (|total|, d, d) gather of every point
        cover = make()
        read = []
        exact = cover_quant._fiber_blocks

        def recording(cover, rep):
            blocks = exact(cover, rep)
            full = oracles.gathered_fiber_blocks(cover, rep)
            read.append((np.asarray(blocks), full))
            return blocks

        monkeypatch.setattr(cover_quant, "_fiber_blocks", recording)
        assert sector_census(cover, seed=0).passed
        deck, orbits = np.asarray(cover.deck_element()), np.asarray(cover.orbits)
        for blocks, full in read:
            assert full.shape[0] == cover.total_size
            assert np.array_equal(blocks[deck], full)
            assert np.array_equal(blocks[deck[orbits]], full[orbits])

    @pytest.mark.parametrize("q,n", [(20, 4), (11, 5), (16, 5), (8, 6)])
    def test_census_forms_nothing_of_the_cover_size(self, q, n):
        # traced peak of the census under its estimate, and under one
        # (|total|, d, d) fiber array at the largest d or one (|total|, |G|)
        # table of 8-byte entries; S_6's census, whose stacks are most of
        # it, runs about 15 times slower traced than untraced
        cover = symmetric_cover(q, n)
        reps = irreps_of(cover.group)
        dims = [rep.dimension for rep in reps]
        tracemalloc.start()
        try:
            assert sector_census(cover, seed=0).passed
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        order = cover.group.order
        assert peak <= cover_quant._census_bytes(order, dims, complex_entries=False)
        assert peak < 8 * cover.total_size * min(order, max(dims) ** 2)

    def test_census_reads_the_fiber_blocks_alone(self, cover43, monkeypatch):
        # no dense (|total| d) x (|base| d) basis is formed anywhere in the census
        def refuse(cover, rep):
            raise AssertionError("dense constrained basis built")

        monkeypatch.setattr(cover_quant, "constrained_space", refuse)
        for cover in (cover43, regular_path_cover()):
            assert sector_census(cover, seed=0).passed

    def test_per_kernel_restriction_leaks_off_the_constrained_space(self, cover43):
        kernel = random_invariant_kernel(cover43, np.random.default_rng(13))
        for rep in irreps_of(cover43.group):
            basis = constrained_space(cover43, rep).copy()
            basis[: rep.dimension] *= 2.0
            with pytest.raises(ConsistencyError, match="leaks"):
                cover_reference._restrict(kernel, linalg.orthonormal_range(basis))

    @pytest.mark.parametrize("q,n", [(6, 3), (9, 2), (11, 2)])
    def test_frontier_census(self, q, n):
        # the parent built |base|**2 |G| dense kernels here: 17 s and 11 s
        report = sector_census(symmetric_cover(q, n), seed=0)
        assert report.kernel_space_dim == report.base_size**2 * report.group_order
        assert all(s.commutant_dim == 1 for s in report.sectors)
        assert all(v == 0 for v in report.pairwise_intertwiner_dims.values())
        assert report.passed

    def test_cost_estimate_admits_the_frontier(self):
        # the largest admitted (q, N) for N = 2..6, and the first refused;
        # the edges before the census left numpy stay admitted
        for q, n in [(4082, 2), (254, 3), (64, 4), (29, 5), (18, 6)]:
            cover_quant.check_census_cost(q, n)
            with pytest.raises(ResourceLimitError, match=f"{n}-particle cover of {q + 1} points"):
                cover_quant.check_census_cost(q + 1, n)
        for q, n in [(2342, 2), (168, 3), (46, 4), (22, 5), (14, 6)]:
            cover_quant.check_census_cost(q, n)
        for q, n in [(3, 2), (4, 3), (5, 5), (11, 2), (34, 2), (10, 3), (64, 2), (11, 3), (7, 4)]:
            cover = symmetric_cover(q, n)
            dims = [rep.dimension for rep in irreps_of(cover.group)]
            census = cover_quant._census_bytes(cover.group.order, dims, complex_entries=False)
            assert census <= errors.BYTES_CAP

    @pytest.mark.parametrize("q,n", [(3, 2), (4, 3), (5, 5), (6, 2), (6, 3), (8, 2), (5, 4)])
    def test_early_refusal_includes_the_census_estimate(self, q, n, monkeypatch):
        # check_census_cost adds symmetric_cover's tables to _census_bytes
        # for Young's real forms, so at any cap that it admits, the census
        # admits the cover it builds: the orbit table and h per point, the
        # closed form's runs, the Cayley table and the group's elements
        cover = symmetric_cover(q, n)
        npts, order = cover.total_size, cover.group.order
        dims = [rep.dimension for rep in irreps_of(cover.group)]
        census = cover_quant._census_bytes(order, dims, complex_entries=False)
        estimate = (
            census
            + cover_quant.POINT_BYTES * npts
            + cover_quant.RUN_BYTES * math.comb(q - 1, n - 1)
            + cover_quant.INDEX_BYTES * order * order
            + cover_quant.ELEMENT_BYTES * order
            + cover_quant.ADMITTED_BYTES
        )
        monkeypatch.setattr(errors, "BYTES_CAP", estimate)
        cover_quant.check_census_cost(q, n)
        sector_census(cover, seed=0)
        monkeypatch.setattr(errors, "BYTES_CAP", estimate - 1)
        with pytest.raises(ResourceLimitError, match=f"{n}-particle cover of {q} points"):
            cover_quant.check_census_cost(q, n)
        monkeypatch.setattr(errors, "BYTES_CAP", census - 1)
        with pytest.raises(ResourceLimitError, match="cover census of"):
            sector_census(cover, seed=0)

    def test_cost_estimate_refuses_before_the_census_tables(self, monkeypatch):
        # a budget one byte under the estimate refuses (12, 3) before h(x) is
        # read, with Young's real forms and with complex copies of them, whose
        # conjugated columns the estimate counts too
        def refuse(cover):
            raise AssertionError("deck elements read")

        cover = symmetric_cover(12, 3)
        real = cover_quant._census_bytes(6, [1, 2, 1], complex_entries=False)
        complex_copies = cover_quant._census_bytes(6, [1, 2, 1], complex_entries=True)
        assert real < complex_copies
        monkeypatch.setattr(FiniteCover, "deck_element", refuse)
        monkeypatch.setattr(errors, "BYTES_CAP", real - 1)
        with pytest.raises(ResourceLimitError, match="cover census of 1320 points"):
            sector_census(cover, seed=0)
        exact = cover_quant.irreps_of

        def complex_irreps(group, seed=0):
            return [
                GroupRep(group, cover_quant.MatrixStack(list(map(complex, rep.matrices.entries)),
                                                        rep.dimension), rep.label)
                for rep in exact(group, seed)
            ]

        monkeypatch.setattr(cover_quant, "irreps_of", complex_irreps)
        monkeypatch.setattr(errors, "BYTES_CAP", complex_copies - 1)
        with pytest.raises(ResourceLimitError, match="cover census of 1320 points"):
            sector_census(cover, seed=0)


class TestClosedForm:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: symmetric_cover(3, 2),
            lambda: symmetric_cover(4, 3),
            lambda: randomize_section(symmetric_cover(5, 3), seed=4),
            regular_path_cover,
            lambda: cover_from_json(oracles.dihedral_document(6)),
            z4_cover,
        ],
        ids=["cover32", "cover43", "random-section-53", "regular-path", "D6", "Z4"],
    )
    def test_matches_the_orbit_oracle(self, make):
        # the generating set and the character Gram matrix give what the
        # restriction, transport and traces of all K orbits give
        cover = make()
        report = sector_census(cover, seed=0)
        oracle = oracles.orbit_census(cover, irreps_of(cover.group))
        assert report.kernel_space_dim == oracle["kernel_space_dim"]
        assert [s.commutant_dim for s in report.sectors] == oracle["commutant"]
        assert report.pairwise_intertwiner_dims == oracle["pairwise"]
        assert oracle["leakage"] < 1e-14
        assert report.dimension_margin < 1e-14 and oracle["dimension_margin"] < 1e-14
        assert report.intertwining_residual_max < 1e-14
        assert oracle["intertwining_residual_max"] < 1e-14
        assert report.passed

    @pytest.mark.parametrize("q,n", [(3, 2), (4, 3), (5, 4), (6, 6)])
    def test_real_census_matches_the_complex_census(self, q, n, monkeypatch):
        # the census in Young's real forms against the same census on their
        # complex copies, the arithmetic it ran in before
        cover = symmetric_cover(q, n)
        real = sector_census(cover, seed=0)
        exact = cover_quant.irreps_of

        def complex_irreps(group, seed=0):
            return [
                GroupRep(
                    group=group,
                    matrices=cover_quant.MatrixStack(
                        list(map(complex, rep.matrices.entries)), rep.dimension
                    ),
                    label=rep.label,
                )
                for rep in exact(group, seed)
            ]

        monkeypatch.setattr(cover_quant, "irreps_of", complex_irreps)
        oracle = sector_census(cover, seed=0)
        assert real.sectors == oracle.sectors
        assert real.pairwise_intertwiner_dims == oracle.pairwise_intertwiner_dims
        assert real.passed and oracle.passed
        assert abs(real.dimension_margin - oracle.dimension_margin) <= 1e-15
        assert abs(real.intertwining_residual_max - oracle.intertwining_residual_max) <= 1e-15

    @pytest.mark.parametrize(
        "group",
        [
            lambda: symmetric_cover(3, 3).group,
            lambda: symmetric_cover(4, 4).group,
            lambda: symmetric_cover(5, 5).group,
            lambda: cover_from_json(oracles.cyclic_document(256)).group,
            lambda: cover_from_json(oracles.dihedral_document(64)).group,
        ],
        ids=["S3", "S4", "S5", "Z256", "D64"],
    )
    def test_generators_are_few_and_generate(self, group):
        group = group()
        gens = group._generators
        assert 1 <= len(gens) <= math.log2(group.order)
        # closure under right multiplication by the generators, in a Python
        # set; step l reaches the words of length l, so the steps that grow
        # it are the diameter of the Cayley graph
        reached = {group.identity}
        steps = 0
        while True:
            grown = reached | {int(group.cayley[x, g]) for x in reached for g in gens}
            if grown == reached:
                break
            reached = grown
            steps += 1
        assert reached == set(range(group.order))
        assert group._diameter == steps


class TestPlainPython:
    @pytest.mark.parametrize("noise", [0.0, 1e-13, 1e-11, 1e-9])
    def test_leakage_bound_holds_the_leakage(self, noise):
        # what _restriction returns against the leakage max_g
        # |R_g / root - L_g R| formed in numpy, on the generator rows of
        # (5, 3) with their blocks moved off the constrained space: a bound
        # at or under RESIDUAL_TOL, the leakage itself past it
        cover = symmetric_cover(5, 3)
        group, root = cover.group, math.sqrt(cover.group.order)
        deck, orbits = np.asarray(cover.deck_element()), np.asarray(cover.orbits)
        rng = np.random.default_rng(11)
        for rep in irreps_of(group):
            d = rep.dimension
            blocks = np.asarray(cover_quant._fiber_blocks(cover, rep))
            left = blocks[deck[orbits[0]]]
            columns = [left.reshape(-1)[i::d].tolist() for i in range(d)]
            row_norm = float(np.linalg.norm(left, axis=2).max())
            for s in group._generators:
                points = orbits[0, np.asarray(group.cayley)[s]]
                right = blocks[deck[points]] + noise * rng.standard_normal(left.shape)
                section = np.asarray(rep.matrices)[group._inverse[deck[points[group.identity]]]]
                block, bound = cover_quant._restriction(
                    columns, columns, row_norm,
                    cover_quant.MatrixStack(right.reshape(-1).tolist(), d), root,
                    (section / root).reshape(-1).tolist(),
                )
                restricted = np.reshape(block, (d, d))
                assert np.allclose(restricted, np.einsum("gri,grj->ij", left, right) / root)
                leakage = np.abs(right / root - left @ restricted).max()
                if bound <= linalg.RESIDUAL_TOL:
                    assert leakage <= bound + 1e-16
                else:
                    assert bound == pytest.approx(leakage, abs=1e-15)

    @pytest.mark.parametrize("q,n", [(4, 2), (5, 3), (6, 4), (7, 3), (6, 5), (9, 1), (5, 5)])
    def test_closed_form_matches_the_searchsorted_table(self, q, n):
        cover = symmetric_cover(q, n)
        assert np.array_equal(cover.orbits, oracles.searchsorted_orbit_table(q, n))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: symmetric_cover(3, 2),
            lambda: symmetric_cover(4, 3),
            lambda: symmetric_cover(5, 4),
            lambda: symmetric_cover(6, 6),
            lambda: randomize_section(symmetric_cover(5, 3), seed=2),
            regular_path_cover,
            lambda: cover_from_json(oracles.dihedral_document(6)),
            z4_cover,
        ],
        ids=["cover32", "cover43", "cover54", "cover66", "random-section-53", "regular-path",
             "D6", "Z4"],
    )
    def test_matches_the_numpy_census(self, make):
        # the first orbit and the generator rows beside one comparison of h
        # with the table, against every row of the table restricted in numpy
        cover = make()
        report = sector_census(cover, seed=0)
        oracle = oracles.numpy_sector_census(cover, irreps_of(cover.group))
        assert [s.commutant_dim for s in report.sectors] == oracle["commutant"]
        assert report.pairwise_intertwiner_dims == oracle["pairwise"]
        assert oracle["leakage"] < 1e-14
        assert abs(report.dimension_margin - oracle["dimension_margin"]) < 1e-15
        assert abs(report.intertwining_residual_max - oracle["intertwining_residual_max"]) < 2e-15
        assert report.passed

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_young_stacks_match_the_per_element_products(self, n):
        # breadth first from the adjacent transpositions, against
        # IrrepMatrices.matrix along each element's bubble-sort word
        group = symmetric_cover(n, n).group
        for shape, rep in zip(cover_quant.enumerate_partitions(n), irreps_of(group)):
            young = permgroup.irrep(shape)
            expected = np.array([young.matrix(pi) for pi in group.perms])
            assert linalg.max_abs(np.asarray(rep.matrices) - expected) < 1e-14
            for k, mat in enumerate(permgroup.young_generators(shape)):
                assert np.array_equal(np.reshape(mat, young._adjacent[k].shape), young._adjacent[k])

    def test_index_table_reads_as_its_rows(self):
        table = cover_quant.IndexTable(array("q", range(6)), 3)
        assert table.shape == (2, 3) and len(table) == 2
        assert table[1].tolist() == [3, 4, 5] and table[-1, -1] == 5 and table[0, 2] == 2
        assert table.column(1).tolist() == [1, 4]
        assert np.array_equal(table, [[0, 1, 2], [3, 4, 5]])
        for key in (2, (0, 3), (2, 0)):
            with pytest.raises(IndexError):
                table[key]

    def test_matrix_stack_reads_as_its_matrices(self):
        stack = cover_quant.MatrixStack([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0], 2)
        assert len(stack) == 2 and stack.block(1) == [5.0, 6.0, 7.0, 8.0]
        assert stack.block(0) == [1.0, 2.0, 3.0, 4.0] and stack.traces() == [5.0, 13.0]
        assert stack.gather([1, 1, 0]).entries == [5.0, 6.0, 7.0, 8.0] * 2 + [1.0, 2.0, 3.0, 4.0]
        assert np.asarray(stack).shape == (2, 2, 2) and not stack.is_complex
        with pytest.raises(DomainError, match="one square matrix per group element"):
            cover_quant._matrix_stack([[[1.0, 0.0]], [[1.0, 0.0]]])
        with pytest.raises(DomainError, match="entries must be numbers"):
            cover_quant._matrix_stack([[["1"]]])


class TestJsonInterface:
    def test_round_trip(self, cover32, tmp_path):
        data = oracles.cover_to_json(cover32)
        clone = cover_from_json(data)
        assert clone.total_size == cover32.total_size
        assert clone.base_size == cover32.base_size
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(data))
        from_path = cover_from_json(path)
        report = sector_census(from_path, seed=0)
        assert report.kernel_space_dim == 18
        assert report.passed

    def test_section_in_any_orbit_order(self):
        # a section lists one point per orbit in any order: reversed, the
        # census report is the default section's
        data = oracles.cover_to_json(symmetric_cover(4, 3))
        default = cover_from_json(data)
        data["section"] = data["section"][::-1]
        reversed_cover = cover_from_json(data)
        assert np.array_equal(reversed_cover.section, default.section[::-1])
        report = sector_census(reversed_cover, seed=0).to_dict()
        assert report == sector_census(default, seed=0).to_dict()

    def test_section_preserved(self, cover32):
        shifted = randomize_section(cover32, seed=9)
        clone = cover_from_json(oracles.cover_to_json(shifted))
        assert np.array_equal(clone.section, shifted.section)

    def test_unreadable_files_are_usage_errors(self, tmp_path):
        with pytest.raises(DomainError, match="cannot read JSON"):
            cover_from_json(tmp_path / "missing.json")
        with pytest.raises(DomainError, match="cannot read JSON"):
            cover_from_json(tmp_path)
        truncated = tmp_path / "truncated.json"
        truncated.write_text('{"points": ["a", "b"')
        with pytest.raises(DomainError, match="cannot read JSON"):
            cover_from_json(truncated)
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(DomainError, match="cannot read JSON"):
            cover_from_json(binary)

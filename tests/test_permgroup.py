import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectorkit import (
    circle_theta, cover_quant, highest_weight, linalg, parastat_equiv, schur_weyl, tensor_rep,
)
from sectorkit.cli import _round_floats
from sectorkit.errors import DomainError, Value
from sectorkit.partitions import contents, hook_content
from sectorkit.permgroup import (
    Partition,
    Permutation,
    StandardTableau,
    character,
    conjugacy_classes,
    enumerate_partitions,
    hook_dimension,
    irrep,
    row_col_groups,
    standard_tableaux,
    symmetric_group,
)

import oracles


degree5_st = st.permutations(list(range(1, 6))).map(lambda p: Permutation(tuple(p)))


class TestPermutation:
    def test_call(self):
        pi = Permutation((2, 3, 1, 4))
        assert [pi(i) for i in range(1, 5)] == [2, 3, 1, 4]

    def test_invalid_images(self):
        with pytest.raises(DomainError):
            Permutation((1, 1, 3))
        with pytest.raises(DomainError):
            Permutation((0, 1, 2))

    @given(degree5_st, degree5_st)
    @settings(max_examples=60, deadline=None)
    def test_sign_homomorphism(self, a, b):
        assert oracles.compose(a, b).sign() == a.sign() * b.sign()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_conjugacy_classes_match_cycle_types(self, n):
        group = symmetric_group(n)
        types, label = conjugacy_classes(np.array([pi.images for pi in group]))
        # pi and its inverse share their cycle type
        expected = [oracles.inverse_cycle_type(pi.images) for pi in group]
        assert [types[c] for c in label] == expected
        # classes are numbered by their first element
        firsts = [int(np.flatnonzero(label == c)[0]) for c in range(len(types))]
        assert firsts == sorted(firsts)
        assert len(types) == len(oracles.bruteforce_partitions(n))

    def test_adjacent_word_reconstructs(self):
        for pi in symmetric_group(4):
            rebuilt = oracles.identity_permutation(4)
            for k in pi.adjacent_word():
                rebuilt = oracles.compose(rebuilt, Permutation.transposition(4, k, k + 1))
            assert rebuilt == pi


class TestPartitions:
    def test_n2_partitions(self):
        assert [p.parts for p in enumerate_partitions(2)] == [(2,), (1, 1)]

    def test_n1_trivial(self):
        assert [p.parts for p in enumerate_partitions(1)] == [(1,)]

    def test_n4_against_bruteforce_oracle(self):
        # frozen from the recursive enumeration oracle: 5 partitions of 4
        expected = oracles.bruteforce_partitions(4)
        assert len(expected) == 5
        assert [p.parts for p in enumerate_partitions(4)] == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_oracle_and_order(self, n):
        got = [p.parts for p in enumerate_partitions(n)]
        assert got == oracles.bruteforce_partitions(n)
        assert got[0] == (n,)  # reverse-lex starts with the single row

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            enumerate_partitions(0)
        with pytest.raises(DomainError):
            enumerate_partitions(-3)

    def test_partition_validation(self):
        with pytest.raises(DomainError):
            Partition((1, 2))
        with pytest.raises(DomainError):
            Partition((2, 0))
        assert Partition((3, 1)).conjugate().parts == (2, 1, 1)


class TestTableaux:
    def test_two_one_has_two_tableaux(self):
        assert len(standard_tableaux(Partition((2, 1)))) == 2

    def test_single_row_forced(self):
        tabs = standard_tableaux(Partition((5,)))
        assert len(tabs) == 1
        assert tabs[0].rows == ((1, 2, 3, 4, 5),)

    def test_two_two_against_filter_oracle(self):
        # frozen from filtering all 4! fillings: 2 standard tableaux
        assert oracles.bruteforce_standard_tableau_count((2, 2)) == 2
        assert len(standard_tableaux(Partition((2, 2)))) == 2

    @pytest.mark.parametrize("n", range(1, 8))
    def test_count_equals_hook_dimension(self, n):
        for shape in enumerate_partitions(n):
            assert len(standard_tableaux(shape)) == hook_dimension(shape)

    def test_validation(self):
        with pytest.raises(DomainError):
            StandardTableau(((2, 1), (3,)))  # row must increase
        with pytest.raises(DomainError):
            StandardTableau(((1, 2), (2,)))  # duplicate entry
        with pytest.raises(DomainError):
            StandardTableau(((1,), (2, 3)))  # frame is not a partition
        with pytest.raises(DomainError):
            StandardTableau(((1, 4), (2, 3)))  # column must increase


class TestHookDimension:
    def test_known_values(self):
        assert hook_dimension(Partition((2, 1))) == 2
        assert hook_dimension(Partition((1, 1, 1, 1))) == 1
        # frozen from the tableau enumeration oracle
        assert oracles.bruteforce_standard_tableau_count((3, 2)) == 5
        assert hook_dimension(Partition((3, 2))) == 5

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sum_of_squares_is_factorial(self, n):
        assert sum(hook_dimension(p) ** 2 for p in enumerate_partitions(n)) == math.factorial(n)


class TestHookContent:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_the_hook_length_and_weyl_oracles(self, n):
        for shape in enumerate_partitions(n):
            hooks = math.prod(h for row in oracles.hook_lengths(shape.parts) for h in row)
            assert hook_dimension(shape) * hooks == math.factorial(n)
            cells = contents(shape)
            assert len(cells) == n
            # the conjugate reflects every cell in the main diagonal
            assert sorted(contents(shape.conjugate())) == sorted(-c for c in cells)
            for m in range(1, 7):
                value = hook_content(shape, m)
                assert value == oracles.weyl_multiplicity(shape.parts, m)
                assert math.prod(m + c for c in cells) == value * hooks
                assert (value == 0) == (len(shape) > m)


class TestRowColGroups:
    def test_paper_n3_tableau(self):
        rows, cols = row_col_groups(StandardTableau(((1, 2), (3,))))
        assert sorted(p.images for p in rows) == [(1, 2, 3), (2, 1, 3)]
        assert sorted(p.images for p in cols) == [(1, 2, 3), (3, 2, 1)]

    def test_single_row_is_full_group(self):
        rows, cols = row_col_groups(StandardTableau(((1, 2, 3, 4),)))
        assert sorted(p.images for p in rows) == sorted(p.images for p in symmetric_group(4))
        assert [p.images for p in cols] == [(1, 2, 3, 4)]

    def test_column_of_three_against_oracle(self):
        # frozen from enumeration of permutations preserving {1,2,3}: 6
        expected = oracles.preserving_permutations(3, [(1, 2, 3)])
        assert len(expected) == 6
        _, cols = row_col_groups(StandardTableau(((1,), (2,), (3,))))
        assert sorted(p.images for p in cols) == sorted(expected)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_sizes_and_closure(self, n):
        for shape in enumerate_partitions(n):
            tab = standard_tableaux(shape)[0]
            rows, cols = row_col_groups(tab)
            assert len(rows) == math.prod(math.factorial(p) for p in shape.parts)
            assert len(cols) == math.prod(
                math.factorial(p) for p in shape.conjugate().parts
            )
            row_set = {p.images for p in rows}
            assert all(oracles.compose(a, b).images in row_set for a in rows for b in rows)


def _all_matrices(rep, group):
    return {pi.images: rep.matrix(pi) for pi in group}


class TestIrreps:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_unitary_homomorphism_all_pairs(self, n):
        group = symmetric_group(n)
        index = {pi.images: i for i, pi in enumerate(group)}
        for shape in enumerate_partitions(n):
            rep = irrep(shape)
            mats = np.stack([rep.matrix(pi) for pi in group])
            eye = np.eye(rep.dimension)
            assert max(
                linalg.max_abs(m @ m.conj().T - eye) for m in mats
            ) < 1e-10
            for i, pi in enumerate(group):
                products = mats[i] @ mats
                targets = np.stack([mats[index[oracles.compose(pi, sg).images]] for sg in group])
                assert linalg.max_abs(products - targets) < 1e-10

    def test_n6_random_pairs(self):
        rng = np.random.default_rng(0)
        group = symmetric_group(6)
        pairs = rng.integers(0, len(group), size=(200, 2))
        for shape in enumerate_partitions(6):
            rep = irrep(shape)
            eye = np.eye(rep.dimension)
            for i, j in pairs:
                a, b = group[i], group[j]
                ma, mb = rep.matrix(a), rep.matrix(b)
                assert linalg.max_abs(ma @ ma.conj().T - eye) < 1e-10
                assert linalg.max_abs(ma @ mb - rep.matrix(oracles.compose(a, b))) < 1e-10

    @pytest.mark.parametrize("n", range(2, 6))
    def test_irreducibility_by_commutant(self, n):
        for shape in enumerate_partitions(n):
            rep = irrep(shape)
            mats = [rep.matrix(pi) for pi in symmetric_group(n)]
            assert len(linalg.commutant_basis_of(mats)) == 1

    def test_dimension_matches_hooks(self):
        for n in range(1, 7):
            for shape in enumerate_partitions(n):
                assert irrep(shape).dimension == hook_dimension(shape)

    def test_trivial_and_sign(self):
        for n in (2, 3, 4):
            triv = irrep(Partition((n,)))
            sign = irrep(Partition((1,) * n))
            for pi in symmetric_group(n):
                assert np.allclose(triv.matrix(pi), [[1.0]])
                assert np.allclose(sign.matrix(pi), [[pi.sign()]])

    def test_two_one_transposition_eigenvalues(self):
        # equivalent to diag(-1, 1) up to a change of basis
        rep = irrep(Partition((2, 1)))
        eigs = np.sort(np.linalg.eigvalsh(rep.matrix(Permutation((1, 3, 2)))))
        assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)


class TestCharacters:
    def test_values_s3(self):
        lam = Partition((2, 1))
        rep = irrep(lam)
        assert character(lam, Permutation((1, 2, 3)), rep) == pytest.approx(2.0)
        # trace of the doublet block on a transposition is -1 + 1 = 0
        assert character(lam, Permutation((1, 3, 2)), rep) == pytest.approx(0.0, abs=1e-12)
        triv = Partition((3,))
        assert all(
            character(triv, pi) == pytest.approx(1.0) for pi in symmetric_group(3)
        )

    def test_class_function(self):
        lam = Partition((2, 2))
        rep = irrep(lam)
        group = symmetric_group(4)
        by_type: dict[tuple[int, ...], set[float]] = {}
        for pi in group:
            by_type.setdefault(oracles.inverse_cycle_type(pi.images), set()).add(
                round(character(lam, pi, rep), 9)
            )
        assert all(len(vals) == 1 for vals in by_type.values())

    @pytest.mark.parametrize("n", range(2, 6))
    def test_orthogonality(self, n):
        group = symmetric_group(n)
        shapes = enumerate_partitions(n)
        reps = {s.parts: irrep(s) for s in shapes}
        chars = {
            s.parts: np.array([character(s, pi, reps[s.parts]) for pi in group])
            for s in shapes
        }
        for a in shapes:
            for b in shapes:
                inner = float(np.dot(chars[a.parts], chars[b.parts])) / math.factorial(n)
                assert inner == pytest.approx(1.0 if a.parts == b.parts else 0.0, abs=1e-10)

    def test_sign_character_exact(self):
        sign_shape = Partition((1, 1, 1, 1))
        rep = irrep(sign_shape)
        for pi in symmetric_group(4):
            assert character(sign_shape, pi, rep) == pi.sign()


# One value of each type, its field name and value, and a value of the
# same type that differs in it.
VALUES = [
    (Permutation((2, 1)), "images", (2, 1), Permutation((1, 2))),
    (Partition((2, 1)), "parts", (2, 1), Partition((3,))),
    (StandardTableau(((1, 2), (3,))), "rows", ((1, 2), (3,)), StandardTableau(((1, 3), (2,)))),
]
VALUE_IDS = ["Permutation", "Partition", "StandardTableau"]


class TestValueTypes:
    """The contract the three value types kept when they stopped being
    frozen dataclasses: equality, hash and repr by type and field, keyword
    construction, read-only fields, copies and pickles, and the messages."""

    @pytest.mark.parametrize("value,field,content,other", VALUES, ids=VALUE_IDS)
    def test_equality_and_hash_go_by_type_and_field(self, value, field, content, other):
        twin = type(value)(content)
        assert twin == value and not twin != value and twin is not value
        assert hash(twin) == hash(value) == hash((content,))  # the dataclass hash
        assert value != other
        assert value != content and content != value
        assert len({value, twin, other}) == 2

    def test_types_never_compare_equal(self):
        # Permutation((2, 1)) and Partition((2, 1)) hold the same tuple
        pi, shape = VALUES[0][0], VALUES[1][0]
        assert pi.images == shape.parts
        assert pi != shape and shape != pi
        assert len({pi, shape}) == 2

    def test_repr_text(self):
        assert repr(Permutation((2, 3, 1))) == "Permutation(images=(2, 3, 1))"
        assert repr(Partition((3, 1))) == "Partition(parts=(3, 1))"
        assert repr(StandardTableau(((1, 2), (3,)))) == "StandardTableau(rows=((1, 2), (3,)))"
        assert str(Partition((3, 1))) == "Partition(parts=(3, 1))"

    @pytest.mark.parametrize("value,field,content,other", VALUES, ids=VALUE_IDS)
    def test_keyword_construction_converts_to_int_tuples(self, value, field, content, other):
        assert type(value)(**{field: content}) == value
        lists = [list(r) for r in content] if field == "rows" else list(content)
        floats = [[float(v) for v in r] for r in content] if field == "rows" else [2.0, 1.0]
        for raw in (lists, floats):
            rebuilt = type(value)(**{field: raw})
            assert getattr(rebuilt, field) == content
            assert rebuilt == value
        with pytest.raises(TypeError):
            type(value)()

    @pytest.mark.parametrize("value,field,content,other", VALUES, ids=VALUE_IDS)
    def test_fields_are_read_only(self, value, field, content, other):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(other, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) == content

    @pytest.mark.parametrize("value,field,content,other", VALUES, ids=VALUE_IDS)
    def test_copy_deepcopy_and_pickle_round_trip(self, value, field, content, other):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert getattr(twin, field) == content
        nested = copy.deepcopy({"key": [value]})
        assert nested == {"key": [value]}

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: Permutation((1, 1, 3)), "not a bijection of 1..3: (1, 1, 3)"),
            (lambda: Permutation((0, 1, 2)), "not a bijection of 1..3: (0, 1, 2)"),
            (lambda: Permutation(()), "not a bijection of 1..0: ()"),
            (lambda: Partition(()), "empty partition"),
            (lambda: Partition((2, 0)), "parts must be positive: (2, 0)"),
            (lambda: Partition((1, 2)), "parts must be non-increasing: (1, 2)"),
            (lambda: StandardTableau(()), "empty partition"),
            (lambda: StandardTableau(((1,), (2, 3))), "parts must be non-increasing: (1, 2)"),
            (lambda: StandardTableau(((1, 2), (2,))),
             "entries must be exactly 1..3: ((1, 2), (2,))"),
            (lambda: StandardTableau(((2, 1), (3,))),
             "rows must increase left to right: ((2, 1), (3,))"),
            (lambda: StandardTableau(((1, 4), (2, 3))),
             "columns must increase top to bottom: ((1, 4), (2, 3))"),
        ],
        ids=[
            "repeated-image", "image-out-of-range", "no-images", "no-parts", "zero-part",
            "increasing-parts", "no-rows", "frame-not-a-partition", "repeated-entry",
            "row-not-increasing", "column-not-increasing",
        ],
    )
    def test_domain_error_messages(self, make, message):
        with pytest.raises(DomainError) as info:
            make()
        assert str(info.value) == message


# Every model and report type built on errors.Value besides the three
# above: its fields in declaration order and its defaults.
RECORD_FIELDS = {
    "FiniteGroup": ("cayley", "labels", "perms"),
    "FiniteCover": ("points", "group", "orbits"),
    "GroupRep": ("group", "matrices", "label"),
    "InvariantKernel": ("cover", "matrix"),
    "SectorCensusRecord": ("label", "internal_dim", "carrier_dim", "commutant_dim"),
    "SectorCensusReport": (
        "total_size", "base_size", "group_order", "kernel_space_dim", "sectors",
        "pairwise_intertwiner_dims", "dimension_margin", "dimension_identity_ok",
        "intertwining_residual_max", "passed",
    ),
    "SectorRecord": ("partition", "irrep_dim", "multiplicity", "rank", "idempotence_residual"),
    "SectorReport": ("m", "N", "sectors", "commutant_dim", "residuals"),
    "SectorRealization": ("label", "injection", "operators", "leakage"),
    "EquivalenceCertificate": ("equivalent", "carrier_dims", "residual", "intertwiner", "detail"),
    "Carrier": ("label", "n", "internal_dim", "vectors", "move"),
    "HighestWeightCertificate": (
        "equivalent", "carrier_dims", "highest_weights", "residual", "basis", "intertwiner",
        "detail",
    ),
    "ThetaSector": ("theta",),
    "GaugeReport": (
        "theta", "n", "method", "residual", "measured_constant", "theta_over_2pi",
        "eigenvalue_agreement",
    ),
    "ConvergenceReport": (
        "theta", "k_max", "grid_sizes", "errors", "pairwise_orders", "fitted_order",
    ),
    "TensorSpace": ("m", "N"),
}
RECORD_DEFAULTS = {"FiniteGroup": {"perms": None}}
# These hold arrays and compare and hash by identity.
ARRAY_HOLDERS = {"FiniteGroup", "FiniteCover", "GroupRep", "InvariantKernel"}


@pytest.fixture(scope="module")
def records():
    """One value of each type in RECORD_FIELDS, by class name."""
    cover = cover_quant.symmetric_cover(3, 2)
    census = cover_quant.sector_census(cover)
    report = schur_weyl.sector_decomposition(2, 3)
    values = [
        cover.group,
        cover,
        cover_quant.irreps_of(cover.group)[1],
        cover_quant.random_invariant_kernel(cover, np.random.default_rng(0)),
        census.sectors[0],
        census,
        report.sectors[0],
        report,
        parastat_equiv.SectorRealization("sym", np.eye(2), np.zeros((1, 2, 2)), 0.0),
        parastat_equiv.EquivalenceCertificate(True, (2, 2), 0.0, np.eye(2), "unitary"),
        highest_weight.SINGLET,
        highest_weight.certify_pair(3, 2),
        circle_theta.ThetaSector(1.0),
        circle_theta.gauge_equivalence_check(1.0, 64),
        circle_theta.fd_convergence(1.0, k_max=2, grid_sizes=(16, 32, 64)),
        tensor_rep.TensorSpace(2, 3),
    ]
    return {type(v).__name__: v for v in values}


def same_content(a, b) -> bool:
    """Equal content: arrays by dtype and entries (the cover layer's tables
    and stacks read as arrays), records field by field."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, (cover_quant.IndexTable, cover_quant.MatrixStack)):
        return type(a) is type(b) and same_content(np.asarray(a), np.asarray(b))
    if isinstance(a, Value):
        return type(a) is type(b) and all(
            same_content(getattr(a, name), getattr(b, name)) for name in type(a)._fields
        )
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_content, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_content(a[k], b[k]) for k in a)
    return a == b


def containers(obj, found: set) -> set:
    """ids of the lists and dicts reachable from obj through containers and records."""
    if isinstance(obj, (list, dict)):
        found.add(id(obj))
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    elif isinstance(obj, Value):
        children = [getattr(obj, name) for name in type(obj)._fields]
    else:
        children = ()
    for child in children:
        containers(child, found)
    return found


def field_values(value) -> dict:
    return {name: getattr(value, name) for name in RECORD_FIELDS[type(value).__name__]}


class TestRecordTypes:
    """The contract the model and report types kept when they stopped being
    frozen dataclasses: fields, defaults and constructor forms, read-only
    fields, copies and pickles, equality by field or by identity, and
    a JSON form that shares no container with the record."""

    @pytest.mark.parametrize("name", RECORD_FIELDS)
    def test_positional_and_keyword_construction(self, records, name):
        value = records[name]
        cls = type(value)
        assert cls.__name__ == name and cls._fields == RECORD_FIELDS[name]
        fields = field_values(value)
        for twin in (cls(*fields.values()), cls(**fields)):
            assert same_content(twin, value)

    @pytest.mark.parametrize("name", RECORD_FIELDS)
    def test_defaults_and_missing_or_unknown_arguments(self, records, name):
        value = records[name]
        cls, fields = type(value), field_values(value)
        defaults = RECORD_DEFAULTS.get(name, {})
        for omitted in fields:
            rest = {k: v for k, v in fields.items() if k != omitted}
            if omitted in defaults:
                assert getattr(cls(**rest), omitted) == defaults[omitted]
            else:
                with pytest.raises(TypeError, match=repr(omitted)):
                    cls(**rest)
        with pytest.raises(TypeError, match="'unknown'"):
            cls(**fields, unknown=1)
        with pytest.raises(TypeError):
            cls(*fields.values(), 1)
        first, *_ = fields
        with pytest.raises(TypeError, match=repr(first)):
            cls(*fields.values(), **{first: fields[first]})

    @pytest.mark.parametrize("name", RECORD_FIELDS)
    def test_fields_are_read_only(self, records, name):
        value = records[name]
        fields = field_values(value)
        for field, content in fields.items():
            with pytest.raises(AttributeError):
                setattr(value, field, content)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is content
        with pytest.raises(AttributeError):
            value.extra = 1

    @pytest.mark.parametrize("name", RECORD_FIELDS)
    def test_copy_deepcopy_and_pickle_round_trip(self, records, name):
        value = records[name]
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert same_content(twin, value)
        arrays = any(isinstance(v, np.ndarray) for v in field_values(value).values())
        if name not in ARRAY_HOLDERS and not arrays:
            assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value))

    @pytest.mark.parametrize("name", RECORD_FIELDS)
    def test_equality_and_hash(self, records, name):
        value = records[name]
        twin = type(value)(**field_values(value))
        assert value == value
        if name in ARRAY_HOLDERS:
            assert twin != value and not twin == value
            assert hash(value) == object.__hash__(value)
            assert len({value, twin}) == 2
            return
        # equal fields, the same objects: equal records, hashed as the field tuple
        assert twin == value and not twin != value
        contents = tuple(field_values(value).values())
        try:
            expected = hash(contents)
        except TypeError:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(twin) == hash(value) == expected

    def test_gauge_reports_at_equal_angles_are_equal(self):
        full_turn = circle_theta.gauge_equivalence_check(2 * math.pi, 64)
        zero = circle_theta.gauge_equivalence_check(0, 64)
        assert full_turn == zero and hash(full_turn) == hash(zero)
        assert full_turn != circle_theta.gauge_equivalence_check(1.0, 64)

    @pytest.mark.parametrize(
        "name",
        [
            "SectorCensusRecord", "SectorCensusReport", "SectorRecord", "SectorReport",
            "HighestWeightCertificate", "GaugeReport", "ConvergenceReport",
        ],
    )
    def test_to_dict_shares_no_container(self, records, name):
        # dataclasses.asdict copied every list and dict it met; the renderer
        # writes every record through _round_floats
        value = records[name]
        data = _round_floats(value)
        assert not containers(data, set()) & containers(value, set())

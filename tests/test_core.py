"""Core container and paradigm arithmetic tests.

The weight and split rules are checked against exact rational arithmetic
(fractions.Fraction) so no tolerance hides an off-by-one.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from plrefine.core import (
    CE_BLOCK_ROWS,
    NORM_BLOCK_ROWS,
    UNLABELED,
    ClassSpace,
    EmbeddingSet,
    LabeledSubset,
    ParadigmConfig,
    Task,
    make_trzsl_split,
    normalize_rows,
    paradigm_weights,
    float_scalar,
    frozen_array,
    index_vector,
    int_scalar,
    json_form,
    row_norms,
    sample_shots,
    softmax_cross_entropy,
    unit_normalize,
)


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _embedding_set(rng, n, d, C):
    feats = _unit_rows(rng, n, d)
    labels = rng.integers(0, C, size=n).astype(np.int64)
    return EmbeddingSet(feats, labels, np.arange(n, dtype=np.uint64))


def _class_space(rng, C, d):
    return ClassSpace(
        tuple(f"c{j}" for j in range(C)),
        _unit_rows(rng, C, d),
    )


class TestUnitNormalize:
    def test_rows_become_unit(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            x = 3.0 * rng.standard_normal((7, 5)) + 0.5
            u = unit_normalize(x)
            assert np.allclose(np.linalg.norm(u, axis=1), 1.0, atol=1e-12)
            # Direction is preserved.
            assert np.allclose(u * np.linalg.norm(x, axis=1, keepdims=True), x)

    def test_zero_vector_rejected(self):
        x = np.zeros((2, 4))
        x[0, 0] = 1.0
        with pytest.raises(ValueError, match="degenerate embedding"):
            unit_normalize(x)

    def test_higher_rank_input(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 4, 6))
        u = unit_normalize(x)
        assert np.allclose(np.linalg.norm(u, axis=-1), 1.0)

    def test_returns_a_copy_and_never_writes_its_input(self):
        rng = np.random.default_rng(2)
        for shape in ((5, 4), (3, 4, 6), (7,)):
            x = 3.0 * rng.standard_normal(shape)
            before = x.copy()
            x.setflags(write=False)
            u = unit_normalize(x)
            assert not np.shares_memory(u, x) and u.flags.writeable
            assert np.array_equal(x, before)
            assert u.tobytes() == (before / np.linalg.norm(before, axis=-1, keepdims=True)).tobytes()

    @pytest.mark.parametrize("n", [1, NORM_BLOCK_ROWS - 1, NORM_BLOCK_ROWS, NORM_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("d", [1, 7, 64])
    def test_row_norms_match_whole_matrix_norm_bitwise(self, n, d):
        x = 3.0 * np.random.default_rng(n * 100 + d).standard_normal((n, d))
        norms = row_norms(x)
        assert norms.shape == (n, 1)
        assert norms.tobytes() == np.linalg.norm(x, axis=1, keepdims=True).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_gives_its_row_a_non_finite_norm(self, bad):
        x = _unit_rows(np.random.default_rng(3), NORM_BLOCK_ROWS + 5, 6)
        x[NORM_BLOCK_ROWS + 2, 4] = bad
        finite = np.isfinite(row_norms(x)[:, 0])
        assert np.flatnonzero(~finite).tolist() == [NORM_BLOCK_ROWS + 2]

    def test_normalize_rows_divides_its_argument_in_place(self):
        rng = np.random.default_rng(4)
        whole = 3.0 * rng.standard_normal((8, 5))
        before = whole.copy()
        rows = whole[2:5]  # a view: only these rows of `whole` may change
        norms = normalize_rows(rows, "row")
        expected = np.linalg.norm(before[2:5], axis=1, keepdims=True)
        assert norms.tobytes() == expected.tobytes()
        assert whole[2:5].tobytes() == (before[2:5] / expected).tobytes()
        assert np.array_equal(np.delete(whole, [2, 3, 4], axis=0), np.delete(before, [2, 3, 4], axis=0))

    def test_normalize_rows_rejects_a_zero_row_before_writing(self):
        x = np.ones((3, 4))
        x[1] = 0.0
        with pytest.raises(ValueError, match="degenerate embedding: zero-norm row cannot be normalized"):
            normalize_rows(x, "row")
        assert np.array_equal(x[[0, 2]], np.ones((2, 4))) and not x[1].any()


class TestEmbeddingSet:
    def test_round_trip_properties(self):
        rng = np.random.default_rng(2)
        data = _embedding_set(rng, 12, 6, 4)
        assert data.n == 12
        assert data.d == 6
        assert not data.features.flags.writeable

    def test_rows_for_ids(self):
        rng = np.random.default_rng(3)
        feats = _unit_rows(rng, 6, 4)
        ids = np.array([9, 4, 11, 2, 7, 5], dtype=np.uint64)
        data = EmbeddingSet(feats, np.zeros(6, dtype=np.int64), ids)
        rows = data.rows_for_ids([11, 9, 5])
        assert rows.tolist() == [2, 0, 5]

    def test_rows_for_unknown_id(self):
        rng = np.random.default_rng(4)
        data = _embedding_set(rng, 5, 4, 2)
        with pytest.raises(KeyError, match="unknown example id 99"):
            data.rows_for_ids([0, 99])

    def test_rows_for_ids_matches_dict_lookup(self):
        rng = np.random.default_rng(30)
        data = EmbeddingSet(
            _unit_rows(rng, 50, 4),
            np.zeros(50, dtype=np.int64),
            rng.permutation(200)[:50].astype(np.uint64),
        )
        index = {int(i): r for r, i in enumerate(data.ids)}
        wanted = data.ids[rng.integers(0, 50, size=80)]
        assert data.rows_for_ids(wanted).tolist() == [index[int(i)] for i in wanted]

    @pytest.mark.parametrize("wanted, unknown", [([3, 98, -1], 98), ([-1, 98], -1)])
    def test_first_unknown_id_named(self, wanted, unknown):
        ids = np.array([3, 7, 2**64 - 1], dtype=np.uint64)
        data = EmbeddingSet(np.eye(3), np.zeros(3, dtype=np.int64), ids)
        with pytest.raises(KeyError, match=f"unknown example id {unknown}'$"):
            data.rows_for_ids(wanted)

    def test_float_ids_rejected(self):
        ids = np.array([3, 7], dtype=np.uint64)
        data = EmbeddingSet(np.eye(2), np.zeros(2, dtype=np.int64), ids)
        with pytest.raises(TypeError, match="integers"):
            data.rows_for_ids([7.5])

    def test_rejects_non_unit_rows(self):
        rng = np.random.default_rng(5)
        feats = 2.0 * _unit_rows(rng, 4, 3)
        with pytest.raises(ValueError, match="unit-normalized"):
            EmbeddingSet(feats, np.zeros(4, dtype=np.int64), np.arange(4, dtype=np.uint64))

    def test_rejects_non_finite_features(self):
        rng = np.random.default_rng(5)
        for bad in (np.nan, np.inf):
            feats = _unit_rows(rng, 4, 3)
            feats[2, 1] = bad
            with pytest.raises(ValueError, match="features must be finite"):
                EmbeddingSet(feats, np.zeros(4, dtype=np.int64), np.arange(4, dtype=np.uint64))

    def test_rejects_duplicate_ids(self):
        rng = np.random.default_rng(6)
        feats = _unit_rows(rng, 3, 3)
        ids = np.array([1, 1, 2], dtype=np.uint64)
        with pytest.raises(ValueError, match="ids must be unique"):
            EmbeddingSet(feats, np.zeros(3, dtype=np.int64), ids)
        # Ids that are not unsigned integers are refused, not truncated or wrapped.
        for bad, match in (
            ([0.5, 1.5, 2.5], "ids must be integer indices, got a float64 array"),
            (np.array([0, -1, 2]), "ids must be non-negative, got -1"),
        ):
            with pytest.raises(ValueError, match=match):
                EmbeddingSet(feats, np.zeros(3, dtype=np.int64), bad)

    def test_rejects_labels_below_sentinel(self):
        rng = np.random.default_rng(7)
        feats = _unit_rows(rng, 3, 3)
        labels = np.array([0, -2, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="labels must be at least -1, got -2"):
            EmbeddingSet(feats, labels, np.arange(3, dtype=np.uint64))
        # [0.9, 1.7, 2.2] would store [0, 1, 2] if cast.
        for bad, kind in (([0.9, 1.7, 2.2], "float64"), ([True, False, True], "bool")):
            with pytest.raises(ValueError, match=f"labels must be integer indices, got a {kind} array"):
                EmbeddingSet(feats, bad, np.arange(3, dtype=np.uint64))

    def test_list_ids_at_or_above_2_63_load(self):
        # numpy infers [1, 2**63] as float64, which the rule used to refuse.
        data = EmbeddingSet(np.eye(2), [0, 1], [1, 2**63])
        assert data.ids.dtype == np.uint64 and data.ids.tolist() == [1, 2**63]
        with pytest.raises(ValueError, match="^ids must be non-negative, got -1$"):
            EmbeddingSet(np.eye(2), [0, 1], [-1, 2**63])

    def test_sentinel_label_allowed(self):
        rng = np.random.default_rng(8)
        feats = _unit_rows(rng, 3, 3)
        labels = np.array([0, UNLABELED, 1], dtype=np.int64)
        data = EmbeddingSet(feats, labels, np.arange(3, dtype=np.uint64))
        assert data.labels[1] == UNLABELED


class TestClassSpace:
    def test_basic_properties(self):
        rng = np.random.default_rng(9)
        space = _class_space(rng, 4, 7)
        assert space.C == 4
        assert space.d == 7
        assert space.partition is None

    def test_rejects_shape_mismatch(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError, match="one row per class name"):
            ClassSpace(("a", "b", "c"), _unit_rows(rng, 2, 4))

    def test_rejects_non_unit_prototypes(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="unit-normalized"):
            ClassSpace(("a", "b"), 1.1 * _unit_rows(rng, 2, 4))

    def test_rejects_non_finite_prototypes(self):
        rng = np.random.default_rng(11)
        protos = _unit_rows(rng, 2, 4)
        protos[1, 0] = np.nan
        with pytest.raises(ValueError, match="base_prototypes must be finite"):
            ClassSpace(("a", "b"), protos)

    def test_partition_must_cover_classes(self):
        rng = np.random.default_rng(12)
        protos = _unit_rows(rng, 4, 5)
        names = ("a", "b", "c", "d")
        ClassSpace(names, protos, partition=((0, 2), (1, 3)))  # valid
        with pytest.raises(ValueError, match="partition seen side must be integer indices, got a float64 array"):
            ClassSpace(names, protos, partition=((0.2, 2.0), (1, 3)))
        with pytest.raises(ValueError, match="partition unseen side must be integer indices, got a float64 array"):
            ClassSpace(names, protos, partition=((0, 2), (1.0, 3.9)))
        bad = [
            ((0, 1), (2,)),        # misses class 3
            ((0, 1, 2, 3), ()),    # one side empty
            ((0, 1), (1, 2, 3)),   # overlap
            ((0, 0, 1), (2, 3)),   # duplicate
        ]
        for partition in bad:
            with pytest.raises(ValueError, match="partition"):
                ClassSpace(names, protos, partition=partition)


class TestLabeledSubset:
    def test_n_property(self):
        sub = LabeledSubset(np.array([3, 1, 4]), np.array([0, 1, 0]))
        assert sub.n == 3

    def test_rejects_duplicate_rows(self):
        with pytest.raises(ValueError, match="rows must be unique"):
            LabeledSubset(np.array([1, 1]), np.array([0, 1]))
        with pytest.raises(ValueError, match="rows must be integer indices, got a float64 array"):
            LabeledSubset(np.array([1.5, 2.5]), np.array([0, 1]))
        # Row -1 would train on the last row of the train set.
        with pytest.raises(ValueError, match="rows must be non-negative, got -1"):
            LabeledSubset(np.array([-1, 2]), np.array([0, 1]))

    def test_rejects_sentinel_labels(self):
        with pytest.raises(ValueError, match="labels must be non-negative, got -1"):
            LabeledSubset(np.array([0, 1]), np.array([0, UNLABELED]))
        with pytest.raises(ValueError, match="labels must be integer indices, got a bool array"):
            LabeledSubset(np.array([0, 1]), np.array([True, False]))

    def test_empty_subset_allowed(self):
        sub = LabeledSubset(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert sub.n == 0


class TestParadigmConfig:
    def test_known_paradigms(self):
        for p in ("SSL", "UL", "TRZSL"):
            cfg = ParadigmConfig(p)
            assert cfg.paradigm == p
            assert cfg.shots_per_class == 2

    def test_unknown_paradigm(self):
        with pytest.raises(ValueError, match="unknown paradigm 'FSL'"):
            ParadigmConfig("FSL")

    def test_sl_rejected(self):
        for shots in (0, 2):
            with pytest.raises(ValueError, match="must not include SL: it has no unlabeled pool"):
                ParadigmConfig("SL", shots_per_class=shots)

    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError, match="shots_per_class"):
            ParadigmConfig("SSL", shots_per_class=-1)
        for bad in (2.0, 2.5, True, -1):
            with pytest.raises(ValueError, match="^shots_per_class must be "):
                ParadigmConfig("UL", shots_per_class=bad)
        # True used to draw one shot per class.
        with pytest.raises(ValueError, match="shots_per_class must be an integer, got True"):
            ParadigmConfig("SSL", shots_per_class=True)


class TestIndexVector:
    @pytest.mark.parametrize(
        "x, kwargs, expected",
        [
            # lo only; the message names the first value out of range, not the smallest.
            (np.array([3, -1, -5]), {"lo": 0}, "v must be non-negative, got -1"),
            (np.array([0, -2, -1]), {"lo": -1}, "v must be at least -1, got -2"),
            (np.array([-1, 0, 4]), {"lo": -1}, [-1, 0, 4]),
            # hi only
            (np.array([-7, 4, 9]), {"hi": 5}, "v must be below 5, got 9"),
            (np.array([-7, 4]), {"hi": 5}, [-7, 4]),
            # both
            (np.array([0, 5, -1]), {"lo": 0, "hi": 5}, r"v must lie in \[0, 5\), got 5"),
            (np.array([2, -1, 7]), {"lo": 0, "hi": 5}, r"v must lie in \[0, 5\), got -1"),
            (np.array([0, 4]), {"lo": 0, "hi": 5}, [0, 4]),
            # An empty vector has no value to refuse.
            (np.array([], dtype=np.int64), {"lo": 0, "hi": 1}, []),
            ([], {"lo": 3, "hi": 4}, []),
            # A typed array skips the cast, not the bounds.
            (np.array([1, 3], dtype=np.int64), {"lo": 0, "hi": 3}, r"v must lie in \[0, 3\), got 3"),
            (np.array([1, 2**63], dtype=np.uint64), {"dtype": np.uint64, "hi": 2**63}, r"v must lie in \[0, 9223372036854775808\), got 9223372036854775808"),
            # An unsigned dtype starts at 0 without a bound given.
            (np.array([4, -1], dtype=np.int32), {"dtype": np.uint64}, "v must be non-negative, got -1"),
            # Lists of integers are typed by dtype, not by numpy's inference.
            ([1, 2**63], {"dtype": np.uint64}, [1, 2**63]),
            ((np.int64(2), 0), {"lo": 0, "hi": 3}, [2, 0]),
            (range(3), {"hi": 3}, [0, 1, 2]),
            ([3, -2], {"dtype": np.uint64}, "v must be non-negative, got -2"),
            ([1, 2**64], {"dtype": np.uint64}, "v must fit in uint64"),
            (np.array([2**63], dtype=np.uint64), {"lo": -1}, "v must fit in int64"),
            ([1, 2.0], {}, "v must be integer indices, got a float64 array"),
            ([1, True], {}, "v must be integer indices, got True"),
            ([[1, 2]], {}, r"v must have shape \(n,\), got \(1, 2\)"),
        ],
        ids=[
            "lo", "lo below zero", "lo kept", "hi", "hi kept", "both at hi", "both below lo", "both kept",
            "empty typed", "empty list", "typed at hi", "typed uint64 at hi", "unsigned default", "uint64 list",
            "numpy int tuple", "range", "negative uint64 list", "list beyond uint64", "uint64 array beyond int64", "float in list",
            "bool in list", "nested list",
        ],
    )
    def test_range_rule(self, x, kwargs, expected):
        if isinstance(expected, str):
            with pytest.raises(ValueError, match=f"^{expected}$"):
                index_vector(x, "v", **kwargs)
        else:
            out = index_vector(x, "v", **kwargs)
            assert out.dtype == kwargs.get("dtype", np.int64) and out.tolist() == expected

    def test_typed_array_without_bounds_is_returned_as_it_is(self):
        labels = np.array([-5, 9], dtype=np.int64)
        ids = np.array([0, 2**64 - 1], dtype=np.uint64)
        assert index_vector(labels, "labels", 2) is labels
        assert index_vector(ids, "ids", 2, np.uint64) is ids


class TestIntScalar:
    @pytest.mark.parametrize("x", [0, 7, np.int64(7), np.uint8(3), np.int32(0)])
    def test_integers_come_back_as_python_ints(self, x):
        out = int_scalar(x, "n")
        assert type(out) is int and out == x

    @pytest.mark.parametrize("x", [2.0, 2.5, True, False, np.bool_(True), np.float64(3.0), "3", None, np.array(3)])
    def test_non_integers_refused_not_cast(self, x):
        with pytest.raises(ValueError, match=re.escape(f"n must be an integer, got {x!r}")):
            int_scalar(x, "n")

    def test_minimum(self):
        assert int_scalar(2, "C", lo=2) == 2
        assert int_scalar(np.uint64(0), "seed") == 0
        with pytest.raises(ValueError, match=re.escape("C must be at least 2, got 1")):
            int_scalar(1, "C", lo=2)
        with pytest.raises(ValueError, match=re.escape("k must be at least 1, got 0")):
            int_scalar(np.int64(0), "k", lo=1)
        with pytest.raises(ValueError, match=re.escape("seed must be non-negative, got -1")):
            int_scalar(-1, "seed")

    def test_not_a_package_export(self):
        import plrefine

        assert not hasattr(plrefine, "int_scalar")


class TestFloatScalar:
    @pytest.mark.parametrize("x", [0, 0.0, 7, 2.5, np.int64(7), np.float32(10.0), np.float64(1e-4), 1e300])
    def test_numbers_come_back_as_python_floats(self, x):
        out = float_scalar(x, "t")
        assert type(out) is float and out == x

    @pytest.mark.parametrize("x", [True, False, np.bool_(True), "0.1", "10", None, [1.0], np.array(1.0), 1 + 0j])
    def test_non_numbers_refused_not_cast(self, x):
        with pytest.raises(ValueError, match=re.escape(f"t must be a number, got {x!r}")):
            float_scalar(x, "t")

    def test_range(self):
        with pytest.raises(ValueError, match=re.escape("t must be non-negative, got -0.5")):
            float_scalar(-0.5, "t")
        with pytest.raises(ValueError, match=re.escape("t must be non-negative, got nan")):
            float_scalar(float("nan"), "t")
        with pytest.raises(ValueError, match=re.escape("t must be non-negative, got -inf")):
            float_scalar(-math.inf, "t")
        with pytest.raises(ValueError, match=re.escape("t must be finite and non-negative, got inf")):
            float_scalar(math.inf, "t")
        with pytest.raises(ValueError, match=re.escape("t must be positive, got 0")):
            float_scalar(0, "t", positive=True)
        with pytest.raises(ValueError, match=re.escape("t must be positive, got nan")):
            float_scalar(np.float64("nan"), "t", positive=True)
        with pytest.raises(ValueError, match=re.escape("t must be finite and positive, got inf")):
            float_scalar(np.inf, "t", positive=True)

    def test_ints_beyond_the_float_range_are_infinite(self):
        # float() of such an int raises OverflowError, which names no setting.
        with pytest.raises(ValueError, match=re.escape("temperature must be finite and positive, got inf")):
            float_scalar(10**400, "temperature", positive=True)
        with pytest.raises(ValueError, match=re.escape("t must be finite and non-negative, got inf")):
            float_scalar(10**5000, "t")
        with pytest.raises(ValueError, match=re.escape("t must be non-negative, got -inf")):
            float_scalar(-(10**400), "t")
        with pytest.raises(ValueError, match=re.escape("tau must lie in [0, 1), got inf")):
            float_scalar(10**400, "tau", 1)

    def test_upper_bound(self):
        assert float_scalar(0.0, "tau", 1) == 0.0
        assert float_scalar(0.999, "tau", 1) == 0.999
        for x in (1, 1.0, 2.5, math.inf):
            with pytest.raises(ValueError, match=re.escape(f"tau must lie in [0, 1), got {x}")):
                float_scalar(x, "tau", 1)
        with pytest.raises(ValueError, match=re.escape("tau must be non-negative, got nan")):
            float_scalar(math.nan, "tau", 1)
        with pytest.raises(ValueError, match=re.escape("r must lie in (0, 1), got 1")):
            float_scalar(1, "r", 1, positive=True)

    def test_not_a_package_export(self):
        import plrefine

        assert not hasattr(plrefine, "float_scalar")


class TestJsonForm:
    def test_numpy_scalars_become_python_numbers(self):
        for x, plain in ((np.int64(4), 4), (np.uint8(3), 3), (np.float32(0.5), 0.5), (np.bool_(True), True)):
            got = json_form(x)
            assert type(got) is type(plain) and got == plain

    def test_nested_elements_and_values_are_converted(self):
        got = json_form({"seeds": (np.int64(0), 2), "schedule": {"epochs": np.int64(3)}, "l": [np.float32(0.5)]})
        assert got == {"seeds": [0, 2], "schedule": {"epochs": 3}, "l": [0.5]}
        assert type(got["seeds"][0]) is int and type(got["schedule"]["epochs"]) is int
        assert type(got["l"][0]) is float


class TestTrzslSplit:
    def test_benchmark_seen_counts(self):
        """floor(0.62 C) for five common benchmark class counts."""
        expected = {102: 63, 45: 27, 100: 62, 10: 6, 47: 29}
        for C, seen_count in expected.items():
            seen, unseen = make_trzsl_split(C, seed=0)
            assert len(seen) == seen_count == math.floor(0.62 * C)
            assert len(unseen) == C - seen_count

    def test_split_partitions_classes(self):
        for seed in range(10):
            for C in (2, 3, 10, 31):
                seen, unseen = make_trzsl_split(C, seed)
                assert sorted(seen + unseen) == list(range(C))
                assert set(seen).isdisjoint(unseen)
                assert list(seen) == sorted(seen)
                assert list(unseen) == sorted(unseen)

    def test_deterministic_per_seed(self):
        assert make_trzsl_split(40, 7) == make_trzsl_split(40, 7)
        splits = {make_trzsl_split(40, s) for s in range(8)}
        assert len(splits) > 1

    def test_too_few_classes(self):
        with pytest.raises(ValueError, match="at least 2 classes"):
            make_trzsl_split(1, 0)
        # C=4.0 used to fail inside numpy with an AxisError.
        for bad in (4.0, 2.5, True, "4"):
            with pytest.raises(ValueError, match=re.escape(f"C must be an integer, got {bad!r}")):
                make_trzsl_split(bad, 0)

    def test_negative_seed_rejected_by_name(self):
        with pytest.raises(ValueError, match="split seed must be non-negative, got -1"):
            make_trzsl_split(10, -1)
        for bad in (2.0, 2.5, True):
            with pytest.raises(ValueError, match="^transductive split seed must be an integer"):
                make_trzsl_split(10, bad)


class TestSampleShots:
    def test_counts_and_membership(self):
        rng = np.random.default_rng(13)
        feats = _unit_rows(rng, 40, 6)
        labels = np.repeat(np.arange(4, dtype=np.int64), 10)
        data = EmbeddingSet(feats, labels, np.arange(40, dtype=np.uint64))
        sub = sample_shots(data, range(4), shots=3, seed=5)
        assert sub.n == 12
        for c in range(4):
            rows_c = sub.rows[sub.labels == c]
            assert rows_c.size == 3
            assert np.all(labels[rows_c] == c)

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(14)
        feats = _unit_rows(rng, 30, 5)
        labels = np.repeat(np.arange(3, dtype=np.int64), 10)
        data = EmbeddingSet(feats, labels, np.arange(30, dtype=np.uint64))
        a = sample_shots(data, range(3), 2, seed=1)
        b = sample_shots(data, range(3), 2, seed=1)
        c = sample_shots(data, range(3), 2, seed=2)
        assert np.array_equal(a.rows, b.rows)
        assert not np.array_equal(a.rows, c.rows)

    def test_insufficient_rows(self):
        rng = np.random.default_rng(15)
        feats = _unit_rows(rng, 4, 5)
        labels = np.array([0, 0, 0, 1], dtype=np.int64)
        data = EmbeddingSet(feats, labels, np.arange(4, dtype=np.uint64))
        with pytest.raises(ValueError, match="class 1 has only 1 labeled rows, need 2"):
            sample_shots(data, range(2), 2, seed=0)
        # Class 0.9 would draw class 0's rows if cast.
        with pytest.raises(ValueError, match="classes must be integer indices, got a float64 array"):
            sample_shots(data, [0.9], 1, seed=0)
        for bad in (2.0, 2.5, True, -1):
            with pytest.raises(ValueError, match="^shots must be "):
                sample_shots(data, range(2), bad, seed=0)
        # seed=True used to draw what seed=1 draws.
        for bad in (True, 1.0, -1):
            with pytest.raises(ValueError, match="^seed must be "):
                sample_shots(data, range(2), 1, seed=bad)

    def test_negative_class_refused(self):
        # Class -1 used to sample the unlabeled rows and fail later in LabeledSubset.
        rng = np.random.default_rng(16)
        labels = np.array([0, UNLABELED, 1, UNLABELED], dtype=np.int64)
        data = EmbeddingSet(_unit_rows(rng, 4, 5), labels, np.arange(4, dtype=np.uint64))
        with pytest.raises(ValueError, match="^classes must be non-negative, got -1$"):
            sample_shots(data, [-1], 1, 0)

    def test_sentinel_rows_never_sampled(self):
        rng = np.random.default_rng(16)
        feats = _unit_rows(rng, 6, 5)
        labels = np.array([0, 0, UNLABELED, 1, 1, UNLABELED], dtype=np.int64)
        data = EmbeddingSet(feats, labels, np.arange(6, dtype=np.uint64))
        sub = sample_shots(data, range(2), 2, seed=0)
        assert set(sub.rows.tolist()) == {0, 1, 3, 4}


class TestParadigmWeights:
    def test_exact_on_random_pairs(self):
        """gamma and lambda match rational arithmetic on 100 size pairs."""
        rng = np.random.default_rng(17)
        for trial in range(100):
            n_l = int(rng.integers(1, 5000))
            n_p = int(rng.integers(1, 5000))
            gamma, lam = paradigm_weights("SSL", n_l, n_p)
            assert gamma == float(Fraction(n_p, n_l))
            assert lam == 1.0
            gamma, lam = paradigm_weights("TRZSL", n_l, n_p)
            assert gamma == 1.0
            assert lam == float(Fraction(n_l, n_p))
            assert paradigm_weights("UL", n_l, n_p) == (0.0, 1.0)
            assert paradigm_weights("SL", n_l, n_p) == (1.0, 0.0)

    def test_division_by_zero_messages(self):
        with pytest.raises(ZeroDivisionError, match="SSL with no labeled data"):
            paradigm_weights("SSL", 0, 10)
        with pytest.raises(ZeroDivisionError, match="TRZSL with no pseudolabels"):
            paradigm_weights("TRZSL", 10, 0)

    def test_zero_pools_fine_when_unused(self):
        assert paradigm_weights("UL", 0, 10) == (0.0, 1.0)
        assert paradigm_weights("SL", 10, 0) == (1.0, 0.0)

    def test_unknown_paradigm(self):
        with pytest.raises(ValueError, match="unknown paradigm"):
            paradigm_weights("mystery", 1, 1)

    def test_negative_sizes(self):
        with pytest.raises(ValueError, match="non-negative"):
            paradigm_weights("SSL", -1, 5)


class TestTask:
    def test_dimension_mismatch(self):
        rng = np.random.default_rng(18)
        train = _embedding_set(rng, 6, 5, 3)
        test = _embedding_set(rng, 4, 5, 3)
        space = _class_space(rng, 3, 4)
        with pytest.raises(ValueError, match="dimension must match"):
            Task(train=train, test=test, space=space)

    def test_labels_out_of_range(self):
        rng = np.random.default_rng(18)
        space = _class_space(rng, 3, 5)
        good = _embedding_set(rng, 4, 5, 3)
        feats = _unit_rows(rng, 4, 5)
        bad = EmbeddingSet(feats, np.array([0, 7, 1, -1]), np.arange(4, dtype=np.uint64))
        with pytest.raises(ValueError, match=r"train labels must lie in \[-1, 3\), got 7"):
            Task(train=bad, test=good, space=space)
        with pytest.raises(ValueError, match=r"test labels must lie in \[-1, 3\), got 7"):
            Task(train=good, test=bad, space=space)

    def test_valid_task(self):
        rng = np.random.default_rng(19)
        train = _embedding_set(rng, 6, 5, 3)
        test = _embedding_set(rng, 4, 5, 3)
        space = _class_space(rng, 3, 5)
        task = Task(train=train, test=test, space=space)
        assert task.space.C == 3


def _whole_matrix_cross_entropy(S, labels, pools):
    """Reference: every pass over the whole (n, C) matrix, into fresh arrays."""
    n = S.shape[0]
    rows = np.arange(n)
    shift = S.max(axis=1, keepdims=True)
    rel = np.log(np.sum(np.exp(S - shift), axis=1))
    per_row = (shift[:, 0] - S[rows, labels]) + rel
    G = np.exp(S - (shift[:, 0] + rel)[:, None])
    G[rows, labels] -= 1.0
    loss, start = 0.0, 0
    for count, weight in pools:
        loss += weight * float(np.mean(per_row[start : start + count]))
        block = G[start : start + count]
        block /= count
        if weight != 1.0:
            block *= weight
        start += count
    return loss, G


def _block_cases():
    """(n, C, pools) covering n below, at and past CE_BLOCK_ROWS, pool
    boundaries inside and across row blocks, and weights 0, 1, 2.5, 16.5."""
    B = CE_BLOCK_ROWS
    cases = [
        (1, 7, [(1, 1.0)]),
        (B - 1, 10, [(B - 1, 1.0)]),
        (B, 10, [(B, 2.5)]),
        (B + 1, 10, [(1, 16.5), (B, 1.0)]),
        (2 * B, 3, [(B, 0.0), (B, 1.0)]),
        (2 * B + 44, 300, [(5, 16.5), (2 * B + 34, 1.0), (5, 2.5)]),
        (3 * B - 7, 50, [(B - 3, 2.5), (6, 0.0), (2 * B - 10, 16.5)]),
        (700, 300, [(700, 1.0)]),
    ]
    rng = np.random.default_rng(40)
    for _ in range(12):
        n = int(rng.integers(2, 5 * B))
        cuts = rng.choice(np.arange(1, n), size=min(n - 1, int(rng.integers(0, 3))), replace=False)
        edges = [0, *sorted(int(c) for c in cuts), n]
        weights = rng.choice([0.0, 1.0, 2.5, 16.5], size=len(edges) - 1)
        pools = [(b - a, float(w)) for a, b, w in zip(edges, edges[1:], weights)]
        cases.append((n, int(rng.integers(1, 301)), pools))
    return cases


def _logits(shape, dtype=np.float64):
    return np.linspace(-3.0, 5.0, int(np.prod(shape))).reshape(shape).astype(dtype)


class TestSoftmaxCrossEntropy:
    @pytest.mark.parametrize("n, C, pools", _block_cases())
    def test_bitwise_equal_to_whole_matrix_passes(self, n, C, pools):
        rng = np.random.default_rng(n * 1000 + C)
        S = 100.0 * rng.standard_normal((n, C))
        labels = rng.integers(0, C, size=n)
        expected_loss, expected_G = _whole_matrix_cross_entropy(S, labels, pools)
        loss, G = softmax_cross_entropy(S, labels, pools)
        assert loss == expected_loss
        assert np.array_equal(G, expected_G)
        assert G is S  # written in place

    @pytest.mark.parametrize("n", [1, CE_BLOCK_ROWS - 1, CE_BLOCK_ROWS, 3 * CE_BLOCK_ROWS + 5])
    def test_uniform_logits_give_exactly_log_c(self, n):
        C = 37
        labels = np.random.default_rng(n).integers(0, C, size=n)
        S = np.full((n, C), 4.25)
        expected_loss, expected_G = _whole_matrix_cross_entropy(S, labels, [(n, 1.0)])
        loss, G = softmax_cross_entropy(S, labels)
        # Every row's cross-entropy is exactly ln(C); the mean of n of them
        # is their pairwise sum over n.
        assert loss == expected_loss == float(np.full(n, math.log(C)).sum()) / n
        assert np.array_equal(G, expected_G)

    @pytest.mark.parametrize(
        "S, labels, pools, message",
        [
            (_logits((6,)), np.zeros(6, dtype=int), None, "2-D float64"),
            (_logits((2, 3, 4)), np.zeros(2, dtype=int), None, "2-D float64"),
            (_logits((6, 4), np.float32), np.zeros(6, dtype=int), None, "2-D float64"),
            (frozen_array(_logits((6, 4))), np.zeros(6, dtype=int), None, "writeable"),
            (_logits((6, 4)), np.zeros(5, dtype=int), None, r"labels must have shape \(6,\), got \(5,\)"),
            (_logits((6, 4)), np.zeros((6, 1), dtype=int), None, r"labels must have shape \(6,\), got \(6, 1\)"),
            (_logits((3, 4)), np.array([0, 1, 4]), None, r"labels must lie in \[0, 4\), got 4"),
            (_logits((3, 4)), np.array([0, 1, 2]), [(2, 1.0), (2, 1.0)], "pool blocks cover 4 rows"),
            (_logits((11, 4)), np.zeros(11, dtype=int), [(11.7, 1.0)], r"pool block 0 has 11.7 rows; a row count must be an integer"),
            (_logits((11, 4)), np.zeros(11, dtype=int), [(-1, 1.0), (12, 1.0)], "pool block 0 has -1 rows"),
            (_logits((2, 4)), np.array([1.7, 0.2]), None, "labels must be integer indices, got a float64 array"),
            (_logits((2, 4)), np.array([True, False]), None, "labels must be integer indices, got a bool array"),
            (_logits((2, 4)), np.zeros(2, dtype=int), [(True, 1.0), (1, 1.0)], "pool block 0 has True rows; a row count must be an integer"),
        ],
        ids=[
            "1-D", "3-D", "float32", "read-only", "short labels", "2-D labels", "label range", "pool rows",
            "fractional count", "negative count", "float labels", "bool labels", "bool count",
        ],
    )
    def test_rejected_input_leaves_logits_unchanged(self, S, labels, pools, message):
        before = S.copy()
        with pytest.raises(ValueError, match=message):
            softmax_cross_entropy(S, labels, pools)
        assert np.array_equal(S, before)

"""Evaluation metric tests.

evaluate() is checked against a plain confusion-count oracle; harmonic mean
and class balance are pinned to the values the formulas give on published
seen/unseen accuracies.
"""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from plrefine.core import ClassSpace, EmbeddingSet, UNLABELED
from plrefine.metrics import (
    PREDICT_BLOCK_CELLS,
    EvalReport,
    _report_from_predictions,
    class_balance,
    evaluate,
    harmonic_mean,
    robin_hood,
    softmax_rows,
    threshold_pseudolabels,
    zero_shot_report,
)
from plrefine.probe import LinearProbe
from plrefine.surrogate import init_prompt


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _space(rng, C, d, partition=None):
    return ClassSpace(tuple(f"c{j}" for j in range(C)), _unit_rows(rng, C, d), partition=partition)


class _FixedScores:
    """Stand-in model that returns a pre-built score matrix."""

    def __init__(self, S):
        self.S = S

    def scores(self, feats, space):
        return self.S


def _oracle_report(S, labels, C):
    pred = np.argmax(S, axis=1)
    per_class = []
    support = []
    for c in range(C):
        mask = labels == c
        support.append(int(mask.sum()))
        per_class.append(float(np.mean(pred[mask] == c)) if mask.any() else 0.0)
    return float(np.mean(pred == labels)), per_class, support


class TestHarmonicMean:
    def test_published_trzsl_values(self):
        assert abs(harmonic_mean(90.31, 82.57) - 86.26) <= 0.02
        assert abs(harmonic_mean(82.68, 79.53) - 81.07) <= 0.02

    def test_formula_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            s = float(rng.uniform(0.01, 1.0))
            u = float(rng.uniform(0.01, 1.0))
            expected = 2.0 * s * u / (s + u)
            assert np.isclose(harmonic_mean(s, u), expected, rtol=1e-12)
            assert harmonic_mean(s, u) == harmonic_mean(u, s)
            assert harmonic_mean(s, u) <= (s + u) / 2.0 + 1e-12

    def test_degenerate_inputs(self):
        assert harmonic_mean(0.0, 0.0) == 0.0
        assert harmonic_mean(0.0, 0.9) == 0.0
        with pytest.raises(ValueError, match="negative"):
            harmonic_mean(-0.1, 0.5)


class TestClassBalance:
    def test_formula(self):
        assert np.isclose(class_balance(0.8, 0.6), (0.6 - 0.8) / 0.8)
        assert class_balance(0.5, 0.5) == 0.0

    def test_zero_seen_accuracy(self):
        with pytest.raises(ZeroDivisionError, match="seen accuracy is zero"):
            class_balance(0.0, 0.5)


class TestEvaluate:
    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(25):
            C = int(rng.integers(2, 7))
            n = int(rng.integers(5, 40))
            d = 6
            space = _space(rng, C, d)
            feats = _unit_rows(rng, n, d)
            labels = rng.integers(0, C, size=n).astype(np.int64)
            test = EmbeddingSet(feats, labels, np.arange(n, dtype=np.uint64))
            S = rng.standard_normal((n, C))
            report = evaluate(_FixedScores(S), test, space)
            overall, per_class, support = _oracle_report(S, labels, C)
            assert report.overall == overall
            assert list(report.per_class) == per_class
            assert list(report.support) == support
            assert report.seen_accuracy is None
            assert report.harmonic is None

    def test_partition_aware_report(self):
        rng = np.random.default_rng(2)
        C, d = 6, 8
        partition = ((0, 2, 4), (1, 3, 5))
        space = _space(rng, C, d, partition=partition)
        n = 60
        feats = _unit_rows(rng, n, d)
        labels = np.repeat(np.arange(C, dtype=np.int64), 10)
        test = EmbeddingSet(feats, labels, np.arange(n, dtype=np.uint64))
        S = rng.standard_normal((n, C))
        report = evaluate(_FixedScores(S), test, space, partition_aware=True)
        pred = np.argmax(S, axis=1)
        seen_mask = np.isin(labels, partition[0])
        seen_acc = float(np.mean(pred[seen_mask] == labels[seen_mask]))
        unseen_acc = float(np.mean(pred[~seen_mask] == labels[~seen_mask]))
        assert report.seen_accuracy == seen_acc
        assert report.unseen_accuracy == unseen_acc
        if seen_acc > 0 and unseen_acc > 0:
            assert np.isclose(report.harmonic, 2 * seen_acc * unseen_acc / (seen_acc + unseen_acc))
            assert np.isclose(report.class_balance, (unseen_acc - seen_acc) / seen_acc)

    def test_overall_is_support_weighted_per_class(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            C = int(rng.integers(2, 6))
            n = int(rng.integers(6, 50))
            space = _space(rng, C, 5)
            feats = _unit_rows(rng, n, 5)
            labels = rng.integers(0, C, size=n).astype(np.int64)
            test = EmbeddingSet(feats, labels, np.arange(n, dtype=np.uint64))
            report = evaluate(_FixedScores(rng.standard_normal((n, C))), test, space)
            weighted = sum(
                s * a for s, a in zip(report.support, report.per_class)
            ) / sum(report.support)
            assert abs(report.overall - weighted) < 1e-12

    def test_empty_class_reports_zero(self):
        rng = np.random.default_rng(3)
        space = _space(rng, 3, 5)
        feats = _unit_rows(rng, 4, 5)
        labels = np.array([0, 0, 1, 1], dtype=np.int64)  # class 2 absent
        test = EmbeddingSet(feats, labels, np.arange(4, dtype=np.uint64))
        S = rng.standard_normal((4, 3))
        report = evaluate(_FixedScores(S), test, space)
        assert report.per_class[2] == 0.0
        assert report.support[2] == 0

    def test_unlabeled_test_rows_rejected(self):
        rng = np.random.default_rng(4)
        space = _space(rng, 3, 5)
        feats = _unit_rows(rng, 3, 5)
        labels = np.array([0, UNLABELED, 1], dtype=np.int64)
        test = EmbeddingSet(feats, labels, np.arange(3, dtype=np.uint64))
        with pytest.raises(ValueError, match=r"test labels must lie in \[0, 3\), got -1"):
            evaluate(_FixedScores(np.zeros((3, 3))), test, space)

    def test_to_dict_round_trips_through_json_types(self):
        rng = np.random.default_rng(5)
        space = _space(rng, 3, 5)
        feats = _unit_rows(rng, 6, 5)
        labels = np.array([0, 0, 1, 1, 2, 2], dtype=np.int64)
        test = EmbeddingSet(feats, labels, np.arange(6, dtype=np.uint64))
        d = evaluate(_FixedScores(np.eye(6, 3)), test, space).to_dict()
        assert set(d) >= {"overall", "per_class", "support", "harmonic"}
        assert isinstance(d["overall"], float)
        assert all(isinstance(v, int) for v in d["support"])


class TestZeroShotReport:
    def test_equals_cosine_argmax(self):
        rng = np.random.default_rng(6)
        C, d, n = 4, 7, 30
        space = _space(rng, C, d)
        feats = _unit_rows(rng, n, d)
        labels = rng.integers(0, C, size=n).astype(np.int64)
        test = EmbeddingSet(feats, labels, np.arange(n, dtype=np.uint64))
        report = zero_shot_report(test, space)
        overall, per_class, support = _oracle_report(feats @ space.base_prototypes.T, labels, C)
        assert report.overall == overall
        assert list(report.per_class) == per_class


class _RecordingScores:
    """Delegates to a model's scores and records how many rows each call got."""

    def __init__(self, model):
        self.model = model
        self.rows = []

    def scores(self, feats, space):
        self.rows.append(feats.shape[0])
        return self.model.scores(feats, space)


def _scored_test_set(rng, n, C, d, partition=None):
    """Test rows scattered around their class prototypes, so predictions
    vary from class to class."""
    space = _space(rng, C, d, partition=partition)
    labels = rng.integers(0, C, size=n).astype(np.int64)
    feats = space.base_prototypes[labels] + 0.6 * rng.standard_normal((n, d)) / np.sqrt(d)
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    return EmbeddingSet(feats, labels, np.arange(n, dtype=np.uint64)), space


def _model(kind, C, d):
    if kind == "linear-probe":
        return LinearProbe(np.random.default_rng(7).standard_normal((C, d)))
    return init_prompt(kind, 4, d, seed=3, scale=0.3, temperature=100.0)


class TestBlockedPrediction:
    """evaluate and zero_shot_report score PREDICT_BLOCK_CELLS // C test
    rows at a time; their reports equal those of the whole-matrix argmax."""

    C = 600
    BLOCK = PREDICT_BLOCK_CELLS // C
    SIZES = [BLOCK - 24, BLOCK, 2 * BLOCK + 300]
    PARTITION = (tuple(range(0, C, 2)), tuple(range(1, C, 2)))

    @pytest.mark.parametrize("n", SIZES, ids=["below", "at", "past"])
    @pytest.mark.parametrize("kind", ["textual", "visual", "multimodal", "linear-probe"])
    def test_evaluate_matches_whole_matrix_argmax(self, kind, n):
        rng = np.random.default_rng(41)
        test, space = _scored_test_set(rng, n, self.C, 16, partition=self.PARTITION)
        model = _model(kind, self.C, 16)
        whole = model.scores(test.features, space)
        expected = _report_from_predictions(np.argmax(whole, axis=1), test, space, partition_aware=True)
        recorder = _RecordingScores(model)
        report = evaluate(recorder, test, space, partition_aware=True)
        assert report == expected
        assert report.harmonic is not None
        assert sum(recorder.rows) == n
        assert max(recorder.rows) == min(n, self.BLOCK)
        assert len(recorder.rows) == -(-n // self.BLOCK)

    @pytest.mark.parametrize("n", SIZES, ids=["below", "at", "past"])
    def test_zero_shot_matches_whole_matrix_argmax(self, n):
        rng = np.random.default_rng(42)
        test, space = _scored_test_set(rng, n, self.C, 16, partition=self.PARTITION)
        whole = test.features @ space.base_prototypes.T
        expected = _report_from_predictions(np.argmax(whole, axis=1), test, space, partition_aware=True)
        overall, per_class, _ = _oracle_report(whole, test.labels, self.C)
        report = zero_shot_report(test, space, partition_aware=True)
        assert report == expected
        assert report.overall == overall
        assert list(report.per_class) == per_class

    def test_small_class_count_takes_one_block(self):
        # At C=12 a block holds PREDICT_BLOCK_CELLS // 12 rows, so the
        # model's per-call set-up runs once for a test set of this size.
        rng = np.random.default_rng(44)
        test, space = _scored_test_set(rng, 5000, 12, 16)
        recorder = _RecordingScores(_model("multimodal", 12, 16))
        evaluate(recorder, test, space)
        assert recorder.rows == [5000]

    @pytest.mark.parametrize("which", ["evaluate", "zero-shot"])
    def test_holds_one_block_of_scores(self, which):
        # The (n, C) scores (48 MB) would break the bound; one block's
        # scores (PREDICT_BLOCK_CELLS of them) and the (n,) predictions do not.
        rng = np.random.default_rng(43)
        n, C, d = 20000, 300, 16
        test, space = _scored_test_set(rng, n, C, d)
        model = _model("multimodal", C, d)
        tracemalloc.start()
        try:
            if which == "evaluate":
                evaluate(model, test, space)
            else:
                zero_shot_report(test, space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * n * C * 8


class TestRobinHood:
    def _report(self, overall, per_class, support):
        return EvalReport(
            overall=overall,
            per_class=tuple(per_class),
            support=tuple(support),
            seen_accuracy=None,
            unseen_accuracy=None,
            harmonic=None,
            class_balance=None,
        )

    def test_poor_rich_split_and_deltas(self):
        baseline = self._report(0.5, [0.2, 0.4, 0.8, 0.6], [5, 5, 5, 5])
        trained = self._report(0.6, [0.5, 0.5, 0.7, 0.7], [5, 5, 5, 5])
        rep = robin_hood(baseline, trained)
        # Poor classes sit strictly below the baseline overall accuracy.
        assert rep.poor_classes == (0, 1)
        assert rep.rich_classes == (2, 3)
        assert np.isclose(rep.mean_delta_poor, np.mean([0.5 - 0.2, 0.5 - 0.4]))
        assert np.isclose(rep.mean_delta_rich, np.mean([0.7 - 0.8, 0.7 - 0.6]))
        assert np.allclose(rep.per_class_delta, [0.3, 0.1, -0.1, 0.1])

    def test_two_class_poor_pick(self):
        baseline = self._report(0.5, [0.9, 0.1], [5, 5])
        trained = self._report(0.5, [0.8, 0.4], [5, 5])
        rep = robin_hood(baseline, trained)
        assert rep.poor_classes == (1,)

    def test_boundary_class_counts_as_rich(self):
        baseline = self._report(0.5, [0.5, 0.4], [4, 4])
        trained = self._report(0.5, [0.5, 0.5], [4, 4])
        rep = robin_hood(baseline, trained)
        assert rep.poor_classes == (1,)
        assert rep.rich_classes == (0,)

    def test_class_without_test_rows_is_on_neither_side(self):
        """Class 2 has no baseline test rows, so its 0.0 accuracy is no
        evidence of a poor class and must not dilute the poor-side mean."""
        baseline = self._report(0.6, [0.9, 0.2, 0.0], [10, 10, 0])
        trained = self._report(0.7, [0.9, 0.5, 0.0], [10, 10, 0])
        rep = robin_hood(baseline, trained)
        assert rep.poor_classes == (1,)
        assert rep.rich_classes == (0,)
        assert np.isclose(rep.mean_delta_poor, 0.3)
        assert rep.mean_delta_rich == 0.0
        assert np.allclose(rep.per_class_delta, [0.0, 0.3, 0.0])

    def test_mismatched_reports_rejected(self):
        baseline = self._report(0.5, [0.5, 0.4], [4, 4])
        trained = self._report(0.5, [0.5, 0.5, 0.1], [4, 4, 4])
        with pytest.raises(ValueError, match="class count"):
            robin_hood(baseline, trained)

    def test_to_dict(self):
        baseline = self._report(0.5, [0.2, 0.8], [4, 4])
        trained = self._report(0.6, [0.4, 0.8], [4, 4])
        d = robin_hood(baseline, trained).to_dict()
        assert set(d) == {
            "poor_classes", "rich_classes",
            "mean_delta_poor", "mean_delta_rich", "per_class_delta",
        }


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        S = 50.0 * rng.standard_normal((10, 5))
        P = softmax_rows(S)
        assert np.allclose(P.sum(axis=1), 1.0)
        assert np.all(P >= 0.0)

    def test_shift_invariance_and_stability(self):
        rng = np.random.default_rng(8)
        S = rng.standard_normal((4, 3))
        assert np.allclose(softmax_rows(S), softmax_rows(S + 1000.0))
        P = softmax_rows(np.array([[1e6, 0.0, -1e6]]))
        assert np.isfinite(P).all()
        assert np.isclose(P[0, 0], 1.0)


class TestThresholdPseudolabels:
    def test_strictly_above_threshold(self):
        P = np.array([
            [0.96, 0.02, 0.02],
            [0.50, 0.30, 0.20],
            [0.01, 0.95, 0.04],
            [0.00, 0.05, 0.95],
        ])
        ids = np.array([10, 11, 12, 13], dtype=np.uint64)
        pl = threshold_pseudolabels(P, 0.95, ids)
        assert pl.example_ids.tolist() == [10]
        assert pl.classes.tolist() == [0]
        assert pl.k_used == 1

    def test_k_used_tracks_largest_class(self):
        P = np.array([
            [0.99, 0.01],
            [0.98, 0.02],
            [0.01, 0.99],
        ])
        ids = np.arange(3, dtype=np.uint64)
        pl = threshold_pseudolabels(P, 0.9, ids)
        assert pl.m == 3
        assert pl.k_used == 2

    def test_empty_result(self):
        P = np.array([[0.5, 0.5]])
        pl = threshold_pseudolabels(P, 0.99, np.array([4], dtype=np.uint64))
        assert pl.m == 0
        assert pl.k_used == 0

    def test_tau_validation(self):
        P = np.array([[0.5, 0.5]])
        ids = np.array([0], dtype=np.uint64)
        with pytest.raises(ValueError, match="tau"):
            threshold_pseudolabels(P, 1.0, ids)
        with pytest.raises(ValueError, match="tau"):
            threshold_pseudolabels(P, -0.01, ids)
        for bad in (True, "0.1", np.nan, np.inf, -0.01):
            with pytest.raises(ValueError, match="^tau must "):
                threshold_pseudolabels(P, bad, ids)
        # tau=False used to keep every row, as tau = 0.
        with pytest.raises(ValueError, match="tau must be a number, got False"):
            threshold_pseudolabels(P, False, ids)

    def test_entry_range_validation(self):
        ids = np.array([0], dtype=np.uint64)
        with pytest.raises(ValueError, match="probab"):
            threshold_pseudolabels(np.array([[1.2, -0.2]]), 0.5, ids)
        with pytest.raises(ValueError, match="ids must be integer indices, got a float64 array"):
            threshold_pseudolabels(np.array([[0.9, 0.1]]), 0.5, [0.5])

    def test_size_monotone_in_tau(self):
        rng = np.random.default_rng(9)
        P = softmax_rows(rng.standard_normal((40, 5)) * 3.0)
        ids = np.arange(40, dtype=np.uint64)
        sizes = [threshold_pseudolabels(P, tau, ids).m for tau in np.linspace(0.0, 0.99, 12)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))


class TestAggregateArithmetic:
    def test_mean_and_sample_std_convention(self):
        """Seed aggregation reports the ddof=1 sample standard deviation."""
        accs = np.array([0.61, 0.64, 0.58, 0.66, 0.62])
        mean = float(accs.mean())
        std = float(accs.std(ddof=1))
        assert np.isclose(std ** 2, np.sum((accs - mean) ** 2) / (len(accs) - 1))

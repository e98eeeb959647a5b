"""Optimizer tests: schedule arithmetic, and the SGD loop's two-pool loss,
determinism and descent behavior."""

import math

import numpy as np
import pytest

from plrefine.core import ClassSpace, EmbeddingSet, LabeledSubset, ParadigmConfig
from plrefine.pseudolabels import topk_per_class
from plrefine.surrogate import init_prompt
from plrefine.training import TrainSchedule, lr_at, train


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _space(rng, C, d):
    return ClassSpace(tuple(f"c{j}" for j in range(C)), _unit_rows(rng, C, d))


def _toy(rng, C=3, d=8, per=10, wobble=0.1):
    """Clean clusters around C random unit directions."""
    mu = _unit_rows(rng, C, d)
    feats = np.repeat(mu, per, axis=0) + wobble * rng.standard_normal((C * per, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    labels = np.repeat(np.arange(C, dtype=np.int64), per)
    data = EmbeddingSet(feats, labels, np.arange(C * per, dtype=np.uint64))
    return data, labels


class TestTrainSchedule:
    def test_defaults(self):
        s = TrainSchedule()
        assert (s.epochs, s.warmup_epochs) == (150, 5)
        assert (s.warmup_lr, s.peak_lr) == (1e-4, 0.1)
        assert (s.batch_size, s.momentum) == (64, 0.9)

    def test_validation(self):
        with pytest.raises(ValueError, match="epoch counts must be non-negative"):
            TrainSchedule(epochs=-1)
        with pytest.raises(ValueError, match="warmup_epochs must be smaller"):
            TrainSchedule(epochs=5, warmup_epochs=5)
        with pytest.raises(ValueError, match="positive"):
            TrainSchedule(peak_lr=0.0)
        with pytest.raises(ValueError, match="batch"):
            TrainSchedule(batch_size=0)
        with pytest.raises(ValueError, match="momentum"):
            TrainSchedule(momentum=1.0)

    def test_zero_epoch_schedule_is_legal(self):
        TrainSchedule(epochs=0)


class TestLrAt:
    def test_warmup_then_peak(self):
        s = TrainSchedule()
        for epoch in range(5):
            assert lr_at(s, epoch) == 1e-4
        assert lr_at(s, 5) == 0.1

    def test_final_epoch_matches_cosine_formula(self):
        s = TrainSchedule()
        span = s.epochs - s.warmup_epochs
        t = 149 - s.warmup_epochs
        expected = s.peak_lr * 0.5 * (1.0 + math.cos(math.pi * t / span))
        assert abs(lr_at(s, 149) - expected) < 1e-12

    def test_monotone_decay_after_peak(self):
        s = TrainSchedule()
        values = [lr_at(s, e) for e in range(5, 150)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_range_errors(self):
        s = TrainSchedule()
        with pytest.raises(ValueError, match=r"epoch 150 outside schedule range \[0, 150\)"):
            lr_at(s, 150)
        with pytest.raises(ValueError, match="outside schedule range"):
            lr_at(s, -1)

    def test_custom_schedule_values(self):
        s = TrainSchedule(epochs=10, warmup_epochs=2, warmup_lr=0.003, peak_lr=0.8)
        assert lr_at(s, 0) == lr_at(s, 1) == 0.003
        assert lr_at(s, 2) == 0.8
        mid = lr_at(s, 6)
        assert 0.0 < mid < 0.8


class TestTrain:
    def test_zero_epochs_returns_model_unchanged(self):
        rng = np.random.default_rng(0)
        data, labels = _toy(rng)
        space = _space(rng, 3, 8)
        labeled = LabeledSubset(np.arange(data.n), labels)
        model = init_prompt("textual", 2, 8, seed=0)
        out, losses = train(
            model, data, space, labeled, None, (1.0, 0.0),
            TrainSchedule(epochs=0), seed=0,
        )
        assert out is model
        assert losses == []

    def test_supervised_fit_reaches_full_train_accuracy(self):
        """gamma=1, lambda=0 on a separable 3-class toy task."""
        rng = np.random.default_rng(1)
        data, labels = _toy(rng, C=3, d=8, per=10)
        space = _space(rng, 3, 8)
        labeled = LabeledSubset(np.arange(30), labels)
        model = init_prompt("textual", 2, 8, seed=0, temperature=10.0)
        fitted, losses = train(
            model, data, space, labeled, None, (1.0, 0.0),
            TrainSchedule(epochs=150, warmup_epochs=5, batch_size=16), seed=0,
        )
        pred = np.argmax(fitted.scores(data.features, space), axis=1)
        assert np.mean(pred == labels) == 1.0
        assert len(losses) == 150

    def test_single_step_rarely_increases_loss(self):
        """One small SGD step should not increase the batch loss in at least
        95 of 100 seeded trials."""
        rng = np.random.default_rng(2)
        wins = 0
        for trial in range(100):
            C, d = 3, 6
            space = _space(rng, C, d)
            feats = _unit_rows(rng, 8, d)
            labels = rng.integers(0, C, size=8).astype(np.int64)
            data = EmbeddingSet(feats, labels, np.arange(8, dtype=np.uint64))
            labeled = LabeledSubset(np.arange(8), labels)
            model = init_prompt("textual", 2, d, seed=trial, temperature=10.0)
            before, _ = model.loss_and_grad(feats, labels, space)
            schedule = TrainSchedule(
                epochs=1, warmup_epochs=0, warmup_lr=1e-3, peak_lr=1e-3,
                batch_size=8, momentum=0.0,
            )
            stepped, _ = train(
                model, data, space, labeled, None, (1.0, 0.0),
                schedule, seed=trial,
            )
            after, _ = stepped.loss_and_grad(feats, labels, space)
            wins += after <= before
        assert wins >= 95

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        data, labels = _toy(rng)
        space = _space(rng, 3, 8)
        labeled = LabeledSubset(np.arange(30), labels)
        schedule = TrainSchedule(epochs=8, warmup_epochs=2, batch_size=8)
        def fit(seed):
            model = init_prompt("textual", 2, 8, seed=0)
            return train(model, data, space, labeled, None, (1.0, 0.0),
                         schedule, seed=seed)
        a, la = fit(7)
        b, lb = fit(7)
        c, lc = fit(8)
        assert np.array_equal(a.text_ctx, b.text_ctx)
        assert la == lb
        assert not np.array_equal(a.text_ctx, c.text_ctx)

    def test_both_pools_contribute(self):
        """A pseudolabel pool with weight > 0 changes the fit."""
        rng = np.random.default_rng(4)
        data, labels = _toy(rng, per=8)
        space = _space(rng, 3, 8)
        labeled = LabeledSubset(np.arange(6), labels[:6])
        S = np.clip(data.features @ space.base_prototypes.T, -1.0, 1.0)
        pl = topk_per_class(S, 2, range(3), data.ids)
        schedule = TrainSchedule(epochs=10, warmup_epochs=1, batch_size=8)
        def fit(weights):
            model = init_prompt("textual", 2, 8, seed=0)
            out, _ = train(model, data, space, labeled, pl, weights,
                           schedule, seed=0)
            return out
        both = fit((1.0, 1.0))
        labeled_only = fit((1.0, 0.0))
        assert not np.array_equal(both.text_ctx, labeled_only.text_ctx)

    def test_nothing_to_train_on(self):
        rng = np.random.default_rng(5)
        data, labels = _toy(rng)
        space = _space(rng, 3, 8)
        labeled = LabeledSubset(np.arange(30), labels)
        model = init_prompt("textual", 2, 8, seed=0)
        with pytest.raises(ValueError, match="nothing to train on"):
            train(model, data, space, labeled, None, (0.0, 1.0),
                  TrainSchedule(epochs=1, warmup_epochs=0), seed=0)

    def test_negative_weights_rejected(self):
        rng = np.random.default_rng(6)
        data, labels = _toy(rng)
        space = _space(rng, 3, 8)
        labeled = LabeledSubset(np.arange(30), labels)
        model = init_prompt("textual", 2, 8, seed=0)
        with pytest.raises(ValueError, match="non-negative"):
            train(model, data, space, labeled, None, (-1.0, 0.0),
                  TrainSchedule(epochs=1, warmup_epochs=0), seed=0)

    def test_batch_size_larger_than_pool(self):
        rng = np.random.default_rng(7)
        data, labels = _toy(rng, per=2)
        space = _space(rng, 3, 8)
        labeled = LabeledSubset(np.arange(6), labels)
        model = init_prompt("textual", 2, 8, seed=0)
        out, losses = train(model, data, space, labeled, None, (1.0, 0.0),
                            TrainSchedule(epochs=3, warmup_epochs=1, batch_size=64),
                            seed=0)
        assert len(losses) == 3
        assert np.all(np.isfinite(losses))

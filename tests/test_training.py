"""Optimizer tests: schedule arithmetic, and the SGD loop's two-pool loss,
one loss call per step, determinism and descent behavior."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from plrefine.core import ClassSpace, EmbeddingSet, LabeledSubset, ParadigmConfig, PoolBlocks, paradigm_weights
from plrefine.probe import init_linear_probe
from plrefine.pseudolabels import topk_per_class
from plrefine.surrogate import PromptModel, init_prompt
from plrefine.training import TrainSchedule, _batch_rows, lr_at, train


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
        with pytest.raises(ValueError, match="epochs must be non-negative, got -1"):
            TrainSchedule(epochs=-1)
        with pytest.raises(ValueError, match="warmup_epochs must be non-negative, got -1"):
            TrainSchedule(warmup_epochs=-1)
        with pytest.raises(ValueError, match="warmup_epochs must be smaller"):
            TrainSchedule(epochs=5, warmup_epochs=5)
        for lrs in ({"peak_lr": 0.0}, {"peak_lr": np.nan}, {"warmup_lr": np.nan}, {"peak_lr": np.inf}):
            with pytest.raises(ValueError, match="positive"):
                TrainSchedule(**lrs)
        with pytest.raises(ValueError, match="batch"):
            TrainSchedule(batch_size=0)
        with pytest.raises(ValueError, match="momentum"):
            TrainSchedule(momentum=1.0)
        for name, below in (("warmup_lr", 0.0), ("peak_lr", -0.1), ("momentum", -0.1)):
            for bad in (True, "0.1", np.nan, np.inf, below):
                with pytest.raises(ValueError, match=f"^{name} must "):
                    TrainSchedule(**{name: bad})
        # peak_lr=True and momentum=False used to run as 1.0 and 0.0, and
        # warmup_lr="1e-4" to fail with a TypeError naming nothing.
        for name, bad, message in (
            ("peak_lr", True, "peak_lr must be a number, got True"),
            ("momentum", False, "momentum must be a number, got False"),
            ("warmup_lr", "1e-4", "warmup_lr must be a number, got '1e-4'"),
            ("momentum", 1.0, "momentum must lie in [0, 1), got 1.0"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                TrainSchedule(**{name: bad})
        for name, lo in (("epochs", 0), ("warmup_epochs", 0), ("batch_size", 1)):
            for bad in (2.0, 2.5, True, lo - 1):
                with pytest.raises(ValueError, match=f"^{name} must be "):
                    TrainSchedule(**{name: bad})
        # batch_size=True used to train with batch 1.
        with pytest.raises(ValueError, match="batch_size must be an integer, got True"):
            TrainSchedule(batch_size=True)

    def test_fractional_warmup_refused(self):
        """warmup_epochs=1.5 used to warm up for two epochs, and its cosine
        never reached peak_lr (lrs 1e-4, 1e-4, 0.0905, 0.0345)."""
        with pytest.raises(ValueError, match="warmup_epochs must be an integer, got 1.5"):
            TrainSchedule(epochs=4, warmup_epochs=1.5)
        s = TrainSchedule(epochs=4, warmup_epochs=1)
        assert np.allclose([lr_at(s, e) for e in range(4)], [1e-4, 0.1, 0.075, 0.025], rtol=1e-12, atol=0)

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

    def test_seed_must_be_a_non_negative_integer(self):
        rng = np.random.default_rng(5)
        data, labels = _toy(rng)
        space = _space(rng, 3, 8)
        labeled = LabeledSubset(np.arange(30), labels)
        model = init_prompt("textual", 2, 8, seed=0)
        for bad in (2.0, 2.5, True, -1):
            with pytest.raises(ValueError, match="^seed must be "):
                train(model, data, space, labeled, None, (1.0, 0.0),
                      TrainSchedule(epochs=1, warmup_epochs=0), seed=bad)

    def test_labeled_rows_outside_the_train_set_refused(self):
        """Row 999 of a 24-row set used to die in step 0 with numpy's
        IndexError; it is refused before the loop, by name."""
        rng = np.random.default_rng(5)
        data, _ = _toy(rng, per=8)
        space = _space(rng, 3, 8)
        model = init_prompt("textual", 2, 8, seed=0)
        with pytest.raises(ValueError, match=re.escape("labeled rows must be below 24, got 999")):
            train(model, data, space, LabeledSubset([0, 999], [0, 1]), None, (1.0, 0.0),
                  TrainSchedule(epochs=1, warmup_epochs=0), seed=0)

    def test_negative_weights_rejected(self):
        rng = np.random.default_rng(6)
        data, labels = _toy(rng)
        space = _space(rng, 3, 8)
        labeled = LabeledSubset(np.arange(30), labels)
        model = init_prompt("textual", 2, 8, seed=0)
        for weights in ((-1.0, 0.0), (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)):
            with pytest.raises(ValueError, match="non-negative"):
                train(model, data, space, labeled, None, weights,
                      TrainSchedule(epochs=1, warmup_epochs=0), seed=0)
        for at, name in ((0, "gamma"), (1, "lambda")):
            for bad in (True, "0.1", np.nan, np.inf, -1.0):
                weights = [1.0, 1.0]
                weights[at] = bad
                with pytest.raises(ValueError, match=f"^{name} must be "):
                    train(model, data, space, labeled, None, tuple(weights),
                          TrainSchedule(epochs=1, warmup_epochs=0), seed=0)
        # ("1", 0) used to train with gamma = 1.0.
        with pytest.raises(ValueError, match=re.escape("gamma must be a number, got '1'")):
            train(model, data, space, labeled, None, ("1", 0),
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

    def test_batches_are_gathered_without_a_stacked_pool_copy(self):
        """Each batch comes from the train set's rows: the loop never holds a
        (pooled rows, d) copy of the features, so its traced peak stays below
        half of one such array."""
        rng = np.random.default_rng(8)
        n, d, C = 20000, 64, 4
        labels = rng.integers(0, C, size=n).astype(np.int64)
        data = EmbeddingSet(_unit_rows(rng, n, d), labels, np.arange(n, dtype=np.uint64))
        labeled = LabeledSubset(np.arange(n), labels)
        space, model = _space(rng, C, d), init_linear_probe(C, d)
        schedule = TrainSchedule(epochs=1, warmup_epochs=0)
        tracemalloc.start()
        try:
            train(model, data, space, labeled, None, (1.0, 0.0), schedule, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.features.nbytes / 2

    def test_writes_only_arrays_it_allocated(self, monkeypatch):
        """The velocity is updated in place, so after a 2-epoch SSL run every
        gradient that loss_and_grad returned, the input model's ctx blocks
        and the train set's features read as they did; the returned model's
        blocks are read-only."""
        data, space, labeled, pl, weights = _pools(np.random.default_rng(10), "SSL")
        model = init_prompt("multimodal", 2, 8, seed=1, scale=0.1)
        ctx_before = {name: block.copy() for name, block in model.learnable().items()}
        features_before = data.features.copy()
        returned = []
        loss_and_grad = PromptModel.loss_and_grad

        def recorded(self, feats, labels, space, pools=None):
            loss, grads = loss_and_grad(self, feats, labels, space, pools)
            returned.append((grads, {name: g.copy() for name, g in grads.items()}))
            return loss, grads

        monkeypatch.setattr(PromptModel, "loss_and_grad", recorded)
        schedule = TrainSchedule(epochs=2, warmup_epochs=1, batch_size=8)
        out, _ = train(model, data, space, labeled, pl, weights, schedule, seed=0)
        assert len(returned) == 6
        for grads, copies in returned:
            assert all(np.array_equal(grads[name], copies[name]) for name in copies)
        assert all(np.array_equal(model.learnable()[name], ctx_before[name]) for name in ctx_before)
        assert np.array_equal(data.features, features_before)
        assert not any(block.flags.writeable for block in out.learnable().values())


def _pools(rng, paradigm):
    """A 30-row toy task, its 21 top-7 pseudolabels and, for SSL, 6 labeled rows."""
    data, labels = _toy(rng, per=10)
    space = _space(rng, 3, 8)
    pl = topk_per_class(np.clip(data.features @ space.base_prototypes.T, -1.0, 1.0), 7, range(3), data.ids)
    if paradigm == "UL":
        return data, space, None, pl, (0.0, 1.0)
    labeled = LabeledSubset(np.arange(0, 30, 5), labels[::5])
    return data, space, labeled, pl, paradigm_weights("SSL", labeled.n, pl.m)


def _per_pool_train(model, data, space, labeled, pseudo, weights, schedule, seed):
    """The loop with one loss call per pool and step, summed by hand: the
    reference the fused single call must reproduce."""
    pools = []
    if labeled is not None and weights[0] > 0:
        pools.append((data.features[labeled.rows], labeled.labels, weights[0]))
    if pseudo is not None and weights[1] > 0:
        pools.append((data.features[data.rows_for_ids(pseudo.example_ids)], pseudo.classes, weights[1]))
    n_major = max(feats.shape[0] for feats, _, _ in pools)
    velocity = {name: np.zeros_like(arr) for name, arr in model.learnable().items()}
    for epoch in range(schedule.epochs):
        rng = np.random.default_rng([seed, epoch])
        perms = [rng.permutation(feats.shape[0]) for feats, _, _ in pools]
        lr = lr_at(schedule, epoch)
        for step in range(math.ceil(n_major / schedule.batch_size)):
            params = model.learnable()
            grads = {name: np.zeros_like(arr) for name, arr in params.items()}
            for (feats, labels, weight), perm in zip(pools, perms):
                rows = _batch_rows(perm, step, schedule.batch_size, feats.shape[0] == n_major)
                _, g = model.loss_and_grad(feats[rows], labels[rows], space)
                for name in g:
                    grads[name] = grads[name] + weight * g[name]
            new_params = {}
            for name in params:
                velocity[name] = schedule.momentum * velocity[name] + grads[name]
                new_params[name] = params[name] - lr * velocity[name]
            model = model.with_learnable(new_params)
    return model


class TestOneCallPerStep:
    @pytest.mark.parametrize("paradigm", ["SSL", "UL"])
    def test_one_loss_call_per_optimizer_step(self, monkeypatch, paradigm):
        """Batches of 8 over the 21-row pseudolabel pool give 3 steps per
        epoch; SSL stacks the 6 labeled rows in front of each batch."""
        data, space, labeled, pl, weights = _pools(np.random.default_rng(8), paradigm)
        calls, steps = [], []
        loss_and_grad, with_learnable = PromptModel.loss_and_grad, PromptModel.with_learnable

        def counted_loss(self, feats, labels, space, pools=None):
            calls.append([(int(n), float(w)) for n, w in pools])
            assert feats.shape[0] == labels.shape[0] == sum(n for n, _ in pools)
            return loss_and_grad(self, feats, labels, space, pools)

        def counted_step(self, params):
            steps.append(len(calls))
            return with_learnable(self, params)

        monkeypatch.setattr(PromptModel, "loss_and_grad", counted_loss)
        monkeypatch.setattr(PromptModel, "with_learnable", counted_step)
        schedule = TrainSchedule(epochs=3, warmup_epochs=1, batch_size=8)
        train(init_prompt("multimodal", 2, 8, seed=0), data, space, labeled, pl, weights, schedule, seed=0)
        assert steps == list(range(1, 10))
        head = [(6, weights[0])] if paradigm == "SSL" else []
        per_epoch = [head + [(8, 1.0)], head + [(8, 1.0)], head + [(5, 1.0)]]
        assert calls == per_epoch * 3

    @pytest.mark.parametrize("paradigm, batch_size", [("SSL", 8), ("UL", 3)])
    def test_epoch_loss_is_the_mean_of_its_step_losses(self, monkeypatch, paradigm, batch_size):
        """Each returned epoch loss equals, bit for bit, np.mean of the
        losses its steps' loss calls returned (3 or 7 steps per epoch)."""
        data, space, labeled, pl, weights = _pools(np.random.default_rng(8), paradigm)
        losses = []
        loss_and_grad = PromptModel.loss_and_grad

        def recorded(self, feats, labels, space, pools=None):
            out = loss_and_grad(self, feats, labels, space, pools)
            losses.append(out[0])
            return out

        monkeypatch.setattr(PromptModel, "loss_and_grad", recorded)
        schedule = TrainSchedule(epochs=4, warmup_epochs=1, batch_size=batch_size)
        _, epoch_losses = train(init_prompt("multimodal", 2, 8, seed=0), data, space, labeled, pl, weights, schedule, seed=0)
        steps = math.ceil(21 / batch_size)
        assert len(losses) == 4 * steps and len(set(losses)) == len(losses)
        expected = [float(np.mean(losses[i : i + steps])) for i in range(0, len(losses), steps)]
        assert [loss.hex() for loss in epoch_losses] == [loss.hex() for loss in expected]

    @pytest.mark.parametrize("paradigm, batch_size", [("SSL", 8), ("UL", 7)])
    def test_pool_blocks_checked_once_per_layout(self, monkeypatch, paradigm, batch_size):
        """The pool-block checks run when a PoolBlocks is built, and a train
        call builds one per distinct step layout, not one per step: over the
        21-row pool and 9 steps, batches of 8 make a full and a short
        layout, batches of 7 one full layout."""
        data, space, labeled, pl, weights = _pools(np.random.default_rng(8), paradigm)
        built = []
        new = PoolBlocks.__new__

        def counted(cls, pools):
            blocks = new(cls, pools)
            built.append(tuple(blocks))
            return blocks

        monkeypatch.setattr(PoolBlocks, "__new__", counted)
        schedule = TrainSchedule(epochs=3, warmup_epochs=1, batch_size=batch_size)
        train(init_prompt("multimodal", 2, 8, seed=0), data, space, labeled, pl, weights, schedule, seed=0)
        head = ((6, weights[0]),) if paradigm == "SSL" else ()
        assert built == ([head + ((8, 1.0),), head + ((5, 1.0),)] if batch_size == 8 else [head + ((7, 1.0),)])

    @pytest.mark.parametrize("paradigm", ["SSL", "UL"])
    def test_matches_one_call_per_pool(self, paradigm):
        """The fused step reproduces the per-pool loop: bit for bit with one
        pool, to float rounding with two."""
        data, space, labeled, pl, weights = _pools(np.random.default_rng(9), paradigm)
        schedule = TrainSchedule(epochs=4, warmup_epochs=1, batch_size=8)
        model = init_prompt("multimodal", 2, 8, seed=1, scale=0.1)
        fused, _ = train(model, data, space, labeled, pl, weights, schedule, seed=3)
        reference = _per_pool_train(model, data, space, labeled, pl, weights, schedule, seed=3)
        for name, value in reference.learnable().items():
            if paradigm == "UL":
                assert np.array_equal(fused.learnable()[name], value)
            else:
                np.testing.assert_allclose(fused.learnable()[name], value, rtol=1e-9, atol=1e-12)

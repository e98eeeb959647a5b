"""Linear probe tests: gradient correctness and a separable sanity fit."""

import numpy as np
import pytest

from plrefine.core import ClassSpace, EmbeddingSet, LabeledSubset
from plrefine.probe import LinearProbe, init_linear_probe
from plrefine.training import TrainSchedule, train


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _space(rng, C, d):
    return ClassSpace(tuple(f"c{j}" for j in range(C)), _unit_rows(rng, C, d))


def test_init_is_zero_matrix():
    probe = init_linear_probe(4, 7)
    assert probe.W.shape == (4, 7)
    assert not probe.W.any()
    assert not probe.W.flags.writeable


def test_scores_are_affine_free_dot_products():
    rng = np.random.default_rng(0)
    space = _space(rng, 3, 6)
    Z = _unit_rows(rng, 5, 6)
    W = rng.standard_normal((3, 6))
    probe = LinearProbe(W)
    assert np.allclose(probe.scores(Z, space), Z @ W.T)


def test_learnable_round_trip():
    probe = init_linear_probe(3, 4)
    params = probe.learnable()
    assert set(params) == {"W"}
    probe2 = probe.with_learnable({"W": params["W"] + 2.0})
    assert np.all(probe2.W == 2.0)


def test_rejects_non_matrix():
    with pytest.raises(ValueError):
        LinearProbe(np.zeros(4))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    space = _space(rng, 4, 5)
    Z = _unit_rows(rng, 6, 5)
    y = rng.integers(0, 4, size=6)
    probe = LinearProbe(rng.standard_normal((4, 5)))
    loss, grads = probe.loss_and_grad(Z, y, space)
    g = grads["W"]
    h = 1e-4
    numeric = np.zeros_like(g)
    for idx in np.ndindex(g.shape):
        up = probe.W.copy()
        up[idx] += h
        down = probe.W.copy()
        down[idx] -= h
        lu, _ = LinearProbe(up).loss_and_grad(Z, y, space)
        ld, _ = LinearProbe(down).loss_and_grad(Z, y, space)
        numeric[idx] = (lu - ld) / (2 * h)
    rel = np.max(np.abs(g - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
    assert rel < 1e-4


def test_fits_separable_toy_task():
    """The probe trained on clean clusters classifies its training rows."""
    rng = np.random.default_rng(2)
    C, d, per = 3, 8, 10
    mu = _unit_rows(rng, C, d)
    feats = np.repeat(mu, per, axis=0) + 0.05 * rng.standard_normal((C * per, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    labels = np.repeat(np.arange(C, dtype=np.int64), per)
    data = EmbeddingSet(feats, labels, np.arange(C * per, dtype=np.uint64))
    space = _space(rng, C, d)
    labeled = LabeledSubset(np.arange(C * per), labels)
    schedule = TrainSchedule(epochs=60, warmup_epochs=2, peak_lr=1.0, batch_size=16)
    fitted, losses = train(
        init_linear_probe(C, d), data, space, labeled, None, (1.0, 0.0),
        schedule, seed=0,
    )
    pred = np.argmax(fitted.scores(feats, space), axis=1)
    assert np.mean(pred == labels) == 1.0
    assert losses[-1] < losses[0]

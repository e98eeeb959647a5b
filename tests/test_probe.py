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


def test_sizes_must_be_positive_integers():
    for name in ("C", "d"):
        for bad in (2.0, 2.5, True, 0):
            sizes = {"C": 3, "d": 4, name: bad}
            with pytest.raises(ValueError, match=f"^{name} must be "):
                init_linear_probe(sizes["C"], sizes["d"])


def test_learnable_round_trip():
    probe = init_linear_probe(3, 4)
    params = probe.learnable()
    assert set(params) == {"W"}
    probe2 = probe.with_learnable({"W": params["W"] + 2.0})
    assert np.all(probe2.W == 2.0)


def test_rejects_non_matrix():
    with pytest.raises(ValueError):
        LinearProbe(np.zeros(4))
    rng = np.random.default_rng(2)
    space = _space(rng, 3, 5)
    probe = LinearProbe(rng.standard_normal((3, 5)))
    Z = _unit_rows(rng, 4, 5)
    calls = (lambda z: probe.scores(z, space), lambda z: probe.loss_and_grad(z, np.zeros(len(z), dtype=np.int64), space))
    for call in calls:
        with pytest.raises(ValueError, match=r"feats must be a 2-D matrix of 5 columns, got shape \(5,\)"):
            call(Z[0])
        with pytest.raises(ValueError, match=r"feats must be a 2-D matrix of 5 columns, got shape \(4, 4\)"):
            call(Z[:, :4])


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


def test_two_blocks_equal_weighted_calls():
    """One call over a labeled and a pseudolabeled batch, stacked, equals
    gamma * call(labeled) + lambda * call(pseudolabeled)."""
    rng = np.random.default_rng(3)
    space = _space(rng, 4, 5)
    ZL, ZP = _unit_rows(rng, 3, 5), _unit_rows(rng, 6, 5)
    yL, yP = rng.integers(0, 4, size=3), rng.integers(0, 4, size=6)
    probe = LinearProbe(rng.standard_normal((4, 5)))
    loss_l, grads_l = probe.loss_and_grad(ZL, yL, space)
    loss_p, grads_p = probe.loss_and_grad(ZP, yP, space)
    loss, grads = probe.loss_and_grad(
        np.vstack([ZL, ZP]), np.concatenate([yL, yP]), space, [(3, 4.0), (6, 0.25)]
    )
    assert abs(loss - (4.0 * loss_l + 0.25 * loss_p)) < 1e-12
    np.testing.assert_allclose(grads["W"], 4.0 * grads_l["W"] + 0.25 * grads_p["W"], rtol=0, atol=1e-12)


def test_one_unit_block_is_bitwise_default():
    rng = np.random.default_rng(4)
    space = _space(rng, 4, 5)
    Z = _unit_rows(rng, 7, 5)
    y = rng.integers(0, 4, size=7)
    probe = LinearProbe(rng.standard_normal((4, 5)))
    loss, grads = probe.loss_and_grad(Z, y, space)
    loss_1, grads_1 = probe.loss_and_grad(Z, y, space, [(7, 1.0)])
    assert loss_1 == loss
    assert np.array_equal(grads_1["W"], grads["W"])


def test_two_block_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    space = _space(rng, 4, 5)
    Z = _unit_rows(rng, 7, 5)
    y = rng.integers(0, 4, size=7)
    pools = [(2, 3.0), (5, 0.6)]
    probe = LinearProbe(rng.standard_normal((4, 5)))
    g = probe.loss_and_grad(Z, y, space, pools)[1]["W"]
    h = 1e-4
    numeric = np.zeros_like(g)
    for idx in np.ndindex(g.shape):
        up = probe.W.copy()
        up[idx] += h
        down = probe.W.copy()
        down[idx] -= h
        lu, _ = LinearProbe(up).loss_and_grad(Z, y, space, pools)
        ld, _ = LinearProbe(down).loss_and_grad(Z, y, space, pools)
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

"""Prompt surrogate tests.

The analytic gradient is checked against central finite differences on the
same double-precision forward pass; the firewall tests pin the guarantee that
a textual prompt can never move image features and a visual prompt can never
move prototypes.
"""

import tracemalloc

import numpy as np
import pytest

from plrefine.core import ClassSpace
from plrefine.probe import LinearProbe
from plrefine.surrogate import (
    DEFAULT_CTX_SCALE,
    DEFAULT_TEMPERATURE,
    MODALITIES,
    PromptModel,
    batch_loss_and_grad,
    class_prototypes,
    image_features,
    init_prompt,
    logits,
    reinit_ctx,
)


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _space(rng, C, d):
    return ClassSpace(tuple(f"c{j}" for j in range(C)), _unit_rows(rng, C, d))


def _fd_grad(model, name, feats, labels, space, h=1e-4):
    """Central finite differences of the batch loss in every ctx entry."""
    base = model.learnable()[name]
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        up_arr = base.copy()
        up_arr[idx] += h
        down_arr = base.copy()
        down_arr[idx] -= h
        up, _ = batch_loss_and_grad(model.with_learnable({name: up_arr}), feats, labels, space)
        down, _ = batch_loss_and_grad(model.with_learnable({name: down_arr}), feats, labels, space)
        grad[idx] = (up - down) / (2 * h)
    return grad


def _max_rel_err(analytic, numeric):
    return np.max(np.abs(analytic - numeric)) / max(np.max(np.abs(numeric)), 1e-12)


class TestInitPrompt:
    def test_shapes_per_modality(self):
        d = 12
        m = init_prompt("textual", 4, d, seed=0)
        assert m.text_ctx.shape == (4, d)
        assert m.vis_ctx is None
        assert m.text_mix.shape == (d, 4 * d)
        assert m.vis_mix is None

        m = init_prompt("visual", 5, d, seed=0)
        assert m.text_ctx is None
        assert m.vis_ctx.shape == (5, d)
        assert m.vis_mix.shape == (d, 5 * d)

        m = init_prompt("multimodal", 3, d, seed=0)
        assert m.text_ctx.shape == (3, d)
        assert m.vis_ctx.shape == (3, d)
        assert m.text_mix.shape == (d, 3 * d)
        assert m.vis_mix.shape == (d, 3 * d)

    def test_unknown_modality(self):
        with pytest.raises(ValueError, match="modality"):
            init_prompt("audio", 4, 8, seed=0)

    def test_entry_mean_near_zero(self):
        """10k entries drawn at the default scale average out to ~0."""
        m = init_prompt("textual", 100, 100, seed=0)
        assert m.text_ctx.size == 10_000
        assert abs(float(m.text_ctx.mean())) < 0.01

    def test_spread_conventions(self):
        a = init_prompt("textual", 60, 60, seed=1, scale=0.04, spread="std")
        b = init_prompt("textual", 60, 60, seed=1, scale=0.04, spread="variance")
        assert np.isclose(a.text_ctx.std(), 0.04, rtol=0.1)
        assert np.isclose(b.text_ctx.std(), 0.2, rtol=0.1)
        with pytest.raises(ValueError, match="spread"):
            init_prompt("textual", 4, 8, seed=0, spread="stdev")

    @pytest.mark.parametrize("spread", ["std", "variance"])
    def test_negative_scale_rejected(self, spread):
        """A negative scale is an error in both conventions, never a NaN ctx."""
        with pytest.raises(ValueError, match="scale must be non-negative"):
            init_prompt("textual", 4, 8, seed=0, scale=-0.01, spread=spread)
        with pytest.raises(ValueError, match="scale must be non-negative"):
            reinit_ctx(init_prompt("textual", 4, 8, seed=0), 1, scale=-0.01, spread=spread)

    def test_deterministic(self):
        a = init_prompt("multimodal", 4, 8, seed=9)
        b = init_prompt("multimodal", 4, 8, seed=9)
        assert np.array_equal(a.text_ctx, b.text_ctx)
        assert np.array_equal(a.vis_ctx, b.vis_ctx)
        assert np.array_equal(a.text_mix, b.text_mix)
        c = init_prompt("multimodal", 4, 8, seed=10)
        assert not np.array_equal(a.text_ctx, c.text_ctx)

    def test_temperature_default(self):
        m = init_prompt("textual", 4, 8, seed=0)
        assert m.temperature == DEFAULT_TEMPERATURE == 100.0


class TestReinitCtx:
    def test_matches_fresh_init(self):
        """reinit_ctx(base, s) draws the same ctx a fresh init at seed s would."""
        for modality in MODALITIES:
            base = init_prompt(modality, 4, 8, seed=0)
            for s in (1, 2, 3, 17):
                re = reinit_ctx(base, s)
                fresh = init_prompt(modality, 4, 8, seed=s)
                for attr in ("text_ctx", "vis_ctx"):
                    b, f = getattr(re, attr), getattr(fresh, attr)
                    assert (b is None) == (f is None)
                    if b is not None:
                        assert np.array_equal(b, f)

    def test_mixers_survive(self):
        base = init_prompt("multimodal", 4, 8, seed=0)
        re = reinit_ctx(base, 5)
        assert np.array_equal(re.text_mix, base.text_mix)
        assert np.array_equal(re.vis_mix, base.vis_mix)
        assert not np.array_equal(re.text_ctx, base.text_ctx)


class TestPromptModelContainer:
    def test_learnable_round_trip(self):
        m = init_prompt("multimodal", 3, 6, seed=2)
        params = m.learnable()
        assert set(params) == {"text_ctx", "vis_ctx"}
        shifted = {k: v + 1.0 for k, v in params.items()}
        m2 = m.with_learnable(shifted)
        assert np.array_equal(m2.text_ctx, m.text_ctx + 1.0)
        assert np.array_equal(m2.text_mix, m.text_mix)

    def test_mix_shape_validated(self):
        m = init_prompt("textual", 3, 6, seed=2)
        with pytest.raises(ValueError):
            PromptModel(
                modality="textual",
                temperature=100.0,
                text_ctx=m.text_ctx,
                text_mix=np.zeros((6, 6)),
            )


class TestOffsetsAndFirewall:
    def test_zero_ctx_is_identity(self):
        """ctx = 0 reproduces the zero-shot geometry bit for bit."""
        rng = np.random.default_rng(3)
        space = _space(rng, 5, 10)
        Z = _unit_rows(rng, 7, 10)
        m = init_prompt("multimodal", 4, 10, seed=0)
        m = m.with_learnable({k: np.zeros_like(v) for k, v in m.learnable().items()})
        assert np.array_equal(class_prototypes(m, space), space.base_prototypes)
        assert np.array_equal(image_features(m, Z), Z)

    def test_textual_never_moves_features(self):
        rng = np.random.default_rng(4)
        Z = _unit_rows(rng, 6, 8)
        m = init_prompt("textual", 4, 8, seed=1)
        out = image_features(m, Z)
        assert np.array_equal(out, Z)
        assert out is not Z

    def test_visual_never_moves_prototypes(self):
        rng = np.random.default_rng(5)
        space = _space(rng, 4, 8)
        m = init_prompt("visual", 4, 8, seed=1)
        out = class_prototypes(m, space)
        assert np.array_equal(out, space.base_prototypes)
        assert out is not space.base_prototypes

    def test_nonzero_ctx_moves_its_side(self):
        rng = np.random.default_rng(6)
        space = _space(rng, 4, 8)
        Z = _unit_rows(rng, 6, 8)
        t = init_prompt("textual", 4, 8, seed=1, scale=0.5)
        v = init_prompt("visual", 4, 8, seed=1, scale=0.5)
        assert not np.allclose(class_prototypes(t, space), space.base_prototypes)
        assert not np.allclose(image_features(v, Z), Z)

    def test_outputs_unit_normalized(self):
        rng = np.random.default_rng(7)
        space = _space(rng, 4, 8)
        Z = _unit_rows(rng, 6, 8)
        m = init_prompt("multimodal", 4, 8, seed=2, scale=0.3)
        assert np.allclose(np.linalg.norm(class_prototypes(m, space), axis=1), 1.0)
        assert np.allclose(np.linalg.norm(image_features(m, Z), axis=1), 1.0)


class TestLogits:
    def test_shape_and_squeeze(self):
        rng = np.random.default_rng(8)
        space = _space(rng, 5, 9)
        Z = _unit_rows(rng, 4, 9)
        m = init_prompt("textual", 3, 9, seed=0)
        S = logits(m, Z, space)
        assert S.shape == (4, 5)
        one = logits(m, Z[0], space)
        assert one.shape == (5,)
        assert np.allclose(one, S[0])

    def test_zero_shot_values(self):
        """With ctx = 0 the logits are exactly temperature * cosine."""
        rng = np.random.default_rng(10)
        space = _space(rng, 5, 9)
        Z = _unit_rows(rng, 4, 9)
        m = init_prompt("textual", 3, 9, seed=0, temperature=30.0)
        m = m.with_learnable({"text_ctx": np.zeros_like(m.text_ctx)})
        assert np.allclose(logits(m, Z, space), 30.0 * (Z @ space.base_prototypes.T))

    def test_scores_equals_full_subset(self):
        rng = np.random.default_rng(11)
        space = _space(rng, 5, 9)
        Z = _unit_rows(rng, 4, 9)
        m = init_prompt("multimodal", 3, 9, seed=0)
        assert np.array_equal(m.scores(Z, space), logits(m, Z, space))

    def test_feature_on_prototype_maxes_its_class(self):
        """A feature sitting on prototype 3 scores temperature * 1 there."""
        d = 8
        protos = np.eye(d)[:5]
        space = ClassSpace(tuple(f"c{j}" for j in range(5)), protos)
        m = init_prompt("textual", 3, d, seed=0, temperature=100.0)
        m = m.with_learnable({"text_ctx": np.zeros_like(m.text_ctx)})
        S = logits(m, protos[3], space)
        assert S[3] == 100.0
        assert int(np.argmax(S)) == 3
        assert np.array_equal(S[[0, 1, 2, 4]], np.zeros(4))

    def test_temperature_rescaling_keeps_argmax(self):
        rng = np.random.default_rng(21)
        space = _space(rng, 6, 10)
        Z = _unit_rows(rng, 8, 10)
        base = init_prompt("textual", 3, 10, seed=4, temperature=100.0)
        for tau in (0.5, 10.0, 250.0):
            other = PromptModel(
                modality="textual",
                temperature=tau,
                text_ctx=base.text_ctx,
                text_mix=base.text_mix,
            )
            a = logits(base, Z, space)
            b = logits(other, Z, space)
            assert np.array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))


class TestBatchLossAndGrad:
    def test_uniform_logits_give_log_c(self):
        """Features orthogonal to every prototype give all-zero logits, so the
        cross-entropy must come out at ln(C) exactly."""
        C, d = 6, 8
        protos = np.tile(np.eye(d)[:1], (C, 1))  # every class anchored at e0
        space = ClassSpace(tuple(f"c{j}" for j in range(C)), protos)
        Z = np.tile(np.eye(d)[1:2], (4, 1))      # e1 rows, exactly orthogonal
        y = np.array([0, 2, 5, 3])
        m = init_prompt("textual", 3, d, seed=0)
        m = m.with_learnable({"text_ctx": np.zeros_like(m.text_ctx)})
        one_loss, _ = batch_loss_and_grad(m, Z[:1], y[:1], space)
        assert one_loss == float(np.log(float(C)))
        batch_loss, _ = batch_loss_and_grad(m, Z, y, space)
        assert np.isclose(batch_loss, np.log(float(C)), atol=1e-12)

    def test_single_example_margin_formula(self):
        """One example: loss = log(1 + sum exp(-margins)) with margins taken
        from the logit row itself."""
        rng = np.random.default_rng(22)
        space = _space(rng, 5, 8)
        Z = _unit_rows(rng, 1, 8)
        m = init_prompt("textual", 3, 8, seed=6, temperature=20.0)
        S = logits(m, Z, space)[0]
        label = 2
        margins = S[label] - np.delete(S, label)
        expected = np.log1p(np.sum(np.exp(-margins)))
        loss, _ = batch_loss_and_grad(m, Z, np.array([label]), space)
        assert np.isclose(loss, expected, rtol=1e-12)

    def test_loss_non_negative(self):
        rng = np.random.default_rng(20)
        for trial in range(20):
            space = _space(rng, 5, 8)
            Z = _unit_rows(rng, 6, 8)
            y = rng.integers(0, 5, size=6)
            m = init_prompt("multimodal", 2, 8, seed=trial, scale=0.2)
            assert batch_loss_and_grad(m, Z, y, space)[0] >= 0.0

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError, match="temperature must be positive"):
            init_prompt("textual", 3, 8, seed=0, temperature=0.0)

    def test_loss_matches_manual_cross_entropy(self):
        rng = np.random.default_rng(14)
        space = _space(rng, 4, 8)
        Z = _unit_rows(rng, 9, 8)
        y = rng.integers(0, 4, size=9)
        m = init_prompt("textual", 3, 8, seed=3)
        S = logits(m, Z, space)
        P = np.exp(S - S.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        manual = -np.mean(np.log(P[np.arange(9), y]))
        loss, _ = batch_loss_and_grad(m, Z, y, space)
        assert np.isclose(loss, manual, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        """Max relative error below 1e-4 for every modality, several seeds."""
        rng = np.random.default_rng(15)
        for trial, modality in enumerate(MODALITIES * 2):
            C = int(rng.integers(3, 6))
            d = int(rng.integers(6, 10))
            n = int(rng.integers(4, 9))
            space = _space(rng, C, d)
            Z = _unit_rows(rng, n, d)
            y = rng.integers(0, C, size=n)
            m = init_prompt(modality, 3, d, seed=trial, scale=0.05, temperature=12.0)
            _, grads = batch_loss_and_grad(m, Z, y, space)
            for name in ("text_ctx", "vis_ctx"):
                analytic = grads.get(name)
                if name not in m.learnable():
                    assert analytic is None
                    continue
                numeric = _fd_grad(m, name, Z, y, space)
                assert _max_rel_err(analytic, numeric) < 1e-4

    @pytest.mark.parametrize("head", ["prompt", "linear_probe"])
    @pytest.mark.parametrize("bad", [-1, 5])
    def test_label_out_of_range(self, head, bad):
        """Labels below 0 or at C are rejected, not wrapped to another column."""
        rng = np.random.default_rng(17)
        space = _space(rng, 5, 8)
        Z = _unit_rows(rng, 3, 8)
        labels = np.array([0, 1, bad])
        with pytest.raises(ValueError, match=rf"label {bad} outside \[0, 5\)"):
            if head == "prompt":
                batch_loss_and_grad(init_prompt("textual", 3, 8, seed=0), Z, labels, space)
            else:
                LinearProbe(np.ones((5, 8))).loss_and_grad(Z, labels, space)

    def test_empty_batch(self):
        rng = np.random.default_rng(18)
        space = _space(rng, 4, 8)
        m = init_prompt("textual", 3, 8, seed=0)
        with pytest.raises(ValueError, match="empty batch"):
            batch_loss_and_grad(m, np.zeros((0, 8)), np.zeros(0, dtype=int), space)

    def test_loss_and_grad_method_mirrors_bundle(self):
        """The method returns exactly what the module function returns."""
        rng = np.random.default_rng(19)
        space = _space(rng, 4, 8)
        Z = _unit_rows(rng, 6, 8)
        y = rng.integers(0, 4, size=6)
        m = init_prompt("multimodal", 3, 8, seed=1)
        expected_loss, expected = batch_loss_and_grad(m, Z, y, space)
        loss, grads = m.loss_and_grad(Z, y, space)
        assert loss == expected_loss
        assert np.array_equal(grads["text_ctx"], expected["text_ctx"])
        assert np.array_equal(grads["vis_ctx"], expected["vis_ctx"])


def _tiled_reference(model, Z, y, space):
    """Features, prototypes and ctx gradients through the tiled definition.

    Each anchor row is repeated M times into an (n, M*d) matrix R, so the
    offset is (ctx.ravel() * R) @ mix.T and its VJP is ((dA @ mix) * R)
    summed over rows; the effective map must reproduce both.
    """

    def shift(mix, ctx, anchors):
        R = np.tile(anchors, (1, ctx.shape[0]))
        A = anchors + (ctx.ravel() * R) @ mix.T
        norms = np.linalg.norm(A, axis=1, keepdims=True)
        return A / norms, norms, R

    def back(mix, ctx, unit, norms, R, d_unit):
        dA = (d_unit - np.sum(d_unit * unit, axis=1, keepdims=True) * unit) / norms
        return ((dA @ mix) * R).sum(axis=0).reshape(ctx.shape)

    tau = model.temperature
    Zp, nz, Rz = shift(model.vis_mix, model.vis_ctx, Z)
    Wp, nw, Rw = shift(model.text_mix, model.text_ctx, space.base_prototypes)
    S = tau * (Zp @ Wp.T)
    P = np.exp(S - S.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    G = (P - np.eye(space.C)[y]) / Z.shape[0]
    d_text = back(model.text_mix, model.text_ctx, Wp, nw, Rw, tau * (G.T @ Zp))
    d_vis = back(model.vis_mix, model.vis_ctx, Zp, nz, Rz, tau * (G @ Wp))
    return Zp, Wp, d_text, d_vis


class TestEffectiveMap:
    def test_matches_tiled_definition(self):
        """Both routes, non-square shape (n=9, C=5, d=6, M=4), to 1e-12."""
        rng = np.random.default_rng(23)
        space = _space(rng, 5, 6)
        Z = _unit_rows(rng, 9, 6)
        y = rng.integers(0, 5, size=9)
        m = init_prompt("multimodal", 4, 6, seed=3, scale=0.4)
        Zp, Wp, d_text, d_vis = _tiled_reference(m, Z, y, space)
        _, grads = batch_loss_and_grad(m, Z, y, space)
        np.testing.assert_allclose(image_features(m, Z), Zp, rtol=0, atol=1e-12)
        np.testing.assert_allclose(class_prototypes(m, space), Wp, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["text_ctx"], d_text, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads["vis_ctx"], d_vis, rtol=0, atol=1e-12)

    def test_peak_memory_below_one_tiled_temporary(self):
        """The tiled form peaked at about two (n, M*d) arrays; the map stays under half of one."""
        n, d, M, C = 2048, 64, 16, 10
        rng = np.random.default_rng(29)
        space = _space(rng, C, d)
        Z = _unit_rows(rng, n, d)
        y = rng.integers(0, C, size=n)
        m = init_prompt("multimodal", M, d, seed=4)
        tiled_bytes = n * M * d * 8
        for call in (lambda: image_features(m, Z), lambda: batch_loss_and_grad(m, Z, y, space)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < tiled_bytes / 2

"""Prompt surrogate tests.

The analytic gradient is checked against central finite differences on the
same double-precision forward pass; the firewall tests pin the guarantee that
a textual prompt can never move image features and a visual prompt can never
move prototypes.
"""

import ctypes
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from test_core import _whole_matrix_cross_entropy

from plrefine import surrogate
from plrefine.core import CE_BLOCK_ROWS, ClassSpace, EmbeddingSet, LabeledSubset, PoolBlocks
from plrefine.probe import LinearProbe
from plrefine.pseudolabels import PseudolabelSet
from plrefine.surrogate import (
    DEFAULT_CTX_SCALE,
    DEFAULT_TEMPERATURE,
    MODALITIES,
    PromptModel,
    batch_loss_and_grad,
    class_prototypes,
    image_features,
    init_prompt,
    reinit_ctx,
)
from plrefine.training import TrainSchedule, train


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _space(rng, C, d):
    return ClassSpace(tuple(f"c{j}" for j in range(C)), _unit_rows(rng, C, d))


def _fd_grad(model, name, feats, labels, space, h=1e-4, pools=None):
    """Central finite differences of the batch loss in every ctx entry."""
    base = model.learnable()[name]
    grad = np.zeros_like(base)
    for idx in np.ndindex(base.shape):
        up_arr = base.copy()
        up_arr[idx] += h
        down_arr = base.copy()
        down_arr[idx] -= h
        up, _ = batch_loss_and_grad(model.with_learnable({name: up_arr}), feats, labels, space, pools)
        down, _ = batch_loss_and_grad(model.with_learnable({name: down_arr}), feats, labels, space, pools)
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
        for bad in (True, "0.1", float("nan"), float("inf"), -0.01):
            with pytest.raises(ValueError, match="^init_scale must be "):
                init_prompt("textual", 4, 8, seed=0, scale=bad, spread=spread)
            with pytest.raises(ValueError, match="^init_scale must be "):
                reinit_ctx(init_prompt("textual", 4, 8, seed=0), 1, scale=bad, spread=spread)
        # scale=inf used to draw a ctx of +-inf.
        with pytest.raises(ValueError, match="init_scale must be finite and non-negative, got inf"):
            init_prompt("textual", 4, 8, seed=0, scale=float("inf"), spread=spread)

    def test_sizes_must_be_positive_integers(self):
        for name in ("M", "d"):
            for bad in (2.0, 2.5, True, 0):
                sizes = {"M": 4, "d": 8, name: bad}
                with pytest.raises(ValueError, match=f"^{name} must be "):
                    init_prompt("textual", sizes["M"], sizes["d"], seed=0)

    def test_nan_settings_rejected_with_the_config_messages(self):
        with pytest.raises(ValueError, match="init_scale must be non-negative, got nan"):
            init_prompt("textual", 4, 8, seed=0, scale=float("nan"))
        with pytest.raises(ValueError, match="temperature must be positive, got nan"):
            init_prompt("textual", 4, 8, seed=0, temperature=float("nan"))

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

    def test_with_learnable_shares_frozen_parts(self, monkeypatch):
        """The per-step copy skips __post_init__: same mixer objects,
        settings carried over, new ctx frozen."""
        m = init_prompt("multimodal", 3, 6, seed=2)
        checked = []
        monkeypatch.setattr(PromptModel, "__post_init__", checked.append)
        m2 = m.with_learnable({"vis_ctx": np.ones((3, 6))})
        assert checked == []
        assert m2.text_mix is m.text_mix and m2.vis_mix is m.vis_mix
        assert m2.text_ctx is m.text_ctx
        assert (m2.modality, m2.temperature) == (m.modality, m.temperature)
        assert m2.vis_ctx.dtype == np.float64 and not m2.vis_ctx.flags.writeable
        assert np.array_equal(m2.vis_ctx, np.ones((3, 6))) and not np.array_equal(m.vis_ctx, m2.vis_ctx)

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: v.astype(np.float32),
            lambda v: np.asfortranarray(v),
            lambda v: v.tolist(),
            lambda v: v.repeat(2, axis=1)[:, ::2],
        ],
        ids=["float32", "fortran", "list", "strided"],
    )
    def test_with_learnable_copies_a_block_it_cannot_freeze(self, make):
        """A block that is not C-contiguous float64 is stored as a
        read-only C-contiguous float64 copy; the caller's value is left
        writeable and unchanged."""
        m = init_prompt("textual", 3, 6, seed=2)
        given = make(np.arange(18.0).reshape(3, 6) / 8)
        before = np.array(given, dtype=np.float64)
        stored = m.with_learnable({"text_ctx": given}).text_ctx
        assert stored is not given and stored.dtype == np.float64
        assert stored.flags.c_contiguous and not stored.flags.writeable
        assert np.array_equal(stored, before) and np.array_equal(np.array(given, dtype=np.float64), before)
        if isinstance(given, np.ndarray):
            assert given.flags.writeable and not np.shares_memory(stored, given)

    def test_with_learnable_freezes_a_contiguous_float64_block_in_place(self):
        m = init_prompt("multimodal", 3, 6, seed=2)
        given = {"text_ctx": np.full((3, 6), 0.5), "vis_ctx": np.full((3, 6), -0.5)}
        m2 = m.with_learnable(dict(given))
        for name, value in given.items():
            assert getattr(m2, name) is value and not value.flags.writeable
        assert m2.text_mix is m.text_mix and m2.vis_mix is m.vis_mix

    @pytest.mark.parametrize(
        "modality, params",
        [
            ("textual", {"text_ctx": np.zeros((4, 6))}),
            ("multimodal", {"vis_ctx": np.zeros((3, 5))}),
            ("textual", {"vis_ctx": np.zeros((3, 6))}),
            ("visual", {"text_mix": np.zeros((6, 18))}),
        ],
        ids=["text-shape", "vis-shape", "absent-side", "frozen-mixer"],
    )
    def test_with_learnable_rejects_bad_blocks(self, modality, params):
        m = init_prompt(modality, 3, 6, seed=2)
        with pytest.raises(ValueError):
            m.with_learnable(params)

    def test_mix_shape_validated(self):
        m = init_prompt("textual", 3, 6, seed=2)
        with pytest.raises(ValueError):
            PromptModel(
                modality="textual",
                temperature=100.0,
                text_ctx=m.text_ctx,
                text_mix=np.zeros((6, 6)),
            )
        # Each route is well formed on its own, but their widths differ.
        with pytest.raises(ValueError, match="routes must share one width d, got 4 and 6"):
            PromptModel(
                modality="multimodal",
                temperature=100.0,
                text_ctx=np.zeros((2, 4)),
                vis_ctx=np.zeros((2, 6)),
                text_mix=np.zeros((4, 8)),
                vis_mix=np.zeros((6, 12)),
            )


class TestRouteRules:
    """Each route's rules hold, with the same messages, on both sides: a side
    is present exactly for its modality and for multimodal models, and its
    mixer is (d, M*d) for a (M, d) ctx."""

    ROUTES = [("text", "textual", "visual"), ("vis", "visual", "textual")]

    @pytest.mark.parametrize("prefix, side, other", ROUTES, ids=["textual", "visual"])
    @pytest.mark.parametrize("case", ["missing-ctx", "missing-mix", "wrong-modality", "mix-shape"])
    def test_rule_violations_raise_the_side_message(self, prefix, side, other, case):
        full = init_prompt("multimodal", 3, 6, seed=2)
        fields = {f"{prefix}_ctx": getattr(full, f"{prefix}_ctx"), f"{prefix}_mix": getattr(full, f"{prefix}_mix")}
        modality = side
        message = f"{side} side must be present exactly for {side}/multimodal models"
        if case == "missing-ctx":
            del fields[f"{prefix}_ctx"]
        elif case == "missing-mix":
            del fields[f"{prefix}_mix"]
        elif case == "wrong-modality":
            modality = other
            other_prefix = "vis" if prefix == "text" else "text"
            for name in (f"{other_prefix}_ctx", f"{other_prefix}_mix"):
                fields[name] = getattr(full, name)
        else:
            fields[f"{prefix}_mix"] = np.zeros((6, 6))
            message = f"{prefix}_mix must be (d, M*d) for {prefix}_ctx of shape (M, d)"
        with pytest.raises(ValueError) as err:
            PromptModel(modality=modality, temperature=100.0, **fields)
        assert str(err.value) == message

    def test_multimodal_learnable_lists_text_before_vis(self):
        m = init_prompt("multimodal", 3, 6, seed=2)
        assert list(m.learnable()) == ["text_ctx", "vis_ctx"]
        assert list(reinit_ctx(m, 4).learnable()) == ["text_ctx", "vis_ctx"]

    def test_seed_streams(self):
        """Children 0 and 1 of the seed draw the text and visual ctx, 2 and 3
        their mixers, whichever sides the modality holds."""
        M, d, sigma = 3, 6, 0.5
        kids = np.random.SeedSequence(9).spawn(4)
        want = {
            "text_ctx": np.random.default_rng(kids[0]).normal(0.0, sigma, size=(M, d)),
            "vis_ctx": np.random.default_rng(kids[1]).normal(0.0, sigma, size=(M, d)),
            "text_mix": np.random.default_rng(kids[2]).standard_normal((d, M * d)) / np.sqrt(M * d),
            "vis_mix": np.random.default_rng(kids[3]).standard_normal((d, M * d)) / np.sqrt(M * d),
        }
        for modality in MODALITIES:
            m = init_prompt(modality, M, d, seed=9, scale=sigma)
            for name, value in want.items():
                got = getattr(m, name)
                assert got is None or got.tobytes() == value.tobytes(), (modality, name)
            redrawn = reinit_ctx(m.with_learnable({k: np.zeros_like(v) for k, v in m.learnable().items()}), 9, sigma)
            for name, value in redrawn.learnable().items():
                assert value.tobytes() == want[name].tobytes(), (modality, name)


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

    def test_pass_through_sides_are_read_only_views(self):
        """A side the prompt does not move is its input, shared, not copied."""
        rng = np.random.default_rng(8)
        space = _space(rng, 4, 8)
        Z = _unit_rows(rng, 6, 8)
        zero = init_prompt("multimodal", 4, 8, seed=0)
        zero = zero.with_learnable({k: np.zeros_like(v) for k, v in zero.learnable().items()})
        for m in (init_prompt("textual", 4, 8, seed=1), zero):
            out = image_features(m, Z)
            assert np.shares_memory(out, Z) and not out.flags.writeable
        for m in (init_prompt("visual", 4, 8, seed=1), zero):
            out = class_prototypes(m, space)
            assert np.shares_memory(out, space.base_prototypes) and not out.flags.writeable
        assert Z.flags.writeable

    def test_pass_through_allocates_no_copy(self):
        n, d = 20000, 64
        Z = _unit_rows(np.random.default_rng(9), n, d)
        m = init_prompt("textual", 4, d, seed=1)
        tracemalloc.start()
        try:
            image_features(m, Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * Z.nbytes

    def test_shifted_side_holds_one_copy_with_whole_matrix_bits(self):
        # Row norms are taken NORM_BLOCK_ROWS rows at a time; n is not a
        # multiple of the block, and the bits must match the whole-matrix norm.
        n, d = 20000, 64
        Z = _unit_rows(np.random.default_rng(9), n, d)
        m = init_prompt("visual", 4, d, seed=1)
        tracemalloc.start()
        try:
            out = image_features(m, Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * Z.nbytes
        E = np.einsum("jmk,mk->jk", m.vis_mix.reshape(d, -1, d), m.vis_ctx)
        A = Z + Z @ E.T
        assert out.tobytes() == (A / np.linalg.norm(A, axis=1, keepdims=True)).tobytes()

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
        """A feature matrix gives (n, C); one vector is not squeezed through
        but refused, by name and width, on either route, and so is a matrix
        of the wrong width."""
        rng = np.random.default_rng(8)
        space = _space(rng, 5, 9)
        Z = _unit_rows(rng, 4, 9)
        for modality in ("textual", "visual"):
            m = init_prompt(modality, 3, 9, seed=0)
            assert m.scores(Z, space).shape == (4, 5)
            scores = lambda z: m.scores(z, space)
            for call, name in ((scores, r"feats must be a 2-D matrix of 9 columns"), (lambda z: image_features(m, z), r"z must be a 2-D matrix of 9 columns")):
                with pytest.raises(ValueError, match=name + r", got shape \(9,\)"):
                    call(Z[0])
            for call in (scores, lambda z: batch_loss_and_grad(m, z, np.zeros(4, dtype=np.int64), space)):
                with pytest.raises(ValueError, match=r"feats must be a 2-D matrix of 9 columns, got shape \(4, 8\)"):
                    call(Z[:, :8])
            with pytest.raises(ValueError, match=r"z must be a 2-D matrix of 9 columns, got shape \(4, 8\)"):
                image_features(m, np.ones((4, 8)))

    def test_zero_shot_values(self):
        """With ctx = 0 the logits are exactly temperature * cosine."""
        rng = np.random.default_rng(10)
        space = _space(rng, 5, 9)
        Z = _unit_rows(rng, 4, 9)
        m = init_prompt("textual", 3, 9, seed=0, temperature=30.0)
        m = m.with_learnable({"text_ctx": np.zeros_like(m.text_ctx)})
        assert np.allclose(m.scores(Z, space), 30.0 * (Z @ space.base_prototypes.T))

    def test_scores_equals_full_subset(self):
        """A multimodal head scores as its textual route does on the
        features its visual route shifted, bit for bit."""
        rng = np.random.default_rng(11)
        space = _space(rng, 5, 9)
        Z = _unit_rows(rng, 4, 9)
        m = init_prompt("multimodal", 3, 9, seed=0)
        text = PromptModel("textual", m.temperature, text_ctx=m.text_ctx, text_mix=m.text_mix)
        assert np.array_equal(m.scores(Z, space), text.scores(image_features(m, Z), space))

    def test_feature_on_prototype_maxes_its_class(self):
        """A feature sitting on prototype 3 scores temperature * 1 there."""
        d = 8
        protos = np.eye(d)[:5]
        space = ClassSpace(tuple(f"c{j}" for j in range(5)), protos)
        m = init_prompt("textual", 3, d, seed=0, temperature=100.0)
        m = m.with_learnable({"text_ctx": np.zeros_like(m.text_ctx)})
        S = m.scores(protos[3:4], space)[0]
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
            a = base.scores(Z, space)
            b = other.scores(Z, space)
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
        S = m.scores(Z, space)[0]
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
        m = init_prompt("textual", 3, 8, seed=0)
        for bad in (True, "0.1", float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="^temperature must be "):
                init_prompt("textual", 3, 8, seed=0, temperature=bad)
            with pytest.raises(ValueError, match="^temperature must be "):
                PromptModel("textual", bad, text_ctx=m.text_ctx, text_mix=m.text_mix)

    def test_loss_matches_manual_cross_entropy(self):
        rng = np.random.default_rng(14)
        space = _space(rng, 4, 8)
        Z = _unit_rows(rng, 9, 8)
        y = rng.integers(0, 4, size=9)
        m = init_prompt("textual", 3, 8, seed=3)
        S = m.scores(Z, space)
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
        with pytest.raises(ValueError, match=rf"labels must lie in \[0, 5\), got {bad}"):
            if head == "prompt":
                batch_loss_and_grad(init_prompt("textual", 3, 8, seed=0), Z, labels, space)
            else:
                LinearProbe(np.ones((5, 8))).loss_and_grad(Z, labels, space)

    @pytest.mark.parametrize("head", ["prompt", "linear_probe"])
    def test_float_labels_refused_not_truncated(self, head):
        """[1.7, 0.2] would train as [1, 0] if cast; both heads refuse it."""
        rng = np.random.default_rng(17)
        space = _space(rng, 5, 8)
        Z = _unit_rows(rng, 2, 8)
        labels = np.array([1.7, 0.2])
        with pytest.raises(ValueError, match="labels must be integer indices, got a float64 array"):
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


def _two_pools(rng, C=5, d=8, n_l=4, n_p=7):
    """A labeled and a pseudolabeled batch, stacked, with their block list."""
    ZL, ZP = _unit_rows(rng, n_l, d), _unit_rows(rng, n_p, d)
    yL, yP = rng.integers(0, C, size=n_l), rng.integers(0, C, size=n_p)
    return (ZL, yL), (ZP, yP), np.vstack([ZL, ZP]), np.concatenate([yL, yP])


def _head_call(head, rng, C, d):
    """loss_and_grad of a prompt model of one modality, or of a random probe."""
    if head == "probe":
        return LinearProbe(rng.standard_normal((C, d))).loss_and_grad
    m = init_prompt(head, 3, d, seed=2, scale=0.3, temperature=15.0)
    return lambda Z, y, space, pools=None: batch_loss_and_grad(m, Z, y, space, pools)


class TestPoolBlocks:
    """One call over stacked pools equals the weighted sum of one call per
    pool (the probe's counterparts are in test_probe.py)."""

    @pytest.mark.parametrize("head", MODALITIES)
    def test_two_blocks_equal_weighted_calls(self, head):
        rng = np.random.default_rng(31)
        space = _space(rng, 5, 8)
        (ZL, yL), (ZP, yP), Z, y = _two_pools(rng)
        call = _head_call(head, rng, 5, 8)
        gamma, lam = 1.75, 0.5
        loss_l, grads_l = call(ZL, yL, space)
        loss_p, grads_p = call(ZP, yP, space)
        loss, grads = call(Z, y, space, [(4, gamma), (7, lam)])
        assert abs(loss - (gamma * loss_l + lam * loss_p)) < 1e-12
        assert grads.keys() == grads_l.keys()
        for name, g in grads.items():
            np.testing.assert_allclose(g, gamma * grads_l[name] + lam * grads_p[name], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("head", MODALITIES)
    def test_one_unit_block_is_bitwise_default(self, head):
        rng = np.random.default_rng(32)
        space = _space(rng, 5, 8)
        _, _, Z, y = _two_pools(rng)
        call = _head_call(head, rng, 5, 8)
        loss, grads = call(Z, y, space)
        loss_1, grads_1 = call(Z, y, space, [(Z.shape[0], 1.0)])
        assert loss_1 == loss
        for name, g in grads.items():
            assert np.array_equal(grads_1[name], g)

    def test_zero_weight_block_drops_out(self):
        rng = np.random.default_rng(33)
        space = _space(rng, 5, 8)
        (ZL, yL), _, Z, y = _two_pools(rng)
        call = _head_call("multimodal", rng, 5, 8)
        loss_l, grads_l = call(ZL, yL, space)
        loss, grads = call(Z, y, space, [(4, 1.0), (7, 0.0)])
        assert abs(loss - loss_l) < 1e-12
        for name, g in grads.items():
            np.testing.assert_allclose(g, grads_l[name], rtol=0, atol=1e-12)

    def test_two_block_gradients_match_finite_differences(self):
        rng = np.random.default_rng(34)
        space = _space(rng, 4, 7)
        _, _, Z, y = _two_pools(rng, C=4, d=7, n_l=3, n_p=5)
        pools = [(3, 2.5), (5, 0.4)]
        m = init_prompt("multimodal", 3, 7, seed=5, scale=0.05, temperature=12.0)
        _, grads = batch_loss_and_grad(m, Z, y, space, pools)
        for name in ("text_ctx", "vis_ctx"):
            numeric = _fd_grad(m, name, Z, y, space, pools=pools)
            assert _max_rel_err(grads[name], numeric) < 1e-4

    @pytest.mark.parametrize("head", ["multimodal", "probe"])
    @pytest.mark.parametrize(
        "pools, message",
        [
            ([(4, 1.0), (4, 1.0)], r"pool blocks cover 8 rows, the batch has 11"),
            ([(4, 1.0), (7, 1.0), (1, 1.0)], r"pool blocks cover 12 rows, the batch has 11"),
            ([(0, 1.0), (11, 1.0)], r"pool block 0 has no rows"),
            ([(4, -0.5), (7, 1.0)], r"pool weight -0.5 must be finite and non-negative"),
            ([(4, 1.0), (7, float("nan"))], r"pool weight nan must be finite"),
            ([(4, float("inf")), (7, 1.0)], r"pool weight inf must be finite"),
            ([(4, True), (7, 1.0)], r"pool weight True must be finite"),
        ],
    )
    def test_bad_block_list_rejected(self, head, pools, message):
        rng = np.random.default_rng(35)
        space = _space(rng, 5, 8)
        _, _, Z, y = _two_pools(rng)
        call = _head_call(head, rng, 5, 8)
        with pytest.raises(ValueError, match=message):
            call(Z, y, space, pools)

    @pytest.mark.parametrize("head", [*MODALITIES, "probe"])
    def test_typed_blocks_give_the_list_bits(self, head):
        """A PoolBlocks value, as training passes it, gives the loss and
        gradients of the same pairs given as a list, bit for bit."""
        rng = np.random.default_rng(38)
        space = _space(rng, 5, 8)
        _, _, Z, y = _two_pools(rng)
        call = _head_call(head, rng, 5, 8)
        pools = [(4, 2.5), (7, 0.5)]
        loss, grads = call(Z, y, space, pools)
        loss_t, grads_t = call(Z, y, space, PoolBlocks(pools))
        assert loss_t == loss and grads_t.keys() == grads.keys()
        assert all(np.array_equal(grads_t[name], g) for name, g in grads.items())

    @pytest.mark.parametrize("head", ["multimodal", "probe"])
    def test_typed_blocks_of_another_total_rejected(self, head):
        rng = np.random.default_rng(35)
        space = _space(rng, 5, 8)
        _, _, Z, y = _two_pools(rng)
        call = _head_call(head, rng, 5, 8)
        with pytest.raises(ValueError, match=r"^pool blocks cover 8 rows, the batch has 11$"):
            call(Z, y, space, PoolBlocks([(4, 1.0), (4, 1.0)]))


class TestLogitBuffer:
    """The cross-entropy writes dL/dS over the logits, so a loss call holds
    one (n, C) matrix and never touches its inputs."""

    @pytest.mark.parametrize("head", ["textual", "visual", "probe"])
    def test_peak_memory_about_one_logit_matrix(self, head):
        n, C, d = 2048, 500, 16
        rng = np.random.default_rng(36)
        space = _space(rng, C, d)
        Z = _unit_rows(rng, n, d)
        y = rng.integers(0, C, size=n)
        call = _head_call(head, rng, C, d)
        tracemalloc.start()
        try:
            call(Z, y, space, [(100, 16.5), (n - 100, 1.0)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * C * 8

    @pytest.mark.parametrize("head", [*MODALITIES, "probe"])
    def test_inputs_unchanged(self, head):
        """Feats, labels, prototypes and the model's parameters (the probe's
        W, a prompt's ctx) read the same after a loss call."""
        rng = np.random.default_rng(37)
        space = _space(rng, 6, 8)
        _, _, Z, y = _two_pools(rng, C=6)
        if head == "probe":
            model = LinearProbe(rng.standard_normal((6, 8)))
        else:
            model = init_prompt(head, 3, 8, seed=2, scale=0.3)
        inputs = lambda: [Z, y, space.base_prototypes, *model.learnable().values()]
        before = [a.copy() for a in inputs()]
        model.loss_and_grad(Z, y, space, [(4, 2.5), (7, 1.0)])
        assert all(np.array_equal(a, b) for a, b in zip(inputs(), before))


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


def _reference_loss_and_grad(model, Z, y, space, pools):
    """batch_loss_and_grad through plain formulas: whole-matrix norms by
    np.linalg.norm, the VJP's row sums by np.sum, and test_core's
    whole-matrix cross-entropy. Every operation is the one the library
    runs, so the results must agree bit for bit."""

    def shift(mix, ctx, anchors):
        d = mix.shape[0]
        A = anchors @ np.einsum("jmk,mk->jk", mix.reshape(d, -1, d), ctx).T + anchors
        norms = np.linalg.norm(A, axis=1, keepdims=True)
        return A / norms, norms

    def back(mix, anchors, unit, norms, d_unit):
        d = mix.shape[0]
        dA = (d_unit - np.sum(d_unit * unit, axis=1, keepdims=True) * unit) / norms
        return np.einsum("jmk,jk->mk", mix.reshape(d, -1, d), dA.T @ anchors)

    tau, B = model.temperature, space.base_prototypes
    Zp, nz = shift(model.vis_mix, model.vis_ctx, Z) if model.vis_ctx is not None else (Z, None)
    Wp, nw = shift(model.text_mix, model.text_ctx, B) if model.text_ctx is not None else (B, None)
    loss, G = _whole_matrix_cross_entropy((Zp @ Wp.T) * tau, y, pools)
    grads = {}
    if model.text_ctx is not None:
        grads["text_ctx"] = back(model.text_mix, B, Wp, nw, tau * (G.T @ Zp))
    if model.vis_ctx is not None:
        grads["vis_ctx"] = back(model.vis_mix, Z, Zp, nz, tau * (G @ Wp))
    return loss, grads


class TestStepBits:
    @pytest.mark.parametrize("modality", MODALITIES)
    @pytest.mark.parametrize("two_pools", [False, True], ids=["one pool", "two pools"])
    def test_loss_and_grads_equal_reference_formulas(self, modality, two_pools):
        """n = 2 * CE_BLOCK_ROWS + 7 rows span three cross-entropy blocks;
        the two-pool split (3.0, 1.0) falls inside the second block."""
        n, C, d = 2 * CE_BLOCK_ROWS + 7, 7, 12
        rng = np.random.default_rng(41)
        space = _space(rng, C, d)
        Z = _unit_rows(rng, n, d)
        y = rng.integers(0, C, size=n)
        split = CE_BLOCK_ROWS + 30
        pools = [(split, 3.0), (n - split, 1.0)] if two_pools else None
        m = init_prompt(modality, 4, d, seed=6, scale=0.3, temperature=20.0)
        loss, grads = batch_loss_and_grad(m, Z, y, space, pools)
        expected_loss, expected = _reference_loss_and_grad(m, Z, y, space, pools or [(n, 1.0)])
        assert loss == expected_loss
        assert grads.keys() == expected.keys()
        assert all(np.array_equal(grads[name], expected[name]) for name in expected)


class _InlineWorker:
    """Stands in for the visual-route worker: runs each task at once on the
    calling thread."""

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def _degenerate_route_model(d, textual, visual, seed=5):
    """A multimodal model whose chosen routes map every anchor to zero:
    with M = 1, ctx = 1 and mix = -I the effective map is -I."""
    rng = np.random.default_rng(seed)
    sides = {}
    for name, degenerate in (("text", textual), ("vis", visual)):
        sides[f"{name}_ctx"] = np.ones((1, d)) if degenerate else 0.3 * rng.standard_normal((1, d))
        sides[f"{name}_mix"] = -np.eye(d) if degenerate else rng.standard_normal((d, d)) / np.sqrt(d)
    return PromptModel("multimodal", 10.0, **sides)


def _multimodal_call(seed=43, n=40, C=6, d=8):
    rng = np.random.default_rng(seed)
    space = _space(rng, C, d)
    Z = _unit_rows(rng, n, d)
    y = rng.integers(0, C, size=n)
    model = init_prompt("multimodal", 3, d, seed=seed, scale=0.3, temperature=20.0)
    return model, Z, y, space


def _on_visual_worker():
    return threading.current_thread().name.startswith("plrefine-visual-route")


def _same_bits(got, expected):
    """Two (loss, grads) results hold the same loss and gradient bits."""
    return got[0] == expected[0] and got[1].keys() == expected[1].keys() and all(
        np.array_equal(got[1][k], v) for k, v in expected[1].items()
    )


class TestConcurrentRoutes:
    """A multimodal loss call runs its visual route on a worker thread under
    one OpenBLAS thread; the bits, errors and the caller's BLAS count are
    those of running the routes in turn."""

    def test_train_equals_inline_routes(self, monkeypatch):
        """A 2-epoch multimodal SSL train over a labeled and a pseudolabeled
        pool: each epoch's first step stacks 300 rows, past 2 * CE_BLOCK_ROWS."""
        n, C, d = 400, 7, 12
        assert 300 > 2 * CE_BLOCK_ROWS
        rng = np.random.default_rng(44)
        space = _space(rng, C, d)
        classes = rng.integers(0, C, size=n)
        data = EmbeddingSet(_unit_rows(rng, n, d), classes, np.arange(n, dtype=np.uint64))
        labeled = LabeledSubset(np.arange(150), classes[:150])
        pseudo = PseudolabelSet(data.ids[150:], classes[150:], np.zeros(n - 150), k_used=n - 150)
        schedule = TrainSchedule(epochs=2, warmup_epochs=1, batch_size=150, peak_lr=0.5)
        model = init_prompt("multimodal", 4, d, seed=8, scale=0.3, temperature=20.0)

        def run():
            return train(model, data, space, labeled, pseudo, (3.0, 1.0), schedule, seed=2)

        submitted = []
        worker = surrogate._route_worker
        real_submit = worker.submit
        monkeypatch.setattr(worker, "submit", lambda *a: submitted.append(1) or real_submit(*a))
        threaded, threaded_losses = run()
        monkeypatch.setattr(surrogate, "_route_worker", _InlineWorker())
        inline, inline_losses = run()
        assert len(submitted) == 2 * 2 * 2  # two tasks per step, two steps per epoch
        assert np.array_equal(threaded_losses, inline_losses)
        assert all(np.array_equal(threaded.learnable()[k], v) for k, v in inline.learnable().items())
        assert threaded.learnable().keys() == {"text_ctx", "vis_ctx"}

    @pytest.mark.parametrize("modality", ["textual", "visual"])
    def test_one_route_calls_never_touch_the_worker(self, modality, monkeypatch):
        _, Z, y, space = _multimodal_call()
        model = init_prompt(modality, 3, 8, seed=4, scale=0.3)
        expected = batch_loss_and_grad(model, Z, y, space)

        def refuse(*args):
            raise AssertionError("a one-route call used the visual-route worker or the BLAS cap")

        monkeypatch.setattr(surrogate._route_worker, "submit", refuse)
        monkeypatch.setattr(surrogate, "_blas_cap", None)
        assert _same_bits(batch_loss_and_grad(model, Z, y, space), expected)

    def test_blas_count_is_one_inside_and_restored_after(self, blas_threads, monkeypatch):
        get, _ = blas_threads
        model, Z, y, space = _multimodal_call()
        seen = []
        shift = surrogate._shift_normalize

        def spy(*args):
            seen.append((_on_visual_worker(), get()))
            return shift(*args)

        monkeypatch.setattr(surrogate, "_shift_normalize", spy)
        batch_loss_and_grad(model, Z, y, space)
        assert sorted(seen) == [(False, 1), (True, 1)]
        assert get() == 2

    @pytest.mark.parametrize(
        "textual, visual, what",
        [(True, False, "shifted prototype"), (False, True, "shifted feature"), (True, True, "shifted feature")],
        ids=["textual", "visual", "both"],
    )
    def test_degenerate_route_error_and_count_restored(self, blas_threads, textual, visual, what):
        """Where both routes degenerate, the visual error wins, as when the
        visual route ran first; the BLAS count is back either way."""
        get, _ = blas_threads
        _, Z, y, space = _multimodal_call()
        model = _degenerate_route_model(8, textual, visual)
        with pytest.raises(ValueError) as info:
            batch_loss_and_grad(model, Z, y, space)
        assert str(info.value) == f"degenerate embedding: zero-norm {what} cannot be normalized"
        assert get() == 2

    @pytest.mark.parametrize("stage", ["_shift_normalize", "_shift_normalize_vjp"], ids=["forward", "backward"])
    def test_worker_error_keeps_its_type_and_the_next_call_works(self, blas_threads, stage, monkeypatch):
        get, _ = blas_threads
        model, Z, y, space = _multimodal_call()
        expected = _reference_loss_and_grad(model, Z, y, space, [(Z.shape[0], 1.0)])
        real = getattr(surrogate, stage)

        def failing(*args):
            if _on_visual_worker():
                raise LookupError("visual route failed")
            return real(*args)

        monkeypatch.setattr(surrogate, stage, failing)
        with pytest.raises(LookupError) as info:
            batch_loss_and_grad(model, Z, y, space)
        assert type(info.value) is LookupError and str(info.value) == "visual route failed"
        assert get() == 2
        monkeypatch.setattr(surrogate, stage, real)
        assert _same_bits(batch_loss_and_grad(model, Z, y, space), expected)

    def test_calling_thread_backward_error_waits_for_the_visual_route(self, blas_threads, monkeypatch):
        """A textual VJP error reaches the caller only once the visual VJP,
        still running on the worker, has finished."""
        get, _ = blas_threads
        model, Z, y, space = _multimodal_call()
        expected = _reference_loss_and_grad(model, Z, y, space, [(Z.shape[0], 1.0)])
        real = surrogate._shift_normalize_vjp
        finished = []

        def vjp(*args):
            if not _on_visual_worker():
                raise ArithmeticError("textual route failed")
            time.sleep(0.05)
            grad = real(*args)
            finished.append(True)
            return grad

        monkeypatch.setattr(surrogate, "_shift_normalize_vjp", vjp)
        with pytest.raises(ArithmeticError) as info:
            batch_loss_and_grad(model, Z, y, space)
        assert finished == [True]
        assert type(info.value) is ArithmeticError and str(info.value) == "textual route failed"
        assert get() == 2
        monkeypatch.setattr(surrogate, "_shift_normalize_vjp", real)
        assert _same_bits(batch_loss_and_grad(model, Z, y, space), expected)

    def test_no_openblas_found_gives_the_same_bytes(self, blas_threads, monkeypatch):
        get, _ = blas_threads
        model, Z, y, space = _multimodal_call()
        expected = batch_loss_and_grad(model, Z, y, space)
        seen = []
        ce = surrogate.cross_entropy_of_checked
        monkeypatch.setattr(surrogate, "_openblas_threads", lambda: None)
        monkeypatch.setattr(surrogate, "cross_entropy_of_checked", lambda *a: seen.append(get()) or ce(*a))
        assert _same_bits(batch_loss_and_grad(model, Z, y, space), expected)
        assert seen == [2]  # nothing was capped

    def test_lookup_takes_numpys_own_openblas(self):
        """Where numpy ships an OpenBLAS, the set function found lives in it,
        and it moves that library's count and not another copy's (scipy's)."""
        numpy_dir = Path(np.__file__).resolve().parent
        shipped = [*numpy_dir.glob(".libs/*openblas*"), *numpy_dir.parent.glob("numpy.libs/*openblas*")]
        libc = ctypes.CDLL(None)
        if not shipped or not hasattr(libc, "dladdr"):
            pytest.skip("numpy ships no OpenBLAS here, or dladdr cannot name a symbol's library")
        assert surrogate._openblas_threads() is not None
        get, put = surrogate._openblas_threads()

        class DlInfo(ctypes.Structure):
            _fields_ = [("fname", ctypes.c_char_p), ("fbase", ctypes.c_void_p), ("sname", ctypes.c_char_p), ("saddr", ctypes.c_void_p)]

        libc.dladdr.argtypes, libc.dladdr.restype = (ctypes.c_void_p, ctypes.POINTER(DlInfo)), ctypes.c_int
        info = DlInfo()
        assert libc.dladdr(ctypes.cast(put, ctypes.c_void_p), ctypes.byref(info))
        assert Path(os.fsdecode(info.fname)).resolve() in [p.resolve() for p in shipped]

        fblas = pytest.importorskip("scipy.linalg._fblas")
        other = ctypes.CDLL(fblas.__file__)
        names = ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads")
        if not all(hasattr(other, name) for name in names):
            pytest.skip("scipy does not ship its own OpenBLAS here")
        other_get, other_set = (getattr(other, name) for name in names)
        other_get.argtypes, other_get.restype = (), ctypes.c_int
        other_set.argtypes, other_set.restype = (ctypes.c_int,), None
        counts = get(), other_get()
        try:
            other_set(2)
            put(1)
            assert (get(), other_get()) == (1, 2)
            put(2)
            other_set(1)
            assert (get(), other_get()) == (2, 1)
        finally:
            put(counts[0])
            other_set(counts[1])

    def test_concurrent_callers_restore_the_count(self, blas_threads):
        """Six threads make two-route calls at once, with a
        short switch interval: every result keeps its bits, and the count
        the first call found is back when the last one ends."""
        get, _ = blas_threads
        model, Z, y, space = _multimodal_call()
        expected = batch_loss_and_grad(model, Z, y, space)
        results = []

        def calls():
            for _ in range(20):
                results.append(batch_loss_and_grad(model, Z, y, space))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=calls) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 120
        assert all(_same_bits(result, expected) for result in results)
        assert get() == 2 and surrogate._blas_cap.depth == 0

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="no fork start method")
    def test_forked_child_gets_a_worker_of_its_own(self):
        """A child forked after the parent's worker started has no copy of
        that thread; its own two-route call must still finish."""
        model, Z, y, space = _multimodal_call()
        expected = batch_loss_and_grad(model, Z, y, space)

        def child():
            os._exit(0 if _same_bits(batch_loss_and_grad(model, Z, y, space), expected) else 3)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout=60)
        if proc.is_alive():
            proc.kill()
            proc.join()
            pytest.fail("the forked child's two-route call did not finish")
        assert proc.exitcode == 0

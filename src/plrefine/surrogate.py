"""Prompt-style surrogate classifier over a frozen embedding space.

The real system tunes soft prompt vectors that run through a frozen
text/vision encoder together with the thing being embedded: prompt tokens
and the class token attend to each other, so one shared prompt moves every
class embedding differently. The surrogate keeps that structure with fixed
seeded mixing matrices. A learnable context block ctx (M, d) is modulated
elementwise by the anchor it is paired with (a base class prototype on the
textual route, the image feature itself on the visual route), flattened,
and pushed through a frozen (d, M*d) matrix to a d-vector offset that is
added to the anchor before re-normalization. ctx = 0 reproduces the
zero-shot classifier exactly, and the two routes never touch each other's
side (textual context cannot move image features, visual context cannot
move prototypes).

The offset is linear in the anchor, so each route folds ctx into one (d, d)
effective map E[j, k] = sum_m mix[j, m*d + k] * ctx[m, k] and shifts by
anchors @ E.T: O(n*d^2 + M*d^2) per call, with no (n, M*d) temporary.

Gradients are derived by hand so they can be cross-checked against finite
differences; everything is float64.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .core import ClassSpace

MODALITIES = ("textual", "visual", "multimodal")

DEFAULT_TEMPERATURE = 100.0
DEFAULT_CTX_SCALE = 0.02


def _frozen(arr: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if arr is None:
        return None
    out = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PromptModel:
    """Learnable context vectors plus frozen mixing maps.

    text_ctx / text_mix exist for textual and multimodal models, vis_ctx /
    vis_mix for visual and multimodal ones; the unused side is None. The
    mixing maps are part of the frozen "encoder" and must never change during
    a run, only the ctx blocks are trainable.
    """

    modality: str
    temperature: float
    text_ctx: Optional[np.ndarray] = None
    vis_ctx: Optional[np.ndarray] = None
    text_mix: Optional[np.ndarray] = None
    vis_mix: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}; expected one of {MODALITIES}")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        has_text = self.modality in ("textual", "multimodal")
        has_vis = self.modality in ("visual", "multimodal")
        if has_text != (self.text_ctx is not None) or has_text != (self.text_mix is not None):
            raise ValueError("textual side must be present exactly for textual/multimodal models")
        if has_vis != (self.vis_ctx is not None) or has_vis != (self.vis_mix is not None):
            raise ValueError("visual side must be present exactly for visual/multimodal models")
        for name in ("text_ctx", "vis_ctx", "text_mix", "vis_mix"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if self.text_ctx is not None:
            m, d = self.text_ctx.shape
            if self.text_mix.shape != (d, m * d):
                raise ValueError("text_mix must be (d, M*d) for text_ctx of shape (M, d)")
        if self.vis_ctx is not None:
            m, d = self.vis_ctx.shape
            if self.vis_mix.shape != (d, m * d):
                raise ValueError("vis_mix must be (d, M*d) for vis_ctx of shape (M, d)")

    # --- generic trainable-model interface (shared with the linear probe) ---

    def learnable(self) -> Dict[str, np.ndarray]:
        out = {}
        if self.text_ctx is not None:
            out["text_ctx"] = self.text_ctx
        if self.vis_ctx is not None:
            out["vis_ctx"] = self.vis_ctx
        return out

    def with_learnable(self, params: Dict[str, np.ndarray]) -> "PromptModel":
        return replace(self, **params)

    def loss_and_grad(
        self,
        feats: np.ndarray,
        labels: np.ndarray,
        space: ClassSpace,
        class_subset: Sequence[int],
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        bundle = batch_loss_and_grad(self, feats, labels, space, class_subset)
        grads = {}
        if bundle.d_text_ctx is not None:
            grads["text_ctx"] = bundle.d_text_ctx
        if bundle.d_vis_ctx is not None:
            grads["vis_ctx"] = bundle.d_vis_ctx
        return bundle.loss, grads

    def scores(self, feats: np.ndarray, space: ClassSpace) -> np.ndarray:
        """Temperature-scaled cosine scores against all C classes."""
        return logits(self, feats, space, range(space.C))


@dataclass(frozen=True)
class GradientBundle:
    """Loss value plus gradients for whichever ctx blocks the model has."""

    loss: float
    d_text_ctx: Optional[np.ndarray] = None
    d_vis_ctx: Optional[np.ndarray] = None


def _ctx_sigma(scale: float, spread: str) -> float:
    # "std" reads the configured scale as the standard deviation (default);
    # "variance" takes it literally as the variance.
    if spread == "std":
        return float(scale)
    if spread == "variance":
        return float(np.sqrt(scale))
    raise ValueError(f"unknown spread convention {spread!r}; expected 'std' or 'variance'")


def init_prompt(
    modality: str,
    M: int,
    d: int,
    seed: int,
    scale: float = DEFAULT_CTX_SCALE,
    spread: str = "std",
    temperature: float = DEFAULT_TEMPERATURE,
) -> PromptModel:
    """Build a fresh model: Gaussian ctx blocks and frozen seeded mixing maps.

    Four independent child streams of the seed feed text ctx, visual ctx and
    the two mixers, so the ctx draw never depends on whether the mixers were
    drawn. Mixer entries are scaled by 1/sqrt(M*d), which keeps the offset
    magnitude comparable across prompt lengths.
    """
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}; expected one of {MODALITIES}")
    if M < 1 or d < 1:
        raise ValueError("M and d must be positive")
    sigma = _ctx_sigma(scale, spread)
    kids = np.random.SeedSequence(seed).spawn(4)
    text_ctx = vis_ctx = text_mix = vis_mix = None
    if modality in ("textual", "multimodal"):
        text_ctx = np.random.default_rng(kids[0]).normal(0.0, sigma, size=(M, d))
        text_mix = np.random.default_rng(kids[2]).standard_normal((d, M * d)) / np.sqrt(M * d)
    if modality in ("visual", "multimodal"):
        vis_ctx = np.random.default_rng(kids[1]).normal(0.0, sigma, size=(M, d))
        vis_mix = np.random.default_rng(kids[3]).standard_normal((d, M * d)) / np.sqrt(M * d)
    return PromptModel(
        modality=modality,
        temperature=temperature,
        text_ctx=text_ctx,
        vis_ctx=vis_ctx,
        text_mix=text_mix,
        vis_mix=vis_mix,
    )


def reinit_ctx(model: PromptModel, seed: int, scale: float = DEFAULT_CTX_SCALE, spread: str = "std") -> PromptModel:
    """Redraw the learnable ctx blocks from ``seed``, keeping the frozen mixers.

    The ctx values are bit-identical to what init_prompt(..., seed) would
    produce, because ctx and mixers come from independent seed streams.
    """
    sigma = _ctx_sigma(scale, spread)
    kids = np.random.SeedSequence(seed).spawn(2)
    updates: Dict[str, np.ndarray] = {}
    if model.text_ctx is not None:
        updates["text_ctx"] = np.random.default_rng(kids[0]).normal(0.0, sigma, size=model.text_ctx.shape)
    if model.vis_ctx is not None:
        updates["vis_ctx"] = np.random.default_rng(kids[1]).normal(0.0, sigma, size=model.vis_ctx.shape)
    return replace(model, **updates)


def _shift_normalize(mix: np.ndarray, ctx: np.ndarray, anchors: np.ndarray, what: str) -> Tuple[np.ndarray, np.ndarray]:
    """Unit rows of anchors + anchors @ E.T (E the route's effective map), and their norms."""
    d = mix.shape[0]
    E = np.einsum("jmk,mk->jk", mix.reshape(d, -1, d), ctx)
    A = anchors + anchors @ E.T
    norms = np.linalg.norm(A, axis=1, keepdims=True)
    if np.any(norms < 1e-12):
        raise ValueError(f"degenerate embedding: {what} collapsed to zero norm")
    return A / norms, norms


def _shift_normalize_vjp(
    mix: np.ndarray, anchors: np.ndarray, unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray
) -> np.ndarray:
    """ctx gradient (M, d) of _shift_normalize, given dL/d(unit rows).

    Back through u = a/|a| (Jacobian (I - u u^T)/|a|) to dA, then
    dE = dA^T anchors and dctx[m, k] = sum_j mix[j, m*d + k] * dE[j, k].
    """
    dA = (d_unit - np.sum(d_unit * unit, axis=1, keepdims=True) * unit) / norms
    d = mix.shape[0]
    return np.einsum("jmk,jk->mk", mix.reshape(d, -1, d), dA.T @ anchors)


def class_prototypes(model: PromptModel, space: ClassSpace) -> np.ndarray:
    """Prototype matrix (C, d), unit rows.

    Textual/multimodal models shift every base prototype by its own mixed
    offset (the context modulated by that prototype) and re-normalize;
    visual models return the base prototypes untouched (the visual side must
    not move class anchors). A zero context leaves the prototypes exactly at
    the base because the offsets are linear in ctx.
    """
    if model.text_ctx is None or not model.text_ctx.any():
        return np.array(space.base_prototypes, dtype=np.float64)
    return _shift_normalize(model.text_mix, model.text_ctx, space.base_prototypes, "prototype")[0]


def image_features(model: PromptModel, z: np.ndarray) -> np.ndarray:
    """Transformed image features (n, d), unit rows.

    Visual/multimodal models shift every feature by its own mixed offset
    (the context modulated by that feature) and re-normalize; textual models
    (and a zero context) pass features through unchanged.
    """
    z = np.asarray(z, dtype=np.float64)
    squeeze = z.ndim == 1
    if squeeze:
        z = z[None, :]
    if model.vis_ctx is None or not model.vis_ctx.any():
        out = np.array(z)
    else:
        out = _shift_normalize(model.vis_mix, model.vis_ctx, z, "feature")[0]
    return out[0] if squeeze else out


def logits(
    model: PromptModel,
    z: np.ndarray,
    space: ClassSpace,
    class_subset: Sequence[int],
) -> np.ndarray:
    """Temperature-scaled cosine logits over ``class_subset``.

    Returns (n, |subset|) for a feature matrix, (|subset|,) for one vector.
    """
    subset = [int(c) for c in class_subset]
    if not subset:
        raise ValueError("empty class subset")
    if min(subset) < 0 or max(subset) >= space.C:
        raise ValueError("class subset indices out of range")
    z = np.asarray(z, dtype=np.float64)
    squeeze = z.ndim == 1
    zp = image_features(model, z if not squeeze else z[None, :])
    W = class_prototypes(model, space)[subset]
    S = model.temperature * (zp @ W.T)
    return S[0] if squeeze else S


def batch_loss_and_grad(
    model: PromptModel,
    feats: np.ndarray,
    labels: np.ndarray,
    space: ClassSpace,
    class_subset: Sequence[int],
) -> GradientBundle:
    """Mean softmax cross-entropy over the batch plus analytic ctx gradients.

    The softmax runs over ``class_subset`` (callers normally pass the full
    class set); labels must be members of the subset. The log-sum-exp is
    max-shifted, and a non-finite loss raises rather than propagating.

    Backward pass, for reference: with P the softmax and Y one-hot,
    G = (P - Y)/n is dL/dS, so dL/dZp = tau G Wp and dL/dWp = tau G^T Zp;
    each route then runs back through its row normalization to the shifted
    rows' gradient dA, through the shift to dE = dA^T anchors, and through
    the effective map to dctx[m, k] = sum_j mix[j, m*d + k] dE[j, k].
    """
    subset = [int(c) for c in class_subset]
    if not subset:
        raise ValueError("empty class subset")
    Z = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if Z.ndim != 2 or labels.shape != (Z.shape[0],):
        raise ValueError("feats must be (n, d) with one label per row")
    if Z.shape[0] == 0:
        raise ValueError("empty batch")
    pos = {c: j for j, c in enumerate(subset)}
    try:
        y = np.array([pos[int(c)] for c in labels], dtype=np.int64)
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]} not in class subset") from None
    n = Z.shape[0]
    tau = model.temperature

    # Forward: image side.
    if model.vis_ctx is None:
        Zp = Z
    else:
        Zp, nz = _shift_normalize(model.vis_mix, model.vis_ctx, Z, "feature")

    # Forward: prototype side.
    B = space.base_prototypes[subset]
    if model.text_ctx is None:
        Wp = B
    else:
        Wp, nw = _shift_normalize(model.text_mix, model.text_ctx, B, "prototype")

    S = tau * (Zp @ Wp.T)
    shift = S.max(axis=1, keepdims=True)
    rel = np.log(np.sum(np.exp(S - shift), axis=1))
    # Grouped as (shift - label logit) + rel so the uniform case, where the
    # label logit equals the max, cancels exactly to ln(C).
    loss = float(np.mean((shift[:, 0] - S[np.arange(n), y]) + rel))
    lse = shift[:, 0] + rel
    if not np.isfinite(loss):
        raise FloatingPointError("numerical overflow in cross-entropy loss")

    P = np.exp(S - lse[:, None])
    G = P
    G[np.arange(n), y] -= 1.0
    G /= n

    d_text_ctx = None
    d_vis_ctx = None
    if model.text_ctx is not None:
        d_text_ctx = _shift_normalize_vjp(model.text_mix, B, Wp, nw, tau * (G.T @ Zp))
    if model.vis_ctx is not None:
        d_vis_ctx = _shift_normalize_vjp(model.vis_mix, Z, Zp, nz, tau * (G @ Wp))

    for g in (d_text_ctx, d_vis_ctx):
        if g is not None and not np.all(np.isfinite(g)):
            raise FloatingPointError("numerical overflow in gradient computation")
    return GradientBundle(loss=loss, d_text_ctx=d_text_ctx, d_vis_ctx=d_vis_ctx)

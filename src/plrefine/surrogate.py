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
differences; everything is float64. A multimodal loss call runs its visual
route on a worker thread while the caller runs the textual one, with numpy's
OpenBLAS held to one thread meanwhile; each route makes the same numpy calls
on the same arrays as it would inline, so the bits do not change.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .core import ClassSpace, frozen_array, normalize_rows, softmax_cross_entropy

MODALITIES = ("textual", "visual", "multimodal")

DEFAULT_TEMPERATURE = 100.0
DEFAULT_CTX_SCALE = 0.02

# One row per route: the modality that owns it (multimodal models own both),
# its ctx and mixer fields, and the SeedSequence children that draw them.
_ROUTES = (("textual", "text_ctx", "text_mix", 0, 2), ("visual", "vis_ctx", "vis_mix", 1, 3))


def check_modality(modality: str) -> None:
    if modality not in MODALITIES:
        raise ValueError(f"unknown modality {modality!r}; expected one of {MODALITIES}")


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
        check_modality(self.modality)
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        for side, ctx_name, mix_name, *_ in _ROUTES:
            present = self.modality in (side, "multimodal")
            if any(present != (getattr(self, name) is not None) for name in (ctx_name, mix_name)):
                raise ValueError(f"{side} side must be present exactly for {side}/multimodal models")
        for _, ctx_name, mix_name, *_ in _ROUTES:
            if getattr(self, ctx_name) is not None:
                ctx = frozen_array(getattr(self, ctx_name), np.float64)
                mix = frozen_array(getattr(self, mix_name), np.float64)
                object.__setattr__(self, ctx_name, ctx)
                object.__setattr__(self, mix_name, mix)
                m, d = ctx.shape
                if mix.shape != (d, m * d):
                    raise ValueError(f"{mix_name} must be (d, M*d) for {ctx_name} of shape (M, d)")

    # --- generic trainable-model interface (shared with the linear probe) ---

    def learnable(self) -> Dict[str, np.ndarray]:
        blocks = {ctx_name: getattr(self, ctx_name) for _, ctx_name, *_ in _ROUTES}
        return {name: ctx for name, ctx in blocks.items() if ctx is not None}

    def with_learnable(self, params: Dict[str, np.ndarray]) -> "PromptModel":
        """A copy holding new ctx blocks of the same shapes.

        Training calls this once per step, so the copy shares the mixers and
        settings validated at construction instead of re-running
        ``__post_init__``: a name must be a ctx field of a route this model
        has, and its new block is frozen (in place when it is already
        contiguous float64) and must keep the current block's shape.
        """
        fields = dict(vars(self))
        for name, value in params.items():
            current = fields[name] if any(name == route[1] for route in _ROUTES) else None
            if current is None:
                raise ValueError(f"{name!r} is not a learnable block of this {self.modality} model")
            value = frozen_array(value, np.float64)
            if value.shape != current.shape:
                raise ValueError(f"{name} must keep shape {current.shape}, got {value.shape}")
            fields[name] = value
        out = object.__new__(type(self))
        vars(out).update(fields)
        return out

    def loss_and_grad(
        self, feats: np.ndarray, labels: np.ndarray, space: ClassSpace, pools=None
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        return batch_loss_and_grad(self, feats, labels, space, pools)

    def scores(self, feats: np.ndarray, space: ClassSpace) -> np.ndarray:
        """Temperature-scaled cosine scores against all C classes."""
        return logits(self, feats, space)


def _ctx_sigma(scale: float, spread: str) -> float:
    # "std" reads the configured scale as the standard deviation (default);
    # "variance" takes it literally as the variance.
    if not scale >= 0:
        raise ValueError(f"init_scale must be non-negative, got {scale}")
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
    check_modality(modality)
    if M < 1 or d < 1:
        raise ValueError("M and d must be positive")
    sigma = _ctx_sigma(scale, spread)
    rngs = [np.random.default_rng(kid) for kid in np.random.SeedSequence(seed).spawn(4)]
    sides: Dict[str, np.ndarray] = {}
    for side, ctx_name, mix_name, ctx_kid, mix_kid in _ROUTES:
        if modality in (side, "multimodal"):
            sides[ctx_name] = rngs[ctx_kid].normal(0.0, sigma, size=(M, d))
            sides[mix_name] = rngs[mix_kid].standard_normal((d, M * d)) / np.sqrt(M * d)
    return PromptModel(modality=modality, temperature=temperature, **sides)


def reinit_ctx(model: PromptModel, seed: int, scale: float = DEFAULT_CTX_SCALE, spread: str = "std") -> PromptModel:
    """Redraw the learnable ctx blocks from ``seed``, keeping the frozen mixers.

    The ctx values are bit-identical to what init_prompt(..., seed) would
    produce, because ctx and mixers come from independent seed streams.
    """
    sigma = _ctx_sigma(scale, spread)
    rngs = [np.random.default_rng(kid) for kid in np.random.SeedSequence(seed).spawn(2)]
    return model.with_learnable({
        ctx_name: rngs[ctx_kid].normal(0.0, sigma, size=getattr(model, ctx_name).shape)
        for _, ctx_name, _, ctx_kid, _ in _ROUTES
        if getattr(model, ctx_name) is not None
    })


def _shift_normalize(mix: np.ndarray, ctx: np.ndarray, anchors: np.ndarray, what: str) -> Tuple[np.ndarray, np.ndarray]:
    """Unit rows of anchors + anchors @ E.T (E the route's effective map), and their norms."""
    d = mix.shape[0]
    E = np.einsum("jmk,mk->jk", mix.reshape(d, -1, d), ctx)
    A = anchors @ E.T
    A += anchors
    return A, normalize_rows(A, what)


def _shift_normalize_vjp(
    mix: np.ndarray, anchors: np.ndarray, unit: np.ndarray, norms: np.ndarray, d_unit: np.ndarray
) -> np.ndarray:
    """ctx gradient (M, d) of _shift_normalize, given dL/d(unit rows).

    Back through u = a/|a| (Jacobian (I - u u^T)/|a|) to dA, then
    dE = dA^T anchors and dctx[m, k] = sum_j mix[j, m*d + k] * dE[j, k].
    """
    dA = (d_unit - np.add.reduce(d_unit * unit, axis=1, keepdims=True) * unit) / norms
    d = mix.shape[0]
    return np.einsum("jmk,jk->mk", mix.reshape(d, -1, d), dA.T @ anchors)


def class_prototypes(model: PromptModel, space: ClassSpace) -> np.ndarray:
    """Prototype matrix (C, d), unit rows.

    Textual/multimodal models shift every base prototype by its own mixed
    offset (the context modulated by that prototype) and re-normalize;
    visual models return the base prototypes untouched (the visual side must
    not move class anchors). A zero context leaves the prototypes exactly at
    the base because the offsets are linear in ctx. An untouched side is a
    read-only view of the base prototypes, not a copy.
    """
    if model.text_ctx is None or not model.text_ctx.any():
        return space.base_prototypes.view()
    return _shift_normalize(model.text_mix, model.text_ctx, space.base_prototypes, "shifted prototype")[0]


def image_features(model: PromptModel, z: np.ndarray) -> np.ndarray:
    """Transformed image features (n, d), unit rows, of a feature matrix z.

    Visual/multimodal models shift every feature by its own mixed offset
    (the context modulated by that feature) and re-normalize; textual models
    (and a zero context) pass features through unchanged, as a read-only
    view of the float64 input rather than a copy of it. A z that is not 2-D
    (one vector included) raises ValueError.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"z must be an (n, d) feature matrix, got {z.ndim}-D input")
    if model.vis_ctx is None or not model.vis_ctx.any():
        out = z.view()
        out.setflags(write=False)
        return out
    return _shift_normalize(model.vis_mix, model.vis_ctx, z, "shifted feature")[0]


def logits(model: PromptModel, z: np.ndarray, space: ClassSpace) -> np.ndarray:
    """Temperature-scaled cosine logits (n, C) of a feature matrix z over all
    C classes; z is checked as in image_features."""
    S = image_features(model, z) @ class_prototypes(model, space).T
    S *= model.temperature
    return S


@functools.cache
def _openblas_threads():
    """(get, set) for the thread count of the OpenBLAS that numpy's matrix
    products run on, or None where no such library is found.

    The symbols are looked up through numpy's own extension module: dlsym on
    that handle searches only the module and the libraries it loaded, so
    another OpenBLAS in the process (scipy ships its own) is never the one
    found. scipy-openblas builds prefix the names, ILP64 builds add 64_.
    """
    core = "numpy.core" if np.__version__.startswith("1.") else "numpy._core"
    try:
        lib = ctypes.CDLL(importlib.import_module(f"{core}._multiarray_umath").__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                put = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


class _OneBlasThread:
    """Context manager holding numpy's OpenBLAS at one thread while any
    two-route loss call is inside it, so its two routes run side by side
    instead of against a BLAS worker spinning on the other core. The count
    found on the first entry is restored when the last call leaves, on an
    exception too, so calls from several threads nest. A no-op where no
    OpenBLAS is found."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.depth = 0
        self.saved = 0

    def __enter__(self) -> None:
        threads = _openblas_threads()
        with self.lock:
            if self.depth == 0 and threads is not None:
                self.saved = threads[0]()
                threads[1](1)
            self.depth += 1

    def __exit__(self, *exc) -> None:
        threads = _openblas_threads()
        with self.lock:
            self.depth -= 1
            if self.depth == 0 and threads is not None:
                threads[1](self.saved)


_blas_cap = _OneBlasThread()
_route_worker: Optional[ThreadPoolExecutor] = None


def _visual_route_worker() -> ThreadPoolExecutor:
    """The persistent one-thread executor that runs a two-route call's visual
    route, started on first use."""
    global _route_worker
    if _route_worker is None:
        _route_worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="plrefine-visual-route")
    return _route_worker


def _start_over_after_fork() -> None:
    # A forked child has none of its parent's threads: the worker and any
    # call inside the cap are gone, so it starts a worker of its own and
    # restores the BLAS count such a call had lowered.
    global _blas_cap, _route_worker
    threads = _openblas_threads() if _blas_cap.depth else None
    if threads is not None:
        threads[1](_blas_cap.saved)
    _blas_cap, _route_worker = _OneBlasThread(), None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_over_after_fork)


def _two_route_loss_and_grad(
    model: PromptModel, Z: np.ndarray, labels: np.ndarray, B: np.ndarray, pools
) -> Tuple[float, Dict[str, np.ndarray]]:
    """batch_loss_and_grad's passes for a model with both routes: the visual
    route's forward and backward run on the worker while this thread runs the
    textual route's, each with the numpy calls the routes make inline."""
    tau = model.temperature
    worker = _visual_route_worker()
    visual = worker.submit(_shift_normalize, model.vis_mix, model.vis_ctx, Z, "shifted feature")
    try:
        Wp, nw = _shift_normalize(model.text_mix, model.text_ctx, B, "shifted prototype")
    finally:
        # Collected first, so a visual error wins as when the visual route ran first.
        Zp, nz = visual.result()

    S = Zp @ Wp.T
    S *= tau
    loss, G = softmax_cross_entropy(S, labels, pools)  # G is S, overwritten

    visual = worker.submit(lambda: _shift_normalize_vjp(model.vis_mix, Z, Zp, nz, tau * (G @ Wp)))
    try:
        text_grad = _shift_normalize_vjp(model.text_mix, B, Wp, nw, tau * (G.T @ Zp))
    finally:
        vis_grad = visual.result()
    return loss, {"text_ctx": text_grad, "vis_ctx": vis_grad}


def batch_loss_and_grad(
    model: PromptModel,
    feats: np.ndarray,
    labels: np.ndarray,
    space: ClassSpace,
    pools=None,
) -> Tuple[float, Dict[str, np.ndarray]]:
    """Softmax cross-entropy over all C classes plus analytic ctx gradients.

    Returns (loss, grads) with one gradient per learnable ctx block, keyed
    like PromptModel.learnable(). Labels must lie in [0, C); the loss is
    core.softmax_cross_entropy with its ``pools`` block list (consecutive
    (row count, weight) blocks of feats; None is the plain mean), so several
    weighted pools share one forward pass and one backward pass per route.
    The logits are built in one fresh (n, C) buffer that the cross-entropy
    overwrites with dL/dS, so a call allocates one (n, C) matrix; feats, the
    prototypes and the model are never written. A non-finite loss or
    gradient raises rather than propagating. A model with both routes runs
    its visual route on a worker thread while the calling thread runs the
    textual one, with numpy's OpenBLAS held to one thread for the call; the
    bits are those of running the routes in turn.

    Backward pass, for reference: with P the softmax and Y one-hot,
    G = w (P - Y)/n_b on a block of n_b rows and weight w is dL/dS, so
    dL/dZp = tau G Wp and dL/dWp = tau G^T Zp; each route then runs back
    through its row normalization to the shifted rows' gradient dA, through
    the shift to dE = dA^T anchors, and through the effective map to
    dctx[m, k] = sum_j mix[j, m*d + k] dE[j, k].
    """
    Z = np.asarray(feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if Z.ndim != 2 or labels.shape != (Z.shape[0],):
        raise ValueError("feats must be (n, d) with one label per row")
    tau = model.temperature
    B = space.base_prototypes

    if model.vis_ctx is not None and model.text_ctx is not None:
        with _blas_cap:
            loss, grads = _two_route_loss_and_grad(model, Z, labels, B, pools)
    else:
        # Forward: the one route's side; the other side passes through.
        if model.vis_ctx is None:
            Zp = Z
        else:
            Zp, nz = _shift_normalize(model.vis_mix, model.vis_ctx, Z, "shifted feature")
        if model.text_ctx is None:
            Wp = B
        else:
            Wp, nw = _shift_normalize(model.text_mix, model.text_ctx, B, "shifted prototype")

        S = Zp @ Wp.T
        S *= tau
        loss, G = softmax_cross_entropy(S, labels, pools)  # G is S, overwritten

        if model.text_ctx is not None:
            grads = {"text_ctx": _shift_normalize_vjp(model.text_mix, B, Wp, nw, tau * (G.T @ Zp))}
        else:
            grads = {"vis_ctx": _shift_normalize_vjp(model.vis_mix, Z, Zp, nz, tau * (G @ Wp))}
    if not all(np.isfinite(g).all() for g in grads.values()):
        raise FloatingPointError("numerical overflow in gradient computation")
    return loss, grads

"""SGD training loop shared by the prompt surrogate and the linear probe.

One schedule covers warmup plus cosine annealing; one loop handles any mix of
a labeled pool and a pseudolabeled pool by drawing one mini-batch from each
per step and combining the two cross-entropies with the paradigm weights.
The loop is strictly deterministic: epoch shuffles come from an RNG seeded
with (seed, epoch), pools are visited in a fixed order, and all math is
float64 on a single thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import EmbeddingSet, LabeledSubset
from .pseudolabels import PseudolabelSet


@dataclass(frozen=True)
class TrainSchedule:
    """Warmup at a flat lr, then half-cosine decay from peak_lr to zero."""

    epochs: int = 150
    warmup_epochs: int = 5
    warmup_lr: float = 1e-4
    peak_lr: float = 0.1
    batch_size: int = 64
    momentum: float = 0.9

    def __post_init__(self) -> None:
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.epochs > 0 and self.warmup_epochs >= self.epochs:
            raise ValueError("warmup_epochs must be smaller than epochs")
        if self.warmup_lr <= 0 or self.peak_lr <= 0:
            raise ValueError("learning rates must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")


def lr_at(schedule: TrainSchedule, epoch: int) -> float:
    """Learning rate for an epoch: flat warmup, then cosine annealing.

    Epoch ``warmup_epochs`` is the cosine peak (factor 1), the last epoch is
    nearly zero. Out-of-range epochs raise.
    """
    if epoch < 0 or epoch >= schedule.epochs:
        raise ValueError(f"epoch {epoch} outside schedule range [0, {schedule.epochs})")
    if epoch < schedule.warmup_epochs:
        return schedule.warmup_lr
    t = epoch - schedule.warmup_epochs
    span = schedule.epochs - schedule.warmup_epochs
    return schedule.peak_lr * 0.5 * (1.0 + math.cos(math.pi * t / span))


def _batch_rows(perm: np.ndarray, step: int, batch_size: int, is_major: bool) -> np.ndarray:
    """Rows of one pool for one step.

    The largest pool is sliced contiguously (last slice may be short); smaller
    pools cycle through their permutation with wraparound so every step sees a
    full batch from them.
    """
    n = perm.size
    if is_major:
        return perm[step * batch_size : min((step + 1) * batch_size, n)]
    b = min(batch_size, n)
    start = (step * b) % n
    return perm[(start + np.arange(b)) % n]


def train(
    model,
    data: EmbeddingSet,
    space,
    labeled: Optional[LabeledSubset],
    pseudo: Optional[PseudolabelSet],
    weights: Tuple[float, float],
    schedule: TrainSchedule,
    seed: int,
):
    """Run the schedule over the two pools and return (model, epoch_losses).

    Each step minimizes gamma * CE(labeled batch) + lambda * CE(pseudolabeled
    batch), both over all C classes. model must expose learnable() /
    with_learnable() / loss_and_grad(), which both PromptModel and
    LinearProbe do. Updates are SGD with momentum in the velocity form
    v = momentum * v + g; p -= lr * v. A pool with zero weight or no rows
    contributes nothing; with zero epochs the model comes back bit-identical
    and the loss trace is empty.
    """
    gamma, lam = float(weights[0]), float(weights[1])
    if gamma < 0 or lam < 0:
        raise ValueError("loss weights must be non-negative")
    if seed < 0:
        raise ValueError("seed must be non-negative")

    # Materialize (features, labels, weight) per active pool. Pool order is
    # fixed (labeled first) so the RNG stream is reproducible.
    pools = []
    if labeled is not None and labeled.n > 0 and gamma > 0:
        pools.append((data.features[labeled.rows], labeled.labels, gamma))
    if pseudo is not None and pseudo.m > 0 and lam > 0:
        rows = data.rows_for_ids(pseudo.example_ids)
        pools.append((data.features[rows], pseudo.classes, lam))
    if not pools:
        raise ValueError("nothing to train on: both pools are empty or zero-weighted")
    if schedule.epochs == 0:
        return model, []

    n_major = max(feats.shape[0] for feats, _, _ in pools)
    steps = math.ceil(n_major / schedule.batch_size)
    velocity = {name: np.zeros_like(arr) for name, arr in model.learnable().items()}
    epoch_losses: List[float] = []

    for epoch in range(schedule.epochs):
        rng = np.random.default_rng([seed, epoch])
        perms = [rng.permutation(feats.shape[0]) for feats, _, _ in pools]
        lr = lr_at(schedule, epoch)
        step_losses = []
        for step in range(steps):
            params = model.learnable()
            total = 0.0
            grads = {name: np.zeros_like(arr) for name, arr in params.items()}
            for (feats, labels, weight), perm in zip(pools, perms):
                rows = _batch_rows(perm, step, schedule.batch_size, feats.shape[0] == n_major)
                if rows.size == 0:
                    continue
                try:
                    loss, g = model.loss_and_grad(feats[rows], labels[rows], space)
                except FloatingPointError as exc:
                    raise FloatingPointError(f"{exc} (epoch {epoch}, step {step})") from None
                total += weight * loss
                for name in g:
                    grads[name] = grads[name] + weight * g[name]
            if not np.isfinite(total):
                raise FloatingPointError(f"non-finite loss at epoch {epoch}, step {step}")
            new_params = {}
            for name in params:
                velocity[name] = schedule.momentum * velocity[name] + grads[name]
                new_params[name] = params[name] - lr * velocity[name]
            model = model.with_learnable(new_params)
            step_losses.append(total)
        epoch_losses.append(float(np.mean(step_losses)))
    return model, epoch_losses

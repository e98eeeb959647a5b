"""SGD training loop shared by the prompt surrogate and the linear probe.

One schedule covers warmup plus cosine annealing; one loop handles any mix of
a labeled pool and a pseudolabeled pool. Each step draws one mini-batch from
each pool and makes a single loss-and-gradient call over all of them, the
batches stacked in pool order with one (row count, weight) block per pool, so
the unified objective gamma * CE(labeled) + lambda * CE(pseudolabeled) is one
forward and one backward pass. The loop is strictly deterministic: epoch
shuffles come from an RNG seeded with (seed, epoch), pools are visited in a
fixed order, and all math is float64. A multimodal prompt's loss call runs
its two routes on two threads (surrogate.batch_loss_and_grad), each with the
numpy calls it makes inline, so the bits are those of a single thread.
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
    batch), both over all C classes, with one model.loss_and_grad call on
    the batches stacked in pool order and one (row count, weight) block per
    pool. model must expose learnable() / with_learnable() / loss_and_grad(),
    which both PromptModel and LinearProbe do. Updates are SGD with momentum
    in the velocity form v = momentum * v + g; p = p - lr * v, the velocity
    updated in place and each p a new array, so no gradient, input block or
    feature row is ever written. A pool with zero weight or no rows
    contributes nothing; with zero epochs the model comes back bit-identical
    and the loss trace is empty.
    """
    gamma, lam = float(weights[0]), float(weights[1])
    if gamma < 0 or lam < 0:
        raise ValueError("loss weights must be non-negative")
    if seed < 0:
        raise ValueError("seed must be non-negative")

    # (data rows, labels, weight) per active pool. Pool order is fixed
    # (labeled first) so the RNG stream is reproducible.
    pools = []
    if labeled is not None and labeled.n > 0 and gamma > 0:
        pools.append((labeled.rows, labeled.labels, gamma))
    if pseudo is not None and pseudo.m > 0 and lam > 0:
        pools.append((data.rows_for_ids(pseudo.example_ids), pseudo.classes, lam))
    if not pools:
        raise ValueError("nothing to train on: both pools are empty or zero-weighted")
    if schedule.epochs == 0:
        return model, []

    # The pools' data rows back to back; a pool's batch rows are shifted by
    # its offset. Each batch is gathered from data, with no stacked copy.
    data_rows = np.concatenate([rows for rows, _, _ in pools])
    labels = np.concatenate([pool_labels for _, pool_labels, _ in pools])
    sizes = [rows.size for rows, _, _ in pools]
    offsets = np.cumsum([0] + sizes[:-1])
    n_major = max(sizes)
    batch_size, momentum = schedule.batch_size, schedule.momentum
    steps = math.ceil(n_major / batch_size)
    # The current blocks (the model's own, read-only), replaced each step.
    params = model.learnable()
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
    epoch_losses: List[float] = []

    for epoch in range(schedule.epochs):
        rng = np.random.default_rng([seed, epoch])
        perms = [offset + rng.permutation(size) for offset, size in zip(offsets, sizes)]
        lr = lr_at(schedule, epoch)
        step_losses = []
        for step in range(steps):
            picks = [_batch_rows(perm, step, batch_size, perm.size == n_major) for perm in perms]
            rows = picks[0] if len(picks) == 1 else np.concatenate(picks)
            blocks = [(pick.size, weight) for pick, (_, _, weight) in zip(picks, pools)]
            try:
                loss, grads = model.loss_and_grad(data.features[data_rows[rows]], labels[rows], space, blocks)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} (epoch {epoch}, step {step})") from None
            for name, v in velocity.items():
                v *= momentum
                v += grads[name]
                params[name] = params[name] - lr * v
            model = model.with_learnable(params)
            step_losses.append(loss)
        epoch_losses.append(float(np.mean(step_losses)))
    return model, epoch_losses

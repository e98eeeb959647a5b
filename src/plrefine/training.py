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

from .core import EmbeddingSet, LabeledSubset, PoolBlocks, float_scalar, index_vector, int_scalar
from .pseudolabels import PseudolabelSet


@dataclass(frozen=True)
class TrainSchedule:
    """Warmup at a flat lr, then half-cosine decay from peak_lr to zero.

    epochs, warmup_epochs and batch_size go through int_scalar: a float or
    bool is refused, not cast. warmup_lr and peak_lr (positive) and momentum
    (in [0, 1)) go through float_scalar: a bool, a string, NaN or an
    infinity is refused, not cast.
    """

    epochs: int = 150
    warmup_epochs: int = 5
    warmup_lr: float = 1e-4
    peak_lr: float = 0.1
    batch_size: int = 64
    momentum: float = 0.9

    def __post_init__(self) -> None:
        int_scalar(self.epochs, "epochs")
        int_scalar(self.warmup_epochs, "warmup_epochs")
        if self.epochs > 0 and self.warmup_epochs >= self.epochs:
            raise ValueError("warmup_epochs must be smaller than epochs")
        float_scalar(self.warmup_lr, "warmup_lr", positive=True)
        float_scalar(self.peak_lr, "peak_lr", positive=True)
        int_scalar(self.batch_size, "batch_size", 1)
        float_scalar(self.momentum, "momentum", 1)


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
    """Columns of one pool's permuted array (its last axis) for one step.

    The largest pool is sliced contiguously (last slice may be short); smaller
    pools cycle through their permutation with wraparound so every step sees a
    full batch from them.
    """
    if is_major:
        return perm[..., step * batch_size : (step + 1) * batch_size]
    b = min(batch_size, perm.shape[-1])
    return perm.take(np.arange(step * b, (step + 1) * b), axis=-1, mode="wrap")


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
    and the loss trace is empty. The two weights go through float_scalar as
    "gamma" and "lambda": a bool, a string, NaN, an infinity or a negative
    weight is refused, not cast. A labeled row at or beyond data.n is
    refused before the first step, with a ValueError that names it.

    What is fixed for the run is checked once per call: the weights, the
    seed and the labeled rows here, and each step layout's pool blocks (a
    full batch and a short last one) as the core.PoolBlocks built the first
    time that layout occurs. Each epoch gathers every pool's data rows and
    labels in permutation order once; a step's batch is a slice of them, or
    a wraparound gather from a smaller pool. The step's loss call still
    checks its input, as early returns on what it is handed: the int64
    labels against [0, C) in one pass, the blocks by their total.
    """
    gamma, lam = float_scalar(weights[0], "gamma"), float_scalar(weights[1], "lambda")
    int_scalar(seed, "seed")
    if labeled is not None:
        index_vector(labeled.rows, "labeled rows", hi=data.n)

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

    # Each pool's data rows over its labels, as one (2, size) array; an
    # epoch gathers it in permutation order once, and a step's batch is
    # then a slice or a wraparound gather of it, with one features gather.
    rows_labels = [np.stack((rows, pool_labels)) for rows, pool_labels, _ in pools]
    sizes = [pool.shape[1] for pool in rows_labels]
    n_major = max(sizes)
    batch_size, momentum = schedule.batch_size, schedule.momentum
    steps = math.ceil(n_major / batch_size)
    # The checked blocks of each step layout (a full batch and a short last
    # one), by batch rows; each is built, and so checked, once.
    layouts = {}
    # The current blocks (the model's own, read-only), replaced each step.
    params = model.learnable()
    velocity = {name: np.zeros_like(arr) for name, arr in params.items()}
    epoch_losses: List[float] = []

    for epoch in range(schedule.epochs):
        rng = np.random.default_rng([seed, epoch])
        shuffled = [pool.take(rng.permutation(size), axis=1) for pool, size in zip(rows_labels, sizes)]
        lr = lr_at(schedule, epoch)
        step_losses = []
        for step in range(steps):
            picks = [_batch_rows(pool, step, batch_size, pool.shape[1] == n_major) for pool in shuffled]
            batch = picks[0] if len(picks) == 1 else np.concatenate(picks, axis=1)
            blocks = layouts.get(batch.shape[1])
            if blocks is None:
                blocks = layouts[batch.shape[1]] = PoolBlocks((pick.shape[1], weight) for pick, (_, _, weight) in zip(picks, pools))
            try:
                loss, grads = model.loss_and_grad(data.features.take(batch[0], axis=0), batch[1], space, blocks)
            except FloatingPointError as exc:
                raise FloatingPointError(f"{exc} (epoch {epoch}, step {step})") from None
            for name, v in velocity.items():
                v *= momentum
                v += grads[name]
                params[name] = params[name] - lr * v
            model = model.with_learnable(params)
            step_losses.append(loss)
        # np.mean of the step losses without its dispatch: the same sum,
        # over the same float64 array, divided by the count.
        epoch_losses.append(float(np.add.reduce(np.array(step_losses)) / steps))
    return model, epoch_losses

"""Synthetic embedding tasks with a known ground truth.

Each class is a direction on the unit sphere; examples are the direction plus
Gaussian noise (sigma), re-normalized. Base prototypes are the same
directions corrupted by independent noise (delta), so delta directly controls
how wrong the zero-shot classifier is and sigma how spread out each class is.
A matching test set uses fresh noise, sized at 25% of the train set per
class. Each set's clusters are built in place, in the buffer their noise
is drawn into, so generating a set holds one copy of its features.

Noise entries are drawn with variance sigma^2 / sqrt(d). The two obvious
conventions are both useless as oracles: per-entry unit variance makes the
noise norm grow as sqrt(d) and drowns the unit class direction (near-chance
accuracy at d=32), while unit expected norm makes every task trivially
separable. The intermediate scaling keeps moderate class overlap at the
default dimension, so a zero-shot classifier is clearly better than chance
yet leaves real headroom for refinement to close.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ClassSpace, EmbeddingSet, Task, float_scalar, int_scalar, json_form, make_trzsl_split, normalize_rows, unit_normalize

TEST_FRACTION = 0.25


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and noise parameters of one synthetic task.

    labeled_per_class and unlabeled_per_class only set the train rows per
    class (their sum): every synthetic train row carries its true label, and
    paradigm wiring decides what training sees (SSL's shots come from
    ParadigmConfig.shots_per_class). The integer fields go through
    int_scalar: a float or bool is refused, not cast. sigma and delta go
    through float_scalar: a bool, a string, NaN, an infinity or a negative
    scale is refused, not cast.
    """

    C: int = 10
    d: int = 32
    labeled_per_class: int = 2
    unlabeled_per_class: int = 100
    sigma: float = 0.6
    delta: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        for name, lo in (("C", 2), ("d", 2), ("labeled_per_class", 0), ("unlabeled_per_class", 0), ("seed", 0)):
            int_scalar(getattr(self, name), name, lo)
        if self.labeled_per_class + self.unlabeled_per_class < 1:
            raise ValueError("each class needs at least one train example")
        float_scalar(self.sigma, "sigma")
        float_scalar(self.delta, "delta")

    def to_dict(self) -> dict:
        return json_form(self)


def _noise_scale(scale: float, d: int) -> float:
    """Per-entry standard deviation giving noise variance scale^2 / sqrt(d)."""
    return scale / d**0.25


def _cluster(rng: np.random.Generator, mu: np.ndarray, per_class: int, sigma: float) -> np.ndarray:
    """(C, per_class, d) noisy unit vectors around each class direction.

    Built in place in the one buffer the noise is drawn into: scaled,
    shifted by mu, then normalized row by row. IEEE addition commutes, so
    this gives the bits of unit_normalize(mu + scale * noise) without its
    two full-size temporaries.
    """
    C, d = mu.shape
    x = rng.standard_normal((C, per_class, d))
    x *= _noise_scale(sigma, d)
    x += mu[:, None, :]
    normalize_rows(x.reshape(-1, d), "vector")
    return x


def synth_generate(spec: SyntheticSpec) -> Task:
    """Deterministically generate (train, test, class space) for a spec.

    The train set carries the true label of every row (paradigm wiring
    decides what training is allowed to see). Test size per class is 25% of
    the train size, rounded half-up, at least 1. The class space ships with a
    canonical seen/unseen partition derived from the same seed so the
    transductive paradigm works out of the box.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    mu = unit_normalize(rng.standard_normal((spec.C, spec.d)))
    prototypes = unit_normalize(
        mu + _noise_scale(spec.delta, spec.d) * rng.standard_normal((spec.C, spec.d))
    )

    train_pc = spec.labeled_per_class + spec.unlabeled_per_class
    test_pc = max(1, int(np.floor(TEST_FRACTION * train_pc + 0.5)))

    train_feats = _cluster(rng, mu, train_pc, spec.sigma).reshape(spec.C * train_pc, spec.d)
    test_feats = _cluster(rng, mu, test_pc, spec.sigma).reshape(spec.C * test_pc, spec.d)

    train_labels = np.repeat(np.arange(spec.C, dtype=np.int64), train_pc)
    test_labels = np.repeat(np.arange(spec.C, dtype=np.int64), test_pc)
    n_train = train_labels.size
    train = EmbeddingSet(train_feats, train_labels, np.arange(n_train, dtype=np.uint64))
    test = EmbeddingSet(
        test_feats, test_labels, np.arange(n_train, n_train + test_labels.size, dtype=np.uint64)
    )
    names = tuple(f"class_{c:03d}" for c in range(spec.C))
    space = ClassSpace(names, prototypes, partition=make_trzsl_split(spec.C, spec.seed))
    return Task(train=train, test=test, space=space)

"""Core types and paradigm plumbing for training over frozen embedding spaces.

Everything downstream works on two containers: an :class:`EmbeddingSet`
(unit-normalized image features with optional labels) and a
:class:`ClassSpace` (class names plus unit-normalized base prototypes, with an
optional seen/unseen partition for the transductive zero-shot setting).
Both are frozen dataclasses holding read-only float64 arrays, so they can be
shared across worker processes without copies or locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

# Sentinel stored in EmbeddingSet.labels for rows without a label.
UNLABELED = -1

PARADIGMS = ("SSL", "UL", "TRZSL", "SL")

# Fraction of classes assigned to the seen side of a transductive split.
SEEN_FRACTION = 0.62

NORM_TOLERANCE = 1e-5


def unit_normalize(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Scale vectors to unit L2 norm along ``axis``.

    Raises ValueError("degenerate embedding") if any vector has norm below
    1e-12; a zero vector has no direction and silently keeping it would
    poison every cosine downstream.
    """
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=axis, keepdims=True)
    if np.any(norms < 1e-12):
        raise ValueError("degenerate embedding: zero-norm vector cannot be normalized")
    return x / norms


def frozen_array(arr, dtype=None) -> np.ndarray:
    """Read-only C-contiguous ``arr`` (cast to ``dtype`` when given).

    An array that is already contiguous and of that dtype is frozen in
    place, not copied.
    """
    out = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
    out.setflags(write=False)
    return out


def softmax_cross_entropy(S: np.ndarray, labels: np.ndarray) -> tuple:
    """Mean softmax cross-entropy of logits S (n, C) and its gradient dL/dS.

    Labels must lie in [0, C). The log-sum-exp is max-shifted and grouped as
    (shift - label logit) + log-sum, so uniform logits give exactly ln(C); a
    non-finite loss raises rather than propagating.
    """
    n, C = S.shape
    if n == 0:
        raise ValueError("empty batch")
    outside = (labels < 0) | (labels >= C)
    if outside.any():
        raise ValueError(f"label {int(labels[outside][0])} outside [0, {C})")
    rows = np.arange(n)
    shift = S.max(axis=1, keepdims=True)
    rel = np.log(np.sum(np.exp(S - shift), axis=1))
    loss = float(np.mean((shift[:, 0] - S[rows, labels]) + rel))
    if not np.isfinite(loss):
        raise FloatingPointError("numerical overflow in cross-entropy loss")
    G = np.exp(S - (shift[:, 0] + rel)[:, None])
    G[rows, labels] -= 1.0
    G /= n
    return loss, G


@dataclass(frozen=True)
class EmbeddingSet:
    """Unit-normalized feature matrix with per-row labels and stable ids.

    features : (n, d) float64, every row unit-norm within 1e-5
    labels   : (n,) int64, class index or UNLABELED (-1)
    ids      : (n,) uint64, unique stable example ids
    """

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("features must be a non-empty (n, d) matrix")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite (found NaN or inf)")
        norms = np.linalg.norm(feats, axis=1)
        if np.max(np.abs(norms - 1.0)) > NORM_TOLERANCE:
            raise ValueError(
                "features must be unit-normalized within %g (worst drift %.3g)"
                % (NORM_TOLERANCE, float(np.max(np.abs(norms - 1.0))))
            )
        labels = np.asarray(self.labels, dtype=np.int64)
        ids = np.asarray(self.ids, dtype=np.uint64)
        n = feats.shape[0]
        if labels.shape != (n,) or ids.shape != (n,):
            raise ValueError("labels and ids must both have shape (n,)")
        if np.any(labels < UNLABELED):
            raise ValueError("labels must be class indices or the sentinel -1")
        if np.unique(ids).size != n:
            raise ValueError("ids must be unique")
        object.__setattr__(self, "features", frozen_array(feats))
        object.__setattr__(self, "labels", frozen_array(labels))
        object.__setattr__(self, "ids", frozen_array(ids))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def rows_for_ids(self, wanted: Sequence[int]) -> np.ndarray:
        """Map example ids back to row positions; unknown ids raise KeyError."""
        index = {int(i): r for r, i in enumerate(self.ids)}
        try:
            return np.array([index[int(i)] for i in wanted], dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"unknown example id {exc.args[0]}") from None


@dataclass(frozen=True)
class ClassSpace:
    """Class names, base prototypes, and an optional seen/unseen partition.

    base_prototypes : (C, d) float64, unit rows; the zero-shot classifier.
    partition       : (seen, unseen) class-index tuples, disjoint and jointly
                      covering range(C); None outside the transductive setting.
    """

    class_names: tuple
    base_prototypes: np.ndarray
    partition: Optional[tuple] = None

    def __post_init__(self) -> None:
        names = tuple(str(s) for s in self.class_names)
        protos = np.asarray(self.base_prototypes, dtype=np.float64)
        if protos.ndim != 2 or protos.shape[0] != len(names) or len(names) == 0:
            raise ValueError("base_prototypes must be (C, d) with one row per class name")
        if not np.all(np.isfinite(protos)):
            raise ValueError("base_prototypes must be finite (found NaN or inf)")
        norms = np.linalg.norm(protos, axis=1)
        if np.max(np.abs(norms - 1.0)) > NORM_TOLERANCE:
            raise ValueError("base_prototypes rows must be unit-normalized within 1e-5")
        part = self.partition
        if part is not None:
            seen = tuple(sorted(int(c) for c in part[0]))
            unseen = tuple(sorted(int(c) for c in part[1]))
            combined = sorted(seen + unseen)
            if combined != list(range(len(names))) or not seen or not unseen:
                raise ValueError(
                    "partition must split range(C) into two non-empty disjoint sides"
                )
            part = (seen, unseen)
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "base_prototypes", frozen_array(protos))
        object.__setattr__(self, "partition", part)

    @property
    def C(self) -> int:
        return len(self.class_names)

    @property
    def d(self) -> int:
        return self.base_prototypes.shape[1]


@dataclass(frozen=True)
class LabeledSubset:
    """Row positions into an EmbeddingSet plus the labels training may see."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if rows.shape != labels.shape or rows.ndim != 1:
            raise ValueError("rows and labels must be 1-d arrays of equal length")
        if rows.size and np.unique(rows).size != rows.size:
            raise ValueError("rows must be unique")
        if np.any(labels < 0):
            raise ValueError("labeled subset may not contain the unlabeled sentinel")
        object.__setattr__(self, "rows", frozen_array(rows))
        object.__setattr__(self, "labels", frozen_array(labels))

    @property
    def n(self) -> int:
        return int(self.rows.size)


@dataclass(frozen=True)
class ParadigmConfig:
    """Training paradigm plus its loss weights.

    gamma weights the labeled cross-entropy term, lam the pseudolabeled one.
    Leave both None to have them derived from pool sizes (paradigm_weights)
    at each iteration start, which is the standard behaviour.
    """

    paradigm: str
    shots_per_class: int = 2
    gamma: Optional[float] = None
    lam: Optional[float] = None

    def __post_init__(self) -> None:
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"unknown paradigm {self.paradigm!r}; expected one of {PARADIGMS}")
        if self.shots_per_class < 0:
            raise ValueError("shots_per_class must be non-negative")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.lam is not None and self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.paradigm == "UL" and self.gamma not in (None, 0, 0.0):
            raise ValueError("UL trains with no labeled term: gamma must be 0")
        if self.paradigm == "SL" and self.lam not in (None, 0, 0.0):
            raise ValueError("SL trains with no pseudolabel term: lambda must be 0")


def make_trzsl_split(C: int, seed: int) -> tuple:
    """Split ``range(C)`` into seen/unseen classes, |seen| = floor(0.62 * C).

    The assignment is a seeded permutation, so the same (C, seed) always
    yields the same split. Both sides are returned sorted.
    """
    if C < 2:
        raise ValueError("transductive split needs at least 2 classes")
    n_seen = int(np.floor(SEEN_FRACTION * C))
    if n_seen == 0 or n_seen == C:
        raise ValueError(f"split of {C} classes leaves one side empty")
    perm = np.random.default_rng(seed).permutation(C)
    seen = tuple(sorted(int(c) for c in perm[:n_seen]))
    unseen = tuple(sorted(int(c) for c in perm[n_seen:]))
    return seen, unseen


def sample_shots(data: EmbeddingSet, classes: Sequence[int], shots: int, seed: int) -> LabeledSubset:
    """Draw ``shots`` labeled rows per class without replacement.

    Raises if any requested class has fewer than ``shots`` labeled rows; the
    error names the class so a bad dataset is easy to spot.
    """
    if shots < 0:
        raise ValueError("shots must be non-negative")
    rng = np.random.default_rng(seed)
    rows: list = []
    labels: list = []
    for c in classes:
        candidates = np.flatnonzero(data.labels == int(c))
        if candidates.size < shots:
            raise ValueError(
                f"class {int(c)} has only {candidates.size} labeled rows, need {shots}"
            )
        picked = rng.permutation(candidates)[:shots]
        rows.extend(int(r) for r in picked)
        labels.extend([int(c)] * shots)
    return LabeledSubset(np.array(rows, dtype=np.int64), np.array(labels, dtype=np.int64))


def paradigm_weights(paradigm: str, n_labeled: int, n_pseudo: int) -> tuple:
    """Loss weights (gamma, lambda) for a paradigm given its pool sizes.

    SSL upweights the scarce labeled term by |pseudo| / |labeled|; TRZSL
    downweights the labeled term's partner by |labeled| / |pseudo|; UL and SL
    switch one term off entirely.
    """
    if paradigm not in PARADIGMS:
        raise ValueError(f"unknown paradigm {paradigm!r}; expected one of {PARADIGMS}")
    if n_labeled < 0 or n_pseudo < 0:
        raise ValueError("pool sizes must be non-negative")
    if paradigm == "SSL":
        if n_labeled == 0:
            raise ZeroDivisionError("division by zero in paradigm weights: SSL with no labeled data")
        return float(n_pseudo) / float(n_labeled), 1.0
    if paradigm == "TRZSL":
        if n_pseudo == 0:
            raise ZeroDivisionError("division by zero in paradigm weights: TRZSL with no pseudolabels")
        return 1.0, float(n_labeled) / float(n_pseudo)
    if paradigm == "UL":
        return 0.0, 1.0
    return 1.0, 0.0


@dataclass(frozen=True)
class Task:
    """A train/test pair over one class space; the unit the strategies run on.

    Every label is a class index below C or the UNLABELED sentinel.
    """

    train: EmbeddingSet
    test: EmbeddingSet
    space: ClassSpace

    def __post_init__(self) -> None:
        if self.train.d != self.space.d or self.test.d != self.space.d:
            raise ValueError("train/test feature dimension must match the class space")
        for split, data in (("train", self.train), ("test", self.test)):
            top = int(data.labels.max())
            if top >= self.space.C:
                raise ValueError(f"{split} label {top} out of range for C={self.space.C} classes")

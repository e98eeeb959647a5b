"""Evaluation reports and the poor/rich redistribution analysis.

Accuracy is always computed with predictions over the full class set, no
matter which paradigm produced the model. For partitioned (seen/unseen)
tasks the report adds side accuracies, their harmonic mean, and the class
balance; the redistribution analysis splits classes into poor/rich by the
baseline's per-class accuracy and measures how a trained model moved each
side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import ClassSpace, EmbeddingSet, UNLABELED
from .pseudolabels import PseudolabelSet


@dataclass(frozen=True)
class EvalReport:
    """Accuracy of one model on one test set.

    per_class[c] is accuracy among test rows of class c (0.0 when the class
    has no test rows); support[c] is that row count. The partition fields are
    None unless the evaluation was partition-aware. class_balance is None
    when the seen side scored zero (the ratio is undefined there).
    """

    overall: float
    per_class: tuple
    support: tuple
    seen_accuracy: Optional[float] = None
    unseen_accuracy: Optional[float] = None
    harmonic: Optional[float] = None
    class_balance: Optional[float] = None

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "per_class": list(self.per_class),
            "support": list(self.support),
            "seen_accuracy": self.seen_accuracy,
            "unseen_accuracy": self.unseen_accuracy,
            "harmonic": self.harmonic,
            "class_balance": self.class_balance,
        }


@dataclass(frozen=True)
class RobinHoodReport:
    """Per-class accuracy deltas split by the baseline's poor/rich partition.

    A class is poor when the baseline's accuracy on it is strictly below the
    baseline's overall accuracy, rich otherwise. Mean deltas are None for an
    empty side (e.g. a perfectly uniform baseline has no poor classes).
    """

    poor_classes: tuple
    rich_classes: tuple
    mean_delta_poor: Optional[float]
    mean_delta_rich: Optional[float]
    per_class_delta: tuple

    def to_dict(self) -> dict:
        return {
            "poor_classes": list(self.poor_classes),
            "rich_classes": list(self.rich_classes),
            "mean_delta_poor": self.mean_delta_poor,
            "mean_delta_rich": self.mean_delta_rich,
            "per_class_delta": list(self.per_class_delta),
        }


def harmonic_mean(seen_acc: float, unseen_acc: float) -> float:
    """2su / (s + u); 0 when both sides are 0. Works on fractions or percents."""
    if seen_acc < 0 or unseen_acc < 0:
        raise ValueError("accuracies must be non-negative")
    if seen_acc == 0 and unseen_acc == 0:
        return 0.0
    return 2.0 * seen_acc * unseen_acc / (seen_acc + unseen_acc)


def class_balance(seen_acc: float, unseen_acc: float) -> float:
    """(unseen - seen) / seen: 0 is balanced, negative means seen dominates."""
    if seen_acc == 0:
        raise ZeroDivisionError("undefined balance: seen accuracy is zero")
    return (unseen_acc - seen_acc) / seen_acc


def _report_from_scores(
    scores: np.ndarray,
    test: EmbeddingSet,
    space: ClassSpace,
    partition_aware: bool,
) -> EvalReport:
    if test.n == 0:
        raise ValueError("empty test set")
    labels = test.labels
    if np.any(labels == UNLABELED):
        raise ValueError("test set contains unlabeled rows")
    if np.any(labels >= space.C):
        raise ValueError("test labels exceed the class count")
    preds = np.argmax(scores, axis=1)
    correct = preds == labels

    per_class = []
    support = []
    for c in range(space.C):
        mask = labels == c
        cnt = int(mask.sum())
        support.append(cnt)
        per_class.append(float(correct[mask].mean()) if cnt else 0.0)
    overall = float(correct.mean())

    seen_acc = unseen_acc = harm = balance = None
    if partition_aware:
        if space.partition is None:
            raise ValueError("partition-aware evaluation needs a partitioned class space")
        seen, unseen = space.partition
        seen_mask = np.isin(labels, seen)
        unseen_mask = np.isin(labels, unseen)
        if not seen_mask.any() or not unseen_mask.any():
            raise ValueError("test set must contain rows on both partition sides")
        seen_acc = float(correct[seen_mask].mean())
        unseen_acc = float(correct[unseen_mask].mean())
        harm = harmonic_mean(seen_acc, unseen_acc)
        balance = class_balance(seen_acc, unseen_acc) if seen_acc > 0 else None

    return EvalReport(
        overall=overall,
        per_class=tuple(per_class),
        support=tuple(support),
        seen_accuracy=seen_acc,
        unseen_accuracy=unseen_acc,
        harmonic=harm,
        class_balance=balance,
    )


def evaluate(model, test: EmbeddingSet, space: ClassSpace, partition_aware: bool = False) -> EvalReport:
    """Score a model (anything with .scores(feats, space)) on a test set."""
    return _report_from_scores(model.scores(test.features, space), test, space, partition_aware)


def zero_shot_report(test: EmbeddingSet, space: ClassSpace, partition_aware: bool = False) -> EvalReport:
    """Baseline report: predictions straight from the base prototypes."""
    return _report_from_scores(test.features @ space.base_prototypes.T, test, space, partition_aware)


def robin_hood(baseline: EvalReport, trained: EvalReport) -> RobinHoodReport:
    """Split classes by the baseline into poor/rich and average the deltas.

    Poor means strictly below the baseline's overall accuracy. A positive
    poor-side mean delta with a small rich-side loss is the redistribution
    signature; a negative poor-side delta with rich-side gains is the
    opposite (rich get richer).
    """
    if len(baseline.per_class) != len(trained.per_class):
        raise ValueError("reports cover different class counts")
    base = np.asarray(baseline.per_class, dtype=np.float64)
    new = np.asarray(trained.per_class, dtype=np.float64)
    delta = new - base
    poor = tuple(int(c) for c in np.flatnonzero(base < baseline.overall))
    rich = tuple(int(c) for c in np.flatnonzero(base >= baseline.overall))
    mean_poor = float(delta[list(poor)].mean()) if poor else None
    mean_rich = float(delta[list(rich)].mean()) if rich else None
    return RobinHoodReport(
        poor_classes=poor,
        rich_classes=rich,
        mean_delta_poor=mean_poor,
        mean_delta_rich=mean_rich,
        per_class_delta=tuple(float(x) for x in delta),
    )


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift; used to turn scores into confidences."""
    S = np.asarray(scores, dtype=np.float64)
    shift = S.max(axis=1, keepdims=True)
    e = np.exp(S - shift)
    return e / e.sum(axis=1, keepdims=True)


def threshold_pseudolabels(P: np.ndarray, tau: float, ids: Sequence[int]) -> PseudolabelSet:
    """Conventional confidence-threshold pseudolabeling.

    Every row whose max probability strictly exceeds tau is assigned its
    argmax class; there is no per-class cap, so the returned set's k_used is
    just the largest per-class count. tau must lie in [0, 1).
    """
    if not 0.0 <= tau < 1.0:
        raise ValueError(f"tau must lie in [0, 1), got {tau}")
    P = np.asarray(P, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.uint64)
    if P.ndim != 2 or ids.shape != (P.shape[0],):
        raise ValueError("P must be (n, C) with one id per row")
    if P.size and (P.min() < -1e-9 or P.max() > 1.0 + 1e-9):
        raise ValueError("P must hold probabilities in [0, 1]")
    conf = P.max(axis=1)
    keep = np.flatnonzero(conf > tau)
    classes = np.argmax(P[keep], axis=1).astype(np.int64)
    k_used = int(np.bincount(classes).max()) if keep.size else 0
    return PseudolabelSet(ids[keep], classes, conf[keep], k_used=k_used)

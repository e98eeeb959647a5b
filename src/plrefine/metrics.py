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

from .core import ClassSpace, EmbeddingSet, float_matrix, float_scalar, index_vector, json_form
from .probe import LinearProbe
from .pseudolabels import PseudolabelSet

# Score cells per block of test rows in evaluate and zero_shot_report: the
# argmax of a block's rows needs only its (b, C) scores, and b = cells // C
# keeps that block at 8 MB (1048 rows at C=1000). Blocks are sized by memory,
# not by a row count, because each one costs the model a scores call, and the
# prompt surrogate re-derives its prototypes and feature map on every call
# (a pass over each (d, M*d) mixer): a small C takes its test set in one block.
PREDICT_BLOCK_CELLS = 1 << 20


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
        return json_form(self)


@dataclass(frozen=True)
class RobinHoodReport:
    """Per-class accuracy deltas split by the baseline's poor/rich partition.

    A class is poor when the baseline's accuracy on it is strictly below the
    baseline's overall accuracy, rich otherwise; a class without baseline
    test rows is neither. Mean deltas are None for an empty side (e.g. a
    perfectly uniform baseline has no poor classes).
    """

    poor_classes: tuple
    rich_classes: tuple
    mean_delta_poor: Optional[float]
    mean_delta_rich: Optional[float]
    per_class_delta: tuple

    def to_dict(self) -> dict:
        return json_form(self)


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


def _report_from_predictions(
    preds: np.ndarray,
    test: EmbeddingSet,
    space: ClassSpace,
    partition_aware: bool,
) -> EvalReport:
    labels = index_vector(test.labels, "test labels", lo=0, hi=space.C)
    correct = preds == labels

    support = np.bincount(labels, minlength=space.C)
    hits = np.bincount(labels, weights=correct, minlength=space.C)
    per_class = np.divide(hits, support, out=np.zeros(space.C), where=support > 0)
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
        per_class=tuple(per_class.tolist()),
        support=tuple(support.tolist()),
        seen_accuracy=seen_acc,
        unseen_accuracy=unseen_acc,
        harmonic=harm,
        class_balance=balance,
    )


def evaluate(model, test: EmbeddingSet, space: ClassSpace, partition_aware: bool = False) -> EvalReport:
    """Score a model (anything with .scores(feats, space)) on a test set.

    The model scores one block of test rows per call, so a call holds one
    block's scores, not the whole (n, C) matrix. Each block's scores come
    from its own matrix product, and OpenBLAS need not give it the bits of
    those rows of the whole product, so a near-tie between two top classes
    can resolve differently from a whole-matrix run.

    Every test label must be a class index: ``test labels must lie in [0,
    C), got -1`` names the first that is not, an unlabeled row included.
    """
    feats = test.features
    preds = np.empty(feats.shape[0], dtype=np.int64)
    step = max(1, PREDICT_BLOCK_CELLS // space.C)
    for start in range(0, feats.shape[0], step):
        preds[start : start + step] = np.argmax(model.scores(feats[start : start + step], space), axis=1)
    return _report_from_predictions(preds, test, space, partition_aware)


def zero_shot_report(test: EmbeddingSet, space: ClassSpace, partition_aware: bool = False) -> EvalReport:
    """Baseline report: the linear head whose weights are the base
    prototypes, so its scores are exactly ``feats @ base_prototypes.T``."""
    return evaluate(LinearProbe(space.base_prototypes), test, space, partition_aware)


def robin_hood(baseline: EvalReport, trained: EvalReport) -> RobinHoodReport:
    """Split classes by the baseline into poor/rich and average the deltas.

    Poor means strictly below the baseline's overall accuracy. A class with
    no baseline test rows has no accuracy to compare, so it goes on neither
    side; per_class_delta still lists every class. A positive poor-side mean
    delta with a small rich-side loss is the redistribution signature; a
    negative poor-side delta with rich-side gains is the opposite (rich get
    richer).
    """
    if len(baseline.per_class) != len(trained.per_class):
        raise ValueError("reports cover different class counts")
    base = np.asarray(baseline.per_class, dtype=np.float64)
    new = np.asarray(trained.per_class, dtype=np.float64)
    delta = new - base
    tested = np.asarray(baseline.support) > 0
    poor = tuple(int(c) for c in np.flatnonzero(tested & (base < baseline.overall)))
    rich = tuple(int(c) for c in np.flatnonzero(tested & (base >= baseline.overall)))
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
    S = float_matrix(scores, "scores")
    shift = S.max(axis=1, keepdims=True)
    e = np.exp(S - shift)
    return e / e.sum(axis=1, keepdims=True)


def threshold_pseudolabels(P: np.ndarray, tau: float, ids: Sequence[int]) -> PseudolabelSet:
    """Conventional confidence-threshold pseudolabeling.

    Every row whose max probability strictly exceeds tau is assigned its
    argmax class; there is no per-class cap, so the returned set's k_used is
    just the largest per-class count. tau goes through float_scalar and
    must lie in [0, 1): a bool, a string or NaN is refused, not cast.
    ``ids`` holds one id per row of P; float, bool or negative ids are
    refused, not cast.
    """
    float_scalar(tau, "tau", 1)
    P = float_matrix(P, "P")
    ids = index_vector(ids, "ids", P.shape[0], np.uint64)
    if P.size and (P.min() < -1e-9 or P.max() > 1.0 + 1e-9):
        raise ValueError("P must hold probabilities in [0, 1]")
    conf = P.max(axis=1)
    keep = np.flatnonzero(conf > tau)
    classes = np.argmax(P[keep], axis=1).astype(np.int64)
    k_used = int(np.bincount(classes).max()) if keep.size else 0
    return PseudolabelSet(ids[keep], classes, conf[keep], k_used=k_used)

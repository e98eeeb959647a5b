"""Class-balanced top-K pseudolabeling over cosine similarity scores.

The scheme picks, for every class, the K unlabeled examples that score
highest for that class. This guarantees K pseudolabels per class no matter
how skewed the scorer's confidence is; the price is that one example may be
claimed by several classes. Callers can keep those duplicates (default) or
drop them with :func:`drop_duplicate_assignments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import frozen_array

SCORE_TOLERANCE = 1e-6


@dataclass(frozen=True)
class PseudolabelSet:
    """Pseudolabel assignments: parallel arrays of (example_id, class, score).

    k_used is the per-class cap actually applied; no class may hold more than
    k_used entries. Scores are cosine-scale values in [-1, 1].
    """

    example_ids: np.ndarray
    classes: np.ndarray
    scores: np.ndarray
    k_used: int

    def __post_init__(self) -> None:
        ids = np.asarray(self.example_ids, dtype=np.uint64)
        classes = np.asarray(self.classes, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if not (ids.shape == classes.shape == scores.shape) or ids.ndim != 1:
            raise ValueError("example_ids, classes and scores must be 1-d and parallel")
        if np.any(classes < 0):
            raise ValueError("pseudolabel classes must be non-negative indices")
        if scores.size and np.max(np.abs(scores)) > 1.0 + SCORE_TOLERANCE:
            raise ValueError("scores must be cosine-scale values in [-1, 1]")
        if self.k_used < 0:
            raise ValueError("k_used must be non-negative")
        if classes.size:
            counts = np.bincount(classes)
            if counts.max() > self.k_used:
                raise ValueError(
                    f"class {int(counts.argmax())} holds {int(counts.max())} entries, cap is {self.k_used}"
                )
        for name, arr in (("example_ids", ids), ("classes", classes), ("scores", scores)):
            object.__setattr__(self, name, frozen_array(arr))

    @property
    def m(self) -> int:
        """Number of entries."""
        return int(self.example_ids.size)


def similarity_matrix(images: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Cosine similarities between unit-norm images (n, d) and prototypes (C, d).

    With unit inputs this is a plain matrix product; the result is (n, C).
    """
    images = np.asarray(images, dtype=np.float64)
    prototypes = np.asarray(prototypes, dtype=np.float64)
    if images.ndim != 2 or prototypes.ndim != 2 or images.shape[1] != prototypes.shape[1]:
        raise ValueError(
            f"dimension mismatch: images {images.shape} vs prototypes {prototypes.shape}"
        )
    return images @ prototypes.T


def effective_k(requested_k: int, n_unlabeled: int, C: int) -> int:
    """Per-class quota that the unlabeled pool can actually sustain.

    min(requested_k, floor(n_unlabeled / C)), but never below 1: a pool
    smaller than the class count still yields one pseudolabel per class.
    """
    if requested_k < 1:
        raise ValueError("requested_k must be at least 1")
    if n_unlabeled < 1 or C < 1:
        raise ValueError("n_unlabeled and C must be positive")
    return max(1, min(int(requested_k), n_unlabeled // C))


def topk_per_class(
    S: np.ndarray,
    k: int,
    class_subset: Sequence[int],
    ids: Sequence[int],
) -> PseudolabelSet:
    """Assign each class in ``class_subset`` its k highest-scoring rows of S.

    Ties are broken toward the lower example id, which makes the output
    invariant to row permutations of S (as long as ids move with their rows).
    Entries are emitted class by class in subset order, each class sorted by
    descending score then ascending id.
    """
    S = np.asarray(S, dtype=np.float64)
    ids = np.asarray(ids, dtype=np.uint64)
    if S.ndim != 2 or ids.shape != (S.shape[0],):
        raise ValueError("S must be (n, C) with one id per row")
    n = S.shape[0]
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available unlabeled rows")
    subset = [int(c) for c in class_subset]
    if not subset:
        raise ValueError("class_subset must be non-empty")
    if min(subset) < 0 or max(subset) >= S.shape[1]:
        raise ValueError("class_subset indices must fall within the score columns")

    out_ids: list = []
    out_classes: list = []
    out_scores: list = []
    for c in subset:
        col = S[:, c]
        # Primary key: score descending; secondary: id ascending (lexsort's
        # last key is the primary one).
        order = np.lexsort((ids, -col))[:k]
        out_ids.extend(ids[order])
        out_classes.extend([c] * k)
        out_scores.extend(col[order])
    return PseudolabelSet(
        np.array(out_ids, dtype=np.uint64),
        np.array(out_classes, dtype=np.int64),
        np.array(out_scores, dtype=np.float64),
        k_used=k,
    )


def drop_duplicate_assignments(pl: PseudolabelSet) -> PseudolabelSet:
    """Keep only the highest-scoring class for examples claimed by several.

    Score ties go to the lower class index. k_used is unchanged (per-class
    counts can only shrink).
    """
    best: dict = {}
    for i in range(pl.m):
        eid = int(pl.example_ids[i])
        key = (-float(pl.scores[i]), int(pl.classes[i]))
        if eid not in best or key < best[eid][0]:
            best[eid] = (key, i)
    keep = sorted(i for _, i in best.values())
    return PseudolabelSet(
        pl.example_ids[keep], pl.classes[keep], pl.scores[keep], k_used=pl.k_used
    )


def pseudolabel_accuracy(pl: PseudolabelSet, truth: Mapping[int, int]) -> float:
    """Fraction of entries whose assigned class matches the ground truth.

    ``truth`` maps example id to true class; an id with no ground truth is an
    error because silently skipping it would inflate the metric.
    """
    if pl.m == 0:
        raise ValueError("cannot score an empty pseudolabel set")
    correct = 0
    for i in range(pl.m):
        eid = int(pl.example_ids[i])
        if eid not in truth:
            raise KeyError(f"no ground-truth label for example id {eid}")
        correct += int(truth[eid]) == int(pl.classes[i])
    return correct / pl.m

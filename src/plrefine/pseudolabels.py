"""Class-balanced top-K pseudolabeling over cosine similarity scores.

The scheme picks, for every class, the K unlabeled examples that score
highest for that class. This guarantees K pseudolabels per class no matter
how skewed the scorer's confidence is; the price is that one example may be
claimed by several classes. Callers can keep those duplicates (default) or
drop them with :func:`drop_duplicate_assignments`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import UNLABELED, EmbeddingSet, float_matrix, frozen_array, index_vector, int_scalar

SCORE_TOLERANCE = 1e-6

# Classes selected per pass of topk_per_class: each pass holds a (b, n) bool
# candidate mask, the (b, n / SAMPLE_STRIDE) sample and, for a scattered
# block, the gathered (b, n) class rows. topk_from_features also scores one
# block at a time, so it holds one block's (n, b) scores.
CLASS_BLOCK = 64

# Every SAMPLE_STRIDE-th row of a class row forms the sample whose k-th best
# score bounds that class's selection from below. A class then keeps about
# SAMPLE_STRIDE·k candidates for the exact selection.
SAMPLE_STRIDE = 16


@dataclass(frozen=True)
class PseudolabelSet:
    """Pseudolabel assignments: parallel arrays of (example_id, class, score).

    k_used is the per-class cap actually applied, a non-negative integer; no
    class may hold more than k_used entries. Scores are finite cosine-scale
    values in [-1, 1]. Ids and classes go through index_vector: float or
    bool ids or classes, and negative ids or classes, are refused with
    ValueError, not cast.
    """

    example_ids: np.ndarray
    classes: np.ndarray
    scores: np.ndarray
    k_used: int

    def __post_init__(self) -> None:
        ids = index_vector(self.example_ids, "example_ids", dtype=np.uint64)
        classes = index_vector(self.classes, "classes", ids.size, lo=0)
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.shape != ids.shape:
            raise ValueError(f"scores must have shape {ids.shape}, got {scores.shape}")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite (found NaN or inf)")
        if scores.size and np.max(np.abs(scores)) > 1.0 + SCORE_TOLERANCE:
            raise ValueError("scores must be cosine-scale values in [-1, 1]")
        int_scalar(self.k_used, "k_used")
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

    With unit inputs this is a plain matrix product. The result is (n, C)
    but laid out class-major: it is the transpose of the C-contiguous
    (C, n) product, so each class's scores are one contiguous row of
    ``S.T``, which is how :func:`topk_per_class` reads them.
    """
    prototypes = float_matrix(prototypes, "prototypes")
    images = float_matrix(images, "images", prototypes.shape[1])
    return (prototypes @ images.T).T


def effective_k(requested_k: int, n_unlabeled: int, C: int) -> int:
    """Per-class quota that the unlabeled pool can actually sustain.

    min(requested_k, floor(n_unlabeled / C)), but never below 1: a pool
    smaller than the class count still yields one pseudolabel per class. All
    three must be integers of at least 1: a float or bool is refused, not cast.
    """
    k = int_scalar(requested_k, "requested_k", 1)
    return max(1, min(k, int_scalar(n_unlabeled, "n_unlabeled", 1) // int_scalar(C, "C", 1)))


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
    descending score then ascending id. ``ids`` (one per row of S) and
    ``class_subset`` go through index_vector: float or bool entries, and
    negative ids, are refused with ValueError, not cast.

    Cost: one compare pass over the n·C scores, a partition of the n·C /
    ``SAMPLE_STRIDE`` sampled scores, then exact selection over each class's
    candidates and O(C·k log k) ordering, with no full-matrix copy.
    Selection reads ``S.T``, one row per class, in blocks of ``CLASS_BLOCK``
    classes: a block whose classes form one ascending run (``range(C)``) is
    a view of those rows, any other block is gathered into a (b, n) array.
    S from :func:`similarity_matrix` is class-major and its class rows are
    contiguous; a row-major S gives the same result, only more slowly.

    Each class takes ``t``, the k-th best of its sampled scores (every
    ``SAMPLE_STRIDE``-th row), and keeps as candidates the rows not below
    ``t``. At least k rows score ``t`` or more, so the k-th best score of the
    whole row is at least ``t``: every winner, and every row tied with the
    k-th best, is a candidate, and the result is exactly that of selecting
    over the whole row. A sample shorter than k makes every row a candidate.
    ``argpartition`` splits the candidates at the k-th best. Only a class
    whose k-th best score ties with a candidate outside its k winners sorts
    its candidates in full, so that the tie goes to the lower id.

    Scores must be finite. A NaN in a selected class sorts above every
    number and is never below ``t`` (a NaN ``t`` keeps every row), so it is
    always a candidate, lands among that class's winners, and the returned
    :class:`PseudolabelSet` rejects it with ``ValueError``. A NaN in a
    class outside ``class_subset`` is never read.
    """
    S = float_matrix(S, "S")
    ids = index_vector(ids, "ids", S.shape[0], np.uint64)
    cols = _checked_subset(S.shape[0], S.shape[1], k, class_subset)
    rows = np.concatenate(
        [
            _topk_rows(S.T, cols[start : start + CLASS_BLOCK], k, ids)
            for start in range(0, cols.size, CLASS_BLOCK)
        ]
    ).ravel()
    classes = np.repeat(cols, k)
    return PseudolabelSet(ids[rows], classes, S[rows, classes], k_used=k)


def topk_from_features(
    images: np.ndarray,
    prototypes: np.ndarray,
    k: int,
    class_subset: Sequence[int],
    ids: Sequence[int],
) -> PseudolabelSet:
    """``topk_per_class(similarity_matrix(images, prototypes), k, class_subset, ids)``
    without the (n, C) score matrix.

    The subset is taken ``CLASS_BLOCK`` classes at a time: each block scores
    the pool against only its own prototypes and selects over that (n, b)
    matrix, so the scores held at once are one block's, not the whole
    pool's. Output order, ties and errors are those of
    :func:`topk_per_class`, and the input checks run before any scoring.
    Each block's scores come from a smaller matrix product than the whole
    one, and the BLAS does not promise the same bits: OpenBLAS can move a
    few cells of the pool's last rows by an ulp (seen at n=777 and n=2500).
    """
    prototypes = float_matrix(prototypes, "prototypes")
    images = float_matrix(images, "images", prototypes.shape[1])
    ids = index_vector(ids, "ids", images.shape[0], np.uint64)
    cols = _checked_subset(images.shape[0], prototypes.shape[0], k, class_subset)
    parts = []
    for start in range(0, cols.size, CLASS_BLOCK):
        blk = cols[start : start + CLASS_BLOCK]
        pl = topk_per_class(similarity_matrix(images, prototypes[blk]), k, range(blk.size), ids)
        parts.append((pl.example_ids, blk[pl.classes], pl.scores))
    example_ids, classes, scores = (np.concatenate(arrs) for arrs in zip(*parts))
    return PseudolabelSet(example_ids, classes, scores, k_used=k)


def _checked_subset(n: int, C: int, k: int, class_subset: Sequence[int]) -> np.ndarray:
    """``class_subset`` as an index array, once k and the subset fit n rows and C classes."""
    int_scalar(k, "k", 1)
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available unlabeled rows")
    subset = index_vector(class_subset, "class_subset", lo=0, hi=C)
    if not subset.size:
        raise ValueError("class_subset must be non-empty")
    return subset


def _topk_rows(ST: np.ndarray, cols: np.ndarray, k: int, ids: np.ndarray) -> np.ndarray:
    """(b, k) indices of the k best entries of each class row ``ST[c]``, c in ``cols``.

    Each row of the result is ordered by score descending, then id ascending.
    """
    if np.all(np.diff(cols) == 1):
        blk = ST[cols[0] : cols[-1] + 1]  # one ascending run: a view, no copy
    else:
        blk = ST[cols]
    sample = blk[:, ::SAMPLE_STRIDE]
    m = sample.shape[1]
    if m >= k:
        t = np.partition(sample, m - k, axis=1)[:, m - k, None]
    else:
        t = np.full((blk.shape[0], 1), -np.inf)
    # ~(score < t), not score >= t: a NaN score, or a NaN t, keeps the row.
    candidate = blk < t
    np.logical_not(candidate, out=candidate)
    top = np.empty((blk.shape[0], k), dtype=np.int64)
    for j, row in enumerate(blk):
        rows = np.flatnonzero(candidate[j])
        scores = row[rows]
        best = np.argpartition(scores, rows.size - k)[rows.size - k :]
        # More than k candidates at or above the k-th best score: the
        # partition split a tie arbitrarily, so the class sorts its
        # candidates by (score, id) instead.
        if np.count_nonzero(scores >= scores[best].min()) > k:
            best = np.lexsort((ids[rows], -scores))[:k]
        top[j] = rows[best]
    top_s = np.take_along_axis(blk, top, axis=1)
    order = np.lexsort((ids[top], -top_s), axis=1)
    return np.take_along_axis(top, order, axis=1)


def drop_duplicate_assignments(pl: PseudolabelSet) -> PseudolabelSet:
    """Keep only the highest-scoring class for examples claimed by several.

    Score ties go to the lower class index. k_used is unchanged (per-class
    counts can only shrink).
    """
    # Stable sort by id, then score descending, then class: the first entry
    # of each id group is the one kept (an exact repeat keeps the earlier).
    order = np.lexsort((pl.classes, -pl.scores, pl.example_ids))
    sorted_ids = pl.example_ids[order]
    first = np.ones(pl.m, dtype=bool)
    first[1:] = sorted_ids[1:] != sorted_ids[:-1]
    keep = np.sort(order[first])
    return PseudolabelSet(
        pl.example_ids[keep], pl.classes[keep], pl.scores[keep], k_used=pl.k_used
    )


def pseudolabel_accuracy(pl: PseudolabelSet, truth: EmbeddingSet) -> float:
    """Fraction of entries whose assigned class matches the ground truth.

    ``truth`` labels each example id with its true class. An id it does not
    hold, or holds as UNLABELED, is an error naming the first such id,
    because silently skipping it would inflate the metric.
    """
    if pl.m == 0:
        raise ValueError("cannot score an empty pseudolabel set")
    rows, known = truth.find_ids(pl.example_ids)
    true = truth.labels[rows]
    known &= true != UNLABELED
    if not known.all():
        raise KeyError(f"no ground-truth label for example id {int(pl.example_ids[np.argmin(known)])}")
    return int(np.count_nonzero(true == pl.classes)) / pl.m

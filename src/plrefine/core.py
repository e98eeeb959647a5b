"""Core types and paradigm plumbing for training over frozen embedding spaces.

Everything downstream works on two containers: an :class:`EmbeddingSet`
(unit-normalized image features with optional labels) and a
:class:`ClassSpace` (class names plus unit-normalized base prototypes, with an
optional seen/unseen partition for the transductive zero-shot setting).
Both are frozen dataclasses holding read-only float64 arrays, so they can be
shared across worker processes without copies or locks.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, Sequence

import numpy as np

# Sentinel stored in EmbeddingSet.labels for rows without a label.
UNLABELED = -1

PARADIGMS = ("SSL", "UL", "TRZSL", "SL")

# Fraction of classes assigned to the seen side of a transductive split.
SEEN_FRACTION = 0.62

NORM_TOLERANCE = 1e-5

# Rows per block of row_norms: at d=512 a block's squares take 4 MB. Also
# the most rows strategies.select_round gathers and scores at once from a
# pool that is not the whole train set; there any value of at least 2 keeps
# the bits, since np.array_split's near-equal blocks then leave no one-row
# tail.
NORM_BLOCK_ROWS = 1024

# Rows per pass of softmax_cross_entropy: a block of 128 rows and its exp
# temporary take 2 MB at C=1000, so the passes over a block hit cache.
CE_BLOCK_ROWS = 128


def row_norms(mat: np.ndarray) -> np.ndarray:
    """(n, 1) L2 norms of the rows of a 2-D array; for a C-contiguous array,
    bit for bit the whole-matrix norms numpy's linear-algebra ``norm`` gives
    along axis 1.

    Taken NORM_BLOCK_ROWS rows at a time, so a pass never holds a second
    (n, d) array; a row's norm reads that row alone, so its bits do not
    depend on the blocking. A NaN or inf entry makes its row's norm NaN or
    inf.
    """
    norms = np.empty((mat.shape[0], 1))
    for s in range(0, mat.shape[0], NORM_BLOCK_ROWS):
        blk = mat[s : s + NORM_BLOCK_ROWS]
        np.sqrt(np.add.reduce(blk * blk, axis=1, keepdims=True), out=norms[s : s + NORM_BLOCK_ROWS])
    return norms


def normalize_rows(mat: np.ndarray, what: str) -> np.ndarray:
    """Divide the rows of a writeable 2-D float64 array by their L2 norms in
    place and return the (n, 1) norms.

    Raises ValueError("degenerate embedding") naming ``what`` if any row has
    norm below 1e-12; a zero vector has no direction and silently keeping it
    would poison every cosine downstream.
    """
    norms = row_norms(mat)
    if (norms < 1e-12).any():
        raise ValueError(f"degenerate embedding: zero-norm {what} cannot be normalized")
    mat /= norms
    return norms


def unit_normalize(x: np.ndarray) -> np.ndarray:
    """A float64 copy of ``x`` scaled to unit L2 norm along the last axis;
    ``x`` itself is never written. A zero vector raises as in normalize_rows.
    """
    x = np.array(x, dtype=np.float64, order="C")
    normalize_rows(x.reshape(-1, x.shape[-1]), "vector")
    return x


def max_norm_drift(mat: np.ndarray) -> float:
    """Largest |‖row‖ − 1| over the rows of a 2-D array; 0.0 when it has no
    rows. A NaN or inf entry gives NaN or inf."""
    norms = row_norms(mat)
    return float(np.max(np.abs(norms - 1.0))) if norms.size else 0.0


def _check_unit_rows(mat: np.ndarray, name: str) -> None:
    """Raise unless every entry of ``mat`` is finite and every row unit-norm
    within NORM_TOLERANCE; a NaN or inf entry shows as a non-finite drift."""
    drift = max_norm_drift(mat)
    if not math.isfinite(drift):
        raise ValueError(f"{name} must be finite (found NaN or inf)")
    if drift > NORM_TOLERANCE:
        raise ValueError(
            f"{name} must be unit-normalized within {NORM_TOLERANCE:g} (worst drift {drift:.3g})"
        )


def float_matrix(x, name: str, cols: Optional[int] = None) -> np.ndarray:
    """``x`` as a 2-D float64 array, not copied when it already is one.

    Raises ValueError naming ``name`` and the shape given when ``x`` is not
    2-D, or when ``cols`` is given and ``x`` has another number of columns.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or cols not in (None, x.shape[1]):
        raise ValueError(f"{name} must be a 2-D matrix{'' if cols is None else f' of {cols} columns'}, got shape {x.shape}")
    return x


def index_vector(x, name: str, n: Optional[int] = None, dtype=np.int64, lo: Optional[int] = None, hi: Optional[int] = None) -> np.ndarray:
    """``x`` as a 1-D array of ``dtype`` (labels, rows, ids or class indices)
    whose values lie in [lo, hi). A bound left as None is open, except that
    ``lo`` is 0 for an unsigned ``dtype``. When no bound is given, an array
    that already has the dtype and the shape is returned as it is, with no
    copy and no pass over its values.

    Values are refused, not cast: ValueError naming ``name`` when ``x`` is
    not 1-D, when ``n`` is given and ``x`` has another length, when a
    non-empty ``x`` is not of an integer dtype or is a list holding a float
    or a bool, or when a value lies outside the range; that message names
    the first such value, as in ``labels must lie in [0, 5), got 5``. A
    list, tuple or range of Python or numpy integers is typed by ``dtype``,
    not by numpy's inference, so ``[1, 2**63]`` makes uint64 ids. A value
    beyond ``dtype``, listed or in an unsigned array, is refused as in
    ``labels must fit in int64``.
    """
    typed = isinstance(x, np.ndarray) and x.dtype == dtype and x.ndim == 1 and n in (None, x.size)
    if typed and lo is None and hi is None:
        return x
    if lo is None and np.dtype(dtype).kind == "u":
        lo = 0
    if not typed:
        seq = isinstance(x, (list, tuple, range))
        odd = [v for v in x if isinstance(v, bool) or not isinstance(v, (int, np.integer))] if seq else []
        # A list of integers stays Python ints until the range check, so a
        # negative id meant for uint64 is named below, not overflowed.
        x = np.array(x, dtype=object) if seq and not odd else np.asarray(x)
        if x.ndim != 1 or n not in (None, x.size):
            raise ValueError(f"{name} must have shape ({'n' if n is None else n},), got {x.shape}")
        if x.size and (odd or (not seq and x.dtype.kind not in "iu")):
            # numpy reads [1, True] as an int64 array, so the bool is named.
            got = repr(odd[0]) if x.dtype.kind in "iu" else f"a {x.dtype} array"
            raise ValueError(f"{name} must be integer indices, got {got}")
        # The cast below would wrap such a value: uint64 2**63 becomes int64 -2**63.
        if x.size and x.dtype.kind == "u" and x.max() > np.iinfo(dtype).max:
            raise ValueError(f"{name} must fit in {np.dtype(dtype)}")
    low, high = -math.inf if lo is None else lo, math.inf if hi is None else hi
    if x.size and (x.min() < low or x.max() >= high):
        bad = next(v for v in x.tolist() if not low <= v < high)
        if hi is None:
            bound = f"be at least {lo}" if lo else "be non-negative"
        else:
            bound = f"be below {hi}" if lo is None else f"lie in [{lo}, {hi})"
        raise ValueError(f"{name} must {bound}, got {bad}")
    try:
        return x.astype(dtype, copy=False)
    except OverflowError:  # a listed Python int beyond the dtype
        raise ValueError(f"{name} must fit in {np.dtype(dtype)}") from None


def int_scalar(x, name: str, lo: int = 0) -> int:
    """``x`` as a Python int (a count, quota, seed or size), once it is a
    Python or numpy integer of at least ``lo``.

    Values are refused, not cast: ValueError naming ``name`` when ``x`` is a
    bool, a float (2.0 included) or any other non-integer, or lies below
    ``lo``.
    """
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if x < lo:
        raise ValueError(f"{name} must be {f'at least {lo}' if lo else 'non-negative'}, got {x}")
    return int(x)


def float_scalar(x, name: str, hi: float = math.inf, positive: bool = False) -> float:
    """``x`` as a Python float (a temperature, scale, rate or weight), once
    it is a Python or numpy int or float, finite, and in [0, hi), or in
    (0, hi) when ``positive``.

    Values are refused, not cast: ValueError naming ``name`` when ``x`` is a
    bool, a string or any other non-number, is NaN or infinite (an int
    beyond the float range counts as infinite), or lies outside the range.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {x!r}")
    if isinstance(x, int) and abs(x) > sys.float_info.max:
        # An int beyond the float range is refused as the infinity it overflows to.
        x = math.inf if x > 0 else -math.inf
    if hi < math.inf and x >= hi:
        raise ValueError(f"{name} must lie in {'(' if positive else '['}0, {hi:g}), got {x}")
    if not (x > 0 if positive else x >= 0) or x == math.inf:
        raise ValueError(f"{name} must be {'finite and ' if x == math.inf else ''}{'positive' if positive else 'non-negative'}, got {x}")
    return float(x)


def frozen_array(arr, dtype=None) -> np.ndarray:
    """Read-only C-contiguous ``arr`` (cast to ``dtype`` when given).

    An array that is already contiguous and of that dtype is frozen in
    place, not copied.
    """
    out = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
    out.setflags(write=False)
    return out


def json_form(value):
    """A value as it goes into the JSON outputs: a dataclass becomes an object
    of its fields in order, a tuple or list a list and a dict a dict, each of
    its converted elements or values, and a numpy scalar its Python twin (an
    int64 K an int); anything else is kept."""
    if is_dataclass(value):
        return {f.name: json_form(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {key: json_form(item) for key, item in value.items()}
    return [json_form(item) for item in value] if isinstance(value, (tuple, list)) else value


def softmax_cross_entropy(S: np.ndarray, labels: np.ndarray, pools=None) -> tuple:
    """Weighted softmax cross-entropy of logits S (n, C) and its gradient dL/dS.

    ``pools`` splits the rows into consecutive blocks, one (row count,
    weight) pair per block; the loss is the sum over blocks of weight times
    the block's mean cross-entropy, and each block's rows of dL/dS carry the
    same scale. None is one block of weight 1 over all n rows. A count must
    be an integer of at least 1 (a float such as 11.0 or a bool is refused),
    the counts must sum to n, and a weight must be finite and non-negative.
    Labels go through index_vector, so they must be of an integer dtype
    (float or bool labels are refused, not truncated) and lie in [0, C);
    ``labels must lie in [0, C), got c`` names the first that does not.
    The log-sum-exp is max-shifted and grouped as (shift - label logit) +
    log-sum, so uniform logits give exactly ln(C); a non-finite loss raises
    rather than propagating.

    S is consumed: dL/dS is written over it and returned as G, so a loss
    call holds one (n, C) matrix instead of three. S must be a writeable 2-D
    float64 array the caller no longer needs; it, the labels and the pool
    blocks are all checked before anything is written. Every pass is
    row-local, so they all run on one block of CE_BLOCK_ROWS rows at a time:
    the block and its (CE_BLOCK_ROWS, C) exp temporary stay in cache between
    passes, and each row's values are exactly those of the whole-matrix
    passes, its pool's count and weight included.
    """
    if not isinstance(S, np.ndarray) or S.ndim != 2 or S.dtype != np.float64:
        raise ValueError("logits S must be a 2-D float64 array")
    if not S.flags.writeable:
        raise ValueError("logits S must be writeable: dL/dS is written over it")
    n, C = S.shape
    labels = index_vector(labels, "labels", n, lo=0, hi=C)
    if n == 0:
        raise ValueError("empty batch")
    if pools is None:
        pools = ((n, 1.0),)
    for block, (count, weight) in enumerate(pools):
        if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
            shown = count if isinstance(count, bool) or count != 0 else "no"
            raise ValueError(f"pool block {block} has {shown} rows; a row count must be an integer of at least 1")
        if not (math.isfinite(weight) and weight >= 0):
            raise ValueError(f"pool weight {weight} must be finite and non-negative")
    starts = [0, *itertools.accumulate(int(count) for count, _ in pools)]
    if starts[-1] != n:
        raise ValueError(f"pool blocks cover {starts[-1]} rows, the batch has {n}")
    # (first row, end row, weight) of each pool block.
    spans = [(start, end, float(weight)) for start, end, (_, weight) in zip(starts, starts[1:], pools)]
    per_row = np.empty(n)
    local = np.arange(min(n, CE_BLOCK_ROWS))
    for lo in range(0, n, CE_BLOCK_ROWS):
        hi = min(lo + CE_BLOCK_ROWS, n)
        blk, lab, at = S[lo:hi], labels[lo:hi], local[: hi - lo]
        shift = blk.max(axis=1)
        e = blk - shift[:, None]
        np.exp(e, out=e)
        rel = np.log(e.sum(axis=1))
        per_row[lo:hi] = (shift - blk[at, lab]) + rel
        blk -= (shift + rel)[:, None]
        np.exp(blk, out=blk)
        blk[at, lab] -= 1.0
        # Each pool's rows in this block: divided by its count, scaled by
        # its weight (a unit weight needs no pass).
        for start, end, weight in spans:
            if start < hi and end > lo:
                rows = S[max(start, lo) : min(end, hi)]
                rows /= end - start
                if weight != 1.0:
                    rows *= weight
    loss = 0.0
    for start, end, weight in spans:
        loss += weight * (float(per_row[start:end].sum()) / (end - start))
    if not math.isfinite(loss):
        raise FloatingPointError("numerical overflow in cross-entropy loss")
    return loss, S


@dataclass(frozen=True)
class EmbeddingSet:
    """Unit-normalized feature matrix with per-row labels and stable ids.

    features : (n, d) float64, every row unit-norm within 1e-5
    labels   : (n,) int64, class index or UNLABELED (-1)
    ids      : (n,) uint64, unique stable example ids

    Labels and ids go through index_vector: a float or bool label or id, a
    label below the sentinel or a negative id is refused with ValueError,
    not cast.
    """

    features: np.ndarray
    labels: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("features must be a non-empty (n, d) matrix")
        _check_unit_rows(feats, "features")
        labels = index_vector(self.labels, "labels", feats.shape[0], lo=UNLABELED)
        ids = index_vector(self.ids, "ids", feats.shape[0], np.uint64)
        order = np.argsort(ids)
        sorted_ids = ids[order]
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise ValueError("ids must be unique")
        object.__setattr__(self, "features", frozen_array(feats))
        object.__setattr__(self, "labels", frozen_array(labels))
        object.__setattr__(self, "ids", frozen_array(ids))
        # The ids in ascending order and the rows holding them, kept for
        # find_ids; not fields.
        object.__setattr__(self, "_id_order", frozen_array(order))
        object.__setattr__(self, "_sorted_ids", frozen_array(sorted_ids))

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    def rows_for_ids(self, wanted: Sequence[int]) -> np.ndarray:
        """Map example ids back to row positions; unknown ids raise KeyError.

        The first unknown id in ``wanted`` is the one named. Ids must be
        integers: a float id raises TypeError instead of being truncated.
        """
        keys = np.asarray(wanted)
        if keys.size and keys.dtype.kind not in "iu":
            raise TypeError(f"example ids must be integers, got dtype {keys.dtype}")
        # Negative keys wrap to large uint64 values here; `found` masks them.
        rows, found = self.find_ids(keys.astype(np.uint64))
        if keys.dtype.kind == "i":
            found &= keys >= 0
        if not np.all(found):
            raise KeyError(f"unknown example id {int(keys[np.argmin(found)])}")
        return rows

    def find_ids(self, keys: np.ndarray) -> tuple:
        """(rows, found) for a uint64 id array: ``found[i]`` says whether
        ``keys[i]`` is one of the ids, and if so ``rows[i]`` is its row; a
        key not held gets some valid row."""
        pos = np.minimum(np.searchsorted(self._sorted_ids, keys), self.n - 1)
        return self._id_order[pos].astype(np.int64, copy=False), self._sorted_ids[pos] == keys


@dataclass(frozen=True)
class ClassSpace:
    """Class names, base prototypes, and an optional seen/unseen partition.

    base_prototypes : (C, d) float64, unit rows; the zero-shot classifier.
    partition       : (seen, unseen) class-index tuples, disjoint and jointly
                      covering range(C); None outside the transductive setting.
                      A side of floats or bools is refused, not cast.
    """

    class_names: tuple
    base_prototypes: np.ndarray
    partition: Optional[tuple] = None

    def __post_init__(self) -> None:
        names = tuple(str(s) for s in self.class_names)
        protos = np.asarray(self.base_prototypes, dtype=np.float64)
        if protos.ndim != 2 or protos.shape[0] != len(names) or len(names) == 0:
            raise ValueError("base_prototypes must be (C, d) with one row per class name")
        _check_unit_rows(protos, "base_prototypes")
        part = self.partition
        if part is not None:
            seen = tuple(sorted(index_vector(part[0], "partition seen side").tolist()))
            unseen = tuple(sorted(index_vector(part[1], "partition unseen side").tolist()))
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
    """Row positions into an EmbeddingSet plus the labels training may see.

    Both go through index_vector: float or bool rows or labels are refused
    with ValueError, not cast, and so is a negative row or label (the
    UNLABELED sentinel included)."""

    rows: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        rows = index_vector(self.rows, "rows", lo=0)
        labels = index_vector(self.labels, "labels", rows.size, lo=0)
        if rows.size and np.unique(rows).size != rows.size:
            raise ValueError("rows must be unique")
        object.__setattr__(self, "rows", frozen_array(rows))
        object.__setattr__(self, "labels", frozen_array(labels))

    @property
    def n(self) -> int:
        return int(self.rows.size)


@dataclass(frozen=True)
class ParadigmConfig:
    """Training paradigm plus its labeled shots per class.

    A round's loss weights are not configured: paradigm_weights derives them
    from the paradigm and the round's pool sizes. SL is rejected here, as it
    has no unlabeled pool to pseudolabel. shots_per_class goes through
    int_scalar: a float or bool count is refused, not cast.
    """

    paradigm: str
    shots_per_class: int = 2

    def __post_init__(self) -> None:
        if self.paradigm not in PARADIGMS:
            raise ValueError(f"unknown paradigm {self.paradigm!r}; expected one of {PARADIGMS}")
        if self.paradigm == "SL":
            raise ValueError("paradigms must not include SL: it has no unlabeled pool to pseudolabel")
        int_scalar(self.shots_per_class, "shots_per_class")
        if self.paradigm == "SSL" and self.shots_per_class < 1:
            raise ValueError("SSL needs at least one labeled shot per class")


def make_trzsl_split(C: int, seed: int) -> tuple:
    """Split ``range(C)`` into seen/unseen classes, |seen| = floor(0.62 * C).

    The assignment is a seeded permutation, so the same (C, seed) always
    yields the same split; C and the seed must be integers (a float or bool
    is refused, not cast), C at least 2 and the seed non-negative. Both
    sides are returned sorted.
    """
    if int_scalar(C, "C") < 2:
        raise ValueError("transductive split needs at least 2 classes")
    int_scalar(seed, "transductive split seed")
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
    error names the class so a bad dataset is easy to spot. ``classes`` must
    be non-negative integer indices, and ``shots`` and ``seed`` non-negative
    integers: a float or negative class (the UNLABELED sentinel included),
    a float count or seed, or a bool seed, is refused, not truncated.
    """
    int_scalar(shots, "shots")
    rng = np.random.default_rng(int_scalar(seed, "seed"))
    rows: list = []
    labels: list = []
    for c in index_vector(classes, "classes", lo=0).tolist():
        candidates = np.flatnonzero(data.labels == c)
        if candidates.size < shots:
            raise ValueError(
                f"class {c} has only {candidates.size} labeled rows, need {shots}"
            )
        picked = rng.permutation(candidates)[:shots]
        rows.extend(int(r) for r in picked)
        labels.extend([c] * shots)
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

    Every label is a class index below C or the UNLABELED sentinel:
    ``train labels must lie in [-1, C), got c`` names the first that is not.
    """

    train: EmbeddingSet
    test: EmbeddingSet
    space: ClassSpace

    def __post_init__(self) -> None:
        if self.train.d != self.space.d or self.test.d != self.space.d:
            raise ValueError("train/test feature dimension must match the class space")
        for split, data in (("train", self.train), ("test", self.test)):
            index_vector(data.labels, f"{split} labels", lo=UNLABELED, hi=self.space.C)

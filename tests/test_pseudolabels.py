"""Top-K pseudolabel assignment tests.

topk_per_class is checked against a brute-force oracle (sort every column by
score descending, id ascending, take k) on seeded random instances, including
deliberately quantized scores so ties actually occur.
"""

import tracemalloc

import numpy as np
import pytest

from plrefine.core import UNLABELED, EmbeddingSet
from plrefine.pseudolabels import (
    CLASS_BLOCK,
    SAMPLE_STRIDE,
    PseudolabelSet,
    drop_duplicate_assignments,
    effective_k,
    pseudolabel_accuracy,
    similarity_matrix,
    topk_from_features,
    topk_per_class,
)


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _brute_force_topk(S, k, class_subset, ids):
    """Independent oracle: per class, sort by (-score, id) and take k."""
    triples = []
    for c in class_subset:
        order = sorted(range(S.shape[0]), key=lambda r: (-S[r, c], ids[r]))
        for r in order[:k]:
            triples.append((int(ids[r]), int(c), float(S[r, c])))
    return triples


class TestSimilarityMatrix:
    def test_matches_dot_product(self):
        rng = np.random.default_rng(0)
        Z = _unit_rows(rng, 9, 6)
        W = _unit_rows(rng, 4, 6)
        S = similarity_matrix(Z, W)
        assert S.shape == (9, 4)
        assert np.allclose(S, Z @ W.T)
        assert np.all(np.abs(S) <= 1.0 + 1e-9)

    def test_class_major_layout(self):
        """(n, C) values whose transpose is C-contiguous: one row per class."""
        rng = np.random.default_rng(11)
        Z = _unit_rows(rng, 50, 8)
        W = _unit_rows(rng, 7, 8)
        S = similarity_matrix(Z, W)
        assert S.shape == (50, 7)
        assert S.T.flags.c_contiguous
        np.testing.assert_allclose(S, Z @ W.T, rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match=r"images must be a 2-D matrix of 4 columns, got shape \(3, 5\)"):
            similarity_matrix(_unit_rows(rng, 3, 5), _unit_rows(rng, 2, 4))


class TestEffectiveK:
    def test_cap_at_pool_share(self):
        assert effective_k(16, 100, 10) == 10
        assert effective_k(16, 1000, 10) == 16
        assert effective_k(2, 100, 10) == 2

    def test_floor_of_one(self):
        assert effective_k(16, 5, 10) == 1
        assert effective_k(1, 1, 1) == 1

    def test_exact_division(self):
        assert effective_k(7, 70, 10) == 7
        assert effective_k(8, 70, 10) == 7

    def test_arguments_must_be_positive_integers(self):
        for at, name in enumerate(("requested_k", "n_unlabeled", "C")):
            for bad in (2.0, 2.5, True, 0):
                args = [16, 100, 10]
                args[at] = bad
                with pytest.raises(ValueError, match=f"^{name} must be "):
                    effective_k(*args)
        # A numpy quota comes back as a Python int.
        k = effective_k(np.int64(3), 100, 10)
        assert type(k) is int and k == 3


class TestTopkPerClass:
    def test_matches_brute_force_on_seeded_grid(self):
        rng = np.random.default_rng(2)
        for trial in range(60):
            n = int(rng.integers(4, 40))
            C = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(n, 6) + 1))
            S = rng.uniform(-1.0, 1.0, size=(n, C))
            if trial % 2 == 0:
                # Quantize so duplicate scores (ties) are common.
                S = np.round(S, 1)
            ids = rng.permutation(n * 3)[:n].astype(np.uint64)
            subset = tuple(sorted(rng.choice(C, size=rng.integers(1, C + 1), replace=False)))
            pl = topk_per_class(S[:, :], k, subset, ids)
            got = list(zip(pl.example_ids.tolist(), pl.classes.tolist(), pl.scores.tolist()))
            assert got == _brute_force_topk(S, k, subset, ids)
            assert pl.k_used == k
            assert pl.m == k * len(subset)

    def test_duplicates_across_classes_allowed(self):
        # One row dominating both columns is assigned to both classes.
        S = np.array([[0.9, 0.8], [0.1, 0.2], [0.0, 0.1]])
        ids = np.array([5, 6, 7], dtype=np.uint64)
        pl = topk_per_class(S, 1, (0, 1), ids)
        assert pl.example_ids.tolist() == [5, 5]
        assert pl.classes.tolist() == [0, 1]

    def test_tie_break_prefers_lower_id(self):
        S = np.array([[0.5], [0.5], [0.5]])
        ids = np.array([30, 10, 20], dtype=np.uint64)
        pl = topk_per_class(S, 2, (0,), ids)
        assert pl.example_ids.tolist() == [10, 20]

    def test_k_larger_than_pool(self):
        rng = np.random.default_rng(3)
        S = rng.standard_normal((3, 2))
        ids = np.arange(3, dtype=np.uint64)
        with pytest.raises(ValueError, match="k=4 exceeds the 3 available unlabeled rows"):
            topk_per_class(S, 4, (0, 1), ids)

    def _assert_matches_oracle(self, S, k, subset, ids):
        pl = topk_per_class(S, k, subset, ids)
        got = list(zip(pl.example_ids.tolist(), pl.classes.tolist(), pl.scores.tolist()))
        assert got == _brute_force_topk(S, k, subset, ids)

    def test_matches_brute_force_across_class_blocks(self):
        # More classes than one block holds, taken in a scattered, unsorted
        # order so the blocks are neither contiguous nor monotone.
        rng = np.random.default_rng(6)
        n, C = 40, 3 * CLASS_BLOCK + 5
        S = rng.uniform(-1.0, 1.0, size=(n, C))
        ids = rng.permutation(5 * n)[:n].astype(np.uint64)
        subset = rng.permutation(C)[: 2 * CLASS_BLOCK + 7]
        for k in (1, 3, 17, n):
            self._assert_matches_oracle(S, k, subset, ids)

    def test_ties_straddling_the_kth_place(self):
        # Three score levels only: in most classes the k-th place sits inside a
        # tie that continues past it, so the lower ids must win the boundary.
        rng = np.random.default_rng(7)
        n, C, k = 30, CLASS_BLOCK + 3, 5
        S = np.round(rng.uniform(-1.0, 1.0, size=(n, C)), 0) * 0.5
        ids = rng.permutation(4 * n)[:n].astype(np.uint64)
        straddled = [
            c for c in range(C)
            if np.sort(-S[:, c])[k - 1] == np.sort(-S[:, c])[k]
        ]
        assert len(straddled) > C // 2
        self._assert_matches_oracle(S, k, rng.permutation(C), ids)

    def test_k_equals_pool_and_k_one(self):
        rng = np.random.default_rng(8)
        n, C = 12, CLASS_BLOCK + 1
        S = np.round(rng.uniform(-1.0, 1.0, size=(n, C)), 1)
        ids = rng.permutation(3 * n)[:n].astype(np.uint64)
        for k in (1, n):
            self._assert_matches_oracle(S, k, range(C), ids)

    def test_allocates_well_under_one_copy_of_s(self):
        # Selection works on one class block at a time; a full-matrix copy
        # (a transpose or a negation of S) would exceed this bound.
        rng = np.random.default_rng(9)
        n, C = 20000, 300
        S = rng.uniform(-1.0, 1.0, size=(n, C))
        ids = np.arange(n, dtype=np.uint64)
        tracemalloc.start()
        try:
            topk_per_class(S, 16, range(C), ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * S.nbytes

    def test_class_major_allocates_well_under_one_copy_of_s(self):
        # A contiguous class subset is read through views of S.T's rows; only
        # a (b, n) bool candidate mask and the strided sample are allocated
        # per block.
        rng = np.random.default_rng(9)
        n, C = 20000, 300
        S = np.ascontiguousarray(rng.uniform(-1.0, 1.0, size=(C, n))).T
        ids = np.arange(n, dtype=np.uint64)
        tracemalloc.start()
        try:
            topk_per_class(S, 16, range(C), ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * S.nbytes

    def test_class_major_allocates_under_a_tenth_of_s(self):
        # Per block: a (b, n) bool mask (1/8 of the block's scores) and a
        # (b, n / SAMPLE_STRIDE) sample; (b, n) int64 indices would not fit.
        rng = np.random.default_rng(9)
        n, C = 20000, 300
        S = np.ascontiguousarray(rng.uniform(-1.0, 1.0, size=(C, n))).T
        ids = np.arange(n, dtype=np.uint64)
        tracemalloc.start()
        try:
            topk_per_class(S, 16, range(C), ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * S.nbytes

    @pytest.mark.parametrize("quantized", [False, True], ids=["random", "ties"])
    @pytest.mark.parametrize("subset", ["range", "scattered"])
    def test_row_and_class_major_layouts_agree(self, quantized, subset):
        """Same PseudolabelSet from a row-major S and its class-major copy,
        on the view path (range(C)) and the gather path (a scattered,
        unsorted subset over several class blocks), for k from 1 to n."""
        rng = np.random.default_rng(12)
        n, C = 45, 3 * CLASS_BLOCK + 9
        S = rng.uniform(-1.0, 1.0, size=(n, C))
        if quantized:
            S = np.round(S / 0.05) * 0.05
        ids = rng.permutation(4 * n)[:n].astype(np.uint64)
        classes = range(C) if subset == "range" else rng.permutation(C)[: 2 * CLASS_BLOCK + 11]
        row_major = np.ascontiguousarray(S)
        class_major = np.ascontiguousarray(S.T).T
        for k in (1, 2, 7, n):
            a = topk_per_class(row_major, k, classes, ids)
            b = topk_per_class(class_major, k, classes, ids)
            for name in ("example_ids", "classes", "scores"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            assert a.k_used == b.k_used == k

    @pytest.mark.parametrize("layout", ["row-major", "class-major"])
    def test_nan_in_selected_class_rejected(self, layout):
        rng = np.random.default_rng(13)
        S = rng.uniform(-1.0, 1.0, size=(30, 5))
        S[4, 2] = np.nan
        if layout == "class-major":
            S = np.ascontiguousarray(S.T).T
        with pytest.raises(ValueError, match="finite"):
            topk_per_class(S, 3, (0, 2), np.arange(30, dtype=np.uint64))

    @pytest.mark.parametrize("subset", [(2, 3), (3, 0, 2)], ids=["view", "gather"])
    def test_nan_outside_subset_not_read(self, subset):
        # NaN classes sit right next to the selected ones, so a view or a
        # gather that reached one class too far would raise.
        rng = np.random.default_rng(14)
        S = np.ascontiguousarray(rng.uniform(-1.0, 1.0, size=(5, 30))).T
        ids = np.arange(30, dtype=np.uint64)
        clean = topk_per_class(S, 3, subset, ids)
        S.T[1] = np.nan
        S.T[4, 7] = np.nan
        pl = topk_per_class(S, 3, subset, ids)
        assert pl.example_ids.tolist() == clean.example_ids.tolist()
        assert pl.scores.tolist() == clean.scores.tolist()

    def test_emission_order_per_class(self):
        rng = np.random.default_rng(4)
        S = rng.uniform(-1.0, 1.0, size=(20, 3))
        ids = np.arange(100, 120, dtype=np.uint64)
        pl = topk_per_class(S, 4, (2, 0), ids)
        # Class blocks appear in subset order.
        assert pl.classes.tolist() == [2] * 4 + [0] * 4
        for block in (pl.scores[:4], pl.scores[4:]):
            assert np.all(np.diff(block) <= 0)


class TestTopkSampledThreshold:
    """Pools long enough that each class's strided sample holds at least k
    scores, so selection runs over the candidates at or above the sample's
    k-th best instead of the whole row."""

    N = 64 * SAMPLE_STRIDE

    @staticmethod
    def _layouts(S):
        return {"row-major": np.ascontiguousarray(S), "class-major": np.ascontiguousarray(S.T).T}

    def _assert_matches_oracle(self, S, k, subset, ids):
        expected = _brute_force_topk(S, k, subset, ids)
        for layout, arr in self._layouts(S).items():
            pl = topk_per_class(arr, k, subset, ids)
            got = list(zip(pl.example_ids.tolist(), pl.classes.tolist(), pl.scores.tolist()))
            assert got == expected, (layout, k)

    @pytest.mark.parametrize("k", [1, 16, 64, 65], ids=["k1", "k16", "sample-len", "past-sample"])
    def test_matches_brute_force(self, k):
        # n // SAMPLE_STRIDE is the sample's length: at k equal to it the
        # threshold is the sample's minimum, one past it every row is kept.
        rng = np.random.default_rng(21)
        n, C = self.N, 6
        assert n // SAMPLE_STRIDE == 64
        S = rng.uniform(-1.0, 1.0, size=(n, C))
        ids = rng.permutation(3 * n)[:n].astype(np.uint64)
        self._assert_matches_oracle(S, k, range(C), ids)

    @pytest.mark.parametrize("offset", [0, SAMPLE_STRIDE // 2], ids=["on-stride", "off-stride"])
    def test_winners_placed_on_or_off_the_sample(self, offset):
        # On the stride the k winners are exactly the sample's k best, so the
        # threshold equals the k-th best score and only the winners reach it;
        # off the stride the sample sees none of them.
        rng = np.random.default_rng(26)
        n, C, k = self.N, 4, 16
        S = rng.uniform(-1.0, 0.5, size=(n, C))
        winners = offset + SAMPLE_STRIDE * rng.permutation(n // SAMPLE_STRIDE)[:k]
        S[winners] = rng.uniform(0.6, 1.0, size=(k, C))
        ids = rng.permutation(3 * n)[:n].astype(np.uint64)
        self._assert_matches_oracle(S, k, range(C), ids)
        assert set(topk_per_class(S, k, (0,), ids).example_ids.tolist()) == set(ids[winners].tolist())

    def test_scattered_subset_across_class_blocks(self):
        # TRZSL-style: an unsorted scattered subset, so blocks are gathered.
        rng = np.random.default_rng(22)
        n, C = self.N, CLASS_BLOCK + 6
        S = rng.uniform(-1.0, 1.0, size=(n, C))
        ids = rng.permutation(3 * n)[:n].astype(np.uint64)
        subset = rng.permutation(C)[: CLASS_BLOCK // 2 + 9]
        for k in (1, 16):
            self._assert_matches_oracle(S, k, subset, ids)

    def test_ties_at_the_sampled_threshold(self):
        # Three score levels: a handful of rows at the top, about half the
        # rest at the middle. The sample's k-th best is the middle level,
        # which is also the whole row's k-th best and is shared by far more
        # than k rows, so the tie at the threshold decides by id.
        rng = np.random.default_rng(23)
        n, C, k = self.N, 8, 16
        u = rng.random((n, C))
        S = np.where(u < 0.005, 0.5, np.where(u < 0.5, 0.0, -0.5))
        ids = rng.permutation(3 * n)[:n].astype(np.uint64)
        for c in range(C):
            sample = np.sort(S[::SAMPLE_STRIDE, c])[::-1]
            kth = np.sort(S[:, c])[::-1][k - 1]
            assert sample[k - 1] == kth == 0.0
            assert 0 < np.count_nonzero(S[:, c] > kth) < k < np.count_nonzero(S[:, c] == kth)
        self._assert_matches_oracle(S, k, range(C), ids)

    def test_constant_row_keeps_every_row(self):
        # Every row ties with the threshold, so every row is a candidate and
        # the lowest ids win.
        rng = np.random.default_rng(24)
        n, C = self.N, 3
        S = rng.uniform(-1.0, 1.0, size=(n, C))
        S[:, 1] = 0.25
        ids = rng.permutation(3 * n)[:n].astype(np.uint64)
        for k in (1, 16):
            self._assert_matches_oracle(S, k, range(C), ids)
        pl = topk_per_class(S, 16, (1,), ids)
        assert pl.example_ids.tolist() == np.sort(ids)[:16].tolist()

    @pytest.mark.parametrize("layout", ["row-major", "class-major"])
    @pytest.mark.parametrize(
        "row, k", [(5, 16), (2 * SAMPLE_STRIDE, 1)], ids=["off-stride", "sampled-k1"]
    )
    def test_nan_rejected(self, layout, row, k):
        # Off the stride the sample never sees the NaN, yet it is never below
        # the threshold; on a sampled row with k = 1 the threshold itself is
        # NaN, which keeps every row.
        rng = np.random.default_rng(25)
        n, C = self.N, 4
        S = rng.uniform(-1.0, 1.0, size=(n, C))
        S[row, 2] = np.nan
        arr = self._layouts(S)[layout]
        with pytest.raises(ValueError, match="finite"):
            topk_per_class(arr, k, (0, 2), np.arange(n, dtype=np.uint64))


def _dyadic_rows(rng, n, d, step):
    """Rows near the unit sphere, halved, with entries on a grid of ``step``
    (a power of two). Every product and partial sum of two such rows is a
    multiple of step**2 well inside float64's range, so a dot product is
    exact whatever order a BLAS kernel sums it in."""
    return np.round(_unit_rows(rng, n, d) / (2 * step)) * step


class TestTopkFromFeatures:
    """topk_from_features against the oracle it replaces,
    topk_per_class(similarity_matrix(X, P), ...), bit for bit.

    OpenBLAS does not promise that a block of prototypes yields the same
    bits as those rows of the whole product: on a 2-core Haswell box the
    cells where a pool-row tail meets a class tail moved by an ulp, at odd n
    and at even n alike (n=777 and n=2500 with blocks of 64 classes). So
    the pools here are even, for the sampled-threshold path, and the inputs
    sit on a dyadic grid, where every score is exact in any summation order;
    what is compared is the selection, not the BLAS."""

    N = 128 * SAMPLE_STRIDE

    def _assert_matches_oracle(self, X, P, k, subset, ids):
        want = topk_per_class(similarity_matrix(X, P), k, subset, ids)
        got = topk_from_features(X, P, k, subset, ids)
        for name in ("example_ids", "classes", "scores"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (name, k)
        assert got.k_used == want.k_used == k

    @pytest.mark.parametrize("C", [CLASS_BLOCK, 3 * CLASS_BLOCK + 5], ids=["one-block", "partial-last-block"])
    def test_range_subset_over_class_blocks(self, C):
        rng = np.random.default_rng(31)
        X = _dyadic_rows(rng, self.N, 16, 2.0**-6)
        P = _dyadic_rows(rng, C, 16, 2.0**-6)
        ids = rng.permutation(3 * self.N)[: self.N].astype(np.uint64)
        for k in (1, 16, 200):
            self._assert_matches_oracle(X, P, k, range(C), ids)

    def test_scattered_unsorted_subset_crosses_blocks(self):
        # TRZSL-style: unseen classes in no particular order, more of them
        # than one block holds, so blocks mix classes from the whole range.
        rng = np.random.default_rng(32)
        C = 3 * CLASS_BLOCK + 5
        X = _dyadic_rows(rng, self.N, 16, 2.0**-6)
        P = _dyadic_rows(rng, C, 16, 2.0**-6)
        ids = rng.permutation(3 * self.N)[: self.N].astype(np.uint64)
        subset = rng.permutation(C)[: 2 * CLASS_BLOCK + 7]
        assert not np.all(np.diff(subset) > 0)
        for k in (1, 16):
            self._assert_matches_oracle(X, P, k, subset, ids)
        pl = topk_from_features(X, P, 16, subset, ids)
        assert pl.classes.tolist() == np.repeat(subset, 16).tolist()

    def test_ties_go_to_the_lower_id(self):
        # Entries on a grid of 1/4 over d=8 leave scores on a grid of 1/16,
        # so in most classes the k-th place sits inside a tie.
        rng = np.random.default_rng(33)
        C, k = CLASS_BLOCK + 9, 16
        X = _dyadic_rows(rng, self.N, 8, 0.25)
        P = _dyadic_rows(rng, C, 8, 0.25)
        ids = rng.permutation(3 * self.N)[: self.N].astype(np.uint64)
        S = similarity_matrix(X, P)
        kth = -np.sort(-S, axis=0)[k - 1]
        assert np.count_nonzero(np.count_nonzero(S >= kth, axis=0) > k) > C // 2
        self._assert_matches_oracle(X, P, k, rng.permutation(C), ids)

    @pytest.mark.parametrize("side", ["image", "prototype"])
    def test_nan_rejected(self, side):
        rng = np.random.default_rng(34)
        C = CLASS_BLOCK + 4
        X = _unit_rows(rng, 64, 8)
        P = _unit_rows(rng, C, 8)
        if side == "image":
            X[5, 3] = np.nan
        else:
            P[CLASS_BLOCK + 2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            topk_from_features(X, P, 3, range(C), np.arange(64, dtype=np.uint64))

    def test_nan_prototype_outside_subset_not_read(self):
        rng = np.random.default_rng(35)
        X = _dyadic_rows(rng, 64, 8, 2.0**-6)
        P = _dyadic_rows(rng, 6, 8, 2.0**-6)
        ids = np.arange(64, dtype=np.uint64)
        clean = topk_from_features(X, P, 3, (4, 0, 2), ids)
        P[[1, 3, 5]] = np.nan
        pl = topk_from_features(X, P, 3, (4, 0, 2), ids)
        assert pl.example_ids.tolist() == clean.example_ids.tolist()
        assert pl.scores.tolist() == clean.scores.tolist()

    @pytest.mark.parametrize(
        "k, subset, match",
        [
            (3, (), "class_subset must be non-empty"),
            (3, (0, 6), r"class_subset must lie in \[0, 6\), got 6"),
            (3, (-1,), r"class_subset must lie in \[0, 6\), got -1"),
            (9, (0,), "k=9 exceeds the 8 available unlabeled rows"),
            (0, (0,), "k must be at least 1"),
            (2.0, (0,), r"k must be an integer, got 2\.0"),
            (2.5, (0,), r"k must be an integer, got 2\.5"),
            (True, (0,), "k must be an integer, got True"),
            (3, (0.5, 1.0), "class_subset must be integer indices, got a float64 array"),
        ],
    )
    def test_errors_match_topk_per_class_before_any_scoring(self, monkeypatch, k, subset, match):
        rng = np.random.default_rng(36)
        X, P = _unit_rows(rng, 8, 4), _unit_rows(rng, 6, 4)
        ids = np.arange(8, dtype=np.uint64)
        with pytest.raises(ValueError, match=match):
            topk_per_class(similarity_matrix(X, P), k, subset, ids)

        def no_scoring(*args):
            raise AssertionError("scored before checking its inputs")

        monkeypatch.setattr("plrefine.pseudolabels.similarity_matrix", no_scoring)
        with pytest.raises(ValueError, match=match):
            topk_from_features(X, P, k, subset, ids)

    def test_shape_errors(self):
        rng = np.random.default_rng(37)
        X, P = _unit_rows(rng, 8, 4), _unit_rows(rng, 6, 4)
        with pytest.raises(ValueError, match=r"ids must have shape \(8,\), got \(7,\)"):
            topk_from_features(X, P, 1, (0,), np.arange(7, dtype=np.uint64))
        # Float ids are refused by both selectors, not truncated to other ids.
        with pytest.raises(ValueError, match="ids must be integer indices, got a float64 array"):
            topk_from_features(X, P, 1, (0,), np.arange(8) + 0.5)
        with pytest.raises(ValueError, match="ids must be integer indices, got a float64 array"):
            topk_per_class(similarity_matrix(X, P), 1, (0,), np.arange(8) + 0.5)
        with pytest.raises(ValueError, match=r"prototypes must be a 2-D matrix, got shape \(4,\)"):
            topk_from_features(X, P[0], 1, (0,), np.arange(8, dtype=np.uint64))
        with pytest.raises(ValueError, match=r"images must be a 2-D matrix of 3 columns, got shape \(8, 4\)"):
            topk_from_features(X, P[:, :3], 1, (0,), np.arange(8, dtype=np.uint64))

    def test_holds_one_class_block_of_scores(self):
        # A whole (n, C) score matrix would not fit this bound; one block's
        # (n, CLASS_BLOCK) scores and its candidate mask do.
        rng = np.random.default_rng(38)
        n, C = 20000, 300
        X, P = _unit_rows(rng, n, 16), _unit_rows(rng, C, 16)
        ids = np.arange(n, dtype=np.uint64)
        tracemalloc.start()
        try:
            topk_from_features(X, P, 16, range(C), ids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * C * 8


class TestPseudolabelSet:
    def test_per_class_cap_enforced(self):
        ids = np.array([1, 2, 3], dtype=np.uint64)
        classes = np.array([0, 0, 0], dtype=np.int64)
        scores = np.array([0.5, 0.4, 0.3])
        with pytest.raises(ValueError, match="class 0 holds 3 entries, cap is 2"):
            PseudolabelSet(ids, classes, scores, k_used=2)
        # [0.9, 1.7, 2.2] would count as classes [0, 1, 2] if cast; -1 would wrap to 2**64 - 1.
        with pytest.raises(ValueError, match="classes must be integer indices, got a float64 array"):
            PseudolabelSet(ids, np.array([0.9, 1.7, 2.2]), scores, k_used=2)
        with pytest.raises(ValueError, match="example_ids must be non-negative, got -1"):
            PseudolabelSet(np.array([1, -1, 3]), np.array([0, 1, 2]), scores, k_used=2)
        for bad in (2.0, 2.5, True, -1):
            with pytest.raises(ValueError, match="^k_used must be "):
                PseudolabelSet(ids, np.array([0, 1, 2]), scores, k_used=bad)

    def test_score_range_enforced(self):
        ids = np.array([1], dtype=np.uint64)
        classes = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError, match="cosine"):
            PseudolabelSet(ids, classes, np.array([1.5]), k_used=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scores_rejected(self, bad):
        ids = np.array([1, 2], dtype=np.uint64)
        classes = np.array([0, 1], dtype=np.int64)
        with pytest.raises(ValueError, match="finite"):
            PseudolabelSet(ids, classes, np.array([bad, 0.5]), k_used=1)

    def test_empty_set(self):
        pl = PseudolabelSet(
            np.array([], dtype=np.uint64),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.float64),
            k_used=0,
        )
        assert pl.m == 0


class TestDropDuplicates:
    def test_keeps_best_class_per_id(self):
        ids = np.array([5, 6, 5, 7], dtype=np.uint64)
        classes = np.array([0, 0, 1, 1], dtype=np.int64)
        scores = np.array([0.9, 0.3, 0.6, 0.2])
        pl = PseudolabelSet(ids, classes, scores, k_used=2)
        out = drop_duplicate_assignments(pl)
        assert out.example_ids.tolist() == [5, 6, 7]
        assert out.classes.tolist() == [0, 0, 1]
        assert out.k_used == 2

    def test_score_tie_prefers_lower_class(self):
        ids = np.array([5, 5], dtype=np.uint64)
        classes = np.array([3, 1], dtype=np.int64)
        scores = np.array([0.4, 0.4])
        out = drop_duplicate_assignments(PseudolabelSet(ids, classes, scores, k_used=1))
        assert out.classes.tolist() == [1]

    def test_matches_loop_reference(self):
        # The per-entry loop the vectorized version replaced: best
        # (-score, class) key per id, the earlier entry winning exact repeats,
        # kept entries in their original order.
        def reference(pl):
            best = {}
            for i in range(pl.m):
                key = (-float(pl.scores[i]), int(pl.classes[i]))
                eid = int(pl.example_ids[i])
                if eid not in best or key < best[eid][0]:
                    best[eid] = (key, i)
            return sorted(i for _, i in best.values())

        rng = np.random.default_rng(10)
        for _ in range(100):
            m = int(rng.integers(0, 60))
            ids = rng.integers(0, m // 2 + 1, size=m).astype(np.uint64)
            classes = rng.integers(0, 5, size=m)
            scores = np.round(rng.uniform(-1.0, 1.0, size=m), 1)
            k = int(np.bincount(classes).max()) if m else 0
            pl = PseudolabelSet(ids, classes, scores, k_used=k)
            out = drop_duplicate_assignments(pl)
            keep = reference(pl)
            assert out.example_ids.tobytes() == pl.example_ids[keep].tobytes()
            assert out.classes.tobytes() == pl.classes[keep].tobytes()
            assert out.scores.tobytes() == pl.scores[keep].tobytes()

    def test_no_duplicates_is_identity(self):
        rng = np.random.default_rng(5)
        S = rng.uniform(-1.0, 1.0, size=(12, 3))
        pl = topk_per_class(S, 2, (0, 1, 2), np.arange(12, dtype=np.uint64))
        seen = set(pl.example_ids.tolist())
        if len(seen) == pl.m:
            out = drop_duplicate_assignments(pl)
            assert np.array_equal(out.example_ids, pl.example_ids)
            assert np.array_equal(out.classes, pl.classes)


def _truth(ids, labels):
    """Ground truth as an EmbeddingSet holding ``ids`` with classes ``labels``."""
    n = len(ids)
    return EmbeddingSet(np.eye(n), np.asarray(labels, dtype=np.int64), np.asarray(ids, dtype=np.uint64))


class TestPseudolabelAccuracy:
    def test_fraction_correct(self):
        ids = np.array([1, 2, 3, 4], dtype=np.uint64)
        classes = np.array([0, 0, 1, 1], dtype=np.int64)
        scores = np.zeros(4)
        pl = PseudolabelSet(ids, classes, scores, k_used=2)
        truth = _truth([1, 2, 3, 4], [0, 1, 1, 0])
        assert pseudolabel_accuracy(pl, truth) == 0.5

    def test_empty_set_rejected(self):
        pl = PseudolabelSet(
            np.array([], dtype=np.uint64),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.float64),
            k_used=0,
        )
        with pytest.raises(ValueError, match="empty pseudolabel set"):
            pseudolabel_accuracy(pl, _truth([7], [0]))

    def test_unknown_id_rejected(self):
        pl = PseudolabelSet(
            np.array([8], dtype=np.uint64),
            np.array([0], dtype=np.int64),
            np.array([0.1]),
            k_used=1,
        )
        with pytest.raises(KeyError, match="no ground-truth label for example id 8"):
            pseudolabel_accuracy(pl, _truth([7], [0]))

    def test_first_missing_id_named(self):
        """Unknown ids and ids held as unlabeled both count as missing; the
        first one in the pseudolabel order is named."""
        truth = _truth([30, 10, 20, 40], [0, UNLABELED, 1, 2])
        for ids, first in (([30, 99, 10], 99), ([20, 10, 99], 10), ([5, 40], 5)):
            pl = PseudolabelSet(
                np.array(ids, dtype=np.uint64),
                np.arange(len(ids), dtype=np.int64),
                np.zeros(len(ids)),
                k_used=1,
            )
            with pytest.raises(KeyError, match=rf"no ground-truth label for example id {first}\b"):
                pseudolabel_accuracy(pl, truth)

    def test_matches_dict_reference(self):
        """Same float as counting matches through an id -> class dict, on
        shuffled ids and a set that repeats ids across classes."""
        rng = np.random.default_rng(41)
        n, C = 300, 7
        ids = rng.permutation(10 * n)[:n].astype(np.uint64)
        labels = rng.integers(0, C, size=n)
        truth = EmbeddingSet(np.eye(n), labels, ids)
        pl = topk_per_class(rng.uniform(-1.0, 1.0, size=(n, C)), 40, range(C), ids)
        lookup = {int(i): int(c) for i, c in zip(ids, labels)}
        correct = sum(lookup[int(i)] == int(c) for i, c in zip(pl.example_ids, pl.classes))
        assert pseudolabel_accuracy(pl, truth) == correct / pl.m

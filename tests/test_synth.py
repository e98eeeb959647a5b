"""Synthetic task generator tests: shapes, determinism, and the accuracy
knobs (sigma, delta) behaving as documented."""

import tracemalloc

import numpy as np
import pytest

from plrefine import synth
from plrefine.core import unit_normalize
from plrefine.metrics import zero_shot_report
from plrefine.synth import SyntheticSpec, synth_generate


class TestSyntheticSpec:
    def test_defaults(self):
        spec = SyntheticSpec()
        assert (spec.C, spec.d) == (10, 32)
        assert (spec.labeled_per_class, spec.unlabeled_per_class) == (2, 100)
        assert (spec.sigma, spec.delta, spec.seed) == (0.6, 0.6, 0)

    def test_validation(self):
        with pytest.raises(ValueError, match="C must be at least 2, got 1"):
            SyntheticSpec(C=1)
        with pytest.raises(ValueError, match="d must be at least 2, got 1"):
            SyntheticSpec(d=1)
        with pytest.raises(ValueError, match="non-negative"):
            SyntheticSpec(labeled_per_class=-1)
        with pytest.raises(ValueError, match="at least one train example"):
            SyntheticSpec(labeled_per_class=0, unlabeled_per_class=0)
        for scales in ({"sigma": -0.1}, {"sigma": np.nan}, {"delta": np.nan}, {"sigma": np.inf}):
            with pytest.raises(ValueError, match=f"{next(iter(scales))} must be"):
                SyntheticSpec(**scales)
        for name in ("sigma", "delta"):
            for bad in (True, "0.1", np.nan, np.inf, -0.1):
                with pytest.raises(ValueError, match=f"^{name} must be "):
                    SyntheticSpec(**{name: bad})
        # sigma=True used to draw noise at scale 1.0.
        with pytest.raises(ValueError, match="sigma must be a number, got True"):
            SyntheticSpec(sigma=True)
        with pytest.raises(ValueError, match="seed"):
            SyntheticSpec(seed=-1)
        fields = (("C", 2), ("d", 2), ("labeled_per_class", 0), ("unlabeled_per_class", 0), ("seed", 0))
        for name, lo in fields:
            for bad in (2.0, 2.5, True, lo - 1):
                with pytest.raises(ValueError, match=f"^{name} must be "):
                    SyntheticSpec(**{name: bad})

    def test_to_dict_round_trip(self):
        spec = SyntheticSpec(C=4, d=8, seed=3)
        assert SyntheticSpec(**spec.to_dict()) == spec


class TestSynthGenerate:
    def test_shapes_and_ids(self):
        spec = SyntheticSpec(C=4, d=8, labeled_per_class=2, unlabeled_per_class=10, seed=0)
        task = synth_generate(spec)
        per = 12
        assert task.train.n == 4 * per
        assert task.train.d == 8
        # Test split is 25% of the train split per class, rounded half-up.
        assert task.test.n == 4 * 3
        assert task.space.C == 4
        # Ids are sequential, test continuing after train.
        assert task.train.ids.tolist() == list(range(48))
        assert task.test.ids.tolist() == list(range(48, 60))

    def test_test_split_rounding(self):
        # 25% of 2 rounds to 1; 25% of 6 rounds to 2 (1.5 rounds half-up).
        t = synth_generate(SyntheticSpec(C=2, d=4, labeled_per_class=1, unlabeled_per_class=1))
        assert t.test.n == 2
        t = synth_generate(SyntheticSpec(C=2, d=4, labeled_per_class=2, unlabeled_per_class=4))
        assert t.test.n == 2 * 2

    def test_every_row_labeled_and_unit(self):
        task = synth_generate(SyntheticSpec(C=3, d=8, labeled_per_class=2, unlabeled_per_class=5))
        for part in (task.train, task.test):
            assert np.all(part.labels >= 0)
            assert np.allclose(np.linalg.norm(part.features, axis=1), 1.0, atol=1e-9)
        assert np.allclose(np.linalg.norm(task.space.base_prototypes, axis=1), 1.0, atol=1e-9)

    def test_labels_balanced(self):
        spec = SyntheticSpec(C=5, d=8, labeled_per_class=1, unlabeled_per_class=7)
        task = synth_generate(spec)
        assert np.bincount(task.train.labels).tolist() == [8] * 5
        assert np.bincount(task.test.labels).tolist() == [2] * 5

    def test_partition_and_names(self):
        task = synth_generate(SyntheticSpec(C=7, d=8, unlabeled_per_class=3))
        seen, unseen = task.space.partition
        assert len(seen) == 4  # floor(0.62 * 7)
        assert sorted(seen + unseen) == list(range(7))
        assert task.space.class_names == tuple(f"class_{c:03d}" for c in range(7))

    def test_deterministic_per_seed(self):
        a = synth_generate(SyntheticSpec(seed=5, C=3, d=8, unlabeled_per_class=4))
        b = synth_generate(SyntheticSpec(seed=5, C=3, d=8, unlabeled_per_class=4))
        c = synth_generate(SyntheticSpec(seed=6, C=3, d=8, unlabeled_per_class=4))
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.features, b.test.features)
        assert np.array_equal(a.space.base_prototypes, b.space.base_prototypes)
        assert not np.array_equal(a.train.features, c.train.features)

    def test_clusters_have_the_bits_of_normalized_direction_plus_noise(self):
        C, d, per_class, sigma = 6, 40, 9, 0.7
        mu = unit_normalize(np.random.default_rng(0).standard_normal((C, d)))
        got = synth._cluster(np.random.default_rng(1), mu, per_class, sigma)
        noise = np.random.default_rng(1).standard_normal((C, per_class, d))
        want = unit_normalize(mu[:, None, :] + synth._noise_scale(sigma, d) * noise)
        assert got.shape == (C, per_class, d)
        assert got.tobytes() == want.tobytes()

    def test_generation_holds_one_copy_of_the_features(self):
        # Scaling, shifting and normalizing the noise into new arrays would
        # hold about 2.5x the generated features at once.
        spec = SyntheticSpec(C=20, d=256, labeled_per_class=0, unlabeled_per_class=250)
        tracemalloc.start()
        try:
            task = synth_generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (task.train.features.nbytes + task.test.features.nbytes)

    def test_noiseless_task_is_perfect(self):
        """sigma = delta = 0: prototypes sit on the class directions."""
        task = synth_generate(SyntheticSpec(C=5, d=16, sigma=0.0, delta=0.0, unlabeled_per_class=10))
        assert zero_shot_report(task.test, task.space).overall == 1.0

    def test_heavy_noise_breaks_zero_shot(self):
        """Large sigma and delta push accuracy toward chance level."""
        clean = synth_generate(SyntheticSpec(seed=0))
        noisy = synth_generate(SyntheticSpec(sigma=5.0, delta=5.0, seed=0))
        acc_clean = zero_shot_report(clean.test, clean.space).overall
        acc_noisy = zero_shot_report(noisy.test, noisy.space).overall
        assert acc_noisy < acc_clean
        assert acc_noisy < 0.35

    def test_default_task_sits_in_refinable_band(self, calibration):
        """The pinned task's zero-shot accuracy is well above chance and well
        below ceiling, so refinement has both a base and headroom."""
        task = synth_generate(SyntheticSpec(**calibration["synthetic"]))
        acc = zero_shot_report(task.test, task.space).overall
        assert acc == calibration["values"]["zero_shot"]
        assert 0.35 < acc < 0.85

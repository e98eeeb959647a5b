"""Strategy engine tests: paradigm wiring, the GRIP quota schedule, and the
FPL / IFPL / GRIP refinement loops on small synthetic tasks.

grip_k is checked against exact rational arithmetic; the iterative loops are
checked for bit-level reinitialization semantics (FPL is literally the first
IFPL iteration, and every iteration restarts from a fresh seeded prompt).
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from plrefine.core import ParadigmConfig, UNLABELED
from plrefine.pseudolabels import effective_k, topk_per_class
from plrefine.strategies import (
    DEFAULT_PEAK_LR,
    DEFAULT_PROMPT_LEN,
    StrategyConfig,
    default_schedule,
    grip_k,
    run_strategy,
    wire_paradigm,
)
from plrefine.surrogate import init_prompt
from plrefine.synth import SyntheticSpec, synth_generate
from plrefine.training import TrainSchedule


def _fast(strategy, paradigm, **kw):
    """StrategyConfig with a short schedule for loop tests."""
    schedule = kw.pop("schedule", TrainSchedule(epochs=6, warmup_epochs=1, batch_size=32))
    return StrategyConfig(
        strategy=strategy,
        paradigm=ParadigmConfig(paradigm) if isinstance(paradigm, str) else paradigm,
        schedule=schedule,
        temperature=10.0,
        I=kw.pop("I", 3),
        **kw,
    )


class TestGripK:
    def test_matches_rational_floor_on_grid(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            I = int(rng.integers(1, 12))
            i = int(rng.integers(1, I + 1))
            C = int(rng.integers(1, 40))
            n = int(rng.integers(1, 5000))
            exact = Fraction(i * n, I) / C
            expected = exact.numerator // exact.denominator
            assert grip_k(i, I, n, C) == max(1, expected)
            if expected >= 1:
                assert grip_k(i, I, n, C) == expected

    def test_final_iteration_covers_pool(self):
        """k_used * C reaches within one class worth of the full pool."""
        rng = np.random.default_rng(1)
        for trial in range(200):
            I = int(rng.integers(1, 12))
            C = int(rng.integers(1, 40))
            n = int(rng.integers(1, 5000))
            k = grip_k(I, I, n, C)
            assert k * C >= n - C

    def test_monotone_in_iteration(self):
        for i in range(1, 11):
            assert grip_k(i, 10, 1000, 10) == i * 10
        ks = [grip_k(i, 7, 331, 9) for i in range(1, 8)]
        assert all(a <= b for a, b in zip(ks, ks[1:]))

    def test_range_errors(self):
        with pytest.raises(ValueError, match=r"iteration 0 outside \[1, 5\]"):
            grip_k(0, 5, 100, 10)
        with pytest.raises(ValueError, match="outside"):
            grip_k(6, 5, 100, 10)
        with pytest.raises(ValueError, match="positive"):
            grip_k(1, 5, 0, 10)


class TestDefaults:
    def test_prompt_lengths(self):
        assert DEFAULT_PROMPT_LEN == {"textual": 16, "visual": 16, "multimodal": 8}

    def test_schedule_peak_lr_per_modality(self):
        assert default_schedule("textual").peak_lr == 0.1
        assert default_schedule("multimodal").peak_lr == DEFAULT_PEAK_LR["multimodal"] == 0.01
        assert default_schedule("textual", epochs=20).epochs == 20

    def test_strategy_config_resolution(self):
        cfg = _fast("IFPL", "UL")
        assert cfg.resolved_prompt_len() == 16
        assert cfg.resolved_schedule().epochs == 6
        bare = StrategyConfig("IFPL", ParadigmConfig("UL"), modality="multimodal")
        assert bare.resolved_prompt_len() == 8
        assert bare.resolved_schedule().peak_lr == 0.01

    def test_strategy_config_validation(self):
        with pytest.raises(ValueError, match="unknown strategy 'BOOST'"):
            StrategyConfig("BOOST", ParadigmConfig("UL"))
        with pytest.raises(ValueError, match="unknown modality"):
            StrategyConfig("FPL", ParadigmConfig("UL"), modality="haptic")
        with pytest.raises(ValueError, match="K must be"):
            StrategyConfig("FPL", ParadigmConfig("UL"), K=0)
        with pytest.raises(ValueError, match="I must be"):
            StrategyConfig("FPL", ParadigmConfig("UL"), I=0)


class TestWireParadigm:
    def test_ssl_split(self, small_task):
        split = wire_paradigm(ParadigmConfig("SSL", shots_per_class=2), small_task.train, small_task.space, seed=0)
        C = small_task.space.C
        assert split.labeled.n == 2 * C
        assert split.pool_rows.size == small_task.train.n - 2 * C
        assert set(split.labeled.rows).isdisjoint(split.pool_rows)
        assert split.pseudolabel_classes == tuple(range(C))

    def test_ul_split(self, small_task):
        split = wire_paradigm(ParadigmConfig("UL"), small_task.train, small_task.space, seed=0)
        assert split.labeled.n == 0
        assert np.array_equal(split.pool_rows, np.arange(small_task.train.n))

    def test_trzsl_split(self, small_task):
        split = wire_paradigm(ParadigmConfig("TRZSL"), small_task.train, small_task.space, seed=0)
        seen, unseen = small_task.space.partition
        labels = small_task.train.labels
        assert np.all(np.isin(labels[split.labeled.rows], seen))
        assert np.all(np.isin(labels[split.pool_rows], unseen))
        assert split.labeled.n + split.pool_rows.size == small_task.train.n
        assert split.pseudolabel_classes == tuple(unseen)

    def test_trzsl_needs_partition(self, small_task):
        from plrefine.core import ClassSpace
        space = ClassSpace(small_task.space.class_names, small_task.space.base_prototypes)
        with pytest.raises(ValueError, match="TRZSL requires a partitioned class space"):
            wire_paradigm(ParadigmConfig("TRZSL"), small_task.train, space, seed=0)

    def test_sl_split(self, small_task):
        split = wire_paradigm(ParadigmConfig("SL", shots_per_class=3), small_task.train, small_task.space, seed=0)
        assert split.labeled.n == 3 * small_task.space.C
        assert split.pool_rows.size == 0
        assert split.pseudolabel_classes == ()

    def test_sl_all_labeled_when_shots_zero(self, small_task):
        split = wire_paradigm(ParadigmConfig("SL", shots_per_class=0), small_task.train, small_task.space, seed=0)
        assert split.labeled.n == small_task.train.n


@pytest.fixture(scope="module")
def loop_task():
    """Slightly larger task so refinement has signal to work with."""
    return synth_generate(SyntheticSpec(C=6, d=24, labeled_per_class=2,
                                        unlabeled_per_class=30, seed=1))


class TestRefinementLoops:
    def test_fpl_is_first_ifpl_iteration(self, loop_task):
        """Same seed, I=1: both runs are bit-identical end to end."""
        fpl = run_strategy(_fast("FPL", "UL", seed=4), loop_task)
        ifpl = run_strategy(_fast("IFPL", "UL", seed=4, I=1), loop_task)
        assert np.array_equal(fpl.final_model.text_ctx, ifpl.final_model.text_ctx)
        assert fpl.final_report == ifpl.final_report
        assert len(fpl.records) == len(ifpl.records) == 1
        assert fpl.records[0].to_dict() == ifpl.records[0].to_dict()

    def test_fpl_ignores_configured_iterations(self, loop_task):
        a = run_strategy(_fast("FPL", "UL", I=1), loop_task)
        b = run_strategy(_fast("FPL", "UL", I=9), loop_task)
        assert np.array_equal(a.final_model.text_ctx, b.final_model.text_ctx)

    def test_iteration_starts_are_fresh_seeded_prompts(self, loop_task):
        """With zero training epochs the engine's per-iteration models are
        exactly the reseeded prompts: iteration i starts at seed XOR i."""
        cfg = _fast("IFPL", "UL", seed=5, I=3,
                    schedule=TrainSchedule(epochs=0))
        result = run_strategy(cfg, loop_task)
        fresh = init_prompt("textual", cfg.resolved_prompt_len(),
                            loop_task.space.d, seed=5 ^ 3,
                            temperature=cfg.temperature)
        assert np.array_equal(result.final_model.text_ctx, fresh.text_ctx)
        base = init_prompt("textual", cfg.resolved_prompt_len(),
                           loop_task.space.d, seed=5, temperature=cfg.temperature)
        assert np.array_equal(result.final_model.text_mix, base.text_mix)

    def test_record_schema_and_quota_growth(self, loop_task):
        cfg = _fast("GRIP", "UL", seed=0, I=3)
        result = run_strategy(cfg, loop_task)
        n = loop_task.train.n
        C = loop_task.space.C
        assert [r.iteration for r in result.records] == [1, 2, 3]
        for r in result.records:
            assert r.k_used == grip_k(r.iteration, 3, n, C)
            assert r.n_pseudo == r.k_used * C
            assert 0.0 <= r.pseudolabel_accuracy <= 1.0
            assert 0.0 <= r.test_accuracy <= 1.0
            assert r.seen_accuracy is None and r.unseen_accuracy is None
        assert result.final_report.overall == result.records[-1].test_accuracy
        assert result.strategy == "GRIP"
        assert result.paradigm == "UL"

    def test_ifpl_uses_fixed_quota(self, loop_task):
        cfg = _fast("IFPL", "UL", K=7, I=3)
        result = run_strategy(cfg, loop_task)
        expected = effective_k(7, loop_task.train.n, loop_task.space.C)
        assert all(r.k_used == expected for r in result.records)

    def test_first_iteration_pseudolabels_match_fpl(self, loop_task):
        """Both strategies pseudolabel iteration 1 with the base prototypes."""
        split = wire_paradigm(ParadigmConfig("UL"), loop_task.train, loop_task.space, seed=2)
        S = loop_task.train.features @ loop_task.space.base_prototypes.T
        k = effective_k(16, loop_task.train.n, loop_task.space.C)
        direct = topk_per_class(S, k, range(loop_task.space.C), loop_task.train.ids)
        fpl = run_strategy(_fast("FPL", "UL", seed=2), loop_task)
        assert fpl.records[0].n_pseudo == direct.m
        assert fpl.records[0].k_used == direct.k_used

    def test_trzsl_run_reports_partition_metrics(self, loop_task):
        cfg = _fast("FPL", "TRZSL", seed=0)
        result = run_strategy(cfg, loop_task)
        rec = result.records[0]
        assert rec.seen_accuracy is not None
        assert rec.unseen_accuracy is not None
        assert result.final_report.harmonic is not None
        # Pseudolabels live on unseen classes only.
        unseen = loop_task.space.partition[1]
        assert rec.n_pseudo == rec.k_used * len(unseen)

    def test_ssl_weights_follow_pool_sizes(self, loop_task):
        result = run_strategy(_fast("FPL", "SSL", seed=0), loop_task)
        assert result.records[0].n_pseudo > 0

    def test_sl_paradigm_rejected_by_loops(self, loop_task):
        with pytest.raises(ValueError, match="FPL requires unlabeled data"):
            run_strategy(_fast("FPL", "SL"), loop_task)

    def test_dedup_prevents_repeated_ids(self, loop_task):
        cfg = _fast("FPL", "UL", dedup_pseudolabels=True, K=40)
        result = run_strategy(cfg, loop_task)
        assert result.records[0].n_pseudo <= effective_k(40, loop_task.train.n, 6) * 6

    def test_explicit_weight_override_changes_run(self, loop_task):
        base = _fast("FPL", ParadigmConfig("UL"), seed=1)
        heavy = _fast("FPL", ParadigmConfig("UL", gamma=0.0, lam=7.0), seed=1)
        a = run_strategy(base, loop_task)
        b = run_strategy(heavy, loop_task)
        assert not np.array_equal(a.final_model.text_ctx, b.final_model.text_ctx)

    def test_run_strategy_dispatch(self, loop_task):
        """Each strategy runs its plan: FPL one iteration, IFPL and GRIP I,
        with the fixed quota for FPL/IFPL and the growing one for GRIP."""
        n, C = loop_task.train.n, loop_task.space.C
        for strategy in ("FPL", "IFPL", "GRIP"):
            result = run_strategy(_fast(strategy, "UL", seed=3, I=3), loop_task)
            assert result.strategy == strategy
            iterations = 1 if strategy == "FPL" else 3
            assert [r.iteration for r in result.records] == list(range(1, iterations + 1))
            for r in result.records:
                expected = grip_k(r.iteration, 3, n, C) if strategy == "GRIP" else effective_k(16, n, C)
                assert r.k_used == expected

    def test_runs_are_deterministic(self, loop_task):
        cfg = _fast("GRIP", "UL", seed=9, I=2)
        a = run_strategy(cfg, loop_task)
        b = run_strategy(cfg, loop_task)
        assert np.array_equal(a.final_model.text_ctx, b.final_model.text_ctx)
        assert [r.to_dict() for r in a.records] == [r.to_dict() for r in b.records]


@pytest.fixture(scope="module")
def pinned(calibration):
    task = synth_generate(SyntheticSpec(**calibration["synthetic"]))
    strat = calibration["strategy"]
    schedule = default_schedule(strat["modality"], epochs=strat["epochs"])
    cfg = StrategyConfig(
        strategy="FPL",
        paradigm=ParadigmConfig(strat["paradigm"]),
        K=strat["K"],
        I=strat["I"],
        seed=strat["seed"],
        modality=strat["modality"],
        temperature=strat["temperature"],
        schedule=schedule,
    )
    return task, cfg


class TestCalibratedImprovement:
    """End-to-end behavior on the pinned task, at the pinned settings."""

    def test_fpl_beats_zero_shot(self, pinned, calibration):
        from plrefine.metrics import zero_shot_report
        task, cfg = pinned
        zs = zero_shot_report(task.test, task.space)
        result = run_strategy(cfg, task)
        assert result.final_report.overall > zs.overall
        assert abs(zs.overall - calibration["values"]["zero_shot"]) < 1e-9

    def test_grip_at_least_fpl(self, pinned):
        task, cfg = pinned
        fpl = run_strategy(cfg, task)
        grip = run_strategy(replace(cfg, strategy="GRIP"), task)
        assert grip.final_report.overall >= fpl.final_report.overall
        # Pseudolabel quality improves as the quota grows and the model
        # refines; the last GRIP iteration should not be worse than the first.
        accs = [r.pseudolabel_accuracy for r in grip.records]
        assert accs[-1] >= accs[0] - 0.05

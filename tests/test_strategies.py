"""Strategy engine tests: paradigm wiring, the GRIP quota schedule, and the
FPL / IFPL / GRIP refinement loops on small synthetic tasks.

grip_k is checked against exact rational arithmetic; the iterative loops are
checked for bit-level reinitialization semantics (FPL is literally the first
IFPL iteration, and every iteration restarts from a fresh seeded prompt).
"""

import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from plrefine.core import LabeledSubset, NORM_BLOCK_ROWS, ParadigmConfig, UNLABELED, paradigm_weights
from plrefine import strategies
from plrefine.pseudolabels import PseudolabelSet, effective_k, similarity_matrix, topk_from_features, topk_per_class
from plrefine.strategies import (
    DEFAULT_PEAK_LR,
    DEFAULT_PROMPT_LEN,
    ParadigmSplit,
    StrategyConfig,
    default_schedule,
    grip_k,
    run_rounds,
    run_strategy,
    select_round,
    wire_paradigm,
)
from plrefine.surrogate import class_prototypes, image_features, init_prompt
from plrefine.synth import SyntheticSpec, synth_generate
from plrefine.training import TrainSchedule, train


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


def _record_train_weights(monkeypatch) -> list:
    """Wrap strategies.train so each call appends (|labeled|, |pseudolabels|,
    weights) to the returned list."""
    calls = []

    def recording(head, data, space, labeled, pl, weights, *args, **kw):
        calls.append((labeled.n, pl.m, weights))
        return train(head, data, space, labeled, pl, weights, *args, **kw)

    monkeypatch.setattr(strategies, "train", recording)
    return calls


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

    def test_schedule_unknown_modality(self):
        """The config's own error, not a bare KeyError from the peak-lr table."""
        message = r"unknown modality 'sonic'; expected one of \('textual', 'visual', 'multimodal'\)"
        with pytest.raises(ValueError, match=message):
            default_schedule("sonic")
        with pytest.raises(ValueError, match=message):
            default_schedule("sonic", peak_lr=0.5)

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
        # A list used to raise a bare TypeError from the plan dict's lookup.
        with pytest.raises(ValueError, match=r"unknown strategy \['FPL'\]; expected one of \("):
            StrategyConfig(["FPL"], ParadigmConfig("UL"))
        with pytest.raises(ValueError, match="unknown modality"):
            StrategyConfig("FPL", ParadigmConfig("UL"), modality="haptic")
        with pytest.raises(ValueError, match="K must be"):
            StrategyConfig("FPL", ParadigmConfig("UL"), K=0)
        with pytest.raises(ValueError, match="I must be"):
            StrategyConfig("FPL", ParadigmConfig("UL"), I=0)
        with pytest.raises(ValueError, match="prompt_len must be at least 1, got 0"):
            StrategyConfig("FPL", ParadigmConfig("UL"), prompt_len=0)
        for temperature in (0.0, -5.0, float("nan")):
            with pytest.raises(ValueError, match="temperature must be positive, got"):
                StrategyConfig("FPL", ParadigmConfig("UL"), temperature=temperature)
        for scale in (-0.02, float("nan")):
            with pytest.raises(ValueError, match="init_scale must be non-negative, got"):
                StrategyConfig("FPL", ParadigmConfig("UL"), init_scale=scale)
        for name, below in (("temperature", 0.0), ("init_scale", -0.02)):
            for bad in (True, "0.1", float("nan"), float("inf"), below):
                with pytest.raises(ValueError, match=f"^{name} must be "):
                    StrategyConfig("FPL", ParadigmConfig("UL"), **{name: bad})
        # temperature=inf used to run until the first training step overflowed,
        # init_scale=inf to draw a ctx of +-inf, temperature=True to train at
        # 1.0, and temperature="10" to fail with a TypeError naming nothing.
        for name, bad, message in (
            ("temperature", float("inf"), "temperature must be finite and positive, got inf"),
            ("init_scale", float("inf"), "init_scale must be finite and non-negative, got inf"),
            ("temperature", True, "temperature must be a number, got True"),
            ("temperature", "10", "temperature must be a number, got '10'"),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                StrategyConfig("FPL", ParadigmConfig("UL"), **{name: bad})
        assert StrategyConfig("FPL", ParadigmConfig("UL"), temperature=np.float32(10.0)).temperature == 10.0
        for name, lo in (("K", 1), ("I", 1), ("prompt_len", 1), ("seed", 0)):
            for bad in (2.0, 2.5, True, lo - 1):
                with pytest.raises(ValueError, match=f"^{name} must be "):
                    StrategyConfig("FPL", ParadigmConfig("UL"), **{name: bad})
        # K=2.5 used to train with a quota of 2, and K=True with 1.
        with pytest.raises(ValueError, match=re.escape("K must be an integer, got 2.5")):
            StrategyConfig("FPL", ParadigmConfig("UL"), K=2.5)
        with pytest.raises(ValueError, match="K must be an integer, got True"):
            StrategyConfig("FPL", ParadigmConfig("UL"), K=True)

    def test_numpy_integer_settings_run_as_python_ints(self, small_task):
        """A numpy integer is an integer: the run and its records are the
        ones of the same Python int."""
        wide = run_strategy(_fast("IFPL", "SSL", K=np.int64(3), I=np.int32(2), seed=np.uint8(4)), small_task)
        plain = run_strategy(_fast("IFPL", "SSL", K=3, I=2, seed=4), small_task)
        assert [r.to_dict() for r in wide.records] == [r.to_dict() for r in plain.records]
        assert all(type(r.k_used) is int for r in wide.records)

    @pytest.mark.parametrize("modality", ["textual", "visual", "multimodal"])
    def test_base_prompt_is_the_zero_shot_head(self, small_task, modality):
        """ctx = 0 on every route, so the base prompt scores exactly as the
        base prototypes do; its mixers are the seed's, as init_prompt draws them."""
        cfg = _fast("GRIP", "UL", seed=6, modality=modality)
        space, X = small_task.space, small_task.train.features
        base = cfg.base_prompt(space.d)
        assert image_features(base, X).tobytes() == X.tobytes()
        assert class_prototypes(base, space).tobytes() == space.base_prototypes.tobytes()
        assert all(not ctx.any() for ctx in base.learnable().values())
        drawn = init_prompt(modality, cfg.resolved_prompt_len(), space.d, seed=6, temperature=cfg.temperature)
        for mix in ("text_mix", "vis_mix"):
            assert np.array_equal(getattr(base, mix), getattr(drawn, mix))

    def test_init_spread_checked_at_construction(self):
        with pytest.raises(ValueError, match="init_spread must be 'std' or 'variance'"):
            StrategyConfig("FPL", ParadigmConfig("UL"), init_spread="sigma")

    def test_ssl_without_shots_rejected_at_construction(self):
        with pytest.raises(ValueError, match="SSL needs at least one labeled shot per class"):
            ParadigmConfig("SSL", shots_per_class=0)


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

    def test_pool_rows_refuse_floats_and_negatives(self):
        """[0.5, 1.7] used to become rows [0, 1], and row -1 pooled the last
        row of the train set."""
        empty = LabeledSubset(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="pool_rows must be integer indices, got a float64 array"):
            ParadigmSplit(empty, np.array([0.5, 1.7]), (0,))
        with pytest.raises(ValueError, match="pool_rows must be non-negative, got -1"):
            ParadigmSplit(empty, np.array([-1, 3]), (0,))
        split = ParadigmSplit(empty, [2, 0], (0,))
        assert split.pool_rows.dtype == np.int64 and not split.pool_rows.flags.writeable

    def test_trzsl_needs_partition(self, small_task):
        from plrefine.core import ClassSpace
        space = ClassSpace(small_task.space.class_names, small_task.space.base_prototypes)
        with pytest.raises(ValueError, match="TRZSL requires a partitioned class space"):
            wire_paradigm(ParadigmConfig("TRZSL"), small_task.train, space, seed=0)

    def test_empty_pool_refused(self):
        """Two shots of two rows per class leave SSL nothing to pseudolabel;
        wiring refuses that split, so a run never starts on it."""
        task = synth_generate(SyntheticSpec(C=3, d=4, labeled_per_class=2, unlabeled_per_class=0))
        with pytest.raises(ValueError, match="^its unlabeled pool is empty$"):
            wire_paradigm(ParadigmConfig("SSL", shots_per_class=2), task.train, task.space, seed=0)
        with pytest.raises(ValueError, match="^its unlabeled pool is empty$"):
            run_strategy(_fast("FPL", "SSL"), task)


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

    @pytest.mark.parametrize("modality", ["textual", "multimodal"])
    def test_fpl_is_round_one_of_any_ifpl_run(self, loop_task, monkeypatch, modality):
        """An IFPL run's round 1 is, bit for bit, the FPL run under the same
        settings: its first record, its first report and the head its first
        round trains, whose ctx bytes the records cannot show."""
        trained = []

        def recording(head, *args, **kw):
            model, losses = train(head, *args, **kw)
            trained.append(model)
            return model, losses

        monkeypatch.setattr(strategies, "train", recording)
        ifpl = run_strategy(_fast("IFPL", "UL", seed=1, modality=modality), loop_task)
        round_one = trained[0]
        fpl = run_strategy(_fast("FPL", "UL", seed=1, modality=modality), loop_task)
        assert len(trained) == 4 and len(ifpl.reports) == 3 and ifpl.final_report is ifpl.reports[-1]
        assert [r.to_dict() for r in ifpl.records[:1]] == [r.to_dict() for r in fpl.records]
        assert ifpl.reports[0].to_dict() == fpl.final_report.to_dict()
        ctx, ctx_fpl = round_one.learnable(), fpl.final_model.learnable()
        assert list(ctx) == list(ctx_fpl)
        assert all(ctx[name].tobytes() == ctx_fpl[name].tobytes() for name in ctx)

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

    @pytest.mark.parametrize("modality", ["textual", "visual", "multimodal"])
    def test_first_iteration_selects_with_zero_shot_scores(self, loop_task, monkeypatch, modality):
        """Iteration 1's pseudolabels are those of the base prototypes' cosine
        scores, entry for entry, whatever side the prompt trains."""
        selected = []
        original = strategies.topk_from_features

        def recording(*args):
            selected.append(original(*args))
            return selected[-1]

        monkeypatch.setattr(strategies, "topk_from_features", recording)
        cfg = _fast("GRIP", "SSL", seed=2, I=2, modality=modality)
        run_strategy(cfg, loop_task)
        train, space = loop_task.train, loop_task.space
        split = wire_paradigm(cfg.paradigm, train, space, cfg.seed)
        S = similarity_matrix(train.features[split.pool_rows], space.base_prototypes)
        k = grip_k(1, cfg.I, split.pool_rows.size, space.C)
        direct = topk_per_class(S, k, range(space.C), train.ids[split.pool_rows])
        assert len(selected) == 2
        first = selected[0]
        assert np.array_equal(first.example_ids, direct.example_ids)
        assert np.array_equal(first.classes, direct.classes)
        assert first.scores.tobytes() == direct.scores.tobytes()
        assert first.k_used == direct.k_used

    @pytest.mark.parametrize("paradigm", ["SSL", "UL", "TRZSL"])
    def test_select_round_takes_the_grip_quota(self, loop_task, paradigm):
        """GRIP round i gives each pseudolabel class grip_k(i, I, n_pool, C)
        rows, C counting the classes pseudolabels may use."""
        cfg = _fast("GRIP", paradigm, seed=0, I=3)
        split = wire_paradigm(cfg.paradigm, loop_task.train, loop_task.space, seed=0)
        base = cfg.base_prompt(loop_task.space.d)
        C = len(split.pseudolabel_classes)
        for i in (1, 2, 3):
            pl = select_round(cfg, split, loop_task.train, base, loop_task.space, i)
            k = grip_k(i, 3, split.pool_rows.size, C)
            assert pl.k_used == k
            counts = np.bincount(pl.classes, minlength=loop_task.space.C)
            assert counts[list(split.pseudolabel_classes)].tolist() == [k] * C
            assert pl.m == k * C

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

    @pytest.mark.parametrize("paradigm", ["SSL", "UL", "TRZSL"])
    def test_every_round_trains_at_the_paradigm_weights(self, loop_task, monkeypatch, paradigm):
        """Each GRIP round trains at paradigm_weights(paradigm, |L|, |P|) for
        the labeled subset and pseudolabels that round passes to train."""
        calls = _record_train_weights(monkeypatch)
        run_strategy(_fast("GRIP", paradigm, seed=0, I=2), loop_task)
        split = wire_paradigm(ParadigmConfig(paradigm), loop_task.train, loop_task.space, seed=0)
        assert len(calls) == 2
        for n_labeled, n_pseudo, weights in calls:
            assert n_labeled == split.labeled.n and n_pseudo > 0
            assert weights == paradigm_weights(paradigm, n_labeled, n_pseudo)

    def test_round_without_pseudolabels_trains_on_the_labeled_term_alone(self, loop_task, monkeypatch):
        calls = _record_train_weights(monkeypatch)
        cfg = _fast("FPL", "SSL", seed=0)
        split = wire_paradigm(cfg.paradigm, loop_task.train, loop_task.space, seed=0)
        nothing = PseudolabelSet(np.array([], dtype=np.uint64), np.array([], dtype=np.int64), np.array([]), 0)
        base = cfg.base_prompt(loop_task.space.d)
        result = run_rounds(cfg, loop_task, split, base, 1, lambda model, i: nothing, lambda i: base)
        assert calls == [(split.labeled.n, 0, (1.0, 0.0))]
        assert result.records[0].n_pseudo == 0 and result.records[0].pseudolabel_accuracy is None

    def test_round_engine_feeds_each_round_the_previous_head(self, loop_task, monkeypatch):
        """Round 1 selects with base itself, round i with the model round
        i-1 trained, and each round trains the one head new_head(i) gives,
        i = 1, 2, 3 in order."""
        cfg = _fast("IFPL", "SSL", seed=2, schedule=TrainSchedule(epochs=2, warmup_epochs=1, batch_size=32))
        split = wire_paradigm(cfg.paradigm, loop_task.train, loop_task.space, seed=2)
        base = cfg.base_prompt(loop_task.space.d)
        selected_with, heads, trained = [], [], []

        def select(model, i):
            selected_with.append((i, model))
            return select_round(cfg, split, loop_task.train, model, loop_task.space, i)

        def new_head(i):
            heads.append((i, cfg.fresh_prompt(base, i)))
            return heads[-1][1]

        def recording(head, *args, **kw):
            model, losses = train(head, *args, **kw)
            trained.append((head, model))
            return model, losses

        monkeypatch.setattr(strategies, "train", recording)
        result = run_rounds(cfg, loop_task, split, base, 3, select, new_head)
        assert [i for i, _ in selected_with] == [i for i, _ in heads] == [1, 2, 3]
        assert len(trained) == 3 and all(t[0] is h[1] for t, h in zip(trained, heads))
        assert selected_with[0][1] is base
        assert all(selected_with[i][1] is trained[i - 1][1] for i in (1, 2))
        assert result.final_model is trained[-1][1] and len(result.records) == 3

    def test_dedup_prevents_repeated_ids(self, loop_task):
        cfg = _fast("FPL", "UL", dedup_pseudolabels=True, K=40)
        result = run_strategy(cfg, loop_task)
        assert result.records[0].n_pseudo <= effective_k(40, loop_task.train.n, 6) * 6

    def test_run_strategy_dispatch(self, loop_task):
        """Each strategy runs its plan: FPL one iteration, IFPL and GRIP I,
        with the fixed quota for FPL/IFPL and the growing one for GRIP."""
        n, C = loop_task.train.n, loop_task.space.C
        for strategy in ("FPL", "IFPL", "GRIP"):
            result = run_strategy(_fast(strategy, "UL", seed=3, I=3), loop_task)
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

    def test_ul_run_never_holds_the_pool_score_matrix(self):
        # n*C = 3.06M cells: the (n, C) scores alone (24 MB) would break the
        # bound; selection holds one class block of them at a time and the
        # UL pool is the train set itself, not a copy.
        task = synth_generate(SyntheticSpec(C=300, d=16, labeled_per_class=0,
                                            unlabeled_per_class=34, seed=0))
        n, C = task.train.n, task.space.C
        assert n * C >= 3_000_000
        cfg = _fast("GRIP", "UL", I=2,
                    schedule=TrainSchedule(epochs=1, warmup_epochs=0, batch_size=256))
        tracemalloc.start()
        try:
            run_strategy(cfg, task)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * C * 8


# (paradigm, spec): the SSL pool at 2 shots per class is 3 * 685 - 6 = 2049
# rows, 2 * NORM_BLOCK_ROWS + 1; the TRZSL pool is its 2 unseen classes, 2400
# rows. Both score in three blocks.
BLOCKED_POOLS = {
    "SSL": SyntheticSpec(C=3, d=32, labeled_per_class=2, unlabeled_per_class=683, seed=4),
    "TRZSL": SyntheticSpec(C=5, d=32, labeled_per_class=0, unlabeled_per_class=1200, seed=5),
}


class TestBlockedPool:
    """select_round scores a pool that is not every row in near-equal row
    blocks straight from the train set, with the bits of the whole pool
    gathered and scored at once."""

    @pytest.mark.parametrize("modality", ["visual", "multimodal"])
    @pytest.mark.parametrize("paradigm", ["SSL", "TRZSL"])
    def test_blocks_give_the_bits_of_the_whole_pool(self, monkeypatch, paradigm, modality):
        task = synth_generate(BLOCKED_POOLS[paradigm])
        train, space = task.train, task.space
        cfg = _fast("GRIP", paradigm, I=3)
        split = wire_paradigm(cfg.paradigm, train, space, seed=0)
        rows, classes = split.pool_rows, split.pseudolabel_classes
        assert rows.size in (2 * NORM_BLOCK_ROWS + 1, 2400)
        model = init_prompt(modality, 8, space.d, seed=6, scale=0.5)
        assert model.vis_ctx.any()
        block_rows = []
        original = strategies.image_features

        def recording(m, z):
            block_rows.append(z.shape[0])
            return original(m, z)

        monkeypatch.setattr(strategies, "image_features", recording)
        for i in (1, 3):
            block_rows.clear()
            pl = select_round(cfg, split, train, model, space, i)
            assert block_rows == [rows.size // 3] * 3
            k = grip_k(i, 3, rows.size, len(classes))
            whole = topk_from_features(
                original(model, train.features[rows]), class_prototypes(model, space), k, classes, train.ids[rows]
            )
            assert np.array_equal(pl.example_ids, whole.example_ids)
            assert np.array_equal(pl.classes, whole.classes)
            assert pl.scores.tobytes() == whole.scores.tobytes()
            assert pl.k_used == whole.k_used == k

    def test_ssl_selection_holds_one_copy_of_the_pool(self):
        # A 15992-row pool at d=64 in 16 blocks of about 1000 rows. Gathering
        # the whole pool and then scoring it holds two (n_pool, d) arrays at
        # once; the blocks hold the scored pool and a few blocks' temporaries.
        task = synth_generate(SyntheticSpec(C=4, d=64, labeled_per_class=0, unlabeled_per_class=4000, seed=7))
        cfg = _fast("GRIP", "SSL", I=3)
        split = wire_paradigm(cfg.paradigm, task.train, task.space, seed=0)
        model = init_prompt("visual", 8, task.space.d, seed=6, scale=0.5)
        n_pool = split.pool_rows.size
        pool_bytes = n_pool * task.space.d * 8
        block_bytes = NORM_BLOCK_ROWS * task.space.d * 8
        tracemalloc.start()
        try:
            select_round(cfg, split, task.train, model, task.space, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * pool_bytes + block_bytes


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

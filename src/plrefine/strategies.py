"""Training strategies: one-shot and iterative pseudolabel refinement.

Every round runs through one engine, run_rounds: round i selects
pseudolabels with the head that round i-1 trained (the run's base prompt in
round 1, whose ctx = 0 makes it the zero-shot classifier), trains a fresh
head at the paradigm weights for the actual pool sizes, evaluates it and
keeps its record and report. run_strategy is that engine with top-K
selection (select_round) and a prompt reinitialized from seed XOR iteration
each round; the Robin Hood scenario (sweep.run_comparison_scenario) runs
it for one round per arm. The three strategies differ only in the
iteration count and the K rule, which STRATEGY_PLANS holds:

  FPL   one iteration, K capped by the pool (effective_k)
  IFPL  I iterations, same fixed K every time
  GRIP  I iterations, K grows linearly until the pool is fully covered

FPL is literally iteration 1 of the shared loop, so an FPL run and an IFPL
run with I=1 are bit-identical under the same seed, and an FPL run is round
1 of any IFPL run under the same settings: round i depends only on the
quotas of rounds 1..i, and FPL's one quota is IFPL's first. The sweep reads
FPL's cell off IFPL's run (its first record and report) instead of training
it again.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import (
    EmbeddingSet,
    LabeledSubset,
    NORM_BLOCK_ROWS,
    ParadigmConfig,
    Task,
    UNLABELED,
    float_scalar,
    frozen_array,
    index_vector,
    int_scalar,
    json_form,
    paradigm_weights,
    sample_shots,
)
from .metrics import EvalReport, evaluate
from .pseudolabels import (
    PseudolabelSet,
    drop_duplicate_assignments,
    effective_k,
    pseudolabel_accuracy,
    topk_from_features,
)
from .surrogate import (
    DEFAULT_CTX_SCALE,
    DEFAULT_TEMPERATURE,
    PromptModel,
    _ctx_sigma,
    check_modality,
    class_prototypes,
    image_features,
    init_prompt,
    reinit_ctx,
)
from .training import TrainSchedule, train

DEFAULT_PROMPT_LEN = {"textual": 16, "visual": 16, "multimodal": 8}

# Multimodal runs train two ctx blocks at once and need the gentler peak.
DEFAULT_PEAK_LR = {"textual": 0.1, "visual": 0.1, "multimodal": 0.01}


def default_schedule(modality: str, **overrides) -> TrainSchedule:
    check_modality(modality)
    kwargs = {"peak_lr": DEFAULT_PEAK_LR[modality]}
    kwargs.update(overrides)
    return TrainSchedule(**kwargs)


@dataclass(frozen=True)
class StrategyConfig:
    """Everything one run needs: strategy, paradigm, surrogate and schedule.

    K, I, seed and a given prompt_len go through int_scalar: a float or bool
    is refused, not cast. temperature (positive) goes through float_scalar:
    a bool, a string, NaN or an infinity is refused, not cast. init_scale
    and init_spread are checked by the rule that draws the ctx (_ctx_sigma).
    """

    strategy: str
    paradigm: ParadigmConfig
    K: int = 16
    I: int = 10
    seed: int = 0
    modality: str = "textual"
    prompt_len: Optional[int] = None
    temperature: float = DEFAULT_TEMPERATURE
    schedule: Optional[TrainSchedule] = None
    dedup_pseudolabels: bool = False
    init_scale: float = DEFAULT_CTX_SCALE
    init_spread: str = "std"

    def __post_init__(self) -> None:
        # The tuple, not the dict: a dict lookup of an unhashable name,
        # such as a list, raises TypeError instead of naming the strategy.
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        check_modality(self.modality)
        int_scalar(self.K, "K", 1)
        int_scalar(self.I, "I", 1)
        if self.prompt_len is not None:
            int_scalar(self.prompt_len, "prompt_len", 1)
        float_scalar(self.temperature, "temperature", positive=True)
        _ctx_sigma(self.init_scale, self.init_spread)
        int_scalar(self.seed, "seed")

    def resolved_prompt_len(self) -> int:
        return self.prompt_len if self.prompt_len is not None else DEFAULT_PROMPT_LEN[self.modality]

    def resolved_schedule(self) -> TrainSchedule:
        return self.schedule if self.schedule is not None else default_schedule(self.modality)

    def base_prompt(self, d: int) -> PromptModel:
        """The run's zero-shot head: ctx = 0 exactly, so it scores as the
        base prototypes do, and frozen mixers drawn from the seed.

        Build it once per run; every trained prompt starts from it with ctx
        redrawn (reinit_ctx), which keeps the mixers without drawing them again.
        """
        return init_prompt(
            self.modality, self.resolved_prompt_len(), d, self.seed, scale=0.0, temperature=self.temperature
        )

    def fresh_prompt(self, base: PromptModel, i: int) -> PromptModel:
        """Round i's prompt head: ``base`` with ctx redrawn from seed XOR i."""
        return reinit_ctx(base, self.seed ^ i, scale=self.init_scale, spread=self.init_spread)


@dataclass(frozen=True)
class ParadigmSplit:
    """What a paradigm exposes to training: labeled rows, the unlabeled pool
    (row positions into the train set, which select_round scores straight
    from the train set), and the classes pseudolabels may use.

    pool_rows goes through index_vector: float, bool or negative rows are
    refused with ValueError (``pool_rows must be non-negative, got -1``),
    not cast."""

    labeled: LabeledSubset
    pool_rows: np.ndarray
    pseudolabel_classes: tuple

    def __post_init__(self) -> None:
        rows = index_vector(self.pool_rows, "pool_rows", lo=0)
        object.__setattr__(self, "pool_rows", frozen_array(rows))


@dataclass(frozen=True)
class IterationRecord:
    """One refinement iteration: quota, pseudolabel quality, test accuracy."""

    iteration: int
    k_used: int
    n_pseudo: int
    pseudolabel_accuracy: Optional[float]
    test_accuracy: float
    seen_accuracy: Optional[float] = None
    unseen_accuracy: Optional[float] = None

    def to_dict(self) -> dict:
        return json_form(self)


@dataclass(frozen=True)
class RunResult:
    """Full outcome of one strategy run: each round's record and test
    report, in round order, and the last round's head."""

    records: tuple
    reports: tuple
    final_model: PromptModel

    @property
    def final_report(self) -> EvalReport:
        return self.reports[-1]


def grip_k(i: int, I: int, n_unlabeled: int, C: int) -> int:
    """Growing per-class quota: floor((i * n_unlabeled / I) / C), at least 1.

    At i == I this is floor(n_unlabeled / C): the quota covers the whole pool
    up to the remainder that cannot be split evenly across classes.
    """
    if not 1 <= i <= I:
        raise ValueError(f"iteration {i} outside [1, {I}]")
    if n_unlabeled < 1 or C < 1:
        raise ValueError("n_unlabeled and C must be positive")
    # floor((i*n/I)/C) == floor(i*n/(I*C)), so integer arithmetic is exact.
    return max(1, (i * n_unlabeled) // (I * C))


# Per strategy: whether it refines for config.I iterations (else exactly one),
# and its per-class quota k(config, i, n_pool, C_assign).
STRATEGY_PLANS = {
    "FPL": (False, lambda cfg, i, n, C: effective_k(cfg.K, n, C)),
    "IFPL": (True, lambda cfg, i, n, C: effective_k(cfg.K, n, C)),
    "GRIP": (True, lambda cfg, i, n, C: grip_k(i, cfg.I, n, C)),
}
STRATEGIES = tuple(STRATEGY_PLANS)


def wire_paradigm(
    cfg: ParadigmConfig, data: EmbeddingSet, space, seed: int
) -> ParadigmSplit:
    """Build the labeled subset and unlabeled pool a paradigm prescribes.

    SSL   labeled = shots per class, pool = every other row, all classes
    UL    labeled empty, pool = all rows, all classes
    TRZSL labeled = all seen-class rows, pool = unseen-class rows (their
          labels hidden), pseudolabels restricted to unseen classes
    Rows with the unlabeled sentinel cannot be routed by TRZSL and are left
    out of both sides there. A split with an empty pool has nothing to
    pseudolabel and is refused.
    """
    all_classes = tuple(range(space.C))
    if cfg.paradigm == "SSL":
        labeled = sample_shots(data, all_classes, cfg.shots_per_class, seed)
        pool = np.setdiff1d(np.arange(data.n, dtype=np.int64), labeled.rows)
        split = ParadigmSplit(labeled, pool, all_classes)
    elif cfg.paradigm == "UL":
        empty = LabeledSubset(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        split = ParadigmSplit(empty, np.arange(data.n, dtype=np.int64), all_classes)
    else:
        # TRZSL, the one paradigm left (ParadigmConfig admits no other).
        if space.partition is None:
            raise ValueError("TRZSL requires a partitioned class space")
        seen, unseen = space.partition
        seen_rows = np.flatnonzero(np.isin(data.labels, seen)).astype(np.int64)
        pool = np.flatnonzero(np.isin(data.labels, unseen)).astype(np.int64)
        split = ParadigmSplit(LabeledSubset(seen_rows, data.labels[seen_rows]), pool, unseen)
    if split.pool_rows.size == 0:
        raise ValueError("its unlabeled pool is empty")
    return split


def select_round(
    config: StrategyConfig, split: ParadigmSplit, data: EmbeddingSet, model: PromptModel, space, i: int
) -> PseudolabelSet:
    """Round i's pseudolabels: each of the split's pseudolabel classes takes
    its top k pool rows of the train set ``data`` under ``model``, with k
    from config.strategy's quota rule.

    A pool of every row (UL) is scored on the train set's own arrays, which
    a textual or zero-ctx prompt passes through as a view, so selection
    then allocates no (n_pool, d) array. Scoring that pool in blocks as well
    raised the ``select`` benchmark's peak RSS (a 50000-row UL pool, textual
    prompt) from 143.6 to 147.5 MB in 6 of 6 paired runs on a 2-core x86
    VM. Any other pool, one of a single block included, is scored in
    near-equal blocks of at most NORM_BLOCK_ROWS rows, each gathered from
    ``data`` and written into one (n_pool, d) array, so no gathered copy of
    the whole pool sits beside its scored features. No block is a one-row
    tail, whose product takes another BLAS path, so the blocks give the
    bits of the whole pool scored at once (tests/test_gemm_bits.py guards
    this for OpenBLAS).

    The scored sides are passed inline, not bound to locals, so the scored
    pool is freed when selection returns.
    """
    classes, rows = split.pseudolabel_classes, split.pool_rows
    k = STRATEGY_PLANS[config.strategy][1](config, i, int(rows.size), len(classes))
    if rows.size == data.n:
        # wire_paradigm's pool rows are unique and ascending, so this pool
        # is every row in order (UL).
        return topk_from_features(image_features(model, data.features), class_prototypes(model, space), k, classes, data.ids)
    feats = np.empty((rows.size, data.d))
    for block in np.array_split(np.arange(rows.size), -(-rows.size // NORM_BLOCK_ROWS)):
        feats[block] = image_features(model, data.features[rows[block]])
    return topk_from_features(feats, class_prototypes(model, space), k, classes, data.ids[rows])


def run_rounds(
    config: StrategyConfig, task: Task, split: ParadigmSplit, base: PromptModel, rounds: int, select: Callable, new_head: Callable
) -> RunResult:
    """The round engine: round i takes its pseudolabels ``select(model, i)``
    from the head that round i-1 trained (``base`` in round 1), trains the
    fresh head ``new_head(i)`` on them and the split's labeled rows, and
    evaluates it; the result keeps every round's record and report, and the
    last round's head.

    The loss weights are the paradigm's weights for the labeled and
    pseudolabeled counts, or (1, 0) when nothing was pseudolabeled; training
    is seeded with seed XOR i. TRZSL is evaluated per partition side. A
    record's pseudolabel accuracy is None unless its round pseudolabeled
    something and every pool row has its class.
    """
    schedule = config.resolved_schedule()
    trzsl = config.paradigm.paradigm == "TRZSL"
    scored = not np.any(task.train.labels[split.pool_rows] == UNLABELED)
    model, records, reports = base, [], []
    for i in range(1, rounds + 1):
        pl = select(model, i)
        weights = paradigm_weights(config.paradigm.paradigm, split.labeled.n, pl.m) if pl.m else (1.0, 0.0)
        model, _ = train(new_head(i), task.train, task.space, split.labeled, pl, weights, schedule, seed=config.seed ^ i)
        report = evaluate(model, task.test, task.space, partition_aware=trzsl)
        pl_acc = pseudolabel_accuracy(pl, task.train) if pl.m and scored else None
        records.append(IterationRecord(i, pl.k_used, pl.m, pl_acc, report.overall, report.seen_accuracy, report.unseen_accuracy))
        reports.append(report)
    return RunResult(records=tuple(records), reports=tuple(reports), final_model=model)


def run_strategy(config: StrategyConfig, task: Task) -> RunResult:
    """Run config.strategy with the iteration count and quota rule of its plan.

    FPL makes a single pseudolabeling pass with the base prompt (the
    zero-shot head) and a single training; IFPL refines for I iterations at
    the same quota; GRIP grows the quota each iteration until the last one
    pseudolabels (nearly) the entire pool. Each round scores the pool from
    task.train through select_round, deduplicated when the config asks, and
    trains config.fresh_prompt; the run holds no copy of the pool.
    """
    split = wire_paradigm(config.paradigm, task.train, task.space, config.seed)

    def select(model: PromptModel, i: int) -> PseudolabelSet:
        pl = select_round(config, split, task.train, model, task.space, i)
        return drop_duplicate_assignments(pl) if config.dedup_pseudolabels else pl

    base = config.base_prompt(task.space.d)
    rounds = config.I if STRATEGY_PLANS[config.strategy][0] else 1
    return run_rounds(config, task, split, base, rounds, select, functools.partial(config.fresh_prompt, base))

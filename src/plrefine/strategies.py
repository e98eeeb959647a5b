"""Training strategies: one-shot and iterative pseudolabel refinement.

All three strategies share one engine, run_strategy. Each iteration scores
the unlabeled pool (iteration 1 with the zero-ctx base prototypes, later ones
with the previously trained model), takes the top K per class, recomputes the
paradigm weights from the actual pool sizes, reinitializes the prompt from
seed XOR iteration, and trains. They differ only in the iteration count and
the K rule, which STRATEGY_PLANS holds:

  FPL   one iteration, K capped by the pool (effective_k)
  IFPL  I iterations, same fixed K every time
  GRIP  I iterations, K grows linearly until the pool is fully covered

FPL is literally iteration 1 of the shared loop, so an FPL run and an IFPL
run with I=1 are bit-identical under the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    EmbeddingSet,
    LabeledSubset,
    ParadigmConfig,
    Task,
    UNLABELED,
    frozen_array,
    paradigm_weights,
    sample_shots,
)
from .metrics import EvalReport, evaluate
from .pseudolabels import (
    drop_duplicate_assignments,
    effective_k,
    pseudolabel_accuracy,
    similarity_matrix,
    topk_per_class,
)
from .surrogate import (
    DEFAULT_CTX_SCALE,
    DEFAULT_TEMPERATURE,
    MODALITIES,
    PromptModel,
    class_prototypes,
    image_features,
    init_prompt,
    reinit_ctx,
)
from .training import TrainSchedule, train

DEFAULT_PROMPT_LEN = {"textual": 16, "visual": 16, "multimodal": 8}

# Multimodal runs train two ctx blocks at once and need the gentler peak.
DEFAULT_PEAK_LR = {"textual": 0.1, "visual": 0.1, "multimodal": 0.01}


def default_prompt_len(modality: str) -> int:
    return DEFAULT_PROMPT_LEN[modality]


def default_schedule(modality: str, **overrides) -> TrainSchedule:
    kwargs = {"peak_lr": DEFAULT_PEAK_LR[modality]}
    kwargs.update(overrides)
    return TrainSchedule(**kwargs)


@dataclass(frozen=True)
class StrategyConfig:
    """Everything one run needs: strategy, paradigm, surrogate and schedule."""

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
        if self.strategy not in STRATEGY_PLANS:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}; expected one of {MODALITIES}")
        if self.K < 1:
            raise ValueError("K must be at least 1")
        if self.I < 1:
            raise ValueError("I must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolved_prompt_len(self) -> int:
        return self.prompt_len if self.prompt_len is not None else default_prompt_len(self.modality)

    def resolved_schedule(self) -> TrainSchedule:
        return self.schedule if self.schedule is not None else default_schedule(self.modality)

    def base_prompt(self, d: int) -> PromptModel:
        """The run's initial prompt: ctx drawn from the seed, frozen mixers.

        Build it once per run; later prompts only redraw ctx from it
        (reinit_ctx), which keeps the mixers without drawing them again.
        """
        return init_prompt(
            self.modality,
            self.resolved_prompt_len(),
            d,
            self.seed,
            scale=self.init_scale,
            spread=self.init_spread,
            temperature=self.temperature,
        )


@dataclass(frozen=True)
class ParadigmSplit:
    """What a paradigm exposes to training: labeled rows, the unlabeled pool
    (row positions into the train set), and the classes pseudolabels may use."""

    labeled: LabeledSubset
    pool_rows: np.ndarray
    pseudolabel_classes: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "pool_rows", frozen_array(self.pool_rows, np.int64))
        object.__setattr__(
            self, "pseudolabel_classes", tuple(int(c) for c in self.pseudolabel_classes)
        )


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
        return {
            "iteration": self.iteration,
            "k_used": self.k_used,
            "n_pseudo": self.n_pseudo,
            "pseudolabel_accuracy": self.pseudolabel_accuracy,
            "test_accuracy": self.test_accuracy,
            "seen_accuracy": self.seen_accuracy,
            "unseen_accuracy": self.unseen_accuracy,
        }


@dataclass(frozen=True)
class RunResult:
    """Full outcome of one strategy run."""

    strategy: str
    paradigm: str
    seed: int
    records: tuple
    final_report: EvalReport
    final_model: PromptModel


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
    SL    labeled = shots per class (or every labeled row when shots is 0),
          pool empty
    Rows with the unlabeled sentinel cannot be routed by TRZSL/SL and are
    left out of both sides there.
    """
    all_classes = tuple(range(space.C))
    empty = LabeledSubset(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    if cfg.paradigm == "SSL":
        if cfg.shots_per_class < 1:
            raise ValueError("SSL needs at least one labeled shot per class")
        labeled = sample_shots(data, all_classes, cfg.shots_per_class, seed)
        pool = np.setdiff1d(np.arange(data.n, dtype=np.int64), labeled.rows)
        return ParadigmSplit(labeled, pool, all_classes)
    if cfg.paradigm == "UL":
        return ParadigmSplit(empty, np.arange(data.n, dtype=np.int64), all_classes)
    if cfg.paradigm == "TRZSL":
        if space.partition is None:
            raise ValueError("TRZSL requires a partitioned class space")
        seen, unseen = space.partition
        seen_rows = np.flatnonzero(np.isin(data.labels, seen)).astype(np.int64)
        pool = np.flatnonzero(np.isin(data.labels, unseen)).astype(np.int64)
        labeled = LabeledSubset(seen_rows, data.labels[seen_rows])
        return ParadigmSplit(labeled, pool, tuple(unseen))
    if cfg.paradigm == "SL":
        if cfg.shots_per_class > 0:
            labeled = sample_shots(data, all_classes, cfg.shots_per_class, seed)
        else:
            rows = np.flatnonzero(data.labels != UNLABELED).astype(np.int64)
            labeled = LabeledSubset(rows, data.labels[rows])
        return ParadigmSplit(labeled, np.array([], dtype=np.int64), ())
    raise ValueError(f"unknown paradigm {cfg.paradigm!r}")


def _pool_scores(model: Optional[PromptModel], pool_feats: np.ndarray, space) -> np.ndarray:
    """Cosine scores of the pool against all classes.

    With no model yet (iteration 1) this is the raw zero-shot similarity;
    afterwards both sides go through the trained surrogate.
    """
    if model is None:
        return similarity_matrix(pool_feats, space.base_prototypes)
    return similarity_matrix(image_features(model, pool_feats), class_prototypes(model, space))


def run_strategy(config: StrategyConfig, task: Task) -> RunResult:
    """Run config.strategy with the iteration count and quota rule of its plan.

    FPL makes a single pseudolabeling pass with the base prototypes and a
    single training; IFPL refines for I iterations at the same quota; GRIP
    grows the quota each iteration until the last one pseudolabels (nearly)
    the entire pool.
    """
    iterate, k_rule = STRATEGY_PLANS[config.strategy]
    iterations = config.I if iterate else 1
    data, test, space = task.train, task.test, task.space
    split = wire_paradigm(config.paradigm, data, space, config.seed)
    if split.pool_rows.size == 0:
        raise ValueError(f"{config.strategy} requires unlabeled data")

    pool_feats = data.features[split.pool_rows]
    pool_ids = data.ids[split.pool_rows]
    pool_labels = data.labels[split.pool_rows]
    truth = None
    if not np.any(pool_labels == UNLABELED):
        truth = {int(i): int(c) for i, c in zip(pool_ids, pool_labels)}

    classes = split.pseudolabel_classes
    transductive = config.paradigm.paradigm == "TRZSL"
    schedule = config.resolved_schedule()
    base = config.base_prompt(space.d)

    records = []
    model: Optional[PromptModel] = None
    report: Optional[EvalReport] = None
    for i in range(1, iterations + 1):
        S = _pool_scores(model, pool_feats, space)
        k = k_rule(config, i, int(split.pool_rows.size), len(classes))
        pl = topk_per_class(S, k, classes, pool_ids)
        if config.dedup_pseudolabels:
            pl = drop_duplicate_assignments(pl)
        if config.paradigm.gamma is not None and config.paradigm.lam is not None:
            weights = (config.paradigm.gamma, config.paradigm.lam)
        else:
            weights = paradigm_weights(config.paradigm.paradigm, split.labeled.n, pl.m)
        fresh = reinit_ctx(base, config.seed ^ i, scale=config.init_scale, spread=config.init_spread)
        model, _ = train(fresh, data, space, split.labeled, pl, weights, schedule, seed=config.seed ^ i)
        report = evaluate(model, test, space, partition_aware=transductive)
        pl_acc = pseudolabel_accuracy(pl, truth) if truth is not None else None
        records.append(
            IterationRecord(
                iteration=i,
                k_used=pl.k_used,
                n_pseudo=pl.m,
                pseudolabel_accuracy=pl_acc,
                test_accuracy=report.overall,
                seen_accuracy=report.seen_accuracy,
                unseen_accuracy=report.unseen_accuracy,
            )
        )
    return RunResult(
        strategy=config.strategy,
        paradigm=config.paradigm.paradigm,
        seed=config.seed,
        records=tuple(records),
        final_report=report,
        final_model=model,
    )


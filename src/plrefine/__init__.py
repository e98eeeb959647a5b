"""Iterative pseudolabel refinement and prompt-surrogate tuning over frozen
embedding spaces: class-balanced top-K pseudolabels, a differentiable prompt
surrogate, FPL/IFPL/GRIP training strategies, and the poor/rich
redistribution analysis."""

from .core import (
    ClassSpace,
    EmbeddingSet,
    LabeledSubset,
    ParadigmConfig,
    Task,
    UNLABELED,
    make_trzsl_split,
    paradigm_weights,
    sample_shots,
    unit_normalize,
)
from .pseudolabels import (
    PseudolabelSet,
    drop_duplicate_assignments,
    effective_k,
    pseudolabel_accuracy,
    similarity_matrix,
    topk_per_class,
)
from .surrogate import (
    PromptModel,
    batch_loss_and_grad,
    class_prototypes,
    image_features,
    init_prompt,
    logits,
    reinit_ctx,
)
from .probe import LinearProbe, init_linear_probe
from .training import TrainSchedule, lr_at, train
from .strategies import (
    IterationRecord,
    RunResult,
    StrategyConfig,
    grip_k,
    run_strategy,
    wire_paradigm,
)
from .metrics import (
    EvalReport,
    RobinHoodReport,
    class_balance,
    evaluate,
    harmonic_mean,
    robin_hood,
    softmax_rows,
    threshold_pseudolabels,
    zero_shot_report,
)
from .synth import SyntheticSpec, synth_generate
from .fileio import inspect_ple, read_ple, write_ple
from .config import ExperimentConfig, load_config, parse_config
from .sweep import run_comparison_scenario, run_sweep

__version__ = "0.1.0"

__all__ = [
    "ClassSpace",
    "EmbeddingSet",
    "EvalReport",
    "ExperimentConfig",
    "IterationRecord",
    "LabeledSubset",
    "LinearProbe",
    "ParadigmConfig",
    "PromptModel",
    "PseudolabelSet",
    "RobinHoodReport",
    "RunResult",
    "StrategyConfig",
    "SyntheticSpec",
    "Task",
    "TrainSchedule",
    "UNLABELED",
    "batch_loss_and_grad",
    "class_balance",
    "class_prototypes",
    "drop_duplicate_assignments",
    "effective_k",
    "evaluate",
    "grip_k",
    "harmonic_mean",
    "image_features",
    "init_linear_probe",
    "init_prompt",
    "inspect_ple",
    "load_config",
    "logits",
    "lr_at",
    "make_trzsl_split",
    "paradigm_weights",
    "parse_config",
    "pseudolabel_accuracy",
    "read_ple",
    "reinit_ctx",
    "robin_hood",
    "run_comparison_scenario",
    "run_strategy",
    "run_sweep",
    "sample_shots",
    "similarity_matrix",
    "softmax_rows",
    "synth_generate",
    "threshold_pseudolabels",
    "topk_per_class",
    "train",
    "unit_normalize",
    "wire_paradigm",
    "write_ple",
    "zero_shot_report",
]

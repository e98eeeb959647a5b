"""Sweep execution: runs, an IFPL run also serving FPL's cell, go in
stripes on one task and one zero-shot baseline per process, with the same
bytes serially and across workers."""

import dataclasses
import itertools
import os
import re
from pathlib import Path

import numpy as np
import pytest

from plrefine import strategies, surrogate, sweep
from plrefine.cli import main
from plrefine.config import ExperimentConfig, parse_config
from plrefine.core import UNLABELED, ClassSpace, EmbeddingSet
from plrefine.fileio import write_ple
from plrefine.metrics import evaluate, softmax_rows, threshold_pseudolabels
from plrefine.probe import init_linear_probe
from plrefine.pseudolabels import PseudolabelSet
from plrefine.strategies import wire_paradigm
from plrefine.surrogate import reinit_ctx
from plrefine.synth import SyntheticSpec, synth_generate
from plrefine.training import train

CELL_DIRS = ("FPL_UL_seed0", "FPL_SSL_seed0", "GRIP_UL_seed0", "GRIP_SSL_seed0")


@pytest.fixture
def cfg(tmp_path):
    """Four cells in config order: FPL then GRIP, each under UL then SSL."""
    return parse_config({
        "schema_version": 1,
        "task": {"synthetic": {"C": 3, "d": 8, "labeled_per_class": 2, "unlabeled_per_class": 8}},
        "strategies": ["FPL", "GRIP"],
        "paradigms": ["UL", "SSL"],
        "seeds": [0],
        "I": 2,
        "temperature": 10.0,
        "schedule": {"epochs": 3, "warmup_epochs": 1},
        "output_dir": str(tmp_path / "unused"),
    })


def _outputs(out: Path) -> dict:
    """Every file under out, with result.json's timestamp line removed."""
    files = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.name == "result.json":
                data = b"\n".join(ln for ln in data.split(b"\n") if b'"generated_at"' not in ln)
            files[path.relative_to(out).as_posix()] = data
    return files


def test_numpy_seeds_and_overrides_write_the_same_bytes(tmp_path):
    """A config built directly with numpy integers in seeds and in
    schedule_overrides writes the result.json of its Python-int twin."""
    spec = SyntheticSpec(C=3, d=8, unlabeled_per_class=6)
    plain = ExperimentConfig(
        synthetic=spec, strategies=("FPL",), seeds=(0,), schedule_overrides={"epochs": 2, "warmup_epochs": 1}
    )
    with_numpy = dataclasses.replace(
        plain, seeds=(np.int64(0),), schedule_overrides={"epochs": np.int64(2), "warmup_epochs": 1}
    )
    sweep.run_sweep(plain, out_dir=str(tmp_path / "plain"))
    sweep.run_sweep(with_numpy, out_dir=str(tmp_path / "numpy"))
    assert _outputs(tmp_path / "numpy") == _outputs(tmp_path / "plain")


def _counting(monkeypatch, name: str, module=sweep) -> list:
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_serial_and_workers_write_the_same_bytes(cfg, tmp_path):
    serial = sweep.run_sweep(cfg, out_dir=str(tmp_path / "serial"))
    assert [(r["strategy"], r["paradigm"]) for r in serial["runs"]] == [
        ("FPL", "UL"), ("FPL", "SSL"), ("GRIP", "UL"), ("GRIP", "SSL")
    ]
    expected = _outputs(tmp_path / "serial")
    assert sorted(expected) == sorted([f"{d}/trace.csv" for d in CELL_DIRS] + ["result.json"])
    for jobs in (2, 5):  # two stripes of two runs; more jobs than runs
        sweep.run_sweep(cfg, jobs=jobs, out_dir=str(tmp_path / f"jobs{jobs}"))
        assert _outputs(tmp_path / f"jobs{jobs}") == expected


@pytest.fixture
def prefix_cfg(cfg):
    """Six cells: FPL, IFPL and GRIP, each under UL then SSL, in four runs:
    FPL is IFPL's round 1 under each paradigm."""
    return dataclasses.replace(cfg, strategies=("FPL", "IFPL", "GRIP"))


def _recording_runs(monkeypatch) -> list:
    """Wrap sweep.run_strategy so each run appends its (strategy, paradigm)."""
    runs = []
    real = sweep.run_strategy

    def recording(config, task):
        runs.append((config.strategy, config.paradigm.paradigm))
        return real(config, task)

    monkeypatch.setattr(sweep, "run_strategy", recording)
    return runs


def test_each_round_trains_once_per_sweep(prefix_cfg, tmp_path, monkeypatch):
    """FPL + IFPL + GRIP on one paradigm and seed runs the round engine
    twice, not three times: FPL is read off IFPL's run."""
    engines = _counting(monkeypatch, "run_rounds", module=strategies)
    runs = _recording_runs(monkeypatch)
    payload = sweep.run_sweep(dataclasses.replace(prefix_cfg, paradigms=("UL",)), out_dir=str(tmp_path / "out"))
    assert len(engines) == 2 and runs == [("IFPL", "UL"), ("GRIP", "UL")]
    assert [(r["strategy"], len(r["records"])) for r in payload["runs"]] == [("FPL", 1), ("IFPL", 2), ("GRIP", 2)]
    assert sorted(_outputs(tmp_path / "out")) == sorted(
        [f"{s}_UL_seed0/trace.csv" for s in ("FPL", "IFPL", "GRIP")] + ["result.json"]
    )


def _standalone_cells(cfg) -> list:
    """Each cell of cfg as run_strategy runs it alone: its (records, final
    report) dicts and its final ctx bytes, in config order."""
    task = sweep.load_task(cfg)
    cells = []
    for strategy, paradigm, seed in itertools.product(cfg.strategies, cfg.paradigms, cfg.seeds):
        result = strategies.run_strategy(cfg.run_config(strategy, paradigm, seed), task)
        ctx = b"".join(a.tobytes() for a in result.final_model.learnable().values())
        cells.append(([r.to_dict() for r in result.records], result.final_report.to_dict(), ctx))
    return cells


@pytest.mark.parametrize("modality", ["textual", "multimodal"])
def test_fpl_cells_read_off_ifpl_are_their_standalone_runs(prefix_cfg, tmp_path, monkeypatch, modality):
    """Every cell, FPL's read off IFPL's round 1 included, is bit for bit the
    cell run on its own: records, final report and the final ctx bytes,
    which result.json cannot show. Heads are recorded per (strategy,
    paradigm) run as strategies.train returns them."""
    cfg = dataclasses.replace(prefix_cfg, modality=modality)
    alone = _standalone_cells(cfg)
    heads, current = {}, []
    real_run, real_train = sweep.run_strategy, strategies.train

    def run(config, task):
        current[:] = [(config.strategy, config.paradigm.paradigm)]
        return real_run(config, task)

    def train(head, *args, **kw):
        model, losses = real_train(head, *args, **kw)
        heads.setdefault(current[0], []).append(b"".join(a.tobytes() for a in model.learnable().values()))
        return model, losses

    monkeypatch.setattr(sweep, "run_strategy", run)
    monkeypatch.setattr(strategies, "train", train)
    payload = sweep.run_sweep(cfg, out_dir=str(tmp_path / "out"))
    assert sorted(heads) == sorted(itertools.product(("IFPL", "GRIP"), ("UL", "SSL")))
    for j, (strategy, paradigm) in enumerate(itertools.product(cfg.strategies, cfg.paradigms)):
        records, final, ctx_alone = alone[j]
        cell = payload["runs"][j]
        assert (cell["strategy"], cell["paradigm"]) == (strategy, paradigm)
        assert cell["records"] == records and cell["final"] == final
        rounds = heads["IFPL" if strategy == "FPL" else strategy, paradigm]
        assert rounds[len(records) - 1] == ctx_alone


def test_fpl_runs_alone_without_ifpl(cfg, tmp_path, monkeypatch):
    """Only IFPL serves FPL's cell: at K=5 GRIP's first quota on the 30-row
    UL pool of 3 classes equals FPL's, yet FPL + GRIP trains four runs."""
    runs = _recording_runs(monkeypatch)
    payload = sweep.run_sweep(dataclasses.replace(cfg, K=5), out_dir=str(tmp_path / "out"))
    assert runs == [("FPL", "UL"), ("FPL", "SSL"), ("GRIP", "UL"), ("GRIP", "SSL")]
    assert [r["records"][0]["k_used"] for r in payload["runs"]] == [5, 5, 5, 4]


def test_prefix_sweep_writes_the_same_bytes_serially_and_in_stripes_of_runs(prefix_cfg, tmp_path):
    """Six cells in four runs (FPL read off IFPL under each paradigm): two
    and three workers write the serial sweep's bytes."""
    serial = sweep.run_sweep(prefix_cfg, out_dir=str(tmp_path / "serial"))
    assert [(r["strategy"], r["paradigm"]) for r in serial["runs"]] == list(
        itertools.product(("FPL", "IFPL", "GRIP"), ("UL", "SSL"))
    )
    expected = _outputs(tmp_path / "serial")
    assert len(expected) == 7
    for jobs in (2, 3):
        sweep.run_sweep(prefix_cfg, jobs=jobs, out_dir=str(tmp_path / f"jobs{jobs}"))
        assert _outputs(tmp_path / f"jobs{jobs}") == expected


def test_serial_sweep_loads_task_and_scores_baseline_once(cfg, tmp_path, monkeypatch):
    loads = _counting(monkeypatch, "load_task")
    baselines = _counting(monkeypatch, "zero_shot_report")
    payload = sweep.run_sweep(cfg, out_dir=str(tmp_path / "out"))
    assert len(payload["runs"]) == 4
    assert len(loads) == 1 and len(baselines) == 1


def test_trzsl_sweep_scores_the_test_set_once(cfg, tmp_path, monkeypatch):
    """TRZSL's partition check of the test set is the baseline itself, where
    the test set used to be scored twice, and the UL cells keep the
    redistribution report of a sweep without TRZSL."""
    plain = sweep.run_sweep(dataclasses.replace(cfg, paradigms=("UL",)), out_dir=str(tmp_path / "plain"))
    baselines = _counting(monkeypatch, "zero_shot_report")
    both = sweep.run_sweep(dataclasses.replace(cfg, paradigms=("UL", "TRZSL")), out_dir=str(tmp_path / "both"))
    assert len(baselines) == 1
    ul = [run for run in both["runs"] if run["paradigm"] == "UL"]
    assert [run["robin_hood"] for run in ul] == [run["robin_hood"] for run in plain["runs"]]


@pytest.mark.parametrize("entry", ["run_sweep", "run_comparison_scenario"])
def test_empty_output_dir_fails_before_any_cell(cfg, tmp_path, monkeypatch, entry):
    """An empty output_dir in a config built in code is refused before the
    task loads, as parse_config refuses it; the sweep used to write each
    trace.csv into the working directory and then fail on result.json."""
    monkeypatch.chdir(tmp_path)
    loads = _counting(monkeypatch, "load_task")
    with pytest.raises(ValueError, match="^output_dir must not be empty$"):
        getattr(sweep, entry)(dataclasses.replace(cfg, output_dir=""))
    assert loads == [] and list(tmp_path.iterdir()) == []


def test_failing_cell_keeps_finished_traces_and_writes_no_result(cfg, tmp_path, monkeypatch):
    real = sweep.run_strategy
    calls = []

    def third_fails(config, task):
        calls.append(config.strategy)
        if len(calls) == 3:
            raise RuntimeError("cell failed")
        return real(config, task)

    monkeypatch.setattr(sweep, "run_strategy", third_fails)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="cell failed"):
        sweep.run_sweep(cfg, out_dir=str(out))
    assert sorted(_outputs(out)) == sorted(f"{d}/trace.csv" for d in CELL_DIRS[:2])


def test_workers_never_outnumber_cells(cfg, prefix_cfg, tmp_path, monkeypatch):
    """Nor runs: six cells served by four runs start four workers."""
    started = []

    class InlinePool:
        """Runs the stripes in this process and records the pool size."""

        def __init__(self, max_workers, initializer):
            # The initializer is not run: inline, it would cap this process.
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    sweep.run_sweep(cfg, out_dir=str(tmp_path / "serial"))
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InlinePool)
    sweep.run_sweep(cfg, jobs=64, out_dir=str(tmp_path / "jobs64"))
    assert started == [4]
    assert _outputs(tmp_path / "jobs64") == _outputs(tmp_path / "serial")
    sweep.run_sweep(prefix_cfg, jobs=6, out_dir=str(tmp_path / "prefix"))
    assert started == [4, 4]


def _blas_count():
    """numpy's OpenBLAS thread count in this process, or None where no
    OpenBLAS is found."""
    threads = surrogate._openblas_threads()
    return None if threads is None else threads[0]()


@pytest.mark.parametrize("outer", [None, "3"])
def test_workers_start_with_one_blas_thread(cfg, tmp_path, monkeypatch, outer):
    """A spawned worker runs numpy's OpenBLAS at one thread whatever
    OPENBLAS_NUM_THREADS it inherits, and this process keeps its own count
    and its OPENBLAS_NUM_THREADS, set or unset."""
    if outer is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", outer)
    before = _blas_count()
    seen = []
    real = sweep.ProcessPoolExecutor

    class AskingPool:
        """The real pool, asked for a worker's BLAS count before the stripes run."""

        def __init__(self, max_workers, initializer):
            self.pool = real(max_workers=max_workers, initializer=initializer)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.pool.__exit__(*exc)

        def map(self, fn, *iterables):
            seen.append(self.pool.submit(_blas_count).result(timeout=120))
            return self.pool.map(fn, *iterables)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", AskingPool)
    sweep.run_sweep(cfg, jobs=2, out_dir=str(tmp_path / "jobs2"))
    assert os.environ.get("OPENBLAS_NUM_THREADS") == outer
    assert _blas_count() == before
    # Where no OpenBLAS is found there is no count to check.
    assert seen == [None if before is None else 1]


def _synthetic_task(labeled: int, unlabeled: int):
    return lambda tmp_path: {"synthetic": {"C": 3, "d": 4, "labeled_per_class": labeled, "unlabeled_per_class": unlabeled}}


def _unlabeled_train_file(tmp_path) -> dict:
    """A .ple task whose train rows all carry the unlabeled sentinel."""
    task = synth_generate(SyntheticSpec(C=3, d=4, unlabeled_per_class=1))
    paths = {"train_path": str(tmp_path / "train.ple"), "test_path": str(tmp_path / "test.ple")}
    hidden = EmbeddingSet(task.train.features, np.full(task.train.n, UNLABELED), task.train.ids)
    write_ple(paths["train_path"], hidden, task.space)
    write_ple(paths["test_path"], task.test, task.space)
    return paths


def _unseen_only_test_file(tmp_path) -> dict:
    """A .ple task whose test file holds classes 0 and 1 only: with
    split_seed 0 those are both unseen (seen is (2,)), so TRZSL has no seen
    side to evaluate."""
    task = synth_generate(SyntheticSpec(C=3, d=4, labeled_per_class=2, unlabeled_per_class=6))
    paths = {"train_path": str(tmp_path / "train.ple"), "test_path": str(tmp_path / "test.ple")}
    keep = task.test.labels < 2
    unseen = EmbeddingSet(task.test.features[keep], task.test.labels[keep], task.test.ids[keep])
    write_ple(paths["train_path"], task.train, task.space)
    write_ple(paths["test_path"], unseen, task.space)
    return paths


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "task, paradigm, message",
    [
        (_synthetic_task(0, 1), "SSL", "cannot run with shots_per_class=2: class 0 has only 1 labeled rows, need 2"),
        (_synthetic_task(2, 0), "SSL", "cannot run with shots_per_class=2: its unlabeled pool is empty"),
        (_unlabeled_train_file, "TRZSL", "cannot run on this task: its unlabeled pool is empty"),
        (
            _unseen_only_test_file,
            "TRZSL",
            "cannot run on this task: test set must contain rows on both partition sides",
        ),
    ],
    ids=["too-few-rows", "empty-pool", "trzsl-unlabeled-rows", "trzsl-test-one-side"],
)
def test_infeasible_paradigm_fails_before_any_cell(tmp_path, jobs, task, paradigm, message):
    """The UL cell could run, but the second paradigm cannot (SSL cannot take
    2 shots per class, or they leave it no pool; TRZSL cannot route unlabeled
    rows, or its test set lacks a partition side), so the sweep raises before
    either cell runs. shots_per_class is named only where it is the cause."""
    cfg = parse_config({
        "schema_version": 1,
        "task": task(tmp_path),
        "strategies": ["FPL"],
        "paradigms": ["UL", paradigm],
        "seeds": [0],
        "K": 1,
        "temperature": 10.0,
        "schedule": {"epochs": 2, "warmup_epochs": 1},
        "output_dir": str(tmp_path / "unused"),
    })
    with pytest.raises(ValueError) as err:
        sweep.run_sweep(cfg, jobs=jobs, out_dir=str(tmp_path / "out"))
    assert str(err.value) == f"paradigm {paradigm} {message}"
    assert not (tmp_path / "out").exists()  # no cell's trace.csv, no result.json


@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_rejected(cfg, tmp_path, jobs):
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        sweep.run_sweep(cfg, jobs=jobs, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("jobs", [2.0, 2.5, True])
def test_jobs_must_be_an_integer(cfg, tmp_path, jobs):
    with pytest.raises(ValueError, match=re.escape(f"jobs must be an integer, got {jobs!r}")):
        sweep.run_sweep(cfg, jobs=jobs, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_numpy_integer_config_writes_its_result(cfg, tmp_path):
    """A config built directly with numpy integers writes the outputs of
    the same Python ints; it used to fail on an int64 in the config echo
    after every cell had run, leaving no result.json."""
    plain = dataclasses.replace(cfg, strategies=("GRIP",), paradigms=("UL",), K=4)
    wide = dataclasses.replace(plain, synthetic=dataclasses.replace(cfg.synthetic, C=np.int64(3)), K=np.int64(4))
    sweep.run_sweep(plain, out_dir=str(tmp_path / "plain"))
    sweep.run_sweep(wide, out_dir=str(tmp_path / "wide"))
    assert sorted(_outputs(tmp_path / "wide")) == ["GRIP_UL_seed0/trace.csv", "result.json"]
    assert _outputs(tmp_path / "wide") == _outputs(tmp_path / "plain")


def test_config_echo_that_cannot_be_written_fails_before_any_cell(cfg, tmp_path, monkeypatch):
    """A Path output_dir is no JSON value: the sweep fails before its first
    cell, where it used to write every trace.csv and then fail."""
    cells = _counting(monkeypatch, "run_strategy")
    out = tmp_path / "out"
    with pytest.raises(TypeError, match="Path is not JSON serializable"):
        sweep.run_sweep(dataclasses.replace(cfg, output_dir=out))
    assert cells == [] and not out.exists()


def test_cli_reports_jobs_below_one(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        '{"schema_version": 1, "task": {"synthetic": {"C": 3, "d": 8}},'
        ' "strategies": ["FPL"], "paradigms": ["UL"], "seeds": [0]}',
        encoding="utf-8",
    )
    assert main(["run", str(cfg_path), "--jobs", "0"]) == 1
    err = capsys.readouterr().err
    assert '"error": "jobs must be at least 1, got 0"' in err and '"type": "ValueError"' in err


def _reversed(task):
    space = task.space
    return task.test, ClassSpace(space.class_names[::-1], space.base_prototypes[::-1])


def _extra_class(task):
    space = task.space
    protos = np.vstack([space.base_prototypes, np.eye(1, space.d)])
    return task.test, ClassSpace(space.class_names + ("extra",), protos)


def _other_prototypes(task):
    space = task.space
    return task.test, ClassSpace(space.class_names, space.base_prototypes[[0, 2, 1]])


def _one_name(task):
    space = task.space
    return task.test, ClassSpace(space.class_names[:2] + ("other",), space.base_prototypes)


def _one_prototype_row(task):
    space = task.space
    protos = space.base_prototypes.copy()
    protos[2] = -protos[2]
    return task.test, ClassSpace(space.class_names, protos)


def _other_dimension(task):
    other = synth_generate(SyntheticSpec(C=3, d=6))
    return other.test, other.space


@pytest.mark.parametrize(
    "test_file_of, difference",
    [
        (_extra_class, "class 3, absent in the train file and 'extra' in the test file"),
        (_other_dimension, "class 0, 'class_000' in the train file and 'class_000' in the test file"),
        (_reversed, "class 0, 'class_000' in the train file and 'class_002' in the test file"),
        (_other_prototypes, "class 1, 'class_001' in the train file and 'class_001' in the test file"),
        (_one_name, "class 2, 'class_002' in the train file and 'other' in the test file"),
        (_one_prototype_row, "class 2, 'class_002' in the train file and 'class_002' in the test file"),
    ],
    ids=["class-count", "dimension", "names", "prototypes", "one-name", "one-prototype-row"],
)
def test_test_file_from_another_class_space_is_rejected(tmp_path, test_file_of, difference):
    """The test file must carry the train file's class space: the same names
    in the same order and the same prototypes, not only the same C and d."""
    task = synth_generate(SyntheticSpec(C=3, d=8, unlabeled_per_class=4))
    paths = {"train_path": str(tmp_path / "train.ple"), "test_path": str(tmp_path / "test.ple")}
    raw = {"schema_version": 1, "task": paths, "strategies": ["FPL"], "paradigms": ["UL"], "seeds": [0]}
    write_ple(paths["train_path"], task.train, task.space)
    write_ple(paths["test_path"], task.test, task.space)
    assert sweep.load_task(parse_config(raw)).space.class_names == task.space.class_names
    write_ple(paths["test_path"], *test_file_of(task))
    message = f"train and test files describe different class spaces: they first differ at {difference}"
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep.load_task(parse_config(raw))


@pytest.mark.parametrize("role", ["train", "test"])
def test_unreadable_task_file_is_named_with_its_role(tmp_path, role):
    """A .ple file that read_ple rejects fails the load with its role and
    path before read_ple's own message."""
    task = synth_generate(SyntheticSpec(C=3, d=8, unlabeled_per_class=4))
    paths = {"train_path": str(tmp_path / "train.ple"), "test_path": str(tmp_path / "test.ple")}
    write_ple(paths["train_path"], task.train, task.space)
    write_ple(paths["test_path"], task.test, task.space)
    cut = Path(paths[f"{role}_path"])
    cut.write_bytes(cut.read_bytes()[:50])
    raw = {"schema_version": 1, "task": paths, "strategies": ["FPL"], "paradigms": ["UL"], "seeds": [0]}
    with pytest.raises(ValueError) as caught:
        sweep.load_task(parse_config(raw))
    assert str(caught.value) == f"cannot read {role} file {str(cut)!r}: not a PLE1 file: truncated payload"


def test_prompt_topk_cell_is_fpl_round_one(cfg):
    """The scenario's top-K arm is FPL's first round: its prompt/top-K cell
    selects and trains as an FPL/SSL run at the first seed does."""
    cell = sweep.run_comparison_scenario(cfg)["comparisons"]["prompt"]["topk"]
    fpl = strategies.run_strategy(cfg.run_config("FPL", "SSL", cfg.seeds[0]), sweep.load_task(cfg))
    assert cell["n_pseudolabels"] == fpl.records[0].n_pseudo
    assert cell["pseudolabel_accuracy"] == fpl.records[0].pseudolabel_accuracy
    assert cell["report"] == fpl.final_report.to_dict()


def test_scenario_selects_once_per_rule(cfg, monkeypatch):
    """All four cells are round 1 from the base prompt, so the top-K and the
    threshold pseudolabels are each selected once and go to both heads."""
    topk = _counting(monkeypatch, "select_round")
    threshold = _counting(monkeypatch, "threshold_pseudolabels")
    engines = _counting(monkeypatch, "run_rounds")
    payload = sweep.run_comparison_scenario(cfg)
    assert len(topk) == len(threshold) == 1 and len(engines) == 4
    comparisons = payload["comparisons"]
    for mode in ("topk", "threshold"):
        cells = [comparisons[head][mode] for head in ("prompt", "linear_probe")]
        assert cells[0]["n_pseudolabels"] == cells[1]["n_pseudolabels"]
        assert cells[0]["pseudolabel_accuracy"] == cells[1]["pseudolabel_accuracy"]


def test_scenario_never_deduplicates(cfg):
    """dedup_pseudolabels leaves the scenario's comparisons as they are,
    though it changes FPL's round 1 on this task: the prompt/top-K cell is
    the FPL/SSL run with dedup off only."""
    dedup = dataclasses.replace(cfg, dedup_pseudolabels=True)
    comparisons = sweep.run_comparison_scenario(cfg)["comparisons"]
    assert sweep.run_comparison_scenario(dedup)["comparisons"] == comparisons
    fpl = strategies.run_strategy(dedup.run_config("FPL", "SSL", dedup.seeds[0]), sweep.load_task(dedup))
    assert fpl.records[0].n_pseudo < comparisons["prompt"]["topk"]["n_pseudolabels"]


def test_threshold_arm_thresholds_the_base_prompt_softmax(cfg, monkeypatch):
    """Both heads' threshold cells train on the rows whose softmax of the
    base prompt's pool scores crosses threshold_tau."""
    trained_on = []

    def recording(head, data, space, labeled, pseudo, *args, **kw):
        trained_on.append(pseudo)
        return train(head, data, space, labeled, pseudo, *args, **kw)

    monkeypatch.setattr(strategies, "train", recording)
    sweep.run_comparison_scenario(cfg)

    task = sweep.load_task(cfg)
    run_cfg = cfg.run_config("FPL", "SSL", cfg.seeds[0])
    rows = wire_paradigm(run_cfg.paradigm, task.train, task.space, cfg.seeds[0]).pool_rows
    feats, ids = task.train.features[rows], task.train.ids[rows]
    probs = softmax_rows(run_cfg.base_prompt(task.space.d).scores(feats, task.space))
    expected = threshold_pseudolabels(probs, cfg.threshold_tau, ids)
    assert 0 < expected.m < ids.size
    # One training per cell: per head, top-K then threshold.
    assert len(trained_on) == 4
    for pl in trained_on[1::2]:
        assert pl.k_used == expected.k_used
        for name in ("example_ids", "classes", "scores"):
            assert np.array_equal(getattr(pl, name), getattr(expected, name))


def test_empty_threshold_cell_trains_on_the_shots_alone(tmp_path):
    """At temperature 1 no pool row's softmax confidence crosses tau = 0.95,
    so both heads' threshold cells hold no pseudolabels, report no
    pseudolabel accuracy, and are the head trained with weights (1, 0) on
    the labeled shots alone."""
    cfg = parse_config({
        "schema_version": 1,
        "task": {"synthetic": {"C": 4, "d": 8, "labeled_per_class": 2, "unlabeled_per_class": 10}},
        "strategies": ["FPL"],
        "paradigms": ["SSL"],
        "seeds": [0],
        "temperature": 1.0,
        "schedule": {"epochs": 2, "warmup_epochs": 1},
        "output_dir": str(tmp_path / "out"),
    })
    comparisons = sweep.run_comparison_scenario(cfg)["comparisons"]

    task = sweep.load_task(cfg)
    run_cfg = cfg.run_config("FPL", "SSL", 0)
    split = wire_paradigm(run_cfg.paradigm, task.train, task.space, 0)
    nothing = PseudolabelSet(np.array([], dtype=np.uint64), np.array([], dtype=np.int64), np.array([]), 0)
    heads = {
        "prompt": reinit_ctx(run_cfg.base_prompt(task.space.d), 0 ^ 1),
        "linear_probe": init_linear_probe(task.space.C, task.space.d),
    }
    schedule = run_cfg.resolved_schedule()
    for name, head in heads.items():
        assert comparisons[name]["topk"]["n_pseudolabels"] > 0
        assert comparisons[name]["topk"]["pseudolabel_accuracy"] is not None
        cell = comparisons[name]["threshold"]
        assert cell["n_pseudolabels"] == 0 and cell["pseudolabel_accuracy"] is None
        shots_only, _ = train(head, task.train, task.space, split.labeled, nothing, (1.0, 0.0), schedule, seed=0 ^ 1)
        assert cell["report"] == evaluate(shots_only, task.test, task.space).to_dict()


def _fuzzed_raw_configs(count: int, seed: int, out: Path):
    """Random toy configs over every strategy, paradigm (SL included, which
    parse_config rejects) and modality, with as few rows per class as a
    synthetic task allows."""
    rng = np.random.default_rng(seed)

    def subset(options):
        chosen = [o for o in options if rng.random() < 0.5]
        return chosen or [options[int(rng.integers(len(options)))]]

    for n in range(count):
        yield n, {
            "schema_version": 1,
            "task": {"synthetic": {
                "C": int(rng.choice([2, 3, 10])),
                "d": int(rng.choice([2, 4, 8])),
                "labeled_per_class": int(rng.integers(0, 3)),
                "unlabeled_per_class": int(rng.integers(0, 21)),
                "seed": n,
            }},
            "strategies": subset(["FPL", "IFPL", "GRIP"]),
            "paradigms": subset(["SSL", "UL", "TRZSL", "SL"]),
            "modality": str(rng.choice(["textual", "visual", "multimodal"])),
            "seeds": [0],
            "K": int(rng.choice([1, 4, 50])),
            "I": 2,
            "shots_per_class": int(rng.integers(0, 6)),
            "temperature": 10.0,
            "schedule": {"epochs": 2, "warmup_epochs": 1},
            "output_dir": str(out / f"unused{n}"),
        }


def test_every_loaded_config_runs_or_fails_before_training(tmp_path, monkeypatch):
    """A config that parses either writes its outputs, under run_sweep and
    under run_comparison_scenario alike, or fails before anything trains,
    with an error that names shots_per_class or the paradigm that cannot
    run, and leaves no output directory."""
    trained = _counting(monkeypatch, "train", module=strategies)
    outcomes = {"rejected": 0, "failed": 0, "ran": 0}
    commands = {
        "result.json": lambda cfg, out: sweep.run_sweep(cfg, out_dir=out),
        "robinhood.json": lambda cfg, out: sweep.run_comparison_scenario(cfg, out_dir=out),
    }
    for n, raw in _fuzzed_raw_configs(60, seed=1, out=tmp_path):
        try:
            cfg = parse_config(raw)
        except ValueError:
            outcomes["rejected"] += 1
            continue
        for name, command in commands.items():
            out = tmp_path / f"{n}-{name}"
            trained.clear()
            try:
                command(cfg, str(out))
            except ValueError as exc:
                outcomes["failed"] += 1
                assert not trained, (raw, name, str(exc))
                assert re.search(r"shots_per_class|paradigm (SSL|UL|TRZSL) ", str(exc)), (raw, name, str(exc))
                assert not out.exists(), (raw, name)
            else:
                outcomes["ran"] += 1
                assert (out / name).is_file(), (raw, name)
    assert min(outcomes.values()) > 0, outcomes

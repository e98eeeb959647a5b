"""Acceptance criteria, one test per criterion.

Each test ends by printing a single [PASS]/[FAIL] verdict line. The lines are
written through the terminal reporter (falling back to sys.__stdout__) so they
show up in the live pytest output regardless of capture settings. Criteria 8
and 10 execute the pinned calibration run described in
tests/fixtures/calibration.json and compare against the values frozen there.
"""

import json
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from plrefine.config import parse_config
from plrefine.core import ClassSpace, make_trzsl_split, paradigm_weights, ParadigmConfig
from plrefine.fileio import read_ple, write_ple
from plrefine.metrics import robin_hood, zero_shot_report
from plrefine.metrics import harmonic_mean
from plrefine.pseudolabels import topk_per_class
from plrefine.strategies import (
    StrategyConfig,
    default_schedule,
    grip_k,
    run_strategy,
)
from plrefine.surrogate import (
    MODALITIES,
    batch_loss_and_grad,
    class_prototypes,
    image_features,
    init_prompt,
    reinit_ctx,
)
from plrefine.sweep import run_comparison_scenario, run_sweep
from plrefine.synth import SyntheticSpec, synth_generate
from plrefine.training import TrainSchedule, lr_at


_TERMINAL = None


@pytest.fixture(autouse=True)
def _verdict_channel(request):
    global _TERMINAL
    _TERMINAL = request.config.pluginmanager.get_plugin("terminalreporter")
    yield


def _verdict(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:02d} {name}: {detail}"
    if _TERMINAL is not None:
        _TERMINAL.write_line("\n" + line)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


_PINNED_CACHE = {}


def _pinned_runs(calibration):
    """Run zero-shot, FPL and GRIP once at the pinned settings."""
    if "grip" in _PINNED_CACHE:
        return _PINNED_CACHE
    start = time.perf_counter()
    task = synth_generate(SyntheticSpec(**calibration["synthetic"]))
    strat = calibration["strategy"]
    cfg = StrategyConfig(
        strategy="FPL",
        paradigm=ParadigmConfig(strat["paradigm"]),
        K=strat["K"],
        I=strat["I"],
        seed=strat["seed"],
        modality=strat["modality"],
        temperature=strat["temperature"],
        schedule=default_schedule(strat["modality"], epochs=strat["epochs"]),
    )
    _PINNED_CACHE["task"] = task
    _PINNED_CACHE["zero_shot"] = zero_shot_report(task.test, task.space)
    _PINNED_CACHE["fpl"] = run_strategy(cfg, task)
    _PINNED_CACHE["grip"] = run_strategy(replace(cfg, strategy="GRIP"), task)
    _PINNED_CACHE["elapsed"] = time.perf_counter() - start
    return _PINNED_CACHE


def test_criterion_01_harmonic_mean_reproduction():
    h1 = harmonic_mean(90.31, 82.57)
    h2 = harmonic_mean(82.68, 79.53)
    ok = abs(h1 - 86.26) <= 0.02 and abs(h2 - 81.07) <= 0.02
    _verdict(1, "harmonic-mean reproduction", ok,
             f"H(90.31, 82.57)={h1:.4f} vs 86.26, H(82.68, 79.53)={h2:.4f} vs 81.07")


def test_criterion_02_seen_class_split_counts():
    expected = {102: 63, 45: 27, 100: 62, 10: 6, 47: 29}
    got = {}
    for C in expected:
        seen, unseen = make_trzsl_split(C, seed=0)
        got[C] = len(seen)
        assert len(seen) + len(unseen) == C
    ok = got == expected
    _verdict(2, "62% seen-class split counts", ok, f"{got} vs {expected}")


def test_criterion_03_grip_quota_schedule():
    rng = np.random.default_rng(300)
    exact = True
    coverage = True
    for case in range(200):
        I = int(rng.integers(1, 13))
        i = int(rng.integers(1, I + 1))
        C = int(rng.integers(1, 50))
        n = int(rng.integers(C, 6000))
        frac = Fraction(i * n, I) / C
        floor_val = frac.numerator // frac.denominator
        if grip_k(i, I, n, C) != max(1, floor_val):
            exact = False
        if grip_k(I, I, n, C) * C < n - C:
            coverage = False
    ok = exact and coverage
    _verdict(3, "GRIP quota schedule", ok,
             f"200-case grid exact={exact}, final-iteration coverage={coverage}")


def test_criterion_04_paradigm_weights():
    rng = np.random.default_rng(400)
    ok = True
    for case in range(100):
        n_l = int(rng.integers(1, 10000))
        n_p = int(rng.integers(1, 10000))
        ok &= paradigm_weights("SSL", n_l, n_p) == (float(Fraction(n_p, n_l)), 1.0)
        ok &= paradigm_weights("TRZSL", n_l, n_p) == (1.0, float(Fraction(n_l, n_p)))
        ok &= paradigm_weights("UL", n_l, n_p) == (0.0, 1.0)
        ok &= paradigm_weights("SL", n_l, n_p) == (1.0, 0.0)
    _verdict(4, "paradigm loss weights", bool(ok), "100 size pairs, exact")


def test_criterion_05_topk_oracle_equivalence():
    rng = np.random.default_rng(500)
    start = time.perf_counter()
    ok = True
    for case in range(200):
        n = int(rng.integers(2, 65))
        C = int(rng.integers(1, 9))
        k = int(rng.integers(1, min(n, 8) + 1))
        S = rng.uniform(-1.0, 1.0, size=(n, C))
        if case % 3 == 0:
            S = np.round(S, 1)  # force ties
        ids = rng.permutation(4 * n)[:n].astype(np.uint64)
        pl = topk_per_class(S, k, range(C), ids)
        expected = []
        for c in range(C):
            order = sorted(range(n), key=lambda r: (-S[r, c], ids[r]))
            expected.extend((int(ids[r]), c, float(S[r, c])) for r in order[:k])
        got = list(zip(pl.example_ids.tolist(), pl.classes.tolist(), pl.scores.tolist()))
        ok &= got == expected
    elapsed = time.perf_counter() - start
    ok = bool(ok) and elapsed < 5.0
    _verdict(5, "top-K matches brute-force oracle", ok,
             f"200 instances incl. ties, {elapsed:.2f}s (limit 5s)")


def test_criterion_06_gradient_correctness():
    rng = np.random.default_rng(600)
    start = time.perf_counter()
    worst = 0.0
    h = 1e-4
    for case in range(50):
        modality = MODALITIES[case % 3]
        C = int(rng.integers(3, 7))
        d = int(rng.integers(6, 11))
        n = int(rng.integers(4, 9))
        space = ClassSpace(tuple(f"c{j}" for j in range(C)), _unit_rows(rng, C, d))
        Z = _unit_rows(rng, n, d)
        y = rng.integers(0, C, size=n)
        model = init_prompt(modality, 2, d, seed=case, scale=0.05,
                            temperature=float(rng.uniform(5.0, 40.0)))
        _, analytic = batch_loss_and_grad(model, Z, y, space)
        for name, param in model.learnable().items():
            numeric = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                up = param.copy()
                up[idx] += h
                down = param.copy()
                down[idx] -= h
                lu, _ = batch_loss_and_grad(model.with_learnable({name: up}), Z, y, space)
                ld, _ = batch_loss_and_grad(model.with_learnable({name: down}), Z, y, space)
                numeric[idx] = (lu - ld) / (2 * h)
            rel = np.max(np.abs(analytic[name] - numeric)) / max(np.max(np.abs(numeric)), 1e-12)
            worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _verdict(6, "analytic gradients vs finite differences", ok,
             f"50 instances over 3 modalities, max rel err {worst:.2e} (limit 1e-4), "
             f"{elapsed:.1f}s (limit 30s)")


def test_criterion_07_modality_firewall():
    rng = np.random.default_rng(700)
    ok = True
    for probe in range(100):
        d = int(rng.integers(4, 16))
        M = int(rng.integers(1, 5))
        C = int(rng.integers(2, 8))
        scale = float(rng.uniform(0.001, 5.0))
        space = ClassSpace(tuple(f"c{j}" for j in range(C)), _unit_rows(rng, C, d))
        Z = _unit_rows(rng, int(rng.integers(1, 10)), d)
        textual = init_prompt("textual", M, d, seed=probe, scale=scale)
        visual = init_prompt("visual", M, d, seed=probe, scale=scale)
        ok &= np.array_equal(image_features(textual, Z), Z)
        ok &= np.array_equal(class_prototypes(visual, space), space.base_prototypes)
    _verdict(7, "modality firewall", bool(ok),
             "100 probes: textual left features bit-equal, visual left prototypes bit-equal")


def test_criterion_08_pinned_synthetic_improvement(calibration):
    runs = _pinned_runs(calibration)
    zs = runs["zero_shot"].overall
    fpl = runs["fpl"].final_report.overall
    grip = runs["grip"].final_report.overall
    pin = calibration["values"]
    tol = calibration["tolerance_points"] / 100.0
    ok = (
        grip >= zs + 0.05
        and grip >= fpl
        and abs(zs - pin["zero_shot"]) <= tol
        and abs(fpl - pin["fpl"]) <= tol
        and abs(grip - pin["grip"]) <= tol
        and runs["elapsed"] < 60.0
    )
    _verdict(8, "pinned synthetic improvement", ok,
             f"zero-shot {zs:.4f}, FPL {fpl:.4f}, GRIP {grip:.4f} "
             f"(pinned {pin['zero_shot']:.4f}/{pin['fpl']:.4f}/{pin['grip']:.4f} "
             f"within {tol:.2f}), GRIP-ZS {grip - zs:+.4f} (need >= +0.05), "
             f"{runs['elapsed']:.1f}s (limit 60s)")


def test_criterion_09_reinitialization_equivalence(calibration):
    # FPL output vs IFPL at I = 1, bit for bit.
    task = synth_generate(SyntheticSpec(C=5, d=16, labeled_per_class=2,
                                        unlabeled_per_class=20, seed=7))
    cfg = StrategyConfig(
        strategy="FPL",
        paradigm=ParadigmConfig("UL"),
        seed=11,
        temperature=10.0,
        schedule=TrainSchedule(epochs=8, warmup_epochs=2, batch_size=32),
    )
    fpl = run_strategy(cfg, task)
    ifpl = run_strategy(replace(cfg, strategy="IFPL", I=1), task)
    bit_identical = (
        np.array_equal(fpl.final_model.text_ctx, ifpl.final_model.text_ctx)
        and fpl.final_report == ifpl.final_report
        and [r.to_dict() for r in fpl.records] == [r.to_dict() for r in ifpl.records]
    )

    # Iteration starts are fresh prompts at seed XOR i.
    starts_fresh = True
    base = init_prompt("textual", 16, task.space.d, seed=11, temperature=10.0)
    for i in range(1, 6):
        re = reinit_ctx(base, 11 ^ i)
        fresh = init_prompt("textual", 16, task.space.d, seed=11 ^ i, temperature=10.0)
        starts_fresh &= np.array_equal(re.text_ctx, fresh.text_ctx)
        starts_fresh &= np.array_equal(re.text_mix, base.text_mix)
    # Same property observed through the engine: with zero training epochs the
    # final model is exactly the last iteration's fresh start.
    frozen_cfg = replace(cfg, strategy="IFPL", I=3, schedule=TrainSchedule(epochs=0))
    frozen = run_strategy(frozen_cfg, task)
    fresh_last = init_prompt("textual", 16, task.space.d, seed=11 ^ 3, temperature=10.0)
    starts_fresh &= np.array_equal(frozen.final_model.text_ctx, fresh_last.text_ctx)

    ok = bool(bit_identical and starts_fresh)
    _verdict(9, "reinitialization equivalence", ok,
             f"FPL == IFPL(I=1) bit-identical: {bit_identical}; "
             f"iteration starts == init_prompt(seed^i): {starts_fresh}")


def test_criterion_10_robin_hood(calibration, tmp_path):
    runs = _pinned_runs(calibration)
    report = robin_hood(runs["zero_shot"], runs["grip"].final_report)
    pin = calibration["values"]
    tol = calibration["tolerance_points"] / 100.0
    poor_positive = report.mean_delta_poor > 0.0
    pinned_match = abs(report.mean_delta_poor - pin["grip_mean_delta_poor"]) <= tol

    strat = calibration["strategy"]
    cfg = parse_config({
        "schema_version": 1,
        "task": {"synthetic": calibration["synthetic"]},
        "strategies": ["FPL"],
        "paradigms": ["SSL"],
        "seeds": [0],
        "temperature": strat["temperature"],
        "schedule": {"epochs": strat["epochs"]},
        "threshold_tau": 0.95,
        "output_dir": str(tmp_path),
    })
    payload = run_comparison_scenario(cfg)
    with open(tmp_path / "robinhood.json", "r", encoding="utf-8") as fh:
        reread = json.load(fh)
    schema_ok = (
        reread["threshold_tau"] == 0.95
        and set(reread["comparisons"]) == {"prompt", "linear_probe"}
        and all(
            set(head) == {"topk", "threshold"}
            and all(
                {"n_pseudolabels", "pseudolabel_accuracy", "report", "robin_hood"}
                <= set(cell)
                and {"poor_classes", "rich_classes", "mean_delta_poor",
                     "mean_delta_rich", "per_class_delta"} == set(cell["robin_hood"])
                for cell in head.values()
            )
            for head in reread["comparisons"].values()
        )
        and reread == payload
    )
    ok = poor_positive and pinned_match and schema_ok
    _verdict(10, "Robin Hood redistribution", ok,
             f"GRIP mean poor-class delta {report.mean_delta_poor:+.4f} "
             f"(pinned {pin['grip_mean_delta_poor']:+.4f}, need > 0), "
             f"rich delta {report.mean_delta_rich:+.4f}; "
             f"threshold-0.95 comparison scenario schema valid: {schema_ok}")


def test_criterion_11_determinism(tmp_path):
    cfg = parse_config({
        "schema_version": 1,
        "task": {"synthetic": {"C": 3, "d": 8, "labeled_per_class": 2,
                               "unlabeled_per_class": 8}},
        "strategies": ["FPL", "GRIP"],
        "paradigms": ["UL", "SSL"],
        "seeds": [0, 1],
        "I": 2,
        "temperature": 10.0,
        "schedule": {"epochs": 4, "warmup_epochs": 1},
        "output_dir": str(tmp_path / "unused"),
    })
    run_sweep(cfg, out_dir=str(tmp_path / "a"))
    run_sweep(cfg, out_dir=str(tmp_path / "b"))
    texts = []
    for side in ("a", "b"):
        with open(tmp_path / side / "result.json", "r", encoding="utf-8") as fh:
            texts.append([ln for ln in fh.read().splitlines() if '"generated_at"' not in ln])
    sweep_ok = texts[0] == texts[1]

    task = synth_generate(SyntheticSpec(C=4, d=8, labeled_per_class=1, unlabeled_per_class=6))
    first = tmp_path / "rt1.ple"
    second = tmp_path / "rt2.ple"
    write_ple(str(first), task.train, task.space)
    data, space = read_ple(str(first))
    write_ple(str(second), data, space)
    ple_ok = first.read_bytes() == second.read_bytes()

    ok = sweep_ok and ple_ok
    _verdict(11, "determinism", ok,
             f"result.json byte-identical modulo timestamp: {sweep_ok}; "
             f"PLE1 round trip bit-exact: {ple_ok}")


def test_criterion_12_schedule_values():
    s = TrainSchedule()  # 150 epochs, 5 warmup, 1e-4 -> 0.1
    warmup_ok = all(lr_at(s, e) == 1e-4 for e in range(5))
    peak_ok = lr_at(s, 5) == 0.1
    t = 149 - s.warmup_epochs
    span = s.epochs - s.warmup_epochs
    reference = s.peak_lr * 0.5 * (1.0 + math.cos(math.pi * t / span))
    tail_err = abs(lr_at(s, 149) - reference)
    ok = warmup_ok and peak_ok and tail_err < 1e-12
    _verdict(12, "learning-rate schedule values", ok,
             f"warmup epochs 0-4 at 1e-4: {warmup_ok}; epoch 5 at peak 0.1: {peak_ok}; "
             f"epoch 149 vs cosine formula err {tail_err:.1e} (limit 1e-12)")

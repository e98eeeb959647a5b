"""
Three learning paradigms over one embedding space
=================================================

The same training loop serves three data regimes: SSL, UL and TRZSL. Each
paradigm is a way of splitting the train set into a labeled subset and an
unlabeled pool, plus a pair of loss weights (gamma, lam) balancing labeled
cross-entropy against pseudolabel cross-entropy. The weight rule also covers
supervised learning (SL), which has no pool for a strategy to refine.
"""

from dataclasses import replace

from plrefine import (
    ParadigmConfig,
    StrategyConfig,
    SyntheticSpec,
    paradigm_weights,
    run_strategy,
    synth_generate,
    wire_paradigm,
)
from plrefine.strategies import default_schedule

task = synth_generate(SyntheticSpec(C=6, d=24, labeled_per_class=8,
                                    unlabeled_per_class=40, seed=2))

# How each paradigm carves up the same train set.
for cfg in (ParadigmConfig("SSL", shots_per_class=2), ParadigmConfig("UL"), ParadigmConfig("TRZSL")):
    split = wire_paradigm(cfg, task.train, task.space, seed=0)
    print(f"{cfg.paradigm:>5}: {split.labeled.n:>3} labeled rows, "
          f"{len(split.pool_rows):>3} pool rows, "
          f"pseudolabel classes {split.pseudolabel_classes}")

# The loss weights depend only on the two side sizes. SSL upweights the
# scarce labeled shots; TRZSL downweights the plentiful pseudolabels; UL
# and SL each switch one side off entirely.
print()
for p in ("SSL", "UL", "TRZSL", "SL"):
    gamma, lam = paradigm_weights(p, n_labeled=12, n_pseudo=96)
    print(f"{p:>5}: gamma={gamma:.3g}, lam={lam:.3g}  (12 labeled, 96 pseudo)")

# TRZSL trains on labeled seen-class rows plus pseudolabeled unseen-class
# rows, and reports both sides along with their harmonic mean.
base = StrategyConfig(
    strategy="GRIP",
    paradigm=ParadigmConfig("TRZSL"),
    I=3,
    seed=0,
    temperature=10.0,
    schedule=default_schedule("textual", epochs=30),
)
res = run_strategy(base, task)
rep = res.final_report
print(f"\nTRZSL GRIP: seen {rep.seen_accuracy:.3f}, unseen {rep.unseen_accuracy:.3f}, "
      f"harmonic {rep.harmonic:.3f}")

# SSL with two shots per class uses both loss terms at once.
ssl = replace(base, strategy="IFPL",
              paradigm=ParadigmConfig("SSL", shots_per_class=2))
print(f"SSL IFPL:   test accuracy {run_strategy(ssl, task).final_report.overall:.3f}")

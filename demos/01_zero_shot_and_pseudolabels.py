"""
Zero-shot classification and class-balanced pseudolabels
========================================================

Walks the first half of the pipeline: build a synthetic embedding task,
score it with the untrained surrogate, then harvest top-K pseudolabels
per class and see how good they are.
"""

import numpy as np

from plrefine import (
    SyntheticSpec,
    effective_k,
    pseudolabel_accuracy,
    similarity_matrix,
    synth_generate,
    topk_per_class,
    zero_shot_report,
)

# A task is a train/test pair of unit-norm embeddings plus one class space.
# Class directions live on the unit sphere; sigma blurs the examples around
# them and delta misaligns the stored prototypes from the true directions.
spec = SyntheticSpec(C=8, d=32, labeled_per_class=4, unlabeled_per_class=40,
                     sigma=0.6, delta=0.6, seed=4)
task = synth_generate(spec)
print(f"train rows: {task.train.n}, test rows: {task.test.n}, classes: {task.space.C}")

# Zero-shot means cosine similarity against the base prototypes, argmax, done.
zs = zero_shot_report(task.test, task.space)
print(f"zero-shot test accuracy: {zs.overall:.3f}")
print("per-class:", np.round(zs.per_class, 2))

# Pseudolabels come from the train-side pool. The scorer is a plain matrix
# of cosine similarities, rows = examples, columns = classes.
S = similarity_matrix(task.train.features, task.space.base_prototypes)
print(f"similarity matrix: {S.shape}, range [{S.min():.2f}, {S.max():.2f}]")

# Top-K per class: each column independently keeps its K highest-scoring
# rows. One row may appear under several columns; ties go to the lower id.
pl = topk_per_class(S, 16, range(task.space.C), task.train.ids)
print(f"pseudolabels: {pl.m} assignments, {len(set(pl.example_ids.tolist()))} distinct examples")

# The synthetic train set keeps every row's true class, so it is the ground truth.
print(f"pseudolabel accuracy at K=16: {pseudolabel_accuracy(pl, task.train):.3f}")

# Smaller K keeps only the most confident rows per class, so quality rises.
for k in (32, 16, 8, 4, 1):
    acc = pseudolabel_accuracy(topk_per_class(S, k, range(task.space.C), task.train.ids), task.train)
    print(f"  K={k:>2}: accuracy {acc:.3f}")

# When the pool is too small for the request the quota shrinks to keep the
# per-class allocation feasible, never below one per class.
print("effective K for requested 16:",
      [effective_k(16, n, task.space.C) for n in (400, 100, 40, 5)],
      "at pool sizes 400/100/40/5")

"""Time the prompt surrogate's optimizer step and its loss-and-gradient call.

    python3 tools/step_time.py [--toy]

For each modality at two shapes, prints the minimum over REPEATS runs of
the microseconds per ``training.train`` optimizer step and per
``surrogate.batch_loss_and_grad`` call:

- calibration: C=10, d=32, M=16, batch 64, where Python overhead dominates;
- full scale: C=100, d=512, M=16, batch 128, where the mixers dominate.

A train run is EPOCHS epochs over one pseudolabeled pool of BATCHES_PER_EPOCH
full batches, so its per-step time includes each epoch's shuffle. The loss
call takes one batch as a single pool. ``--toy`` runs one tiny shape instead,
in well under a second. All inputs come from a fixed seed; the timings are
of whatever machine runs the script.

The package is imported from ``src/`` next to this directory, so the numbers
describe the checkout the script sits in.
"""

import argparse
import sys
import timeit
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from plrefine.core import ClassSpace, EmbeddingSet  # noqa: E402
from plrefine.pseudolabels import PseudolabelSet  # noqa: E402
from plrefine.surrogate import MODALITIES, batch_loss_and_grad, init_prompt  # noqa: E402
from plrefine.training import TrainSchedule, train  # noqa: E402

# name -> (C, d, M, batch)
SHAPES = {"calibration": (10, 32, 16, 64), "full scale": (100, 512, 16, 128)}
TOY_SHAPES = {"toy": (4, 8, 2, 8)}
REPEATS = 7
EPOCHS = 2
BATCHES_PER_EPOCH = 4
LOSS_CALLS = 20


def _unit_rows(rng, n, d):
    x = rng.standard_normal((n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def time_shape(C: int, d: int, M: int, batch: int, repeats: int, loss_calls: int) -> dict:
    """modality -> (µs per train step, µs per loss-and-gradient call)."""
    rng = np.random.default_rng(0)
    n = batch * BATCHES_PER_EPOCH
    space = ClassSpace(tuple(f"c{j}" for j in range(C)), _unit_rows(rng, C, d))
    classes = rng.integers(0, C, size=n)
    data = EmbeddingSet(_unit_rows(rng, n, d), classes, np.arange(n, dtype=np.uint64))
    pseudo = PseudolabelSet(data.ids, classes, np.zeros(n), k_used=n)
    schedule = TrainSchedule(epochs=EPOCHS, warmup_epochs=1, batch_size=batch)
    steps = EPOCHS * BATCHES_PER_EPOCH
    feats, labels = data.features[:batch], classes[:batch]
    out = {}
    for modality in MODALITIES:
        model = init_prompt(modality, M, d, seed=0)
        step_s = min(
            timeit.repeat(lambda: train(model, data, space, None, pseudo, (0.0, 1.0), schedule, seed=0), number=1, repeat=repeats)
        )
        loss_s = min(
            timeit.repeat(lambda: batch_loss_and_grad(model, feats, labels, space), number=loss_calls, repeat=repeats)
        )
        out[modality] = (1e6 * step_s / steps, 1e6 * loss_s / loss_calls)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--toy", action="store_true", help="one tiny shape and few repeats")
    args = parser.parse_args(argv)
    shapes, repeats, loss_calls = (TOY_SHAPES, 2, 2) if args.toy else (SHAPES, REPEATS, LOSS_CALLS)
    print(f"{'shape':<12} {'modality':<11} {'train step µs':>14} {'loss+grad µs':>13}")
    for name, (C, d, M, batch) in shapes.items():
        for modality, (step_us, loss_us) in time_shape(C, d, M, batch, repeats, loss_calls).items():
            print(f"{name:<12} {modality:<11} {step_us:>14.1f} {loss_us:>13.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

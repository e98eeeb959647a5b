"""Plain linear classification head over frozen features.

Used as the comparison head in the redistribution analysis: same optimizer,
same losses, but a full (C, d) weight matrix instead of a shared prompt
offset, so it can carve the feature space freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .core import ClassSpace, cross_entropy_of_checked, float_matrix, frozen_array, index_vector, int_scalar, pool_blocks


@dataclass(frozen=True)
class LinearProbe:
    """Logits are feats @ W.T; W starts at zero and is fully trainable.
    feats must be an (n, d) matrix with d the width of W."""

    W: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "W", frozen_array(float_matrix(self.W, "W")))

    def learnable(self) -> Dict[str, np.ndarray]:
        return {"W": self.W}

    def with_learnable(self, params: Dict[str, np.ndarray]) -> "LinearProbe":
        return LinearProbe(params["W"])

    def loss_and_grad(
        self, feats: np.ndarray, labels: np.ndarray, space: ClassSpace, pools=None
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        """Softmax cross-entropy over all C classes, weighted per ``pools``
        block as in core.softmax_cross_entropy, and its W gradient. The
        labels (in [0, C) for W's C rows) and the blocks are checked once,
        as in surrogate.batch_loss_and_grad, before the logits are made."""
        Z = float_matrix(feats, "feats", self.W.shape[1])
        labels = index_vector(labels, "labels", Z.shape[0], lo=0, hi=self.W.shape[0])
        loss, G = cross_entropy_of_checked(Z @ self.W.T, labels, pool_blocks(pools, Z.shape[0]))
        return loss, {"W": G.T @ Z}

    def scores(self, feats: np.ndarray, space: ClassSpace) -> np.ndarray:
        return float_matrix(feats, "feats", self.W.shape[1]) @ self.W.T


def init_linear_probe(C: int, d: int) -> LinearProbe:
    """Zero-initialized probe: the first forward pass is a uniform softmax."""
    return LinearProbe(np.zeros((int_scalar(C, "C", 1), int_scalar(d, "d", 1))))

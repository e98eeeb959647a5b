"""Plain linear classification head over frozen features.

Used as the comparison head in the redistribution analysis: same optimizer,
same losses, but a full (C, d) weight matrix instead of a shared prompt
offset, so it can carve the feature space freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .core import ClassSpace, frozen_array, softmax_cross_entropy


@dataclass(frozen=True)
class LinearProbe:
    """Logits are feats @ W.T; W starts at zero and is fully trainable."""

    W: np.ndarray

    def __post_init__(self) -> None:
        W = frozen_array(self.W, np.float64)
        if W.ndim != 2:
            raise ValueError("W must be a (C, d) matrix")
        object.__setattr__(self, "W", W)

    def learnable(self) -> Dict[str, np.ndarray]:
        return {"W": self.W}

    def with_learnable(self, params: Dict[str, np.ndarray]) -> "LinearProbe":
        return LinearProbe(params["W"])

    def loss_and_grad(
        self, feats: np.ndarray, labels: np.ndarray, space: ClassSpace
    ) -> Tuple[float, Dict[str, np.ndarray]]:
        """Mean softmax cross-entropy over all C classes and its W gradient."""
        Z = np.asarray(feats, dtype=np.float64)
        loss, G = softmax_cross_entropy(Z @ self.W.T, np.asarray(labels, dtype=np.int64))
        return loss, {"W": G.T @ Z}

    def scores(self, feats: np.ndarray, space: ClassSpace) -> np.ndarray:
        return np.asarray(feats, dtype=np.float64) @ self.W.T


def init_linear_probe(C: int, d: int) -> LinearProbe:
    """Zero-initialized probe: the first forward pass is a uniform softmax."""
    if C < 1 or d < 1:
        raise ValueError("C and d must be positive")
    return LinearProbe(np.zeros((C, d)))

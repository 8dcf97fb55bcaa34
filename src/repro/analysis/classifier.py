"""A simple latent-space regime classifier.

Section V-B argues that the model "clearly learned to partition the latent
space into regions for different flow directions and vortex regions", such
that "a simple, almost linear classifier" can predict the physical regime
from the latent vector — and that evaluating such a classifier quantifies
how well the unsupervised training extracted the underlying physics.  This
module provides that classifier: multinomial logistic regression trained
with full-batch gradient descent on NumPy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.rng import RandomState, seeded_rng


class LatentRegimeClassifier:
    """Multinomial logistic regression ``labels = argmax softmax(z W + b)``."""

    def __init__(self, n_classes: int = 3, learning_rate: float = 0.1,
                 n_epochs: int = 300, l2: float = 1e-4, rng: RandomState = None) -> None:
        if n_classes < 2:
            raise ValueError("need at least two classes")
        self.n_classes = int(n_classes)
        self.learning_rate = float(learning_rate)
        self.n_epochs = int(n_epochs)
        self.l2 = float(l2)
        self.rng = seeded_rng(rng)
        self.weights: Optional[np.ndarray] = None
        self.bias: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._std: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def _standardise(self, features: np.ndarray, fit: bool) -> np.ndarray:
        if fit:
            self._mean = features.mean(axis=0)
            self._std = features.std(axis=0) + 1e-12
        assert self._mean is not None and self._std is not None
        return (features - self._mean) / self._std

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return exp / exp.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------ #
    def fit(self, latents: np.ndarray, labels: np.ndarray) -> "LatentRegimeClassifier":
        """Train on latent vectors ``(N, D)`` and integer labels ``(N,)``."""
        latents = np.asarray(latents, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if latents.ndim != 2 or labels.ndim != 1 or len(latents) != len(labels):
            raise ValueError("latents must be (N, D) and labels (N,)")
        if labels.min() < 0 or labels.max() >= self.n_classes:
            raise ValueError("labels out of range")
        x = self._standardise(latents, fit=True)
        n, d = x.shape
        one_hot = np.zeros((n, self.n_classes))
        one_hot[np.arange(n), labels] = 1.0
        self.weights = 0.01 * self.rng.standard_normal((d, self.n_classes))
        self.bias = np.zeros(self.n_classes)
        for _ in range(self.n_epochs):
            probabilities = self._softmax(x @ self.weights + self.bias)
            grad_logits = (probabilities - one_hot) / n
            grad_w = x.T @ grad_logits + self.l2 * self.weights
            grad_b = grad_logits.sum(axis=0)
            self.weights -= self.learning_rate * grad_w
            self.bias -= self.learning_rate * grad_b
        return self

    def predict_proba(self, latents: np.ndarray) -> np.ndarray:
        if self.weights is None or self.bias is None:
            raise RuntimeError("the classifier has not been fitted")
        x = self._standardise(np.asarray(latents, dtype=np.float64), fit=False)
        return self._softmax(x @ self.weights + self.bias)

    def predict(self, latents: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(latents), axis=1)

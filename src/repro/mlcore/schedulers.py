"""Learning-rate warm-up and gradient clipping for large-batch training.

Section V-A1 concludes that "comprehensive studies of the relations between
the block learning rates l_VAE and l_INN, batch sizes, and maybe even loss
weights have to be performed" for in-transit training at scale.  The two
tools ``MLConfig`` exposes for that are here: a linear warm-up (essential
with the square-root-scaled rates of large batches) and global-norm
gradient clipping to keep the INN's exponential couplings stable early in
training.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.mlcore.module import Parameter
from repro.mlcore.optim import Optimizer

#: Fraction of each group's rate that the first warm-up step starts from.
WARMUP_START_FACTOR = 0.1


class WarmupScheduler:
    """Linear warm-up of every parameter group's learning rate, from
    :data:`WARMUP_START_FACTOR` times its base value to the base value over
    ``warmup_steps`` training iterations."""

    def __init__(self, optimizer: Optimizer, warmup_steps: int) -> None:
        if warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        self.optimizer = optimizer
        self.warmup_steps = int(warmup_steps)
        self._base_lrs = [group.lr for group in optimizer.param_groups]
        self._step_count = 0

    def factor(self, step: int) -> float:
        if step >= self.warmup_steps:
            return 1.0
        progress = step / self.warmup_steps
        return WARMUP_START_FACTOR + (1.0 - WARMUP_START_FACTOR) * progress

    def step(self) -> None:
        """Advance the schedule by one training iteration."""
        self._step_count += 1
        scale = self.factor(self._step_count)
        for group, base in zip(self.optimizer.param_groups, self._base_lrs):
            group.lr = base * scale


def clip_gradient_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients so their global L2 norm is at most ``max_norm``.

    Returns the norm *before* clipping (useful for monitoring).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = math.sqrt(sum(float(np.sum(p.grad * p.grad)) for p in params))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in params:
            p.grad = p.grad * scale
    return total

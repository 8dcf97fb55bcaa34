"""Optimisers and learning-rate scaling rules.

The paper trains with Adam using ``beta1 = 0.8``, ``beta2 = 0.9``,
``eps = 1e-6`` and weight decay ``2e-5`` (Section IV-C), scales learning
rates with the square-root rule when increasing the global batch size
(Krizhevsky's "one weird trick") and uses a *higher* learning rate for the
VAE block than for the INN block (``m_VAE`` in Section V-A1).  Parameter
groups make that split explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro.mlcore.module import Parameter

#: Default Adam hyper-parameters from the paper.
PAPER_ADAM_BETAS = (0.8, 0.9)
PAPER_ADAM_EPS = 1e-6
PAPER_WEIGHT_DECAY = 2e-5
PAPER_BASE_LEARNING_RATE = 1e-6


@dataclass
class ParamGroup:
    """A set of parameters sharing hyper-parameters (like torch param groups)."""

    params: List[Parameter]
    lr: float
    weight_decay: float = 0.0
    name: str = "default"
    state: Dict[int, dict] = field(default_factory=dict)


def sqrt_lr_scaling(base_lr: float, batch_size: int, base_batch_size: int) -> float:
    """Square-root learning-rate scaling rule for large-batch training.

    ``lr = base_lr * sqrt(batch_size / base_batch_size)``
    """
    if batch_size <= 0 or base_batch_size <= 0:
        raise ValueError("batch sizes must be positive")
    return base_lr * math.sqrt(batch_size / base_batch_size)


class Optimizer:
    """Base class holding parameter groups."""

    def __init__(self, params: Union[Iterable[Parameter], Sequence[ParamGroup]],
                 lr: float, weight_decay: float = 0.0) -> None:
        if lr < 0:
            raise ValueError("learning rate must be non-negative")
        params = list(params)
        if params and isinstance(params[0], ParamGroup):
            self.param_groups: List[ParamGroup] = list(params)  # type: ignore[arg-type]
        else:
            self.param_groups = [ParamGroup(params=list(params), lr=lr,
                                            weight_decay=weight_decay)]
        self._step_count = 0

    def add_param_group(self, group: ParamGroup) -> None:
        self.param_groups.append(group)

    def zero_grad(self) -> None:
        for group in self.param_groups:
            for p in group.params:
                p.zero_grad()

    @property
    def step_count(self) -> int:
        return self._step_count

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def set_lr(self, lr: float, group_name: Optional[str] = None) -> None:
        """Set the learning rate of one (by name) or all parameter groups."""
        for group in self.param_groups:
            if group_name is None or group.name == group_name:
                group.lr = lr


class SGD(Optimizer):
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(self, params, lr: float = 1e-3, momentum: float = 0.0,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        self.momentum = momentum

    def step(self) -> None:
        self._step_count += 1
        for group in self.param_groups:
            for p in group.params:
                if p.grad is None:
                    continue
                grad = p.grad
                if group.weight_decay:
                    grad = grad + group.weight_decay * p.data
                if self.momentum:
                    state = group.state.setdefault(id(p), {})
                    buf = state.get("momentum")
                    if buf is None:
                        # a copy: the buffer is updated in place from now on
                        buf = state["momentum"] = np.array(grad)
                    else:
                        buf *= self.momentum
                        buf += grad
                    grad = buf
                p.data -= group.lr * grad


class Adam(Optimizer):
    """Adam optimiser with the paper's default hyper-parameters."""

    def __init__(self, params, lr: float = PAPER_BASE_LEARNING_RATE,
                 betas: Sequence[float] = PAPER_ADAM_BETAS,
                 eps: float = PAPER_ADAM_EPS,
                 weight_decay: float = PAPER_WEIGHT_DECAY) -> None:
        super().__init__(params, lr, weight_decay)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must lie in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)

    def step(self) -> None:
        self._step_count += 1
        b1, b2 = self.beta1, self.beta2
        for group in self.param_groups:
            for p in group.params:
                if p.grad is None:
                    continue
                state = group.state.get(id(p))
                if state is None:
                    state = group.state[id(p)] = {"step": 0,
                                                  "m": np.zeros_like(p.data),
                                                  "v": np.zeros_like(p.data)}
                state["step"] += 1
                t = state["step"]
                m, v = state["m"], state["v"]
                # ``work`` is the one temporary: gradient, then its square,
                # then the denominator, then the update itself
                if group.weight_decay:
                    work = group.weight_decay * p.data
                    work += p.grad
                else:
                    work = p.grad.copy()
                m *= b1
                m += (1.0 - b1) * work
                v *= b2
                work *= work
                work *= 1.0 - b2
                v += work
                # p -= lr * (m / c1) / (sqrt(v / c2) + eps), with the bias
                # corrections c1, c2 hoisted into scalars
                np.sqrt(v, out=work)
                work *= 1.0 / math.sqrt(1.0 - b2 ** t)
                work += self.eps
                np.divide(m, work, out=work)
                work *= group.lr / (1.0 - b1 ** t)
                p.data -= work


def make_block_param_groups(vae_params: Iterable[Parameter],
                            inn_params: Iterable[Parameter],
                            base_lr: float = PAPER_BASE_LEARNING_RATE,
                            m_vae: float = 10.0,
                            weight_decay: float = PAPER_WEIGHT_DECAY,
                            batch_size: Optional[int] = None,
                            base_batch_size: int = 8) -> List[ParamGroup]:
    """Create the VAE/INN parameter groups with separate learning rates.

    The paper observes that the VAE only finds good minima at the highest
    learning rate while the INN losses converge best at lower rates, hence
    ``l_VAE = m_VAE * l_INN``.  If ``batch_size`` is given, both rates are
    additionally scaled with the square-root rule.
    """
    lr_inn = base_lr
    if batch_size is not None:
        lr_inn = sqrt_lr_scaling(base_lr, batch_size, base_batch_size)
    lr_vae = lr_inn * m_vae
    return [
        ParamGroup(params=list(vae_params), lr=lr_vae,
                   weight_decay=weight_decay, name="vae"),
        ParamGroup(params=list(inn_params), lr=lr_inn,
                   weight_decay=weight_decay, name="inn"),
    ]

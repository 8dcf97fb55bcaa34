"""The Adam optimiser and the VAE/INN learning-rate split.

The paper trains with Adam using ``beta1 = 0.8``, ``beta2 = 0.9``,
``eps = 1e-6`` and weight decay ``2e-5`` (Section IV-C) and uses a *higher*
learning rate for the VAE block than for the INN block (``m_VAE`` in
Section V-A1).  Parameter groups make that split explicit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Union

import numpy as np

from repro.mlcore.module import Parameter

#: Default Adam hyper-parameters from the paper.
PAPER_ADAM_BETAS = (0.8, 0.9)
PAPER_ADAM_EPS = 1e-6
PAPER_WEIGHT_DECAY = 2e-5
PAPER_BASE_LEARNING_RATE = 1e-6


@dataclass
class ParamGroup:
    """A set of parameters sharing hyper-parameters (like torch param groups).

    ``state`` holds the group's flat Adam buffers once it has been stepped.
    """

    params: List[Parameter]
    lr: float
    weight_decay: float = 0.0
    name: str = "default"
    state: Dict[object, object] = field(default_factory=dict)


def _check_lr(lr: float) -> None:
    if not math.isfinite(lr) or lr < 0:
        raise ValueError(f"learning rate must be finite and non-negative, "
                         f"got {lr!r}")


class Optimizer:
    """Holds the parameter groups; :class:`Adam` steps them."""

    def __init__(self, params: Union[Iterable[Parameter], Sequence[ParamGroup]],
                 lr: float, weight_decay: float = 0.0) -> None:
        _check_lr(lr)
        params = list(params)
        if params and isinstance(params[0], ParamGroup):
            self.param_groups: List[ParamGroup] = list(params)  # type: ignore[arg-type]
        else:
            self.param_groups = [ParamGroup(params=list(params), lr=lr,
                                            weight_decay=weight_decay)]
        for group in self.param_groups:
            _check_lr(group.lr)

    def zero_grad(self) -> None:
        for group in self.param_groups:
            for p in group.params:
                p.zero_grad()


class Adam(Optimizer):
    """Adam optimiser with the paper's default hyper-parameters.

    A parameter group's moments live in flat buffers (``group.state["m"]``
    and ``["v"]``, parameters laid end to end in group order, with a step
    count per parameter in ``["step"]``), so one step gathers the group's
    gradients once and updates it with a dozen whole-buffer NumPy calls
    instead of a dozen per parameter.  The parameters themselves stay
    independently owned arrays and are updated in place.

    A parameter without a gradient is not updated, and its moments and step
    count do not advance: the update runs over each range of consecutive
    parameters that have a gradient and share a step count, which on a
    training step where every parameter has one is the whole group.
    """

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
        for group in self.param_groups:
            state = group.state or self._flat_state(group)
            steps = state["step"]
            keys = []
            for index, p in enumerate(group.params):
                if p.grad is None:
                    keys.append(None)
                else:
                    steps[index] += 1
                    keys.append(steps[index])
            start = 0
            for t, run in itertools.groupby(keys):
                stop = start + sum(1 for _ in run)
                if t is not None:
                    self._update(group, state, start, stop, t)
                start = stop

    @staticmethod
    def _flat_state(group: ParamGroup) -> dict:
        offsets = list(itertools.accumulate((p.data.size for p in group.params),
                                            initial=0))
        work = np.empty(offsets[-1])
        group.state.update(
            m=np.zeros(offsets[-1]), v=np.zeros(offsets[-1]),
            step=[0] * len(group.params), offsets=offsets, work=work,
            scratch=np.empty(offsets[-1]),
            # each parameter's slice of ``work``, in its own shape
            updates=[work[a:b].reshape(p.data.shape) for p, a, b in
                     zip(group.params, offsets, offsets[1:])])
        return group.state

    def _update(self, group: ParamGroup, state: dict, first: int, last: int,
                t: int) -> None:
        """Update parameters ``first:last`` of ``group``, all at step ``t``."""
        params = group.params[first:last]
        lo, hi = state["offsets"][first], state["offsets"][last]
        m, v = state["m"][lo:hi], state["v"][lo:hi]
        work, scratch = state["work"][lo:hi], state["scratch"][lo:hi]
        b1, b2 = self.beta1, self.beta2
        # ``work`` holds the gradient, then its square, then the denominator,
        # then the update itself
        if group.weight_decay:
            np.concatenate([p.data for p in params], axis=None, out=work)
            work *= group.weight_decay
            np.concatenate([p.grad for p in params], axis=None, out=scratch)
            work += scratch
        else:
            np.concatenate([p.grad for p in params], axis=None, out=work)
        m *= b1
        np.multiply(work, 1.0 - b1, out=scratch)
        m += scratch
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
        for p, update in zip(params, state["updates"][first:last]):
            p.data -= update


def make_block_param_groups(vae_params: Iterable[Parameter],
                            inn_params: Iterable[Parameter],
                            base_lr: float, m_vae: float,
                            weight_decay: float = PAPER_WEIGHT_DECAY
                            ) -> List[ParamGroup]:
    """Create the VAE/INN parameter groups with separate learning rates.

    The paper observes that the VAE only finds good minima at the highest
    learning rate while the INN losses converge best at lower rates, hence
    ``l_VAE = m_VAE * l_INN``.
    """
    return [
        ParamGroup(params=list(vae_params), lr=base_lr * m_vae,
                   weight_decay=weight_decay, name="vae"),
        ParamGroup(params=list(inn_params), lr=base_lr,
                   weight_decay=weight_decay, name="inn"),
    ]

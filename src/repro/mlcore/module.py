"""Module/Parameter containers, the minimal analogue of ``torch.nn.Module``."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.mlcore.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is registered as a trainable parameter of a module."""

    __slots__ = ()

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for neural-network building blocks.

    Sub-modules and parameters assigned as attributes are registered
    automatically, mirroring PyTorch semantics:

    * :meth:`parameters` / :meth:`named_parameters` walk the module tree,
    * :meth:`state_dict` / :meth:`load_state_dict` snapshot parameter values,
    * :meth:`train` / :meth:`eval` toggle the ``training`` flag (used by
      the VAE's sampling behaviour).
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute registration ----------------------------------------- #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a sub-module under ``name``."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ------------------------------------------------------- #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    # -- training state --------------------------------------------------- #
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- (de)serialisation ------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat ``name -> ndarray copy`` mapping of all parameters."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values from :meth:`state_dict` output; the names
        must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: "
                                 f"{value.shape} vs {param.data.shape}")
            param.data[...] = value

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.data.size for p in self.parameters()))

    # -- forward (``forward`` is each subclass's own) ----------------------- #
    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

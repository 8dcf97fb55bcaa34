"""Module containers."""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.mlcore.layers.activation import ReLU
from repro.mlcore.layers.conv import PointwiseConv
from repro.mlcore.layers.linear import Linear
from repro.mlcore.module import Module
from repro.mlcore.tensor import Tensor


class ModuleList(Module):
    """A list of sub-modules, registered as ``"0"``, ``"1"``, ... for
    parameter traversal."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        for index, module in enumerate(modules):
            self.add_module(str(index), module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __len__(self) -> int:
        return len(self._modules)


class Sequential(ModuleList):
    """Apply modules in order.

    A :class:`ReLU` rectifies the Linear or PointwiseConv layer before it,
    and the two run as one autograd node
    (:func:`repro.mlcore.functional.affine`).
    """

    def __init__(self, *modules: Module) -> None:
        for before, module in zip((None,) + modules, modules):
            if type(module) is ReLU and not isinstance(before, (Linear, PointwiseConv)):
                raise ValueError("a ReLU must follow a Linear or PointwiseConv layer")
        super().__init__(modules)

    def forward(self, x: Tensor) -> Tensor:
        modules = list(self)
        for module, after in zip(modules, modules[1:] + [None]):
            if type(module) is not ReLU:
                x = module(x, relu=True) if type(after) is ReLU else module(x)
        return x

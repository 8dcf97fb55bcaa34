"""Module containers."""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.mlcore.layers.activation import ReLU
from repro.mlcore.layers.conv import PointwiseConv
from repro.mlcore.layers.linear import Linear
from repro.mlcore.module import Module
from repro.mlcore.tensor import Tensor


class Sequential(Module):
    """Apply modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = str(index)
            self.add_module(name, module)
            self._order.append(name)

    def append(self, module: Module) -> "Sequential":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, x: Tensor) -> Tensor:
        modules = list(self)
        index = 0
        while index < len(modules):
            module = modules[index]
            # an affine layer and the ReLU after it run as one autograd node
            fuse = (isinstance(module, (Linear, PointwiseConv))
                    and index + 1 < len(modules)
                    and type(modules[index + 1]) is ReLU)
            x = module(x, relu=True) if fuse else module(x)
            index += 2 if fuse else 1
        return x


class ModuleList(Module):
    """A list of sub-modules registered for parameter traversal."""

    def __init__(self, modules: Iterable[Module] = ()) -> None:
        super().__init__()
        self._order: List[str] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        name = str(len(self._order))
        self.add_module(name, module)
        self._order.append(name)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index: int) -> Module:
        return self._modules[self._order[index]]

    def forward(self, *args, **kwargs):  # pragma: no cover - not callable
        raise RuntimeError("ModuleList is a container and cannot be called")

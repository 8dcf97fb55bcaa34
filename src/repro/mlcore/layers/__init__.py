"""Neural-network layers used by the paper's architecture (Fig. 7)."""

from repro.mlcore.layers.linear import Linear, MLP
from repro.mlcore.layers.activation import ReLU
from repro.mlcore.layers.container import ModuleList, Sequential
from repro.mlcore.layers.conv import ConvTranspose3d, PointwiseConv
from repro.mlcore.layers.pooling import MaxPoolPoints

__all__ = [
    "Linear",
    "MLP",
    "ReLU",
    "Sequential",
    "ModuleList",
    "PointwiseConv",
    "ConvTranspose3d",
    "MaxPoolPoints",
]

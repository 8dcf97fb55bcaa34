"""A small NumPy-based deep-learning substrate (PyTorch stand-in).

The paper's MLapp is built on PyTorch with Distributed Data Parallel (DDP)
training.  Since the reproduction is pure Python/NumPy, this subpackage
implements the pieces the MLapp actually relies on, and nothing else:

* :mod:`repro.mlcore.tensor` — a reverse-mode autograd :class:`Tensor`,
* :mod:`repro.mlcore.functional` — the fused autograd nodes the model is
  built from (affine + ReLU, pairwise distances, reparameterisation, the
  weighted loss total, column selection),
* :mod:`repro.mlcore.module` — ``Module``/``Parameter`` containers,
* :mod:`repro.mlcore.layers` — Linear, MLP, point-wise convolutions, max
  pooling, transposed 3D convolutions, ReLU and ``Sequential``,
* :mod:`repro.mlcore.losses` — MSE, Chamfer distance, KL divergence and MMD
  with an inverse multi-quadratic kernel,
* :mod:`repro.mlcore.optim` — Adam with the paper's hyper-parameters and
  the VAE/INN parameter groups.

Data-parallel training across ranks is modelled, not executed: the Fig. 8
weak-scaling study is :mod:`repro.perfmodel.ddp`.
"""

from repro.mlcore.tensor import Tensor, no_grad
from repro.mlcore.module import Module, Parameter
from repro.mlcore import functional
from repro.mlcore import layers
from repro.mlcore import losses
from repro.mlcore import optim

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "functional",
    "layers",
    "losses",
    "optim",
]

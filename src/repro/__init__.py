"""repro — reproduction of "The Artificial Scientist: in-transit Machine
Learning of Plasma Simulations" (Kelling et al., IPDPS 2025).

The package is organised as a set of substrates (PIC simulation, radiation
diagnostics, openPMD series, SST-like streaming, a NumPy deep-learning
core) and the paper's primary contribution on top of them: the loosely
coupled, in-transit learning workflow (:mod:`repro.core`) with its VAE+INN
model (:mod:`repro.models`) and experience-replay continual learning
(:mod:`repro.continual`).

Subpackages are imported lazily so that e.g. using only the PIC simulator
does not pull in the ML stack.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

__version__ = "1.0.0"

_SUBPACKAGES = (
    "analysis",
    "campaign",
    "constants",
    "continual",
    "core",
    "mlcore",
    "models",
    "openpmd",
    "perfmodel",
    "pic",
    "radiation",
    "service",
    "streaming",
    "utils",
    "workflow",
)

__all__ = list(_SUBPACKAGES) + ["__version__"]


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        module = importlib.import_module(f"repro.{name}")
        globals()[name] = module
        return module
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


if TYPE_CHECKING:  # pragma: no cover
    from repro import (analysis, campaign, constants, continual, core,  # noqa: F401
                       mlcore, models, openpmd, perfmodel, pic, radiation,
                       service, streaming, utils, workflow)

"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation
(``docs/performance.md`` records what the repo measures and how).
Reproduced values are attached to
``benchmark.extra_info`` so that ``pytest benchmarks/ --benchmark-only``
produces both timing and the regenerated rows/series.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import WorkflowConfig
from repro.workflow import get_preset


def tiny_workflow_config(n_rep: int = 2, seed: int = 11) -> WorkflowConfig:
    """The ``bench-tiny`` preset, re-seeded for the calling benchmark."""
    config = get_preset("bench-tiny")
    return replace(config,
                   khi=replace(config.khi, seed=seed),
                   ml=replace(config.ml, n_rep=n_rep),
                   seed=seed)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987)

"""Named workflow configuration presets.

The seed code hand-built ``ModelConfig``/``WorkflowConfig`` literals in the
CLI, every example and every benchmark.  Presets give those one home:

* ``laptop``     — the package defaults: finishes in seconds, exercises
  every component of the full-scale workflow,
* ``cli-small``  — the slightly smaller configuration the CLI ``run``
  command has always used (64-point clouds, 16-dim spectra),
* ``bench-tiny`` — the benchmark-harness configuration (48-point clouds),
* ``paper``      — the full Section IV configuration (192×256×12 cells,
  30 000-point clouds, 544-dim latent); build-able anywhere, runnable only
  on real HPC resources.

Presets are factories: every call returns a fresh ``WorkflowConfig`` that
can be mutated (``dataclasses.replace``) without affecting later calls.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict

from repro.core.config import MLConfig, StreamingConfig, WorkflowConfig
from repro.models.config import ModelConfig, paper_config
from repro.pic.khi import KHIConfig


def _laptop() -> WorkflowConfig:
    return WorkflowConfig()


def _cli_small() -> WorkflowConfig:
    model = ModelConfig(n_input_points=64, encoder_channels=(16, 32),
                        encoder_head_hidden=32, latent_dim=32,
                        decoder_grid=(2, 2, 2), decoder_channels=(8, 6),
                        spectrum_dim=16, inn_blocks=2, inn_hidden=(32,))
    return WorkflowConfig(
        khi=KHIConfig(grid_shape=(8, 16, 2), particles_per_cell=4, seed=42),
        ml=MLConfig(model=model, n_rep=2, base_learning_rate=1e-3),
        streaming=StreamingConfig(queue_limit=2),
        region_counts=(1, 4, 1), n_detector_directions=2, seed=42)


def _bench_tiny() -> WorkflowConfig:
    # the CLI small-run shape with a smaller point cloud and its own seed
    base = _cli_small()
    return replace(base,
                   khi=replace(base.khi, seed=11),
                   ml=replace(base.ml,
                              model=replace(base.ml.model, n_input_points=48)),
                   seed=11)


def _paper() -> WorkflowConfig:
    # Section IV: smallest volume 192x256x12, 30k-point clouds, 544-dim
    # latent, base LR 1e-6, 128-dim spectra (8 directions x 16 frequencies).
    return WorkflowConfig(
        khi=KHIConfig.paper(),
        ml=MLConfig(model=paper_config(), n_rep=4, base_learning_rate=1e-6),
        streaming=StreamingConfig(queue_limit=2),
        region_counts=(1, 8, 1), n_detector_directions=8, seed=2024)


_PRESETS: Dict[str, Callable[[], WorkflowConfig]] = {
    "laptop": _laptop,
    "cli-small": _cli_small,
    "bench-tiny": _bench_tiny,
    "paper": _paper,
}


def available_presets() -> tuple:
    return tuple(sorted(_PRESETS))


def register_preset(name: str, factory: Callable[[], WorkflowConfig],
                    overwrite: bool = False) -> None:
    """Add a named preset (e.g. a site- or study-specific configuration)."""
    if name in _PRESETS and not overwrite:
        raise ValueError(f"preset {name!r} is already registered")
    _PRESETS[name] = factory


def get_preset(name: str) -> WorkflowConfig:
    """Build a fresh :class:`WorkflowConfig` for a named preset."""
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; valid presets: "
                         f"{', '.join(available_presets())}") from None
    return factory()


def preset_rows() -> list:
    """Digest of every preset for the CLI ``presets`` table."""
    rows = []
    for name in available_presets():
        config = get_preset(name)
        rows.append({
            "name": name,
            "grid": "x".join(str(n) for n in config.khi.grid_shape),
            "particles_per_cell": config.khi.particles_per_cell,
            "n_input_points": config.ml.model.n_input_points,
            "latent_dim": config.ml.model.latent_dim,
            "n_rep": config.ml.n_rep,
            "seed": config.seed,
        })
    return rows

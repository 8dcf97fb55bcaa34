"""Named campaign presets.

Mirrors :mod:`repro.workflow.presets` one level up: where a workflow preset
names one run's configuration, a campaign preset names a whole sweep.

* ``campaign-smoke`` — the CI smoke campaign: an 8-run sweep (2 learning
  rates × 4 ensemble seeds) over a deliberately tiny coupled run, finishing
  in seconds while exercising sampling, seed derivation, execution,
  persistence and aggregation end to end.  The benchmark harness uses the
  same 8 runs to compare executors.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.campaign.spec import CampaignSpec
from repro.core.config import MLConfig, StreamingConfig, WorkflowConfig
from repro.models.config import ModelConfig
from repro.pic.khi import KHIConfig


def _smoke_base_config() -> WorkflowConfig:
    # the test suite's tiny coupled run: a few hundred macro-particles, a
    # small VAE+INN — one 2-step run takes well under a second
    model = ModelConfig(n_input_points=24, encoder_channels=(12, 24),
                        encoder_head_hidden=16, latent_dim=16,
                        decoder_grid=(2, 2, 2), decoder_channels=(8, 6),
                        spectrum_dim=8, inn_blocks=2, inn_hidden=(16,))
    return WorkflowConfig(
        khi=KHIConfig(grid_shape=(6, 12, 2), particles_per_cell=3, seed=9),
        ml=MLConfig(model=model, n_rep=1, base_learning_rate=1e-3),
        streaming=StreamingConfig(queue_limit=2),
        region_counts=(1, 4, 1), n_detector_directions=1, seed=123)


def _campaign_smoke() -> CampaignSpec:
    return CampaignSpec(
        name="campaign-smoke",
        base_config=_smoke_base_config().to_dict(),
        sampler="grid",
        parameters={"ml.base_learning_rate": [1e-3, 3e-4]},
        repetitions=4,
        n_steps=2,
        driver="serial",
        seed=2025)


_CAMPAIGN_PRESETS: Dict[str, Callable[[], CampaignSpec]] = {
    "campaign-smoke": _campaign_smoke,
}


def get_campaign_preset(name: str) -> CampaignSpec:
    """Build a fresh :class:`CampaignSpec` for a named campaign preset."""
    try:
        factory = _CAMPAIGN_PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign preset {name!r}; valid campaign presets: "
            f"{', '.join(sorted(_CAMPAIGN_PRESETS))}") from None
    return factory()

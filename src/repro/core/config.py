"""Configuration of the end-to-end workflow.

``WorkflowConfig`` round-trips losslessly through plain dictionaries and
JSON files (``to_dict``/``from_dict``/``to_file``/``from_file``) so that
presets, the CLI ``--config`` flag and experiment manifests all share one
serialisation.  Tuple-typed fields are stored as lists (JSON has no tuples)
and coerced back on load; unknown keys raise with the valid choices listed.
"""

from __future__ import annotations

import json
import typing
from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Tuple

from repro.models.config import ModelConfig
from repro.pic.khi import KHIConfig
from repro.utils.validation import check_int, is_finite_real


def _dataclass_to_dict(obj) -> Dict[str, object]:
    """One dataclass level to a JSON-able dict (tuples become lists)."""
    out: Dict[str, object] = {}
    for spec in fields(obj):
        value = getattr(obj, spec.name)
        out[spec.name] = list(value) if isinstance(value, tuple) else value
    return out


def check_keys(name: str, data: object, valid) -> None:
    """Refuse ``data`` unless it is a mapping whose keys are all in ``valid``.

    The one key check behind every ``from_dict``: a hand-written file or
    request body holding a number, a string or a typo'd key fails with a
    ``ValueError`` naming what was expected, never a ``TypeError``.
    """
    if not isinstance(data, Mapping):
        raise ValueError(f"{name} must be a JSON object, got "
                         f"{type(data).__name__} {data!r}")
    unknown = sorted(set(data) - set(valid))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}; valid keys: "
                         f"{', '.join(sorted(valid))}")


def _dataclass_from_dict(cls, data: Mapping[str, object]):
    """Rebuild one dataclass level, coercing lists back to tuples."""
    hints = typing.get_type_hints(cls)
    check_keys(cls.__name__, data,
               {spec.name for spec in fields(cls) if spec.init})
    kwargs = {}
    for key, value in data.items():
        if typing.get_origin(hints.get(key)) is tuple and value is not None:
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


@dataclass
class StreamingConfig:
    """Streaming-layer knobs of the coupled run."""

    queue_limit: int = 2                 #: SST step-queue depth (writer stalls beyond it)
    sample_interval: int = 1             #: stream every N-th simulation step
    stream_name: str = "khi-particles"
    #: keep this fraction of the raw particle records in the stream
    #: (Fig. 3b producer-side reduction; 1.0 disables subsampling)
    particle_subsample_fraction: float = 1.0
    #: cast streamed floating-point payloads to float32 before sending
    reduce_precision: bool = False

    def __post_init__(self) -> None:
        # checked here, not when the session is built, so that a campaign
        # spec or --config file carrying an unrunnable value fails at resolve
        for name in ("queue_limit", "sample_interval"):
            check_int(name, getattr(self, name), 1)
        fraction = self.particle_subsample_fraction
        if not (is_finite_real(fraction) and 0.0 < fraction <= 1.0):
            raise ValueError(f"particle_subsample_fraction must lie in (0, 1], "
                             f"got {fraction!r}")
        if not isinstance(self.reduce_precision, bool):
            raise ValueError(f"reduce_precision must be true or false, "
                             f"got {self.reduce_precision!r}")

    def build_reduction_pipeline(self, rng=None):
        """Create the producer-side reduction pipeline (or ``None`` if disabled)."""
        from repro.streaming.reduction import (ParticleSubsampleReducer,
                                               PrecisionReducer, ReductionPipeline)
        reducers = []
        if self.particle_subsample_fraction < 1.0:
            reducers.append(ParticleSubsampleReducer(self.particle_subsample_fraction,
                                                     rng=rng))
        if self.reduce_precision:
            reducers.append(PrecisionReducer())
        return ReductionPipeline(reducers) if reducers else None


@dataclass
class MLConfig:
    """MLapp knobs: model size, replay and optimisation settings."""

    model: ModelConfig = field(default_factory=ModelConfig)
    n_rep: int = 4                       #: training iterations per streamed step
    now_buffer_size: int = 10
    ep_buffer_size: int = 20
    n_ep: int = 4
    base_learning_rate: float = 1.0e-3   #: laptop-scale default (paper: 1e-6 at scale)

    def __post_init__(self) -> None:
        # checked here, as StreamingConfig does, so that a campaign spec or
        # --config file carrying a value that cannot train fails at resolve:
        # a NaN rate trains to a NaN loss
        check_int("n_rep", self.n_rep, 1)
        if not (is_finite_real(self.base_learning_rate)
                and self.base_learning_rate >= 0):
            raise ValueError(f"base_learning_rate must be finite and >= 0, "
                             f"got {self.base_learning_rate!r}")


@dataclass
class WorkflowConfig:
    """Everything needed to build one Artificial-Scientist run.

    The defaults produce a laptop-scale run (a few thousand macro-particles,
    a small VAE+INN) that finishes in well under a minute while exercising
    every component of the full-scale workflow.
    """

    khi: KHIConfig = field(default_factory=lambda: KHIConfig(grid_shape=(8, 16, 2),
                                                             particles_per_cell=4))
    ml: MLConfig = field(default_factory=MLConfig)
    streaming: StreamingConfig = field(default_factory=StreamingConfig)
    #: sub-volume grid (regions along x, y, z) used to cut local point clouds
    region_counts: Tuple[int, int, int] = (1, 4, 1)
    #: radiation detector directions; each sees the model's spectrum_dim /
    #: n_detector_directions frequencies
    n_detector_directions: int = 2
    seed: int = 2024

    def __post_init__(self) -> None:
        check_int("n_detector_directions", self.n_detector_directions, 1)
        spectrum_dim = self.ml.model.spectrum_dim
        if spectrum_dim % self.n_detector_directions:
            raise ValueError(
                f"n_detector_directions ({self.n_detector_directions}) must "
                f"divide the model's spectrum_dim ({spectrum_dim})")
        if any(c < 1 for c in self.region_counts):
            raise ValueError("region_counts entries must be >= 1")

    @property
    def n_detector_frequencies(self) -> int:
        """Frequencies per detector direction: the spectrum is split evenly."""
        return self.ml.model.spectrum_dim // self.n_detector_directions

    @property
    def n_regions(self) -> int:
        rx, ry, rz = self.region_counts
        return rx * ry * rz

    # -- serialisation ------------------------------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        """A plain, JSON-able dictionary; inverse of :meth:`from_dict`."""
        ml = _dataclass_to_dict(self.ml)
        ml["model"] = _dataclass_to_dict(self.ml.model)
        return {
            "khi": _dataclass_to_dict(self.khi),
            "ml": ml,
            "streaming": _dataclass_to_dict(self.streaming),
            "region_counts": list(self.region_counts),
            "n_detector_directions": self.n_detector_directions,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WorkflowConfig":
        """Rebuild a config from :meth:`to_dict` output (or hand-written JSON).

        Sections and keys are all optional — missing ones keep their
        defaults — but unknown keys raise a ``ValueError`` naming the valid
        choices, so typos fail loudly instead of silently running defaults.
        """
        check_keys("WorkflowConfig", data,
                   {"khi", "ml", "streaming", "region_counts",
                    "n_detector_directions", "seed"})
        kwargs: Dict[str, object] = {}
        if "khi" in data:
            kwargs["khi"] = _dataclass_from_dict(KHIConfig, data["khi"])
        if "ml" in data:
            check_keys("MLConfig", data["ml"],
                       {spec.name for spec in fields(MLConfig)})
            ml_data = dict(data["ml"])
            model_data = ml_data.pop("model", None)
            kwargs["ml"] = _dataclass_from_dict(MLConfig, ml_data)
            if model_data is not None:
                kwargs["ml"].model = _dataclass_from_dict(ModelConfig, model_data)
        if "streaming" in data:
            kwargs["streaming"] = _dataclass_from_dict(StreamingConfig,
                                                       data["streaming"])
        if "region_counts" in data:
            kwargs["region_counts"] = tuple(data["region_counts"])
        for key in ("n_detector_directions", "seed"):
            if key in data:
                kwargs[key] = data[key]
        return cls(**kwargs)

    def to_file(self, path: str) -> None:
        """Write the config as JSON (readable by :meth:`from_file`)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def from_file(cls, path: str) -> "WorkflowConfig":
        """Load a config previously written by :meth:`to_file`."""
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

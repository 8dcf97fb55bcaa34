"""Declarative campaign specifications: one spec, many workflow runs.

A :class:`CampaignSpec` turns a base :class:`repro.core.config.WorkflowConfig`
(named preset or inline dict) plus a grid of parameter values into a
resolved list of :class:`RunSpec` — one fully-determined coupled run each.
Parameters address ``WorkflowConfig`` fields with dotted paths (``khi.seed``,
``ml.model.latent_dim``, ``ml.base_learning_rate``, ``seed``); the sampled
points are the cartesian product of every parameter's value list.

Every point is expanded ``repetitions`` times into an ensemble: each
member receives its own deterministic seed derived from the campaign seed
through :func:`repro.utils.rng.spawn_rngs`, so re-resolving the same spec
always reproduces the same runs.  Every run steps the ``serial`` driver
for ``n_steps`` steps.  A run's identity is the SHA-256 hash of its
resolved config, that driver and its step count, which is what makes
campaigns resumable (see :mod:`repro.campaign.store`).

Like ``WorkflowConfig``, specs round-trip losslessly through dicts and JSON
files (``to_dict``/``from_dict``/``to_file``/``from_file``).  Where results
are cached is a launch option (``--cache-dir``, or the submit key
``cache_dir``), not part of the spec.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Mapping, Optional

from repro.core.config import WorkflowConfig, check_keys
from repro.utils.rng import spawn_rngs
from repro.workflow.presets import get_preset

#: The driver every campaign run uses; run ids hash it and store rows name it.
RUN_DRIVER = "serial"


def _as_int(name: str, value: object) -> int:
    """Coerce an integer-valued field, refusing silent float truncation."""
    if not isinstance(value, int):
        if isinstance(value, float) and not value.is_integer():
            # int() would silently truncate (2.5 -> 2), changing the run
            # (and its run-id hash) without a trace
            raise ValueError(f"{name} must be an integer, got {value!r}")
        try:
            value = int(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"{name} must be an integer, got {value!r}") from None
    return value


def apply_override(config_dict: Dict[str, object], path: str, value: object) -> None:
    """Set one dotted-path override in a ``WorkflowConfig.to_dict()`` dict.

    The full path must already exist in the dict (``to_dict`` emits every
    key), so typos fail loudly with the valid keys at the failing level.
    """
    parts = path.split(".")
    node = config_dict
    for depth, part in enumerate(parts[:-1]):
        child = node.get(part)
        if not isinstance(child, dict):
            raise ValueError(
                f"override {path!r}: {'.'.join(parts[:depth + 1])!r} is not a "
                f"config section; sections here: "
                f"{', '.join(sorted(k for k, v in node.items() if isinstance(v, dict)))}")
        node = child
    leaf = parts[-1]
    if leaf not in node:
        raise ValueError(f"override {path!r}: unknown key {leaf!r}; valid keys: "
                         f"{', '.join(sorted(node))}")
    node[leaf] = value


def run_id_of(config_dict: Mapping[str, object], n_steps: int) -> str:
    """Stable run identity: SHA-256 of the resolved run payload."""
    payload = json.dumps({"config": config_dict, "driver": RUN_DRIVER,
                          "n_steps": n_steps}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved member of a campaign."""

    run_id: str                     #: hash of (config, driver, n_steps)
    index: int                      #: position in the resolved campaign
    params: Dict[str, object]       #: the swept overrides that shaped this run
    config: Dict[str, object]       #: resolved ``WorkflowConfig.to_dict()`` payload
    n_steps: int
    repetition: int = 0             #: ensemble member index at this point

    def payload(self) -> Dict[str, object]:
        """The picklable dict handed to campaign executors/workers."""
        return {"run_id": self.run_id, "index": self.index,
                "params": dict(self.params), "config": self.config,
                "n_steps": self.n_steps,
                "repetition": self.repetition}


@dataclass
class CampaignSpec:
    """Everything needed to resolve and execute one campaign."""

    name: str = "campaign"
    #: named workflow preset providing the base config (ignored when
    #: ``base_config`` is given)
    base_preset: str = "cli-small"
    #: inline base config (``WorkflowConfig.to_dict()`` shape); overrides
    #: applied on top of a fresh copy per run
    base_config: Optional[Dict[str, object]] = None
    #: dotted path -> value list; the grid is their cartesian product
    parameters: Dict[str, object] = field(default_factory=dict)
    repetitions: int = 1            #: ensemble members per grid point
    n_steps: int = 2                #: simulation steps per run
    seed: int = 7                   #: campaign seed: drives the per-run seeds

    def __post_init__(self) -> None:
        # coerce integer fields up front so a hand-written spec file with
        # e.g. "repetitions": "2" fails (or converts) with a clear message
        # instead of a TypeError deep in a comparison
        for name in ("repetitions", "n_steps", "seed"):
            setattr(self, name, _as_int(name, getattr(self, name)))
        if not isinstance(self.parameters, Mapping):
            raise ValueError(f"parameters must be a mapping of dotted config "
                             f"paths to value lists, got {self.parameters!r}")
        if (self.base_config is not None
                and not isinstance(self.base_config, Mapping)):
            raise ValueError(f"base_config must be a WorkflowConfig dict, "
                             f"got {self.base_config!r}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")

    # -- sampling ----------------------------------------------------------- #
    def _base_dict(self) -> Dict[str, object]:
        if self.base_config is not None:
            # validate + normalise through the config round-trip
            return WorkflowConfig.from_dict(self.base_config).to_dict()
        return get_preset(self.base_preset).to_dict()

    def _points(self) -> List[Dict[str, object]]:
        """The grid's override mappings, before ensemble expansion."""
        keys = sorted(self.parameters)
        for key in keys:
            values = self.parameters[key]
            if not isinstance(values, (list, tuple)) or not values:
                raise ValueError(f"grid parameter {key!r} needs a non-empty "
                                 f"value list, got {values!r}")
        return [dict(zip(keys, combo))
                for combo in itertools.product(*(self.parameters[k] for k in keys))]

    def resolve(self) -> List[RunSpec]:
        """Expand the spec into its fully-determined runs.

        Deterministic: the same spec always resolves to the same runs with
        the same run ids.  Duplicate resolved runs (a grid that pins both
        seeds, repeated) are dropped, keeping the first occurrence.
        """
        base = self._base_dict()
        points = self._points()
        children = spawn_rngs(self.seed, len(points) * self.repetitions)
        runs: List[RunSpec] = []
        seen_ids = set()
        dropped = 0
        for point_index, point in enumerate(points):
            for repetition in range(self.repetitions):
                child = children[point_index * self.repetitions + repetition]
                child_seed = int(child.integers(0, 2**63 - 1))
                config = json.loads(json.dumps(base))  # deep copy, JSON types only
                # the derived ensemble seed applies unless the sweep pins one
                if "seed" not in point:
                    apply_override(config, "seed", child_seed)
                if "khi.seed" not in point:
                    apply_override(config, "khi.seed", child_seed)
                for key, value in point.items():
                    apply_override(config, key, value)
                # fail at resolve time, not deep inside a worker process
                WorkflowConfig.from_dict(config)
                run_id = run_id_of(config, self.n_steps)
                if run_id in seen_ids:
                    dropped += 1
                    continue
                seen_ids.add(run_id)
                runs.append(RunSpec(run_id=run_id, index=len(runs),
                                    params=dict(point), config=config,
                                    n_steps=self.n_steps,
                                    repetition=repetition))
        if dropped:
            # repetitions with every seed pinned by the sweep: the ensemble
            # members are byte-identical runs — surface the shrink instead
            # of silently delivering a smaller campaign
            warnings.warn(
                f"campaign {self.name!r}: dropped {dropped} duplicate "
                f"resolved run(s); repetitions with pinned seeds produce "
                f"identical configs", RuntimeWarning, stacklevel=2)
        return runs

    # -- serialisation ------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """The spec as a plain JSON-able dict (lossless round-trip)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "CampaignSpec":
        """Rebuild (and re-validate) a spec from its :meth:`to_dict` form.

        Raises:
            ValueError: on a non-mapping, unknown keys or invalid field
                values — a typo'd spec file fails loudly with the valid
                keys listed.
        """
        check_keys("CampaignSpec", data, {spec.name for spec in fields(cls)})
        return cls(**dict(data))

    def to_file(self, path: str) -> None:
        """Write the spec as an indented JSON file (``from_file`` reads it)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    @classmethod
    def from_file(cls, path: str) -> "CampaignSpec":
        """Load a spec from a :meth:`to_file` JSON dump.

        Raises:
            ValueError: if the file is not a valid spec.
            OSError: if the file cannot be read.
        """
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

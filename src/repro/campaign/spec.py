"""Declarative campaign specifications: one spec, many workflow runs.

A :class:`CampaignSpec` turns a base :class:`repro.core.config.WorkflowConfig`
(named preset or inline dict) plus a parameter space into a resolved list of
:class:`RunSpec` — one fully-determined coupled run each.  Parameters address
``WorkflowConfig`` fields with dotted paths (``khi.seed``, ``ml.model.latent_dim``,
``ml.base_learning_rate``, ``seed``) plus the two run-level keys ``driver``
and ``n_steps``.

Three samplers are supported:

* ``grid``     — the cartesian product of every parameter's value list,
* ``random``   — ``n_samples`` independent draws (value lists are sampled
  uniformly; ``{"low": a, "high": b}`` draws a uniform float, add
  ``"log": true`` for log-uniform),
* ``explicit`` — a hand-written list of override mappings.

Every resolved point is expanded ``repetitions`` times into an ensemble:
each member receives its own deterministic seed derived from the campaign
seed through :func:`repro.utils.rng.spawn_rngs`, so re-resolving the same
spec always reproduces the same runs.  A run's identity is the SHA-256 hash
of its resolved config + driver + step count, which is what makes campaigns
resumable (see :mod:`repro.campaign.store`).

Like ``WorkflowConfig``, specs round-trip losslessly through dicts and JSON
files (``to_dict``/``from_dict``/``to_file``/``from_file``).  A spec may
also carry a ``cache_dir`` (result-cache directory), which the CLI honours
but which is deliberately **not** part of run identity: pointing a
campaign at a cache never changes its run ids.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import warnings
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.config import WorkflowConfig, check_keys
from repro.utils.rng import derive_seed, seeded_rng, spawn_rngs
from repro.workflow.drivers import available_drivers
from repro.workflow.presets import get_preset

#: Parameter keys that configure the run itself rather than the workflow config.
RUN_LEVEL_KEYS = ("driver", "n_steps")

SAMPLERS = ("grid", "random", "explicit")


def _as_int(name: str, value: object, minimum: Optional[int] = None) -> int:
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
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")
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


def run_id_of(config_dict: Mapping[str, object], driver: str, n_steps: int) -> str:
    """Stable run identity: SHA-256 of the resolved run payload."""
    payload = json.dumps({"config": config_dict, "driver": driver,
                          "n_steps": n_steps}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RunSpec:
    """One fully-resolved member of a campaign."""

    run_id: str                     #: hash of (config, driver, n_steps)
    index: int                      #: position in the resolved campaign
    params: Dict[str, object]       #: the swept overrides that shaped this run
    config: Dict[str, object]       #: resolved ``WorkflowConfig.to_dict()`` payload
    driver: str
    n_steps: int
    repetition: int = 0             #: ensemble member index at this point

    def payload(self) -> Dict[str, object]:
        """The picklable dict handed to campaign executors/workers."""
        return {"run_id": self.run_id, "index": self.index,
                "params": dict(self.params), "config": self.config,
                "driver": self.driver, "n_steps": self.n_steps,
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
    sampler: str = "grid"
    #: dotted path -> value list (grid / random choices) or, for ``random``
    #: only, ``{"low": a, "high": b[, "log": true]}`` range specs
    parameters: Dict[str, object] = field(default_factory=dict)
    #: hand-written override mappings (``sampler="explicit"`` only)
    explicit: List[Dict[str, object]] = field(default_factory=list)
    n_samples: int = 8              #: draws for the ``random`` sampler
    repetitions: int = 1            #: ensemble members per sampled point
    n_steps: int = 2                #: simulation steps per run
    driver: str = "serial"          #: workflow execution driver per run
    seed: int = 7                   #: campaign seed: drives sampling + per-run seeds
    #: default :class:`repro.campaign.cache.ResultCache` directory for this
    #: campaign (the CLI ``--cache-dir`` flag overrides it); outside run
    #: identity
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # coerce integer fields up front so a hand-written spec file with
        # e.g. "repetitions": "2" fails (or converts) with a clear message
        # instead of a TypeError deep in a comparison
        for name in ("n_samples", "repetitions", "n_steps", "seed"):
            setattr(self, name, _as_int(name, getattr(self, name)))
        if not isinstance(self.parameters, Mapping):
            raise ValueError(f"parameters must be a mapping of dotted config "
                             f"paths to value specs, got {self.parameters!r}")
        if (not isinstance(self.explicit, (list, tuple))
                or not all(isinstance(point, Mapping)
                           for point in self.explicit)):
            raise ValueError(f"explicit must be a list of override mappings, "
                             f"got {self.explicit!r}")
        if (self.base_config is not None
                and not isinstance(self.base_config, Mapping)):
            raise ValueError(f"base_config must be a WorkflowConfig dict, "
                             f"got {self.base_config!r}")
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}; valid samplers: "
                             f"{', '.join(SAMPLERS)}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.sampler == "explicit" and not self.explicit:
            raise ValueError("sampler 'explicit' needs a non-empty explicit list")
        if self.sampler != "explicit" and self.explicit:
            raise ValueError("explicit points require sampler='explicit'")
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise ValueError(f"cache_dir must be a directory path string, "
                             f"got {self.cache_dir!r}")

    # -- sampling ----------------------------------------------------------- #
    def _base_dict(self) -> Dict[str, object]:
        if self.base_config is not None:
            # validate + normalise through the config round-trip
            return WorkflowConfig.from_dict(self.base_config).to_dict()
        return get_preset(self.base_preset).to_dict()

    def _points(self) -> List[Dict[str, object]]:
        """The sampled override mappings, before ensemble expansion."""
        if self.sampler == "explicit":
            return [dict(point) for point in self.explicit]
        if self.sampler == "grid":
            if not self.parameters:
                return [{}]
            keys = sorted(self.parameters)
            for key in keys:
                values = self.parameters[key]
                if not isinstance(values, (list, tuple)) or not values:
                    raise ValueError(f"grid parameter {key!r} needs a non-empty "
                                     f"value list, got {values!r}")
            return [dict(zip(keys, combo))
                    for combo in itertools.product(*(self.parameters[k] for k in keys))]
        # random
        if not self.parameters:
            raise ValueError("sampler 'random' needs at least one parameter")
        rng = seeded_rng(derive_seed(self.seed, 17))
        points = []
        for _ in range(self.n_samples):
            point = {}
            for key in sorted(self.parameters):
                spec = self.parameters[key]
                if isinstance(spec, (list, tuple)) and spec:
                    point[key] = spec[int(rng.integers(0, len(spec)))]
                elif isinstance(spec, Mapping) and {"low", "high"} <= set(spec):
                    low, high = float(spec["low"]), float(spec["high"])
                    if spec.get("log"):
                        if low <= 0:
                            raise ValueError(
                                f"random parameter {key!r}: a log-uniform "
                                f"range needs low > 0, got low={low!r}")
                        import math
                        point[key] = float(math.exp(
                            rng.uniform(math.log(low), math.log(high))))
                    else:
                        point[key] = float(rng.uniform(low, high))
                else:
                    raise ValueError(
                        f"random parameter {key!r} needs a non-empty value list "
                        f"or a {{'low', 'high'}} range, got {spec!r}")
            points.append(point)
        return points

    def resolve(self) -> List[RunSpec]:
        """Expand the spec into its fully-determined runs.

        Deterministic: the same spec always resolves to the same runs with
        the same run ids.  Duplicate resolved runs (e.g. the random sampler
        drawing one point twice) are dropped, keeping the first occurrence.
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
                driver, n_steps = self.driver, self.n_steps
                # the derived ensemble seed applies unless the sweep pins one
                if "seed" not in point:
                    apply_override(config, "seed", child_seed)
                if "khi.seed" not in point:
                    apply_override(config, "khi.seed", child_seed)
                for key, value in point.items():
                    if key == "driver":
                        driver = str(value)
                    elif key == "n_steps":
                        # swept values get the same guard as the spec field:
                        # no silent 2.5 -> 2 truncation, no 0-step runs
                        n_steps = _as_int("swept n_steps", value, minimum=1)
                    else:
                        apply_override(config, key, value)
                # fail at resolve time, not deep inside a worker process
                WorkflowConfig.from_dict(config)
                if driver not in available_drivers():
                    raise ValueError(
                        f"unknown driver {driver!r}; valid drivers: "
                        f"{', '.join(available_drivers())}")
                run_id = run_id_of(config, driver, n_steps)
                if run_id in seen_ids:
                    dropped += 1
                    continue
                seen_ids.add(run_id)
                runs.append(RunSpec(run_id=run_id, index=len(runs),
                                    params=dict(point), config=config,
                                    driver=driver, n_steps=n_steps,
                                    repetition=repetition))
        if dropped:
            # e.g. repetitions with every seed pinned by the sweep: the
            # ensemble members are byte-identical runs — surface the shrink
            # instead of silently delivering a smaller campaign
            warnings.warn(
                f"campaign {self.name!r}: dropped {dropped} duplicate "
                f"resolved run(s); repetitions with pinned seeds (or a "
                f"random sampler drawing a point twice) produce identical "
                f"configs", RuntimeWarning, stacklevel=2)
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

    # -- introspection ------------------------------------------------------ #
    def swept_parameters(self) -> List[str]:
        """The parameter names this campaign varies (sorted)."""
        if self.sampler == "explicit":
            names = set()
            for point in self.explicit:
                names.update(point)
            return sorted(names)
        return sorted(self.parameters)

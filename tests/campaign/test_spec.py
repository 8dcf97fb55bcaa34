"""Tests of CampaignSpec sampling, overrides, seeds and serialisation."""

from __future__ import annotations

import importlib
import json
import os

import pytest

from repro.campaign import (CampaignSpec, apply_override,
                            get_campaign_preset, run_id_of)
from repro.core.config import WorkflowConfig
from repro.service.jobs import campaign_id_of
from repro.workflow import get_preset

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def smoke_spec(**kwargs) -> CampaignSpec:
    from repro.campaign import get_campaign_preset

    base = get_campaign_preset("campaign-smoke").to_dict()
    base.update(kwargs)
    return CampaignSpec.from_dict(base)


class TestApplyOverride:
    def test_nested_and_top_level_paths(self):
        config = get_preset("cli-small").to_dict()
        apply_override(config, "khi.seed", 7)
        apply_override(config, "ml.base_learning_rate", 5e-4)
        apply_override(config, "ml.model.latent_dim", 32)
        apply_override(config, "seed", 99)
        rebuilt = WorkflowConfig.from_dict(config)
        assert rebuilt.khi.seed == 7
        assert rebuilt.ml.base_learning_rate == 5e-4
        assert rebuilt.ml.model.latent_dim == 32
        assert rebuilt.seed == 99

    def test_unknown_leaf_lists_valid_keys(self):
        config = get_preset("cli-small").to_dict()
        with pytest.raises(ValueError, match="valid keys"):
            apply_override(config, "khi.sneed", 7)

    def test_a_nan_time_step_fails_at_resolve(self):
        # Python's json reads NaN, so a spec file can carry one; the time
        # step is derived now, so the key itself is refused
        spec = CampaignSpec.from_dict(json.loads(json.dumps(
            smoke_spec(parameters={"khi.dt": [float("nan")]}).to_dict())))
        with pytest.raises(ValueError, match="unknown key 'dt'; valid keys"):
            spec.resolve()

    @pytest.mark.parametrize("path, value, message", [
        ("khi.particles_per_cell", 0, "particles_per_cell must be >= 1"),
        ("khi.beta", 1.5, "beta must be finite with 0 < beta < 1"),
        ("khi.beta", 0.0, "beta must be finite with 0 < beta < 1"),
        ("khi.beta", float("nan"), "beta must be finite with 0 < beta < 1"),
        ("khi.density", float("nan"), "density must be finite and > 0"),
        ("khi.density", -1.0, "density must be finite and > 0"),
        ("khi.grid_shape", [0, 16, 2],
         "grid_shape entries must be an integer >= 1"),
        ("khi.grid_shape", [8, 16], "grid_shape must be three integers >= 1"),
        ("khi.dt", float("nan"), "unknown key 'dt'; valid keys: beta, "
         "density, grid_shape, particles_per_cell, seed$"),
        ("streaming.queue_limit", 0, "queue_limit must be an integer >= 1"),
        ("streaming.sample_interval", 1.5,
         "sample_interval must be an integer >= 1"),
        ("streaming.particle_subsample_fraction", 1.5,
         r"particle_subsample_fraction must lie in \(0, 1\]"),
        ("streaming.particle_subsample_fraction", float("nan"),
         r"particle_subsample_fraction must lie in \(0, 1\]"),
        ("streaming.particle_subsample_fraction", 0.0,
         r"particle_subsample_fraction must lie in \(0, 1\]"),
        ("streaming.reduce_precision", "no",
         "reduce_precision must be true or false"),
        ("ml.base_learning_rate", float("nan"),
         "base_learning_rate must be finite and >= 0"),
        ("ml.base_learning_rate", -1e-3,
         "base_learning_rate must be finite and >= 0"),
        ("ml.m_vae", -2.0, "unknown key 'm_vae'; valid keys"),
        ("ml.m_vae", 0.0, "unknown key 'm_vae'; valid keys"),
        ("ml.n_rep", 0, "n_rep must be an integer >= 1"),
        ("ml.n_rep", 2.5, "n_rep must be an integer >= 1"),
        ("ml.max_grad_norm", float("inf"),
         "unknown key 'max_grad_norm'; valid keys"),
        ("ml.max_grad_norm", 0.0, "unknown key 'max_grad_norm'; valid keys"),
        ("ml.max_grad_norm", 1.0, "unknown key 'max_grad_norm'; valid keys"),
        ("ml.warmup_steps", -1, "unknown key 'warmup_steps'; valid keys"),
        ("ml.warmup_steps", 10, "unknown key 'warmup_steps'; valid keys")],
        ids=["khi-ppc-0", "beta-1.5", "beta-0", "beta-nan", "density-nan",
             "density-negative", "grid-0-cells", "grid-2d", "dt-removed",
             "queue-limit-0", "sample-interval-float",
             "fraction-1.5", "fraction-nan", "fraction-0", "precision-string",
             "lr-nan", "lr-negative", "m-vae-negative", "m-vae-0", "n-rep-0",
             "n-rep-float", "grad-norm-inf", "grad-norm-0", "grad-norm-removed",
             "warmup-negative", "warmup-removed"])
    def test_an_unrunnable_value_fails_at_resolve(self, path, value, message):
        """A swept value the session cannot run is refused when the spec
        is resolved, before any run of the sweep is scheduled."""
        spec = CampaignSpec.from_dict(json.loads(json.dumps(
            smoke_spec(parameters={path: [value]}).to_dict())))
        with pytest.raises(ValueError, match=message):
            spec.resolve()

    def test_non_section_path_names_sections(self):
        config = get_preset("cli-small").to_dict()
        with pytest.raises(ValueError, match="not a config section"):
            apply_override(config, "seed.deeper", 7)


class TestSampling:
    def test_grid_is_cartesian_product(self):
        spec = smoke_spec(parameters={"ml.base_learning_rate": [1e-3, 1e-4],
                                      "ml.n_rep": [1, 2, 3]},
                          repetitions=1)
        runs = spec.resolve()
        assert len(runs) == 6
        combos = {(run.params["ml.base_learning_rate"], run.params["ml.n_rep"])
                  for run in runs}
        assert combos == {(lr, n) for lr in (1e-3, 1e-4) for n in (1, 2, 3)}

    def test_repetitions_expand_each_point_with_distinct_seeds(self):
        spec = smoke_spec(repetitions=3, parameters={})
        runs = spec.resolve()
        assert len(runs) == 3
        seeds = {run.config["seed"] for run in runs}
        assert len(seeds) == 3
        # the derived seed also drives the KHI particle loading
        assert all(run.config["khi"]["seed"] == run.config["seed"]
                   for run in runs)

    def test_explicit_seed_sweep_wins_over_derivation(self):
        spec = smoke_spec(parameters={"seed": [1, 2], "khi.seed": [5]},
                          repetitions=1)
        runs = spec.resolve()
        assert sorted(run.config["seed"] for run in runs) == [1, 2]
        assert all(run.config["khi"]["seed"] == 5 for run in runs)

    @pytest.mark.parametrize("key", ["driver", "n_steps"])
    def test_a_sweep_names_only_config_keys(self, key):
        """Every run of a campaign uses the serial driver and the spec's
        ``n_steps``: a sweep over either is an unknown config key."""
        spec = smoke_spec(parameters={key: [2, 3]}, repetitions=1)
        with pytest.raises(ValueError,
                           match=f"unknown key {key!r}; valid keys"):
            spec.resolve()

    def test_resolution_is_deterministic(self):
        spec = smoke_spec(parameters={"ml.n_rep": [1, 2]}, repetitions=3)
        first = [(run.run_id, run.config["seed"]) for run in spec.resolve()]
        second = [(run.run_id, run.config["seed"]) for run in spec.resolve()]
        assert first == second

    def test_run_ids_hash_the_resolved_run(self):
        spec = smoke_spec(repetitions=2, parameters={})
        run = spec.resolve()[0]
        assert run.run_id == run_id_of(run.config, run.n_steps)
        assert len({r.run_id for r in spec.resolve()}) == 2

    def test_smoke_campaign_and_run_ids_are_pinned(self):
        """Campaign and run identities are content hashes that stores,
        caches and service ids key on: a change to what they hash must be
        deliberate, so the smoke campaign's are pinned literally.  The run
        ids are the ones stores and caches have held since the spec could
        name a driver; the campaign id hashes the spec's seven fields."""
        spec = get_campaign_preset("campaign-smoke")
        assert campaign_id_of(spec) == "campaign-smoke-e79e44526f"
        assert [run.run_id for run in spec.resolve()] == [
            "5ef38b78210e5b49", "e96a51ce100346ed", "015a895fe87bce0e",
            "525ef18a3359c031", "f1d6835edbb7d779", "20526353170a403c",
            "e14f1d4f8538b565", "5a2768c72f925a7f"]

    def test_the_benchmark_sweeps_run_ids_are_pinned(self, monkeypatch):
        """The benchmark's sweep at both sizes resolves to the run ids its
        stores and caches were written under.  The benchmark is imported
        read-only, so the repository root must be on ``sys.path``."""
        monkeypatch.syspath_prepend(ROOT)
        workloads = importlib.import_module("bench.workloads")
        ids = {smoke: [run.run_id for run in workloads.sweep_spec(
                   "pinned", 11, smoke).resolve()]
               for smoke in (True, False)}
        assert ids == {
            True: ["4c3febb838aa3240", "f294a7fb950c7230"],
            False: ["f692a18c55fdaa71", "24e682d83bda49b1",
                    "b06b4671317175ac", "8c2732e3bd5ddb57",
                    "e6f8c6c1a20a5938", "c08e7f6bf3bf09ca",
                    "843a1fbdea804035", "aaa8e5b674744e05"]}

    def test_bad_override_fails_at_resolve_time(self):
        spec = smoke_spec(parameters={"khi.warp_factor": [9]}, repetitions=1)
        with pytest.raises(ValueError, match="warp_factor"):
            spec.resolve()


class TestValidationAndRoundTrip:
    def test_swept_parameters(self):
        """A run's params, which the report groups by, are its swept point."""
        assert {tuple(run.params) for run in smoke_spec().resolve()} == \
            {("ml.base_learning_rate",)}
        grid = smoke_spec(parameters={"seed": [1], "ml.n_rep": [1, 2]},
                          repetitions=1)
        assert [run.params for run in grid.resolve()] == \
            [{"ml.n_rep": 1, "seed": 1}, {"ml.n_rep": 2, "seed": 1}]

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError, match="repetitions"):
            CampaignSpec(repetitions=0)
        with pytest.raises(ValueError, match="n_steps"):
            CampaignSpec(n_steps=0)

    def test_grid_requires_value_lists(self):
        spec = smoke_spec(parameters={"ml.n_rep": 3}, repetitions=1)
        with pytest.raises(ValueError, match="value list"):
            spec.resolve()

    def test_fully_pinned_repetitions_warn_about_dropped_duplicates(self):
        spec = smoke_spec(parameters={"seed": [1], "khi.seed": [1]},
                          repetitions=3)
        with pytest.warns(RuntimeWarning, match="dropped 2 duplicate"):
            runs = spec.resolve()
        assert len(runs) == 1

    def test_integer_fields_coerce_or_fail_clearly(self):
        assert CampaignSpec(repetitions="2").repetitions == 2
        assert CampaignSpec(seed=3.0).seed == 3
        with pytest.raises(ValueError, match="repetitions must be an integer"):
            CampaignSpec(repetitions="lots")
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            CampaignSpec(n_steps=None)
        # a non-integral float must not silently truncate (2.5 -> 2)
        with pytest.raises(ValueError, match="n_steps must be an integer"):
            CampaignSpec(n_steps=2.5)

    def test_container_fields_fail_clearly(self):
        with pytest.raises(ValueError, match="parameters must be a mapping"):
            CampaignSpec(parameters=42)
        with pytest.raises(ValueError, match="base_config must be"):
            CampaignSpec(base_config=[1, 2])

    def test_dict_and_file_round_trip(self, tmp_path):
        spec = smoke_spec(parameters={"ml.n_rep": [1, 2]}, repetitions=2,
                          name="round-trip")
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        path = str(tmp_path / "campaign.json")
        spec.to_file(path)
        loaded = CampaignSpec.from_file(path)
        assert loaded == spec
        assert [r.run_id for r in loaded.resolve()] == \
            [r.run_id for r in spec.resolve()]

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown CampaignSpec keys"):
            CampaignSpec.from_dict({"executor": "serial"})

    @pytest.mark.parametrize("key, value", [
        ("sampler", "random"), ("explicit", [{"seed": 1}]),
        ("n_samples", 4), ("driver", "serial"), ("cache_dir", "cache")])
    def test_a_removed_key_is_refused_with_the_valid_keys(self, key, value):
        """The samplers, the spec's driver and its cache directory are gone:
        a spec naming one is refused, not read as the grid it would run."""
        smoke = get_campaign_preset("campaign-smoke").to_dict()
        with pytest.raises(ValueError, match=(
                rf"unknown CampaignSpec keys \['{key}'\]; valid keys: "
                r"base_config, base_preset, n_steps, name, parameters, "
                r"repetitions, seed$")):
            CampaignSpec.from_dict(dict(smoke, **{key: value}))

    @pytest.mark.parametrize("document", [5, True, "abc", [1, 2], None])
    def test_from_dict_rejects_a_non_object(self, document):
        """A spec file holding a number or a string is not read as a list
        of keys (``"abc"`` used to report unknown keys a, b and c)."""
        with pytest.raises(ValueError,
                           match="CampaignSpec must be a JSON object, got "):
            CampaignSpec.from_dict(document)
        with pytest.raises(ValueError,
                           match="WorkflowConfig must be a JSON object, got "):
            WorkflowConfig.from_dict(document)
        for section, name in (("khi", "KHIConfig"), ("ml", "MLConfig"),
                              ("streaming", "StreamingConfig")):
            with pytest.raises(ValueError, match=f"{name} must be a JSON "
                                                 f"object, got "):
                WorkflowConfig.from_dict({section: document})
        with pytest.raises(ValueError,
                           match="ModelConfig must be a JSON object, got "):
            WorkflowConfig.from_dict({"ml": {"model": [document]}})

    def test_base_preset_resolution(self):
        spec = CampaignSpec(base_preset="bench-tiny", parameters={},
                            repetitions=1)
        run = spec.resolve()[0]
        assert run.config["ml"]["model"]["n_input_points"] == 48

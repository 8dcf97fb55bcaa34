"""Tests of CampaignSpec sampling, overrides, seeds and serialisation."""

from __future__ import annotations

import json

import pytest

from repro.campaign import (CampaignSpec, apply_override,
                            get_campaign_preset, run_id_of)
from repro.core.config import WorkflowConfig
from repro.service.jobs import campaign_id_of
from repro.workflow import get_preset


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

    def test_run_level_parameters(self):
        spec = smoke_spec(parameters={"driver": ["serial", "pipelined"],
                                      "n_steps": [2, 3]}, repetitions=1)
        runs = spec.resolve()
        assert {(run.driver, run.n_steps) for run in runs} == \
            {("serial", 2), ("serial", 3), ("pipelined", 2), ("pipelined", 3)}

    def test_random_sampler_draws_choices_and_ranges(self):
        spec = smoke_spec(sampler="random", n_samples=12, repetitions=1,
                          parameters={"ml.n_rep": [1, 2],
                                      "ml.base_learning_rate":
                                          {"low": 1e-5, "high": 1e-3, "log": True}})
        runs = spec.resolve()
        assert 0 < len(runs) <= 12
        for run in runs:
            assert run.params["ml.n_rep"] in (1, 2)
            assert 1e-5 <= run.params["ml.base_learning_rate"] <= 1e-3

    def test_explicit_sampler(self):
        spec = smoke_spec(sampler="explicit", parameters={}, repetitions=1,
                          explicit=[{"ml.n_rep": 1}, {"ml.n_rep": 2,
                                                      "n_steps": 4}])
        runs = spec.resolve()
        assert len(runs) == 2
        assert runs[1].n_steps == 4

    def test_resolution_is_deterministic(self):
        spec = smoke_spec(sampler="random", n_samples=6,
                          parameters={"ml.base_learning_rate":
                                      {"low": 1e-5, "high": 1e-3}})
        first = [(run.run_id, run.config["seed"]) for run in spec.resolve()]
        second = [(run.run_id, run.config["seed"]) for run in spec.resolve()]
        assert first == second

    def test_run_ids_hash_the_resolved_run(self):
        spec = smoke_spec(repetitions=2, parameters={})
        run = spec.resolve()[0]
        assert run.run_id == run_id_of(run.config, run.driver, run.n_steps)
        assert len({r.run_id for r in spec.resolve()}) == 2

    def test_smoke_campaign_and_run_ids_are_pinned(self):
        """Campaign and run identities are content hashes that stores,
        caches and service ids key on: a change to what they hash must be
        deliberate, so the smoke campaign's are pinned literally."""
        spec = get_campaign_preset("campaign-smoke")
        assert campaign_id_of(spec) == "campaign-smoke-1e654b7dea"
        assert [run.run_id for run in spec.resolve()[:2]] == [
            "5ef38b78210e5b49", "e96a51ce100346ed"]

    def test_bad_override_fails_at_resolve_time(self):
        spec = smoke_spec(parameters={"khi.warp_factor": [9]}, repetitions=1)
        with pytest.raises(ValueError, match="warp_factor"):
            spec.resolve()

    def test_swept_n_steps_is_validated_like_the_spec_field(self):
        with pytest.raises(ValueError, match="swept n_steps.*integer"):
            smoke_spec(parameters={"n_steps": [2.5]}, repetitions=1).resolve()
        with pytest.raises(ValueError, match="swept n_steps must be >= 1"):
            smoke_spec(parameters={"n_steps": [0]}, repetitions=1).resolve()
        runs = smoke_spec(parameters={"n_steps": [1, 3]},
                          repetitions=1).resolve()
        assert {run.n_steps for run in runs} == {1, 3}

    def test_bad_driver_fails_at_resolve_time(self):
        with pytest.raises(ValueError, match="valid drivers"):
            smoke_spec(driver="threded", repetitions=1).resolve()
        spec = smoke_spec(parameters={"driver": ["serial", "threded"]},
                          repetitions=1)
        with pytest.raises(ValueError, match="valid drivers"):
            spec.resolve()


class TestValidationAndRoundTrip:
    def test_rejects_unknown_sampler_and_bad_counts(self):
        with pytest.raises(ValueError, match="valid samplers"):
            CampaignSpec(sampler="bayesian")
        with pytest.raises(ValueError, match="repetitions"):
            CampaignSpec(repetitions=0)
        with pytest.raises(ValueError, match="n_steps"):
            CampaignSpec(n_steps=0)
        with pytest.raises(ValueError, match="explicit"):
            CampaignSpec(sampler="explicit")
        with pytest.raises(ValueError, match="sampler='explicit'"):
            CampaignSpec(explicit=[{"seed": 1}])

    def test_grid_requires_value_lists(self):
        spec = smoke_spec(parameters={"ml.n_rep": 3}, repetitions=1)
        with pytest.raises(ValueError, match="value list"):
            spec.resolve()

    def test_fully_pinned_repetitions_warn_about_dropped_duplicates(self):
        spec = smoke_spec(sampler="explicit", parameters={},
                          explicit=[{"seed": 1, "khi.seed": 1}],
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
        with pytest.raises(ValueError, match="list of override mappings"):
            CampaignSpec(sampler="explicit", explicit=[5])
        with pytest.raises(ValueError, match="base_config must be"):
            CampaignSpec(base_config=[1, 2])

    def test_log_range_requires_positive_low(self):
        spec = smoke_spec(
            sampler="random", repetitions=1, n_samples=2,
            parameters={"ml.base_learning_rate":
                        {"low": 0, "high": 1e-3, "log": True}})
        with pytest.raises(ValueError, match="base_learning_rate.*low > 0"):
            spec.resolve()

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

    def test_swept_parameters(self):
        assert smoke_spec().swept_parameters() == ["ml.base_learning_rate"]
        explicit = smoke_spec(sampler="explicit", parameters={},
                              explicit=[{"seed": 1}, {"ml.n_rep": 2}])
        assert explicit.swept_parameters() == ["ml.n_rep", "seed"]

"""Tests of WorkflowConfig serialisation and the preset registry."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import WorkflowConfig
from repro.workflow import available_presets, get_preset, preset_rows


class TestRoundTrip:
    @pytest.mark.parametrize("preset", available_presets())
    def test_to_dict_from_dict_is_identity(self, preset):
        config = get_preset(preset)
        assert WorkflowConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("preset", available_presets())
    def test_file_round_trip(self, preset, tmp_path):
        config = get_preset(preset)
        path = str(tmp_path / f"{preset}.json")
        config.to_file(path)
        assert WorkflowConfig.from_file(path) == config

    def test_round_trip_preserves_tuple_types(self):
        config = WorkflowConfig.from_dict(get_preset("laptop").to_dict())
        assert isinstance(config.khi.grid_shape, tuple)
        assert isinstance(config.region_counts, tuple)
        assert isinstance(config.ml.model.encoder_channels, tuple)
        assert isinstance(config.ml.model.inn_hidden, tuple)

    def test_partial_dict_keeps_defaults(self):
        config = WorkflowConfig.from_dict({"seed": 7})
        assert config.seed == 7
        assert config.khi == WorkflowConfig().khi

    def test_nested_overrides_apply(self):
        config = WorkflowConfig.from_dict(
            {"ml": {"n_rep": 9, "model": {"n_input_points": 32}},
             "streaming": {"queue_limit": 5}})
        assert config.ml.n_rep == 9
        assert config.ml.model.n_input_points == 32
        assert config.streaming.queue_limit == 5


class TestValidation:
    def test_unknown_top_level_key_lists_valid(self):
        with pytest.raises(ValueError) as excinfo:
            WorkflowConfig.from_dict({"khii": {}})
        message = str(excinfo.value)
        assert "khii" in message and "valid keys" in message and "khi" in message

    def test_unknown_nested_key_lists_valid(self):
        with pytest.raises(ValueError, match="KHIConfig"):
            WorkflowConfig.from_dict({"khi": {"grid_shapes": [4, 4, 4]}})
        with pytest.raises(ValueError, match="ModelConfig"):
            WorkflowConfig.from_dict({"ml": {"model": {"latent": 4}}})

    def test_invalid_preset_name_lists_choices(self):
        with pytest.raises(ValueError) as excinfo:
            get_preset("exascale")
        message = str(excinfo.value)
        for name in available_presets():
            assert name in message

    def test_consistency_still_enforced_after_load(self):
        data = get_preset("laptop").to_dict()
        data["n_detector_directions"] = 3  # does not divide spectrum_dim 16
        with pytest.raises(ValueError, match="spectrum_dim"):
            WorkflowConfig.from_dict(data)


class TestPresetRegistry:
    def test_builtin_presets_present(self):
        assert {"laptop", "paper", "cli-small", "bench-tiny"} <= set(available_presets())

    def test_presets_are_fresh_instances(self):
        first, second = get_preset("laptop"), get_preset("laptop")
        assert first == second and first is not second
        assert first.ml is not second.ml

    def test_paper_preset_matches_section_iv(self):
        config = get_preset("paper")
        assert config.khi.grid_shape == (192, 256, 12)
        assert config.ml.model.n_input_points == 30_000
        assert config.ml.model.latent_dim == 544
        assert config.n_detector_directions * config.n_detector_frequencies == 128

    def test_preset_rows_digest(self):
        rows = {row["name"]: row for row in preset_rows()}
        assert rows["paper"]["grid"] == "192x256x12"
        assert rows["bench-tiny"]["n_input_points"] == 48


class TestReplaceComposition:
    def test_presets_compose_with_dataclasses_replace(self):
        config = get_preset("bench-tiny")
        tweaked = dataclasses.replace(
            config, ml=dataclasses.replace(config.ml, n_rep=7), seed=99)
        assert tweaked.ml.n_rep == 7 and tweaked.seed == 99
        assert get_preset("bench-tiny").ml.n_rep == 2  # registry unaffected

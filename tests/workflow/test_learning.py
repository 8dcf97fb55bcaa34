"""Tests of the learning benchmark case (``repro.workflow.learning``): each
way its gate fails on a stub result, and replay off in both arms on a real,
cut run.  The harness contract is ``tests/test_bench_harness.py``'s."""

from __future__ import annotations

import pytest

from repro.cli import main as cli_main
from repro.utils.benchjson import bench_path, load_history
from repro.workflow import learning
from repro.workflow.learning import (BANDS, CASE, LearningResult,
                                     format_result,
                                     run_learning_benchmark, stream_config)

#: the session metrics whose bands gate at the recorded BANDS
GATED = {"loss_at_step_budget", "surrogate_spectrum_mse",
         "latent_classifier_accuracy"}


def stub_result(equivalent: bool = True, forgot: int = 10, wins: int = 10,
                gap: float = 0.15, **session):
    """Replay-off forgets on ``forgot`` of ten seeds, replay-on ends ``gap``
    lower on ``wins`` (higher on the rest); the session at every seed sits
    mid-band, with ``session`` overriding seed 0's metrics."""
    replay_off = [(0.05 if seed < forgot else 0.5, 0.35 + 0.01 * seed)
                  for seed in range(10)]
    replay_on = [(before, after - gap if seed < wins else after + gap)
                 for seed, (before, after) in enumerate(replay_off)]
    values = {name: (low + high) / 2 for name, (low, high) in BANDS.items()}
    values.update(clipped_fraction=0.6, ratios_to_constant={
        "histogram_l1.vortex": 1.5, "latent_classifier_accuracy": 0.2})
    if not equivalent:
        values["surrogate_spectrum_mse"] = 9.0
    sessions = [dict(values) for _ in learning.SEEDS]
    sessions[0].update(session)
    return LearningResult(replay_off=replay_off, replay_on=replay_on,
                          sessions=sessions, steps_in_wall_budget=70)


def failure(result) -> str:
    return CASE.gate_failure(result)


class TestGate:
    def test_a_stream_that_forgets_and_a_replay_that_helps_pass(self):
        result = stub_result()
        stats = result.forgetting()
        assert (stats["replay_off_forgot"], stats["replay_on_wins"]) == (10, 10)
        assert stats["median_gap"] == pytest.approx(0.15)
        assert stats["replay_off_quartile_distance"] == pytest.approx(0.045)
        assert result.equivalent and failure(result) == ""

    @pytest.mark.parametrize("overrides, message", [
        ({"forgot": 8}, "replay-off forgot on 8/10 seeds (needs 90%)"),
        ({"wins": 7}, "replay-on ended lower on 7/10 seeds (needs 80%)"),
        ({"gap": 0.04}, "median gap 0.0400 vs replay-off's quartile distance "
                        "0.0450 (needs the gap larger)")])
    def test_each_stream_check_fails_the_gate_alone(self, overrides, message):
        assert failure(stub_result(**overrides)) == message

    def test_a_gated_metric_outside_its_band_fails(self):
        low, high = BANDS["loss_at_step_budget"]
        assert failure(stub_result(loss_at_step_budget=high + 1.0)) == (
            f"loss_at_step_budget {high + 1.0:.4f} at seed 0 left its band "
            f"{low:.4f}..{high:.4f}")
        assert "surrogate_spectrum_mse nan at seed 0 left its band" in failure(
            stub_result(surrogate_spectrum_mse=float("nan")))

    def test_every_seed_is_checked_against_the_bands(self):
        """A metric that leaves its band at a later seed alone fails, and
        the failure names each seed outside."""
        result = stub_result()
        low, high = BANDS["latent_classifier_accuracy"]
        for seed in (3, 7):
            result.sessions[seed]["latent_classifier_accuracy"] = low - 0.1
        assert failure(result) == (
            f"latent_classifier_accuracy {low - 0.1:.4f} at seed 3, "
            f"{low - 0.1:.4f} at seed 7 left its band {low:.4f}..{high:.4f}")

    def test_the_wall_clock_loss_is_recorded_but_never_gated(self):
        result = stub_result(loss_at_wall_budget=1e6)
        verdict = result.verdicts()["loss_at_wall_budget"]
        assert verdict["outside"] == {0: 1e6} and result.equivalent
        assert "machine" in verdict["ungated_reason"]
        assert {name for name, verdict in stub_result().verdicts().items()
                if verdict["ungated_reason"] is None} == GATED

    def test_the_ratios_and_clipped_share_are_recorded_not_gated(self):
        """Ratios far above 1 (the model loses to every constant) and every
        prediction clipped leave the gate passing; each seed's are kept."""
        ratios = {"histogram_l1.vortex": 2.0, "surrogate_spectrum_mse": 4.4,
                  "latent_classifier_accuracy": 0.1}
        result = stub_result(clipped_fraction=1.0, ratios_to_constant=ratios)
        assert result.equivalent and set(result.verdicts()) == set(BANDS)
        sessions = result.metrics()["sessions"]
        assert [session["clipped_fraction"] for session in sessions] == \
            [1.0] + [0.6] * 9
        assert sessions[0]["ratios_to_constant"] == ratios
        assert sessions[1]["ratios_to_constant"] == {
            "histogram_l1.vortex": 1.5, "latent_classifier_accuracy": 0.2}

    def test_a_failed_gate_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(CASE, "run", lambda args: stub_result(wins=0))
        assert cli_main(["bench-learning", "--no-persist"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert "replay-on ended lower on 0/10" in captured.err


@pytest.mark.usefixtures("short_learning")
class TestCutRun:
    def test_the_cut_case_passes_its_gate(self):
        result = run_learning_benchmark()
        assert result.equivalent, failure(result)
        assert result.steps_in_wall_budget >= 1
        assert len(result.sessions) == 1
        assert set(BANDS) < set(result.sessions[0])
        assert set(result.sessions[0]["ratios_to_constant"]) >= {
            "surrogate_spectrum_mse"}

    def test_replay_off_in_both_arms_fails_the_gate(self, monkeypatch):
        monkeypatch.setattr(learning, "stream_config",
                            lambda replay: stream_config(False))
        result = run_learning_benchmark()
        assert result.replay_on == result.replay_off
        assert failure(result).startswith(
            "replay-on ended lower on 0/1 seeds (needs 80%); median gap 0.0000")


class TestPersistAndFormat:
    def test_persist_appends_bench_record(self, tmp_path, monkeypatch):
        monkeypatch.setattr(CASE, "run", lambda args: stub_result())
        assert cli_main(["bench-learning", "--output-dir", str(tmp_path)]) == 0
        record = load_history(bench_path("learning", str(tmp_path)))["runs"][-1]
        assert [arm["n_ep"] for arm in
                record["params"]["stream_config"].values()] == [0, 4]
        assert record["metrics"]["forgetting"]["replay_off_forgot"] == 10
        verdict = record["metrics"]["bands"]["loss_at_step_budget"]
        assert verdict["band"] == list(BANDS["loss_at_step_budget"])
        assert verdict["outside"] == {} and verdict["ungated_reason"] is None
        sessions = record["metrics"]["sessions"]
        assert [session["loss_at_step_budget"] for session in sessions] == \
            [sum(BANDS["loss_at_step_budget"]) / 2] * 10
        assert all(session["ratios_to_constant"] for session in sessions)

    def test_format_names_every_gate(self):
        text = format_result(stub_result())
        assert text.count("OK") == 3 + len(GATED)
        assert "200-step sessions at 10 seeds" in text
        failed = format_result(stub_result(forgot=0, wins=0, equivalent=False))
        assert failed.count("FAILED") == 4

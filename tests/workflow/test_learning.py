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
    lower on ``wins`` (higher on the rest); the session sits mid-band."""
    replay_off = [(0.05 if seed < forgot else 0.5, 0.35 + 0.01 * seed)
                  for seed in range(10)]
    replay_on = [(before, after - gap if seed < wins else after + gap)
                 for seed, (before, after) in enumerate(replay_off)]
    values = {name: (low + high) / 2 for name, (low, high) in BANDS.items()}
    values.update(session)
    if not equivalent:
        values["surrogate_spectrum_mse"] = 9.0
    return LearningResult(replay_off=replay_off, replay_on=replay_on,
                          session=values, steps_in_wall_budget=70)


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
            f"loss_at_step_budget {high + 1.0:.4f} left its band "
            f"{low:.4f}..{high:.4f}")
        assert "surrogate_spectrum_mse nan left its band" in failure(
            stub_result(surrogate_spectrum_mse=float("nan")))

    def test_the_wall_clock_loss_is_recorded_but_never_gated(self):
        result = stub_result(loss_at_wall_budget=1e6)
        verdict = result.verdicts()["loss_at_wall_budget"]
        assert verdict["inside"] is False and result.equivalent
        assert "machine" in verdict["ungated_reason"]
        assert {name for name, verdict in stub_result().verdicts().items()
                if verdict["ungated_reason"] is None} == GATED

    def test_a_band_that_reaches_the_worst_value_is_not_gated(self,
                                                               monkeypatch):
        """Every region's L1 at its maximum 2.0 and every prediction
        clipped sit inside bands that reach those values: such a band could
        only fail an improvement, so it is recorded with the reason and
        not gated.  A band short of the worst value gates."""
        worst = {name: (2.0 if name.startswith("histogram_l1") else 1.0)
                 for name in BANDS
                 if name.startswith(("histogram_l1", "clipped_fraction"))}
        assert len(worst) == 4
        result = stub_result(**worst)
        for name, value in worst.items():
            verdict = result.verdicts()[name]
            assert verdict["inside"] and verdict["band"][1] == value
            assert verdict["ungated_reason"] == (
                f"its band reaches the worst value {value:g}")
        monkeypatch.setitem(BANDS, "histogram_l1.vortex", (1.1, 1.8))
        monkeypatch.setitem(BANDS, "clipped_fraction", (0.5, 0.9))
        assert failure(result) == (
            "histogram_l1.vortex 2.0000 left its band 1.1000..1.8000; "
            "clipped_fraction 1.0000 left its band 0.5000..0.9000")

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
        assert set(result.session) == set(BANDS)

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
        verdict = record["metrics"]["session"]["loss_at_step_budget"]
        assert verdict["band"] == list(BANDS["loss_at_step_budget"])
        assert verdict["inside"] and verdict["ungated_reason"] is None

    def test_format_names_every_gate(self):
        assert format_result(stub_result()).count("OK") == 3 + len(GATED)
        failed = format_result(stub_result(forgot=0, wins=0, equivalent=False))
        assert failed.count("FAILED") == 4

"""Tests of the training hot-path benchmark case (``repro.workflow.train_hotpath``).

The harness behaviour every case shares (flags, persist, exit codes) is
tested once, over every case, in ``tests/test_bench_harness.py``.  Each gate
condition is tested here by injecting the fault it must catch.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.mlcore import functional as F
from repro.mlcore.tensor import Tensor
from repro.utils.benchjson import latest_run
from repro.workflow import train_hotpath
from repro.workflow.train_hotpath import (CASE, MAX_TAPE_NODES, SIZES,
                                          TrainHotpathResult, count_nodes,
                                          format_result, gate_failure, main,
                                          run_train_benchmark)
from tests.mlcore.test_fused_ops import oracle_weighted_sum

pytestmark = pytest.mark.usefixtures("short_training")


def tiny_result():
    return run_train_benchmark(repeats=1)


def stub_result(equivalent: bool = True):
    return TrainHotpathResult(
        iterations_per_sec={"bench-tiny": 1000.0, "laptop": 180.0},
        phases_ms={size: {"batch": 0.02, "forward": 0.4, "backward": 0.4,
                          "optimizer": 0.07} for size in SIZES},
        tape_nodes={"bench-tiny": 36 if equivalent else 58, "laptop": 48},
        n_parameters={"bench-tiny": 13782, "laptop": 39038},
        finite=equivalent, deterministic=equivalent)


class TestRunTrainBenchmark:
    def test_measures_both_sizes_and_passes_the_gate(self):
        result = tiny_result()
        assert set(result.iterations_per_sec) == set(SIZES)
        assert all(rate > 0 for rate in result.iterations_per_sec.values())
        for size in SIZES:
            assert set(result.phases_ms[size]) == {"batch", "forward",
                                                   "backward", "optimizer"}
        assert 0 < result.tape_nodes["bench-tiny"] <= MAX_TAPE_NODES
        assert result.n_parameters["bench-tiny"] < result.n_parameters["laptop"]
        assert result.finite and result.deterministic and result.equivalent

    def test_rejects_repeats_below_one(self):
        with pytest.raises(ValueError, match="repeats"):
            run_train_benchmark(repeats=0)

    def test_a_non_finite_loss_fails_the_gate(self, monkeypatch):
        fresh = train_hotpath._trainer

        def poisoned(size):
            trainer = fresh(size)
            for sample in trainer.buffer._now + trainer.buffer._ep:
                sample.spectrum[0] = np.nan
            return trainer

        monkeypatch.setattr(train_hotpath, "_trainer", poisoned)
        with np.errstate(invalid="ignore"):      # NaN in, NaN through
            result = tiny_result()
        assert not result.finite and not result.equivalent
        assert "not finite" in gate_failure(result)

    def test_diverging_same_seed_trainers_fail_the_gate(self, monkeypatch):
        fresh, nudges = train_hotpath._trainer, itertools.count()

        def drifting(size):
            trainer = fresh(size)
            trainer.model.parameters()[0].data += 1e-9 * next(nudges)
            return trainer

        monkeypatch.setattr(train_hotpath, "_trainer", drifting)
        result = tiny_result()
        assert result.finite and not result.deterministic
        assert gate_failure(result) == "two trainers with the same seed diverged"

    def test_a_tape_over_budget_fails_the_gate(self, monkeypatch):
        """The weighted total op by op adds eight nodes: over the budget."""
        monkeypatch.setattr(F, "weighted_sum", oracle_weighted_sum)
        result = tiny_result()
        assert result.tape_nodes["bench-tiny"] > MAX_TAPE_NODES
        assert not result.equivalent
        assert f"(> {MAX_TAPE_NODES})" in gate_failure(result)

    def test_count_nodes_puts_the_constructor_back_on_error(self):
        make = vars(Tensor)["_make"]

        class Failing:
            def train_iteration(self, step):
                Tensor._make(np.zeros(1), (), None)
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            count_nodes(Failing())
        assert vars(Tensor)["_make"] is make


class TestPersistAndFormat:
    def test_persist_appends_bench_record(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(CASE, "run", lambda args: stub_result())
        assert main(["--repeats", "2", "--output-dir", str(tmp_path)]) == 0
        assert "BENCH_train_hotpath.json" in capsys.readouterr().out
        record = latest_run("train_hotpath", str(tmp_path))
        assert record["params"] == {
            "sizes": list(SIZES), "n_parameters": {"bench-tiny": 13782,
                                                   "laptop": 39038},
            "n_iterations": 2, "warmup": 1, "seed": train_hotpath.SEED,
            "repeats": 2}
        assert record["metrics"]["tape_nodes_per_iteration"] == {
            "bench-tiny": 36, "laptop": 48}
        assert set(record["metrics"]) == {
            "iterations_per_sec", "phases_ms_per_iteration",
            "tape_nodes_per_iteration", "finite", "deterministic",
            "equivalent"}

    def test_format_names_both_sizes_and_every_gate(self):
        text = format_result(stub_result())
        assert "bench-tiny" in text and "laptop" in text
        assert "36 nodes" in text and text.count("OK") == 3
        assert format_result(stub_result(equivalent=False)).count("FAILED") == 3

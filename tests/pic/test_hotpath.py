"""Tests of the PIC hot-path benchmark case (``repro.pic.hotpath``).

The harness behaviour every case shares (flags, persist, exit codes) is
tested once, over both cases, in ``tests/test_bench_harness.py``.
"""

from __future__ import annotations

import pytest

from repro.pic import kernels
from repro.pic.hotpath import (CASE, HotpathResult, format_result, main,
                               run_hotpath_benchmark)
from repro.utils.benchjson import latest_run


def tiny_result():
    return run_hotpath_benchmark(n_steps=2, warmup=1, equivalence_steps=2,
                                 repeats=1)


def stub_result(equivalent=True, **overrides):
    """A result; ``equivalent=False``: fused and reference disagree."""
    kwargs = dict(steps_per_sec={"fused": 200.0, "reference": 50.0,
                                 "helper": 300.0},
                  sections_ms={"fused": {"deposit": 2.0},
                               "reference": {"deposit": 16.0},
                               "helper": {"deposit": 2.2}},
                  n_steps=4, warmup=1, n_macro_particles=2048,
                  grid_shape=(8, 16, 2), stay_fraction=0.875,
                  scratch_bytes=1_250_000,
                  equivalence_error=1e-13 if equivalent else 1e-3,
                  helper_identical=True)
    kwargs.update(overrides)
    return HotpathResult(**kwargs)


class TestRunHotpathBenchmark:
    def test_measures_both_kernels_and_equivalence(self):
        """bench-tiny's 1 024 particles a species give a helper nothing, so
        no helper row is timed and its gate is not run."""
        result = tiny_result()
        assert set(result.steps_per_sec) == {"fused", "reference"}
        assert all(rate > 0 for rate in result.steps_per_sec.values())
        assert set(result.sections_ms) == {"fused", "reference"}
        assert "deposit" in result.sections_ms["fused"]
        assert result.n_macro_particles == 8 * 16 * 2 * 4 * 2
        # a KHI step moves a particle a fraction of a cell: most stay, some
        # cross — both classes of the Esirkepov deposit are exercised
        assert 0.5 < result.stay_fraction < 1.0
        assert result.scratch_bytes > 0
        assert result.helper_identical is None
        assert result.equivalent
        assert result.speedup > 0

    def test_the_helper_gate_compares_a_step_on_two_threads(self, monkeypatch):
        """Blocks of 64 particles engage the helper on bench-tiny; its step
        matches the one-thread step bit for bit, and the scratch counts the
        helper's workspaces too."""
        monkeypatch.setattr(kernels, "CHUNK", 64)
        result = tiny_result()
        assert set(result.steps_per_sec) == {"fused", "reference", "helper"}
        assert result.helper_identical

        from repro.pic.hotpath import _bench_config, _stepping
        from repro.pic.khi import make_khi_simulation

        simulation = make_khi_simulation(_bench_config())
        with _stepping("helper", simulation) as step:
            step()
        assert simulation.scratch_bytes > simulation._workspace.nbytes

    @pytest.mark.parametrize("kwargs", [{"n_steps": 0}, {"warmup": -1},
                                        {"repeats": 0},
                                        {"grid_shape": (0, 16, 2)}])
    def test_rejects_bad_arguments(self, kwargs):
        with pytest.raises(ValueError):
            run_hotpath_benchmark(**kwargs)


class TestPersistAndFormat:
    def test_persist_appends_bench_record(self, tmp_path, monkeypatch, capsys):
        """The record schema: the case's params/metrics plus the harness's
        ``repeats`` stamp, so a record says how it was taken."""
        result = stub_result()
        monkeypatch.setattr(CASE, "run", lambda args: result)
        assert main(["--repeats", "5", "--output-dir", str(tmp_path)]) == 0
        assert "BENCH_pic_hotpath.json" in capsys.readouterr().out
        record = latest_run("pic_hotpath", str(tmp_path))
        assert record["params"] == {
            "grid_shape": [8, 16, 2], "particles_per_cell": 4,
            "n_macro_particles": 2048, "chunk": kernels.CHUNK,
            "stay_fraction": 0.875, "n_steps": 4, "warmup": 1, "repeats": 5}
        assert set(record["metrics"]) == {
            "steps_per_sec", "particle_updates_per_sec", "speedup",
            "sections_ms_per_step", "scratch_bytes", "equivalence_error",
            "helper_identical", "equivalent"}
        assert record["metrics"]["scratch_bytes"] == 1_250_000
        assert record["metrics"]["speedup"] == pytest.approx(result.speedup)
        assert record["metrics"]["particle_updates_per_sec"] == {
            "fused": 2048 * 200.0, "reference": 2048 * 50.0,
            "helper": 2048 * 300.0}

    def test_a_helper_step_that_differs_fails_the_gate(self, monkeypatch,
                                                       capsys):
        result = stub_result(helper_identical=False)
        assert not result.equivalent
        monkeypatch.setattr(CASE, "run", lambda args: result)
        assert main(["--no-persist"]) == 1
        captured = capsys.readouterr()
        assert "helper == fused: FAILED" in captured.out
        assert "fused == reference: OK" in captured.out
        assert "helper differs from the one-thread step" in captured.err

    def test_format_mentions_both_kernels(self):
        text = format_result(stub_result())
        assert "fused" in text and "reference" in text and "helper" in text
        assert "4.00x" in text and "1.50x helper over fused" in text
        assert "0.41 M particle updates/s" in text
        assert "1.25 MB" in text
        assert "87.5% stay in their cell" in text
        assert "OK" in text

    def test_a_problem_without_a_helper_species_has_no_helper_row(self):
        result = stub_result(helper_identical=None,
                             steps_per_sec={"fused": 200.0, "reference": 50.0},
                             sections_ms={"fused": {"deposit": 2.0},
                                          "reference": {"deposit": 16.0}})
        assert result.equivalent
        text = format_result(result)
        assert "helper over fused" not in text
        assert "helper == fused: not run" in text
        assert "helper" not in result.metrics()["steps_per_sec"]
        assert result.metrics()["helper_identical"] is None

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


def stub_result(**overrides):
    kwargs = dict(steps_per_sec={"fused": 200.0, "reference": 50.0},
                  sections_ms={"fused": {"deposit": 2.0},
                               "reference": {"deposit": 16.0}},
                  n_steps=4, warmup=1, n_macro_particles=2048,
                  grid_shape=(8, 16, 2), stay_fraction=0.875,
                  scratch_bytes=1_250_000, equivalence_error=1e-13,
                  equivalent=True)
    kwargs.update(overrides)
    return HotpathResult(**kwargs)


class TestRunHotpathBenchmark:
    def test_measures_both_kernels_and_equivalence(self):
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
        assert result.equivalent
        assert result.speedup > 0

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
            "equivalent"}
        assert record["metrics"]["scratch_bytes"] == 1_250_000
        assert record["metrics"]["speedup"] == pytest.approx(result.speedup)
        assert record["metrics"]["particle_updates_per_sec"] == {
            "fused": 2048 * 200.0, "reference": 2048 * 50.0}

    def test_format_mentions_both_kernels(self):
        text = format_result(stub_result())
        assert "fused" in text and "reference" in text
        assert "4.00x" in text
        assert "0.41 M particle updates/s" in text
        assert "1.25 MB" in text
        assert "87.5% stay in their cell" in text
        assert "OK" in text

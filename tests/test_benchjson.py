"""Tests of the persisted benchmark histories (``BENCH_<topic>.json``)."""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from repro.utils.benchjson import (SCHEMA_VERSION, append_run, bench_path,
                                   git_revision, latest_run, load_history,
                                   make_record)


class TestBenchPath:
    def test_builds_expected_filename(self, tmp_path):
        assert bench_path("pic_hotpath", str(tmp_path)) == \
            os.path.join(str(tmp_path), "BENCH_pic_hotpath.json")

    @pytest.mark.parametrize("topic", ["", "a/b", "a\\b", "a b"])
    def test_rejects_unsafe_topics(self, topic):
        with pytest.raises(ValueError):
            bench_path(topic)


class TestAppendRun:
    def test_creates_then_appends(self, tmp_path):
        directory = str(tmp_path)
        path = append_run("t", {"n": 1}, {"rate": 2.0}, directory)
        assert os.path.exists(path)
        append_run("t", {"n": 2}, {"rate": 3.0}, directory)
        history = load_history(path)
        assert history["schema_version"] == SCHEMA_VERSION
        assert history["topic"] == "t"
        assert [run["params"]["n"] for run in history["runs"]] == [1, 2]
        for run in history["runs"]:
            assert "timestamp" in run and "git_revision" in run

    def test_numpy_values_are_serialised(self, tmp_path):
        path = append_run("t", {"shape": np.array([4, 5])},
                          {"rate": np.float64(1.5)}, str(tmp_path))
        with open(path) as handle:
            data = json.load(handle)
        assert data["runs"][0]["params"]["shape"] == [4, 5]
        assert data["runs"][0]["metrics"]["rate"] == 1.5

    def test_refuses_topic_mismatch(self, tmp_path):
        directory = str(tmp_path)
        path = append_run("alpha", {}, {}, directory)
        os.rename(path, bench_path("beta", directory))
        with pytest.raises(ValueError, match="refusing"):
            append_run("beta", {}, {}, directory)

    def test_creates_missing_directory(self, tmp_path):
        directory = str(tmp_path / "bench-out")
        path = append_run("t", {}, {}, directory)
        assert os.path.exists(path)

    def test_no_tmp_file_left_behind(self, tmp_path):
        append_run("t", {}, {}, str(tmp_path))
        assert [name for name in os.listdir(tmp_path)
                if name.endswith(".tmp")] == []


class TestLoadHistory:
    def test_rejects_non_history_json(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="not a benchmark history"):
            load_history(str(path))

    def test_a_torn_file_is_named_and_never_appended_to(self, tmp_path):
        """A history cut off mid-write: the error names the file, and an
        append refuses it and leaves it byte for byte as it was."""
        directory = str(tmp_path)
        path = append_run("t", {"n": 1}, {"rate": 2.0}, directory)
        with open(path, "rb") as handle:
            torn = handle.read()[:-40]
        with open(path, "wb") as handle:
            handle.write(torn)
        with pytest.raises(ValueError,
                           match=f"{re.escape(path)} is not a benchmark "
                                 f"history file"):
            load_history(path)
        with pytest.raises(ValueError, match=re.escape(path)):
            append_run("t", {"n": 2}, {"rate": 3.0}, directory)
        with open(path, "rb") as handle:
            assert handle.read() == torn
        assert sorted(os.listdir(directory)) == ["BENCH_t.json"]

    def test_rejects_unknown_schema_version(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema_version": 99, "topic": "bad",
                                    "runs": []}))
        with pytest.raises(ValueError, match="schema version"):
            load_history(str(path))

    def test_rejects_non_list_runs(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION,
                                    "topic": "bad", "runs": {}}))
        with pytest.raises(ValueError, match="non-list"):
            load_history(str(path))


class TestLatestRun:
    def test_none_without_history(self, tmp_path):
        assert latest_run("nothing", str(tmp_path)) is None

    def test_returns_most_recent(self, tmp_path):
        directory = str(tmp_path)
        append_run("t", {"n": 1}, {}, directory)
        append_run("t", {"n": 2}, {}, directory)
        assert latest_run("t", directory)["params"]["n"] == 2


class TestGitRevision:
    def test_inside_repo_returns_short_hash(self):
        revision = git_revision(os.path.dirname(os.path.abspath(__file__)))
        assert revision is None or (1 <= len(revision) <= 40)

    def test_outside_repo_returns_none(self, tmp_path):
        assert git_revision(str(tmp_path)) is None

    def test_record_in_non_repo_directory(self, tmp_path):
        record = make_record({"a": 1}, {"b": 2}, str(tmp_path))
        assert record["git_revision"] is None
        assert record["params"] == {"a": 1}

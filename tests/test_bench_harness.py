"""The benchmark harness contract (``repro.utils.benchjson``), tested once.

Every persisted benchmark — ``repro.pic.hotpath``,
``repro.campaign.hotpath``, ``repro.workflow.train_hotpath`` and
``repro.workflow.learning`` — is a case
definition over one harness, so the behaviour they share (shared flags,
persistence, exit codes, the flags the CLI mounts) is checked here over
every case instead of once per module.
"""

from __future__ import annotations

import re

import pytest

import repro.campaign.hotpath as campaign_hotpath
import repro.pic.hotpath as pic_hotpath
import repro.workflow.learning as learning
import repro.workflow.train_hotpath as train_hotpath
from repro.cli import main as cli_main
from repro.utils.benchjson import bench_path, best_of_interleaved, load_history
from tests.campaign.test_campaign_hotpath import stub_result as campaign_stub
from tests.pic.test_hotpath import stub_result as pic_stub
from tests.workflow.test_learning import stub_result as learning_stub
from tests.workflow.test_train_hotpath import stub_result as train_stub

pytestmark = pytest.mark.usefixtures("short_training")

#: per case: module, CLI command, the smallest real invocation, the flags
#: the command accepts, a stub result factory and what a failed gate
#: names on stderr
CASES = {
    "pic": dict(
        module=pic_hotpath, command="bench-hotpath",
        tiny=["--steps", "2", "--warmup", "1", "--repeats", "1"],
        flags={"--steps", "--warmup", "--grid", "--repeats", "--output-dir",
               "--no-persist", "--help"},
        stub=pic_stub, failure=("disagree", "fused", "reference")),
    "campaign": dict(
        module=campaign_hotpath, command="bench-campaign",
        tiny=["--repeats", "1", "--repetitions", "1", "--max-workers", "2",
              "--start-method", "fork"],
        flags={"--repetitions", "--max-workers", "--start-method",
               "--repeats", "--output-dir", "--no-persist", "--help"},
        stub=campaign_stub, failure=("disagree", "workers", "serial")),
    "train": dict(
        module=train_hotpath, command="bench-train",
        tiny=["--repeats", "1"],
        flags={"--repeats", "--output-dir", "--no-persist", "--help"},
        stub=train_stub, failure=("not finite", "58 nodes", "diverged")),
    "learning": dict(
        module=learning, command="bench-learning",
        tiny=["--repeats", "1"],
        flags={"--repeats", "--output-dir", "--no-persist", "--help"},
        stub=learning_stub,
        failure=("surrogate_spectrum_mse", "left its band")),
}

BAD_FLAGS = [
    pytest.param("pic", ["--grid", "0", "16", "2"], id="pic-grid"),
    pytest.param("pic", ["--steps", "0"], id="pic-steps"),
    pytest.param("pic", ["--warmup", "-1"], id="pic-warmup"),
    pytest.param("pic", ["--repeats", "0"], id="pic-repeats"),
    pytest.param("campaign", ["--repeats", "0"], id="campaign-repeats"),
    pytest.param("campaign", ["--repetitions", "0"],
                 id="campaign-repetitions"),
    pytest.param("campaign", ["--max-workers", "0"],
                 id="campaign-max-workers"),
    pytest.param("train", ["--repeats", "0"], id="train-repeats"),
    pytest.param("learning", ["--repeats", "0"], id="learning-repeats"),
]


@pytest.fixture(params=sorted(CASES))
def case(request):
    if request.param == "learning":
        request.getfixturevalue("short_learning")
    return CASES[request.param]


def run(case, argv):
    """The case's ``repro.cli`` command with ``argv``."""
    return cli_main([case["command"], *argv])


class TestBestOfInterleaved:
    def test_keeps_the_best_block_of_every_callable(self):
        calls = []
        rates = {"a": iter([1.0, 3.0, 2.0]), "b": iter([5.0, 4.0, 6.0])}

        def timed(name):
            def measure():
                calls.append(name)
                rate = next(rates[name])
                return rate, f"{name}-block-{rate}"
            return measure

        best = best_of_interleaved({"a": timed("a"), "b": timed("b")}, 3)
        assert calls == ["a", "b", "a", "b", "a", "b"]
        assert best == {"a": (3.0, "a-block-3.0"), "b": (6.0, "b-block-6.0")}

    def test_setup_runs_once_before_the_first_block(self):
        events = []
        best_of_interleaved({"a": lambda: (events.append("a") or 1.0, None)},
                            2, setup=lambda: events.append("setup"))
        assert events == ["setup", "a", "a"]

    def test_rejects_repeats_below_one_before_any_work(self):
        ran = []
        with pytest.raises(ValueError, match="repeats"):
            best_of_interleaved({"a": lambda: ran.append("a")}, 0,
                                setup=lambda: ran.append("setup"))
        assert ran == []


class TestCaseContract:
    def test_no_persist_prints_no_recorded_line(self, case, capsys, tmp_path):
        argv = case["tiny"] + ["--no-persist", "--output-dir", str(tmp_path)]
        assert run(case, argv) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "recorded" not in out
        assert list(tmp_path.iterdir()) == []

    def test_output_dir_appends_a_readable_record(self, case, capsys,
                                                  tmp_path):
        argv = case["tiny"] + ["--output-dir", str(tmp_path)]
        assert run(case, argv) == 0
        assert "recorded in" in capsys.readouterr().out
        record = load_history(bench_path(case["module"].CASE.topic,
                                         str(tmp_path)))["runs"][-1]
        assert record["params"]["repeats"] == 1
        assert record["metrics"]["equivalent"] is True

    @pytest.mark.parametrize("name, flags", BAD_FLAGS)
    def test_a_bad_flag_exits_2_not_1(self, name, flags, capsys):
        """A bad argument must not look like a failed gate (exit 1)."""
        assert run(CASES[name], flags + ["--no-persist"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_a_failed_gate_exits_1_naming_both_sides(self, case, capsys,
                                                     monkeypatch):
        failed = case["stub"](equivalent=False)
        monkeypatch.setattr(case["module"].CASE, "run", lambda args: failed)
        assert run(case, ["--no-persist"]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.out
        assert all(part in captured.err for part in case["failure"])

    def test_cli_mounts_exactly_the_module_flags(self, case, capsys):
        """Flags are declared once, by the case: the command lists them."""
        with pytest.raises(SystemExit) as exit_info:
            run(case, ["--help"])
        assert exit_info.value.code == 0
        assert set(re.findall(r"--[a-z][a-z-]*",
                              capsys.readouterr().out)) == case["flags"]

    def test_bench_campaign_has_no_preset_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["bench-campaign", "--preset", "campaign-smoke"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

"""The call census: every function defined in ``src/repro`` is called by the
traffic CI drives, or is allow-listed below with its reason.

The traffic is CI's own steps (``.github/workflows/ci.yml``: the CLI smoke,
the examples, the campaign, worker-pool and service smokes, the ``bench-*``
cases and ``bench/run.py --smoke``), less the installs and the test suites.
Each job runs in a scratch root whose ``src`` holds ``repro`` and a
``sitecustomize`` that profiles every interpreter the steps start — pool
workers, the service and its threads included — and appends each
``src/repro`` function called to one file as it is first called, so a
worker that is killed has already reported.

A function that only tests call is not part of the system: delete it, or
give it one of the four reasons to stay.  The census is ``slow`` (a few
minutes); run it with ``pytest --runslow tests/test_call_census.py``.
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import socket
import signal
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


def _allow(reason: str, module: str, *names: str) -> dict:
    return {f"{module}:{name}": reason for name in names}


#: ``module:qualname`` -> why a function no CI step calls stays.  There are
#: four reasons: (1) an open ROADMAP item names it as its caller, (2) it is
#: documented surface or a failure path, (3) CI reaches it — then it is not
#: listed here — or (4) a test compares the run path against it.
ALLOWED = {
    **_allow("1: the KHI item validates the shear run's growth with it",
             "repro.analysis.growth", "_linear_fit", "fit_exponential_growth",
             "growth_rate_from_energy_history",
             "growth_rate_from_radiation_history", "identify_linear_phase"),
    **_allow("1: the KHI item's reference rate", "repro.pic.khi",
             "growth_rate_estimate"),
    **_allow("1: the run-time invariants item's energy drift and continuity "
             "residual", "repro.pic.diagnostics", "EnergyHistory._record",
             "EnergyHistory.on_start", "EnergyHistory.on_step",
             "EnergyHistory.total", "ChargeConservationMonitor._charge_density",
             "ChargeConservationMonitor.max_residual",
             "ChargeConservationMonitor.on_start",
             "ChargeConservationMonitor.on_step"),
    **_allow("1: the float32-tape item re-measures the bands with it",
             "repro.workflow.learning", "measure_bands"),
    **_allow("2: GET /v1/campaigns/{id}/report and campaign report --json",
             "repro.campaign.aggregate", "CampaignReport.to_dict"),
    **_allow("2: GET /v1/campaigns/{id}/report", "repro.service.jobs",
             "CampaignJob.records", "CampaignJob.report"),
    **_allow("2: the client calls of documented endpoints",
             "repro.service.client", "ServiceClient.report",
             "ServiceClient.list_campaigns"),
    **_allow("2: an HTTP error", "repro.service.client",
             "ServiceClient._error_message", "ServiceError.__init__"),
    **_allow("2: an HTTP error", "repro.service.server",
             "CampaignServiceHandler._error"),
    **_allow("2: the SSE keep-alive of an idle stream", "repro.service.sse",
             "format_comment"),
    **_allow("2: a service restart replays a store into the bus",
             "repro.service.bus", "RunEventBus.seed", "RunEventBus.history"),
    **_allow("2: a run that times out, a launch that dies, a lost run",
             "repro.campaign.scheduler", "_attempt_run_impl.<locals>.budget_spent",
             "_LaunchTrace.abort", "_failed_record"),
    **_allow("2: a worker that dies holding a run", "repro.campaign.workers",
             "_Lease.orphaned"),
    **_allow("2: a bench-train gate that fails", "repro.workflow.train_hotpath",
             "gate_failure"),
    **_allow("2: a traced pipelined run's threads", "repro.telemetry.spans",
             "carry_trace.<locals>.traced"),
    **_allow("2: the README's config round trip", "repro.core.config",
             "WorkflowConfig.to_file"),
    **_allow("2: the hook every executor implements", "repro.campaign.scheduler",
             "CampaignExecutor.execute"),
    **_allow("2: the hook every driver implements", "repro.workflow.drivers",
             "ExecutionDriver.execute"),
    **_allow("2: the hooks every consumer implements",
             "repro.workflow.consumers", "StreamConsumer.consume",
             "StreamConsumer.summary"),
    **_allow("2: the hook every reducer implements",
             "repro.streaming.reduction", "Reducer.reduce"),
    **_allow("2: a plugin's default hooks", "repro.pic.simulation",
             "Plugin.on_start", "Plugin.on_step", "Plugin.on_finish"),
    **_allow("4: the tape oracles of the fused nodes", "repro.mlcore.tensor",
             "Tensor.__add__", "Tensor.__sub__", "Tensor.__mul__",
             "Tensor.__truediv__", "Tensor.__rtruediv__", "Tensor.__neg__",
             "Tensor.__matmul__", "Tensor.__matmul__.<locals>.backward",
             "Tensor.__getitem__", "Tensor.__getitem__.<locals>.backward",
             "Tensor.sum", "Tensor.sum.<locals>.backward", "Tensor.mean",
             "Tensor.min", "Tensor.exp", "Tensor.tanh", "Tensor.transpose",
             "Tensor.swapaxes", "Tensor.squeeze", "Tensor.expand_dims"),
    **_allow("4: the fused charge deposit's oracle", "repro.pic.deposition",
             "deposit_charge_cic_reference", "_scatter_cic"),
    **_allow("4: the field solver's divergence oracles", "repro.pic.grid",
             "YeeGrid.divergence_b", "YeeGrid.divergence_j"),
    **_allow("4: the field solver's divergence oracles", "repro.pic.maxwell",
             "YeeSolver.gauss_error"),
    **_allow("4: the encoder's inverse", "repro.core.transforms",
             "decode_point_cloud"),
}

SITECUSTOMIZE = '''
import os, sys, threading

_package = os.environ["CALL_CENSUS_PACKAGE"] + os.sep
_fd = os.open(os.environ["CALL_CENSUS_OUT"],
              os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
_seen = {}


def _record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code      # held, so no id is reused
            path = os.path.realpath(code.co_filename)
            if path.startswith(_package):
                os.write(_fd, f"{path}:{code.co_firstlineno}\\n".encode())


sys.setprofile(_record)
threading.setprofile(_record)
'''


def ci_steps():
    """``(job, step name, script)`` for each ``run:`` step of CI."""
    lines = (ROOT / ".github" / "workflows" / "ci.yml").read_text().splitlines()
    steps, job, name, i = [], None, None, 0
    while i < len(lines):
        line, i = lines[i], i + 1
        if re.fullmatch(r"  [\w-]+:", line):
            job = line.strip()[:-1]
        elif match := re.fullmatch(r"\s+- name: (.+)", line):
            name = match.group(1)
        elif match := re.fullmatch(r"(\s+)run: (.+)", line):
            script, start = match.group(2), i
            if script == "|":
                while i < len(lines) and (not lines[i].strip() or lines[i]
                                          .startswith(match.group(1) + " ")):
                    i += 1
                script = textwrap.dedent("\n".join(lines[start:i]))
            steps.append((job, name, script))
    return steps


def run_traffic(scratch: Path, out: Path) -> None:
    """Every CI step but the installs and test suites, one root per job."""
    port = socket.socket()
    port.bind(("127.0.0.1", 0))
    free_port = str(port.getsockname()[1])
    port.close()
    env = dict(os.environ, CALL_CENSUS_OUT=str(out),
               CALL_CENSUS_PACKAGE=str(PACKAGE.resolve()),
               TMPDIR=str(scratch))
    for job, name, script in ci_steps():
        if "pip install" in script or "pytest" in script:
            continue
        root = scratch / job
        if not root.exists():
            (root / "src").mkdir(parents=True)
            (root / "src" / "repro").symlink_to(PACKAGE)
            (root / "src" / "sitecustomize.py").write_text(SITECUSTOMIZE)
            (root / "examples").symlink_to(ROOT / "examples")
            shutil.copy(ROOT / "BENCHMARK.json", root)
            shutil.copytree(ROOT / "bench", root / "bench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            ["bash", "--noprofile", "--norc", "-eo", "pipefail", "-c",
             script.replace("8765", free_port)],
            cwd=root, env=dict(env, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=900)
        assert done.returncode == 0, (
            f"CI step {job} / {name} failed:\n{done.stdout}\n{done.stderr}")


def definitions():
    """``module:qualname`` of every function in ``src/repro``, keyed by
    the ``(path, first line)`` its code object reports."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [decorator.lineno for decorator
                                                  in child.decorator_list])
                    found[(str(path.resolve()), first)] = \
                        f"{module}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def recorded(out: Path, defined: dict) -> list:
    """``module:qualname`` of each function the profiler wrote to ``out``,
    in order (a module or class body is not a function)."""
    keys = [line.rsplit(":", 1) for line in out.read_text().splitlines()]
    return [defined[path, int(first)] for path, first in keys
            if (path, int(first)) in defined]


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("census")
    out = scratch / "calls.txt"
    try:
        run_traffic(scratch, out)
    finally:
        # CI's stop step sends SIGINT, which a job a non-interactive shell
        # put in the background ignores: the service is still serving
        pid = scratch / "service-smoke" / "serve.pid"
        if pid.exists():
            try:
                os.kill(int(pid.read_text()), signal.SIGTERM)
            except ProcessLookupError:
                pass
    defined = definitions()
    return set(defined.values()), set(recorded(out, defined))


@pytest.mark.slow
def test_every_function_is_called_by_ci_or_allow_listed(census):
    defined, reached = census
    assert sorted(defined - reached - set(ALLOWED)) == []


@pytest.mark.slow
def test_the_allow_list_names_only_functions_ci_does_not_call(census):
    defined, reached = census
    assert sorted(set(ALLOWED) - defined) == []
    assert sorted(set(ALLOWED) & reached) == []



# The census's own parts, fast enough for tier-1


def test_the_allow_list_names_functions_that_are_defined():
    assert sorted(set(ALLOWED) - set(definitions().values())) == []


def test_every_allow_list_entry_gives_a_reason_to_stay():
    """Never reason 3: a listed function CI calls fails the census."""
    assert [key for key, reason in ALLOWED.items()
            if not re.match(r"[124]: \S", reason)] == []


def test_definitions_are_keyed_as_code_objects_report_them():
    """A function, a decorated one (its code starts at the decorator), a
    static method, a closure and a package's own function."""
    import repro
    from repro.analysis import growth
    from repro.pic.particles import ParticleSpecies
    from repro.telemetry import spans

    traced, = [const for const in spans.carry_trace.__code__.co_consts
               if isinstance(const, types.CodeType)]
    expected = {
        growth.identify_linear_phase.__code__:
            "repro.analysis.growth:identify_linear_phase",
        ParticleSpecies.n_macro.fget.__code__:
            "repro.pic.particles:ParticleSpecies.n_macro",
        ParticleSpecies.electrons.__code__:
            "repro.pic.particles:ParticleSpecies.electrons",
        traced: "repro.telemetry.spans:carry_trace.<locals>.traced",
        repro.__getattr__.__code__: "repro:__getattr__"}
    found = definitions()
    assert {found.get((os.path.realpath(code.co_filename), code.co_firstlineno))
            for code in expected} == set(expected.values())


def test_ci_steps_reads_every_run_step():
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    steps = ci_steps()
    assert len(steps) == len(re.findall(r"^\s+run: ", text, re.MULTILINE))
    assert {job for job, _, _ in steps} == {
        "tests", "worker-smoke", "service-smoke", "bench-smoke", "docs"}
    assert all(name and not script.startswith(" ") for _, name, script in steps)


def test_ci_drives_the_documented_commands_the_census_counts_as_called():
    """Not allow-listed: only CI reaches their handlers."""
    scripts = "\n".join(script for _, _, script in ci_steps())
    assert re.search(r"run --preset bench-tiny --steps 2 \\\s+"
                     r"--json --monitor --evaluate", scripts)
    assert "repro.cli campaign submit --url" in scripts
    assert "repro.cli campaign watch" in scripts


def profiled_run(tmp_path, code):
    """What the census profiler records while ``python -c code`` runs."""
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ, CALL_CENSUS_OUT=str(tmp_path / "calls.txt"),
               CALL_CENSUS_PACKAGE=str(PACKAGE.resolve()),
               PYTHONPATH=os.pathsep.join([str(tmp_path), str(PACKAGE.parent)]))
    subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=tmp_path,
                   env=env, check=True, timeout=120)
    return recorded(tmp_path / "calls.txt", definitions())


def test_the_profiler_records_each_function_once_and_threads_too(tmp_path):
    records = profiled_run(tmp_path, """
        import threading
        from repro.analysis.growth import fit_exponential_growth, identify_linear_phase
        identify_linear_phase([1.0, 2.0, 4.0, 8.0, 16.0])
        identify_linear_phase([1.0, 2.0, 4.0, 8.0, 16.0])
        thread = threading.Thread(target=fit_exponential_growth,
                                  args=([0, 1, 2, 3], [1.0, 2.0, 4.0, 8.0]))
        thread.start()
        thread.join()
        """)
    assert len(records) == len(set(records))
    assert {"repro.analysis.growth:identify_linear_phase",
            "repro.analysis.growth:fit_exponential_growth",
            "repro.analysis.growth:_linear_fit"} <= set(records)


def test_the_profiler_follows_a_spawned_process(tmp_path):
    """Only the child calls it: the census sees pool workers' calls."""
    records = profiled_run(tmp_path, """
        import multiprocessing
        from repro.analysis.growth import identify_linear_phase
        if __name__ == "__main__":
            child = multiprocessing.get_context("spawn").Process(
                target=identify_linear_phase, args=([1.0, 2.0, 4.0, 8.0, 16.0],))
            child.start()
            child.join()
            assert child.exitcode == 0
        """)
    assert "repro.analysis.growth:identify_linear_phase" in records

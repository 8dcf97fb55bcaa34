"""The call census: every function defined in ``src/repro`` is called by the
traffic CI drives, and every defaulted parameter of one takes two values in
it, or is allow-listed below with its reason.

The traffic is CI's own steps (``.github/workflows/ci.yml``: the CLI smoke,
the examples, the campaign, worker-pool and service smokes, the
``bench-train`` and ``bench-learning`` cases and ``bench/run.py
--smoke``), less the installs and the test suites.  Each job runs in a scratch root whose ``src`` holds ``repro`` and a
``sitecustomize`` that profiles every interpreter the steps start — pool
workers, the service and its threads included — and appends each
``src/repro`` function called to one file as it is first called, so a
worker that is killed has already reported.  It also writes a key of each
argument of a defaulted parameter (:func:`value_key`) the first time it
sees that key, up to :data:`MAX_KEYS` per argument.

A function that only tests call is not part of the system, and a parameter
every CI step holds at one value is not an option: delete it (inline the
value, or make the argument required), or give it one of the four reasons
to stay.  The census is ``slow`` (a few
minutes); run it with ``pytest --runslow tests/test_call_census.py``.
"""

from __future__ import annotations

import ast
import functools
import inspect
import json
import numbers
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
    **_allow("1: the run-time invariants item's energy drift and continuity "
             "residual", "repro.pic.kernels", "deposit_charge_cic"),
    **_allow("1: the float32-tape item re-measures the bands with it",
             "repro.workflow.learning", "measure_bands"),
    **_allow("2: GET /v1/campaigns/{id}/report and campaign report --json",
             "repro.campaign.aggregate", "CampaignReport.to_dict"),
    **_allow("2: GET /v1/campaigns/{id}/report", "repro.service.jobs",
             "CampaignJob.records", "CampaignJob.report"),
    **_allow("2: the client call of a documented endpoint",
             "repro.service.client", "ServiceClient.report"),
    **_allow("2: an HTTP error", "repro.service.client",
             "ServiceClient._error_message", "ServiceError.__init__"),
    **_allow("2: an HTTP error", "repro.service.server",
             "CampaignServiceHandler._error"),
    **_allow("2: the SSE keep-alive of an idle stream", "repro.service.sse",
             "format_comment"),
    **_allow("2: a stream whose done fell to the drop policy",
             "repro.service.bus", "Subscription.pending"),
    **_allow("2: a launch that dies, a lost run",
             "repro.campaign.scheduler", "_LaunchTrace.abort", "_failed_record"),
    **_allow("2: a worker that dies holding a run", "repro.campaign.workers",
             "_Lease.orphaned"),
    **_allow("2: a bench-train gate that fails", "repro.workflow.train_hotpath",
             "gate_failure"),
    **_allow("2: an append to an existing history, as to the repo-root "
             "BENCH_*.json files, and the documented reader",
             "repro.utils.benchjson", "load_history"),
    **_allow("2: a traced pipelined run's threads", "repro.telemetry.spans",
             "carry_trace.<locals>.traced"),
    **_allow("2: the README's config round trip", "repro.core.config",
             "WorkflowConfig.to_file"),
    **_allow("2: the hook every executor implements", "repro.campaign.scheduler",
             "CampaignExecutor.execute"),
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
    **_allow("4: the fused step's oracle", "repro.pic.simulation",
             "reference_step"),
    **_allow("4: the fused gather's oracle", "repro.pic.interpolation",
             "gather_fields_reference", "gather_component",
             "_cic_indices_weights"),
    **_allow("4: the fused push's oracle", "repro.pic.pusher", "boris_push"),
    **_allow("4: the fused current deposit's oracle", "repro.pic.deposition",
             "deposit_current_esirkepov_reference",
             "deposit_current_esirkepov_reference.<locals>.w_block",
             "_hat_weights"),
    **_allow("4: the fused charge deposit's oracle", "repro.pic.deposition",
             "deposit_charge_cic_reference", "_scatter_cic"),
    **_allow("4: the field solver's divergence oracles", "repro.pic.grid",
             "YeeGrid.divergence_b", "YeeGrid.divergence_j"),
    **_allow("4: the field solver's divergence oracles", "repro.pic.maxwell",
             "YeeSolver.gauss_error"),
    **_allow("4: the encoder's inverse", "repro.core.transforms",
             "decode_point_cloud"),
}

#: ``module:qualname(parameter)`` -> why a defaulted parameter CI holds at
#: one value stays a parameter.  The same four reasons, for a parameter:
#: (1) an open ROADMAP item makes it two-valued, (2) it is documented
#: surface — a CLI flag, an HTTP submit key or a deployment setting —, (3)
#: something outside the census sets it — a ``WorkflowConfig`` option or
#: the benchmark — or (4) tests substitute a collaborator through it, or it
#: is an oracle's.  A scalar only tests change is a module constant.
ONE_VALUED_PARAMETERS = {
    **_allow("1: the spectra item streams every n-th step",
             "repro.core.producer",
             "StreamingProducerPlugin.__init__(sample_interval)"),
    **_allow("2: bench-train --repeats", "repro.workflow.train_hotpath",
             "run_train_benchmark(repeats)"),
    **_allow("2: bench-learning --repeats", "repro.workflow.learning",
             "run_learning_benchmark(repeats)"),
    **_allow("2: campaign run --max-runs", "repro.campaign.scheduler",
             "run_campaign(max_runs)"),
    **_allow("2: the executor contract's observer is optional "
             "(docs/extending-executors.md)", "repro.campaign.scheduler",
             "SerialExecutor.execute(on_record)"),
    **_allow("2: the executor contract's observer is optional "
             "(docs/extending-executors.md)", "repro.campaign.workers",
             "WorkerPoolExecutor.execute(on_record)",
             "WorkerPool.run(on_record)"),
    **_allow("2: trace --run", "repro.telemetry.render",
             "render_traces(run_id)"),
    **_allow("2: main(argv), the CLI's entry point", "repro.cli", "main(argv)"),
    **_allow("2: serve --host, a deployment setting", "repro.service.server",
             "create_server(host)"),
    **_allow("2: the client's network timeout, a deployment setting",
             "repro.service.client", "ServiceClient.__init__(timeout)"),
    **_allow("3: the streaming.queue_limit option feeds it",
             "repro.streaming.broker", "SSTBroker.__init__(queue_limit)"),
    **_allow("3: the benchmark's coupled-overlap workload sets it",
             "repro.workflow.drivers", "PipelinedDriver.__init__(max_in_flight)"),
    **_allow("4: tests run campaigns on a fake worker through it",
             "repro.campaign.scheduler", "run_campaign(worker)"),
    **_allow("4: tests run campaigns on a fake worker through it",
             "repro.service.jobs", "CampaignJob.__init__(worker)",
             "CampaignJobManager.__init__(worker)"),
    **_allow("4: tests run campaigns on a fake worker through it",
             "repro.service.server", "create_server(worker)"),
    **_allow("4: the tape oracles seed the backward pass with it",
             "repro.mlcore.tensor", "Tensor.backward(grad)"),
}


def value_key(value):
    """What the census records of one argument: a scalar, ``None`` or a
    short tuple of scalars by ``repr``, a function or class by its
    qualified name, anything else by its type."""
    scalar = (numbers.Number, str, bytes, type(None))
    if isinstance(value, scalar) or (type(value) is tuple and len(value) <= 8
                                     and all(isinstance(item, scalar)
                                             for item in value)):
        return repr(value)[:200]
    name = getattr(value, "__qualname__", None)
    if callable(value) and isinstance(name, str):
        return f"{getattr(value, '__module__', None)}.{name}"
    return f"{type(value).__module__}.{type(value).__qualname__}"


#: keys recorded per argument; two show it varies, three leave a margin
MAX_KEYS = 3

SITECUSTOMIZE = "import json, numbers, os, sys, threading\n\n\n" + \
    inspect.getsource(value_key) + f"""

MAX_KEYS = {MAX_KEYS}
""" + '''
_package = os.environ["CALL_CENSUS_PACKAGE"] + os.sep
_fd = os.open(os.environ["CALL_CENSUS_OUT"],
              os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
with open(os.environ["CALL_CENSUS_DEFAULTED"], encoding="utf-8") as _handle:
    _defaulted = json.load(_handle)     # site -> its defaulted parameters
_seen = {}


def _record(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    entry = _seen.get(id(code))
    if entry is None:
        path = os.path.realpath(code.co_filename)
        site, open_keys = None, None
        if path.startswith(_package):
            site = f"{path}:{code.co_firstlineno}"
            os.write(_fd, f"{site}\\n".encode())
            open_keys = {name: set() for name in _defaulted.get(site, ())} \\
                or None
        entry = _seen[id(code)] = [code, site, open_keys]  # held: no id reuse
    open_keys = entry[2]
    if open_keys is None:
        return
    arguments, lines, full = frame.f_locals, [], []
    for name, keys in open_keys.items():
        key = value_key(arguments.get(name))
        if key not in keys:
            keys.add(key)
            lines.append(f"{entry[1]}\\t{name}\\t{key}\\n")
            if len(keys) >= MAX_KEYS:
                full.append(name)
    if lines:
        for name in full:
            del open_keys[name]
        if not open_keys:
            entry[2] = None
        os.write(_fd, "".join(lines).encode())


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
               CALL_CENSUS_DEFAULTED=str(write_defaulted(
                   scratch / "defaulted.json")),
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


@functools.lru_cache(maxsize=None)
def parse(path: Path) -> ast.Module:
    """``path``'s syntax tree, parsed once a session: the call, state and
    import censuses all read it."""
    return ast.parse(path.read_text(), str(path))


@functools.lru_cache(maxsize=None)
def functions() -> tuple:
    """``((path, first line), module:qualname, node)`` of every function
    in ``src/repro``, the key being what its code object reports; parsed
    once a session."""
    found = []
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
                    found.append(((str(path.resolve()), first),
                                  f"{module}:{prefix}{child.name}", child))
                    visit(child, f"{prefix}{child.name}.<locals>.")
                else:
                    visit(child, prefix)

        visit(parse(path), "")
    return tuple(found)


def definitions():
    """``module:qualname`` of every function in ``src/repro``, keyed by
    the ``(path, first line)`` its code object reports."""
    return {site: name for site, name, _ in functions()}


def _with_default(node) -> list:
    """The names of a function node's parameters that have a default."""
    arguments = node.args
    positional = arguments.posonlyargs + arguments.args
    return [argument.arg for argument in
            positional[len(positional) - len(arguments.defaults):]] + [
        argument.arg for argument, default in zip(arguments.kwonlyargs,
                                                  arguments.kw_defaults)
        if default is not None]


def defaulted_parameters():
    """``module:qualname`` -> the ``module:qualname(parameter)`` of each of
    its parameters that has a default."""
    return {name: [f"{name}({argument})" for argument in _with_default(node)]
            for _, name, node in functions()}


def write_defaulted(path: Path) -> Path:
    """The profiler's list of what to record: ``"path:first line"`` -> the
    parameters with a default (a method's ``self`` never reaches three
    keys, and recording it on every call would slow the traffic down)."""
    path.write_text(json.dumps({f"{site[0]}:{site[1]}": _with_default(node)
                                for site, _, node in functions()}))
    return path


def recorded(out: Path, defined: dict) -> list:
    """``module:qualname`` of each function the profiler wrote to ``out``,
    in order (a module or class body is not a function)."""
    keys = [line.rsplit(":", 1) for line in out.read_text().splitlines()
            if "\t" not in line]
    return [defined[path, int(first)] for path, first in keys
            if (path, int(first)) in defined]


def argument_keys(out: Path, defined: dict) -> dict:
    """``module:qualname(argument)`` -> the value keys the profiler wrote
    to ``out`` for it."""
    found = {}
    for line in out.read_text().splitlines():
        if "\t" in line:
            site, argument, key = line.split("\t", 2)
            path, first = site.rsplit(":", 1)
            if (path, int(first)) in defined:
                found.setdefault(f"{defined[path, int(first)]}({argument})",
                                 set()).add(key)
    return found


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("census")
    out = scratch / "calls.txt"
    try:
        run_traffic(scratch, out)
    finally:
        # CI's stop step sends SIGTERM, but a step that fails before it
        # leaves the service serving
        pid = scratch / "service-smoke" / "serve.pid"
        if pid.exists():
            try:
                os.kill(int(pid.read_text()), signal.SIGTERM)
            except ProcessLookupError:
                pass
    defined = definitions()
    return types.SimpleNamespace(
        defined=set(defined.values()), reached=set(recorded(out, defined)),
        keys=argument_keys(out, defined))


@pytest.mark.slow
def test_every_function_is_called_by_ci_or_allow_listed(census):
    assert sorted(census.defined - census.reached - set(ALLOWED)) == []


@pytest.mark.slow
def test_the_allow_list_names_only_functions_ci_does_not_call(census):
    assert sorted(set(ALLOWED) - census.defined) == []
    assert sorted(set(ALLOWED) & census.reached) == []


def one_valued(census) -> list:
    """The defaulted parameters of the functions CI calls (less those in
    ``ALLOWED``) that take fewer than two value keys across its steps."""
    return sorted(parameter for function, parameters
                  in defaulted_parameters().items()
                  if function in census.reached and function not in ALLOWED
                  for parameter in parameters
                  if len(census.keys.get(parameter, ())) < 2)


@pytest.mark.slow
def test_every_defaulted_parameter_ci_holds_at_one_value_is_allow_listed(census):
    assert sorted(set(one_valued(census)) - set(ONE_VALUED_PARAMETERS)) == []


@pytest.mark.slow
def test_the_one_valued_list_names_only_parameters_ci_holds_at_one_value(census):
    assert sorted(set(ONE_VALUED_PARAMETERS) - set(one_valued(census))) == []



# The census's own parts, fast enough for tier-1


def test_the_allow_list_names_functions_that_are_defined():
    assert sorted(set(ALLOWED) - set(definitions().values())) == []


def test_every_allow_list_entry_gives_a_reason_to_stay():
    """Never reason 3: a listed function CI calls fails the census."""
    assert [key for key, reason in ALLOWED.items()
            if not re.match(r"[124]: \S", reason)] == []


def test_the_one_valued_list_names_defaulted_parameters_of_censused_functions():
    defaulted = defaulted_parameters()
    assert sorted(set(ONE_VALUED_PARAMETERS) - {
        parameter for function, parameters in defaulted.items()
        if function not in ALLOWED for parameter in parameters}) == []


def test_every_one_valued_entry_gives_a_reason_to_stay():
    assert [key for key, reason in ONE_VALUED_PARAMETERS.items()
            if not re.match(r"[1234]: \S", reason)] == []


def test_defaulted_parameters_are_named_as_argument_keys_are():
    """Positional and keyword-only defaults; a parameter without one is
    not censused."""
    found = defaulted_parameters()
    assert found["repro.analysis.growth:fit_exponential_growth"] == [
        "repro.analysis.growth:fit_exponential_growth(window)",
        "repro.analysis.growth:fit_exponential_growth(floor)"]
    assert found["repro.continual.buffer:TrainingBuffer.__init__"] == [
        f"repro.continual.buffer:TrainingBuffer.__init__({name})"
        for name in ("now_size", "ep_size", "n_ep")]
    assert found["repro.analysis.growth:identify_linear_phase"] == []


def test_a_scalar_none_or_short_tuple_of_scalars_is_keyed_by_repr():
    import numpy as np

    values = (3, 0.5, True, None, "log", b"x", np.float64(2.0), np.int64(7),
              (1, 2.0, "a"), ())
    assert [value_key(value) for value in values] == [repr(value)
                                                      for value in values]
    assert value_key("x" * 500) == repr("x" * 500)[:200]


def test_a_function_or_class_is_keyed_by_its_qualified_name():
    from repro.campaign.scheduler import execute_run
    from repro.pic.particles import ParticleSpecies

    assert value_key(execute_run) == "repro.campaign.scheduler.execute_run"
    assert value_key(ParticleSpecies) == "repro.pic.particles.ParticleSpecies"
    assert value_key(ParticleSpecies.electrons) == \
        "repro.pic.particles.ParticleSpecies.electrons"
    assert value_key(len) == "builtins.len"


def test_any_other_object_is_keyed_by_its_type():
    import numpy as np

    from repro.models.losses import CombinedLoss

    assert value_key(np.random.default_rng(0)) == \
        "numpy.random._generator.Generator"
    assert value_key(np.zeros(3)) == "numpy.ndarray"
    assert value_key([1, 2]) == value_key([]) == "builtins.list"
    assert value_key({"a": 1}) == "builtins.dict"
    assert value_key(tuple(range(9))) == "builtins.tuple"     # not short
    assert value_key((1, [2])) == "builtins.tuple"            # not scalars
    assert value_key(CombinedLoss()) == "repro.models.losses.CombinedLoss"


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


#: What the profiler's own tests run, in one profiled interpreter: a call
#: from a thread, an argument past :data:`MAX_KEYS` values, and a spawned
#: child that reports to a file of its own
PROFILED = """
import multiprocessing
import os
import threading

from repro.analysis.growth import fit_exponential_growth, identify_linear_phase
from repro.utils.rng import seeded_rng

if __name__ == "__main__":
    identify_linear_phase([1.0, 2.0, 4.0, 8.0, 16.0])
    identify_linear_phase([1.0, 2.0, 4.0, 8.0, 16.0])
    thread = threading.Thread(target=fit_exponential_growth,
                              args=([0, 1, 2, 3], [1.0, 2.0, 4.0, 8.0]))
    thread.start()
    thread.join()
    for seed in range(5):
        seeded_rng(seed)
    os.environ["CALL_CENSUS_OUT"] = os.path.abspath("child.txt")
    child = multiprocessing.get_context("spawn").Process(
        target=fit_exponential_growth,
        args=([0, 1, 2, 3], [1.0, 2.0, 4.0, 8.0], (0, 4)))
    child.start()
    child.join()
    assert child.exitcode == 0
"""


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """What the census profiler records while :data:`PROFILED` runs: the
    functions called, in order, and the argument keys, of the interpreter
    (``parent``) and of the child it spawns (``child``)."""
    tmp_path = tmp_path_factory.mktemp("profiled")
    (tmp_path / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ, CALL_CENSUS_OUT=str(tmp_path / "calls.txt"),
               CALL_CENSUS_PACKAGE=str(PACKAGE.resolve()),
               CALL_CENSUS_DEFAULTED=str(write_defaulted(
                   tmp_path / "defaulted.json")),
               PYTHONPATH=os.pathsep.join([str(tmp_path), str(PACKAGE.parent)]))
    subprocess.run([sys.executable, "-c", PROFILED], cwd=tmp_path, env=env,
                   check=True, timeout=120)
    defined = definitions()
    return types.SimpleNamespace(**{
        name: (recorded(tmp_path / out, defined),
               argument_keys(tmp_path / out, defined))
        for name, out in (("parent", "calls.txt"), ("child", "child.txt"))})


def test_the_profiler_records_each_function_once_and_threads_too(profiled):
    records, keys = profiled.parent
    assert len(records) == len(set(records))
    assert {"repro.analysis.growth:identify_linear_phase",
            "repro.analysis.growth:fit_exponential_growth",
            "repro.analysis.growth:_linear_fit"} <= set(records)
    # the thread's call: each parameter with a default, once per key
    growth = "repro.analysis.growth:fit_exponential_growth"
    assert {key: values for key, values in keys.items()
            if key.startswith("repro.analysis.growth:")} == {
        f"{growth}(window)": {"None"}, f"{growth}(floor)": {"0.0"}}


def test_the_profiler_follows_a_spawned_process(profiled):
    """The child reports what it calls: the census sees pool workers'
    calls."""
    records, keys = profiled.child
    growth = "repro.analysis.growth:fit_exponential_growth"
    assert growth in records
    assert keys == {f"{growth}(window)": {"(0, 4)"}, f"{growth}(floor)": {"0.0"}}


def test_the_profiler_keeps_at_most_max_keys_per_argument(profiled):
    _, keys = profiled.parent
    assert keys["repro.utils.rng:seeded_rng(seed)"] == {"0", "1", "2"}

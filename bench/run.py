"""The repo benchmark's one command.

``python3 bench/run.py`` runs every workload, each in a fresh interpreter,
untraced and then traced, prints every metric by name with its unit and
sample count, checks the outputs and exits non-zero on a failed check.

With ``--workload NAME`` it runs that one workload in this interpreter and
ends with the one-line JSON result the benchmark contract asks for
(``--trace 0``: the end-to-end metrics, ``--trace 1``: the per-layer
metrics of a traced run).  ``--out FILE`` also writes the full document
``bench/compare.py`` reads.  ``--smoke`` shrinks every size so the whole
thing runs in seconds (the self-test); ``--setup-only`` stops after set-up
and prints its duration, which is how ``setup_s`` is sampled from fresh
interpreters.
"""

import time

_STARTED = time.perf_counter()   # set-up is timed from here, imports included

import os

# One BLAS/OpenMP thread per process, fixed before NumPy loads and inherited
# by the pool workers: the box has two cores and two workers.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: fresh ``--setup-only`` interpreters launched per run, beside this one
SETUP_LAUNCHES = 4
MIN_REPETITIONS = 3


def declared() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds are fixed there."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> dict:
    import numpy

    revision = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):   # not in an exported tree
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10).stdout.strip() or revision
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_revision": revision,
            "threads": {name: os.environ.get(name) for name in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


# --------------------------------------------------------------------------- #
# one workload, in this interpreter
# --------------------------------------------------------------------------- #
def repeat(workload, seconds: float, min_reps: int, first: int, tracer=None,
           alternate=None) -> list:
    """Fresh repetitions until ``seconds`` are used up (at least ``min_reps``).

    Another repetition starts only while more than half of it still fits.
    With ``alternate`` (a context-manager factory) every second repetition
    runs inside it — how telemetry-off repetitions are interleaved.
    """
    reps = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(reps) >= min_reps and \
                elapsed + 0.5 * elapsed / len(reps) > seconds:
            return reps
        index = first + len(reps)
        if alternate is not None and len(reps) % 2:
            with alternate():
                reps.append(workload.repetition(index, tracer))
        else:
            reps.append(workload.repetition(index, tracer))


def measure(name: str, seed: int, seconds: float, smoke: bool,
            end_to_end: bool, per_layer: bool, setup_only: bool = False) -> dict:
    """Set up ``name``, run its repetitions, return the result document."""
    from repro import telemetry

    from bench import tracing, workloads

    work_dir = workloads.make_work_dir()
    try:
        workload = workloads.make_workload(name, seed, smoke, work_dir)
        workload.setup()
        setup_s = time.perf_counter() - _STARTED
        if setup_only:
            return {"setup_s": setup_s}
        min_reps = 2 if smoke else MIN_REPETITIONS
        doc = {"workload": name, "seed": seed, "seconds": seconds,
               "smoke": smoke, "own_setup_s": setup_s}
        if not per_layer:
            reps = repeat(workload, seconds, min_reps, first=0)
            traced = []
        else:
            overhead = workload.telemetry_overhead
            every = repeat(workload, seconds / 2.0, 2 * (1 + overhead), first=0,
                           alternate=telemetry.disabled if overhead else None)
            reps, dark = (every[0::2], every[1::2]) if overhead else (every, [])
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced = repeat(workload, seconds / 2.0, 1, first=len(every),
                                tracer=tracer)
            layers = workload.per_layer(reps, traced, tracer)
            rate = statistics.median(rep.steps_per_sec for rep in reps)
            layers["trace.overhead_frac"] = 1.0 - statistics.median(
                rep.steps_per_sec for rep in traced) / rate
            if dark:
                layers["telemetry.overhead_frac"] = 1.0 - rate / \
                    statistics.median(rep.steps_per_sec for rep in dark)
            reps = reps + dark
            os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
            trace_path = os.path.join(BENCH_DIR, "out", f"trace-{name}.jsonl")
            tracer.write(trace_path)
            doc["trace_file"] = os.path.relpath(trace_path, ROOT)
            doc["per_layer"] = layers
            doc["cross_check"] = workload.cross_check_table
        if end_to_end:
            doc["end_to_end"] = end_to_end_metrics(workload, reps)
        late_n, late_failures = workloads.checked(workload.late_checks)
        everything = reps + traced
        doc["repetitions"] = len(everything)
        doc["attempted"] = sum(rep.attempted for rep in everything) + late_n
        doc["failures"] = [failure for rep in everything
                           for failure in rep.failures] + late_failures
        return doc
    finally:
        workloads.remove_work_dir(work_dir)


def end_to_end_metrics(workload, reps: list) -> dict:
    """The untraced repetitions' end-to-end figures (set-up and memory are
    added once the pools are down)."""
    from bench.workloads import spread

    steps = [rep.steps_per_sec for rep in reps]
    runs = [rep.runs_per_sec for rep in reps]
    lags = [workload.result_lag_s([rep]) for rep in reps]
    return {
        "steps_per_sec": {"value": statistics.median(steps), "n": len(steps),
                          "spread": spread(steps)},
        "runs_per_sec": {"value": statistics.median(runs), "n": len(runs),
                         "spread": spread(runs)},
        "result_lag_ms": {"value": 1e3 * workload.result_lag_s(reps),
                          "n": sum(len(rep.lags_s) for rep in reps),
                          "spread": spread(lags)},
    }


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def sample_setup(name: str, seed: int, smoke: bool, own: float) -> dict:
    """``setup_s``: this interpreter's set-up and that of fresh ones, median."""
    from bench.workloads import spread

    samples = [own]
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--setup-only"] + (["--smoke"] * smoke)
    for _ in range(0 if smoke else SETUP_LAUNCHES):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=170)
        if done.returncode != 0:
            raise RuntimeError(f"--setup-only launch failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return {"value": statistics.median(samples), "n": len(samples),
            "spread": spread(samples)}


def finish(doc: dict, spec: dict) -> dict:
    """Shape ``doc``'s metrics as declared: every name, with its unit."""
    for kind in ("end_to_end", "per_layer"):
        if kind not in doc:
            continue
        values = doc[kind]
        shaped = {}
        for metric in spec[kind]:
            value = values.get(metric["name"], 0.0)   # 0: layer not exercised
            row = value if isinstance(value, dict) else {"value": float(value)}
            shaped[metric["name"]] = dict(row, unit=metric["unit"])
        unknown = sorted(set(values) - set(shaped))
        if unknown:
            raise RuntimeError(f"metrics not declared in BENCHMARK.json: {unknown}")
        doc[kind] = shaped
    doc["failed"] = len(doc["failures"])
    doc["correct"] = doc["failed"] == 0
    return doc


def print_document(doc: dict) -> None:
    print(f"== {doc['workload']} (seed {doc['seed']}, "
          f"{doc['repetitions']} repetitions)")
    for kind in ("end_to_end", "per_layer"):
        for name, row in doc.get(kind, {}).items():
            notes = "".join(f"  {key}={row[key]:.3g}" if key == "spread"
                            else f"  {key}={row[key]}"
                            for key in ("n", "spread") if key in row)
            print(f"  {name:<42s} {row['value']:>14.6g} {row['unit']:<6s}{notes}")
    if doc.get("cross_check"):
        print("  outside view (wrappers) vs inside view (program timers), s:")
        for layer, outside, inside in doc["cross_check"]:
            print(f"    {layer:<22s} {outside:10.4f} {inside:10.4f} "
                  f"{outside / inside - 1.0:+.1%}")
    print(f"  attempted={doc['attempted']} failed={doc['failed']}")
    for failure in doc["failures"]:
        print(f"  FAILED: {failure}")


def stop_processes() -> None:
    """Stop every process this interpreter started and wait until each ended.

    The worker pools first (politely), then whatever ``multiprocessing``
    still knows of, then its resource tracker — which the spawn start method
    launches beside the first worker and which otherwise outlives this
    process.  (``--setup-only`` launches are waited for where they are made.)
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    if "repro.campaign" in sys.modules:
        sys.modules["repro.campaign"].shutdown_shared_pools()
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()              # closes its pipe and waits for it


def run_one(args, spec: dict) -> int:
    try:
        doc = measure(args.workload, args.seed,
                      0.0 if args.smoke else args.seconds, args.smoke,
                      end_to_end=args.trace == 0, per_layer=args.trace == 1,
                      setup_only=args.setup_only)
    finally:
        stop_processes()             # reaps the workers: their RSS counts
    if args.setup_only:
        print(json.dumps(doc))
        return 0
    if args.trace == 0:
        doc["end_to_end"]["peak_rss_mb"] = {"value": peak_rss_mb(), "n": 1}
        doc["end_to_end"]["setup_s"] = sample_setup(
            args.workload, args.seed, args.smoke, doc["own_setup_s"])
    doc = finish(dict(doc, env=environment(), trace=args.trace), spec)
    print_document(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)
    kind = "end_to_end" if args.trace == 0 else "per_layer"
    print(json.dumps({
        "correct": doc["correct"], "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": row["value"], "unit": row["unit"]}
                    for name, row in doc[kind].items()}}))
    return 0 if doc["correct"] else 1


# --------------------------------------------------------------------------- #
# every workload
# --------------------------------------------------------------------------- #
def run_all(args, spec: dict) -> int:
    """Every workload, untraced then traced; one combined document."""
    names = [workload["name"] for workload in spec["workloads"]]
    combined = {"env": environment(), "seed": args.seed,
                "seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    for name in names:
        if args.smoke:
            docs = [smoke_document(name, args.seed, spec)]
        else:
            docs = [child_document(name, args, trace) for trace in (0, 1)]
        merged = {"end_to_end": {}, "per_layer": {}, "attempted": 0,
                  "failed": 0, "failures": []}
        for doc in docs:
            print_document(doc)
            for kind in ("end_to_end", "per_layer"):
                merged[kind].update(doc.get(kind, {}))
            merged["attempted"] += doc["attempted"]
            merged["failed"] += doc["failed"]
            merged["failures"] += doc["failures"]
        combined["workloads"][name] = merged
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(combined, handle, indent=1)
    failed = sum(row["failed"] for row in combined["workloads"].values())
    print(f"{len(names)} workloads, {failed} failed checks or operations")
    return 1 if failed else 0


def child_document(name: str, args, trace: int) -> dict:
    """One workload in its own interpreter (no shared pool, registry or RSS)."""
    out = os.path.join(BENCH_DIR, "out", f"result-{name}-{trace}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(trace), "--out", out],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if not os.path.exists(out) or done.returncode not in (0, 1):
        raise RuntimeError(f"{name} --trace {trace} died:\n{done.stderr}")
    with open(out, encoding="utf-8") as handle:
        doc = json.load(handle)
    os.remove(out)
    return doc


def smoke_document(name: str, seed: int, spec: dict) -> dict:
    """Smoke runs share this interpreter (and its warm pool) to stay fast."""
    doc = measure(name, seed, 0.0, True, end_to_end=True, per_layer=True)
    doc["end_to_end"]["peak_rss_mb"] = {"value": peak_rss_mb(), "n": 1}
    doc["end_to_end"]["setup_s"] = {"value": doc["own_setup_s"], "n": 1}
    return finish(doc, spec)


def main(argv=None) -> int:
    """Parse the flags and run; no process of ours outlives this call."""
    # a polite kill unwinds through the ``finally`` blocks too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _main(argv)
    finally:
        stop_processes()


def _main(argv=None) -> int:
    spec = declared()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in
                                               spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if args.workload is not None:
        return run_one(args, spec)
    if args.setup_only:
        parser.error("--setup-only needs --workload")
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

``python -m repro.cli <command>`` (or the ``artificial-scientist`` console
script) exposes the main entry points of the reproduction:

* ``run``              — run the coupled in-transit workflow
  (``--preset``/``--driver``/``--config``/``--monitor`` select the
  workflow configuration, execution strategy and extra consumers;
  ``--json`` emits the machine-readable ``RunResult`` dump),
* ``campaign``         — parameter-sweep / ensemble campaigns over many
  workflow runs (``campaign run|status|report`` locally,
  ``campaign submit|watch --url`` against a running service, see
  :mod:`repro.campaign` and :mod:`repro.service`),
* ``serve``            — the campaign control plane as an HTTP service
  (submit over ``POST /v1/campaigns``, watch runs land live over SSE;
  see ``docs/service.md``),
* ``trace``            — render a campaign's span trees (resolve →
  dispatch → execute → settle with per-phase timings) from the JSONL
  trace written next to its store (see ``docs/observability.md``),
* ``presets``          — list the named workflow presets and drivers,
* ``fom-scan``         — regenerate the Fig. 4 FOM weak-scaling table,
* ``streaming-study``  — regenerate the Fig. 6 streaming-throughput table,
* ``ddp-scan``         — regenerate the Fig. 8 training weak-scaling table,
* ``khi-info``         — print the Section IV-A KHI setup constants,
* ``placement``        — compare intra- vs inter-node placement (Fig. 3c),
* ``bench-hotpath``    — benchmark the fused vs reference PIC hot path and
  append the result to ``BENCH_pic_hotpath.json`` (see
  ``docs/performance.md``),
* ``bench-campaign``   — benchmark the campaign executors
  (serial/workers) on one whole launch each and append the result to
  ``BENCH_campaign_throughput.json``,
* ``bench-train``      — benchmark one training iteration phase by phase at
  the ``bench-tiny`` and ``laptop`` models and append the result to
  ``BENCH_train_hotpath.json`` (every ``bench-*`` command mounts the flags
  its case module declares and runs under the one harness in
  :mod:`repro.utils.benchjson`).

``run`` is built on :mod:`repro.workflow`: it assembles a
``WorkflowSession`` from a preset (or a JSON config file) and drives it
with the chosen execution driver.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from repro.utils.serialization import jsonable as _jsonable


def _run_result_payload(result) -> Dict[str, object]:
    """The machine-readable ``run --json`` dump of one RunResult.

    Raw (may still hold numpy types) — the print site owns the single
    ``_jsonable`` coercion pass, after any extra keys are appended.
    """
    payload = dict(result.summary())
    payload["consumer_summaries"] = result.consumer_summaries
    payload["producer_exception"] = (None if result.producer_exception is None
                                     else str(result.producer_exception))
    payload["consumer_exceptions"] = {name: str(error) for name, error
                                      in result.consumer_exceptions.items()}
    return payload


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artificial-scientist",
        description="Reproduction of 'The Artificial Scientist: in-transit "
                    "Machine Learning of Plasma Simulations'")
    parser.add_argument("--log-level", type=str, default=None,
                        metavar="LEVEL",
                        help="logging level of every repro module (debug, "
                             "info, warning, error; default warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the coupled in-transit workflow")
    run.add_argument("--steps", type=int, default=5, help="simulation steps to run")
    run.add_argument("--preset", type=str, default="cli-small",
                     help="named workflow preset (see the 'presets' command)")
    run.add_argument("--config", type=str, default=None,
                     help="JSON WorkflowConfig file (overrides --preset)")
    run.add_argument("--driver", type=str, default=None,
                     help="execution driver: serial (default) or pipelined "
                          "(producer and consumers on their own threads)")
    run.add_argument("--n-rep", type=int, default=None,
                     help="override the preset's training iterations per "
                          "streamed step")
    run.add_argument("--grid", type=int, nargs=3, default=None,
                     metavar=("NX", "NY", "NZ"),
                     help="override the preset's KHI grid cells")
    run.add_argument("--particles-per-cell", type=int, default=None)
    run.add_argument("--seed", type=int, default=None,
                     help="override the preset's seed")
    run.add_argument("--monitor", action="store_true",
                     help="attach the histogram-monitor consumer to the "
                          "stream alongside the MLapp")
    run.add_argument("--evaluate", action="store_true",
                     help="print the Fig. 9-style inversion report after the run")
    run.add_argument("--checkpoint", type=str, default=None,
                     help="directory to write a model/buffer checkpoint to")
    run.add_argument("--json", action="store_true",
                     help="print the machine-readable RunResult dump instead "
                          "of the human-readable summary")

    campaign = sub.add_parser(
        "campaign", help="parameter-sweep / ensemble campaigns over workflow runs")
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)

    def add_campaign_selectors(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--spec", type=str, default=None,
                            help="CampaignSpec JSON file")
        parser.add_argument("--preset", type=str, default=None,
                            help="named campaign preset (e.g. campaign-smoke)")
        parser.add_argument("--store", type=str, default=None,
                            help="JSONL result store path "
                                 "(default: <campaign-name>.campaign.jsonl)")
        parser.add_argument("--json", action="store_true",
                            help="machine-readable JSON output")

    campaign_run = campaign_sub.add_parser(
        "run", help="run (or resume) a campaign; completed runs are skipped")
    add_campaign_selectors(campaign_run)
    campaign_run.add_argument("--executor", type=str, default=None,
                              help="campaign executor: serial (default) "
                                   "or workers (persistent warm worker "
                                   "pool)")
    campaign_run.add_argument("--cache-dir", type=str, default=None,
                              help="content-addressed result cache: pending "
                                   "runs already cached (even by another "
                                   "campaign) are recorded without being "
                                   "executed; new completed runs are added")
    campaign_run.add_argument("--max-workers", type=int, default=None,
                              help="width of the worker pool (--executor "
                                   "workers)")
    campaign_run.add_argument("--timeout", type=float, default=None,
                              help="per-run wall-clock budget in seconds, "
                                   "covering retries (cooperative: checked "
                                   "after each attempt finishes, never kills "
                                   "an in-flight run; a successful over-"
                                   "budget run keeps its result)")
    campaign_run.add_argument("--retries", type=int, default=0,
                              help="retries per failing run")
    campaign_run.add_argument("--max-runs", type=int, default=None,
                              help="execute at most this many pending runs")

    add_campaign_selectors(campaign_sub.add_parser(
        "status", help="pending/completed/failed counts of a campaign"))
    add_campaign_selectors(campaign_sub.add_parser(
        "report", help="aggregate the campaign's recorded runs"))

    submit = campaign_sub.add_parser(
        "submit", help="submit a campaign to a running service "
                       "(see the 'serve' command)")
    submit.add_argument("--url", type=str, required=True,
                        help="service base URL, e.g. http://127.0.0.1:8765")
    submit.add_argument("--spec", type=str, default=None,
                        help="CampaignSpec JSON file")
    submit.add_argument("--preset", type=str, default=None,
                        help="named campaign preset (e.g. campaign-smoke)")
    submit.add_argument("--executor", type=str, default=None,
                        help="campaign executor the service should use")
    submit.add_argument("--max-workers", type=int, default=None)
    submit.add_argument("--retries", type=int, default=None)
    submit.add_argument("--timeout", type=float, default=None,
                        help="per-run wall-clock budget in seconds")
    submit.add_argument("--cache-dir", type=str, default=None,
                        help="server-side result-cache directory")
    submit.add_argument("--json", action="store_true",
                        help="print the submission document as JSON")

    watch = campaign_sub.add_parser(
        "watch", help="stream a campaign's runs live over SSE")
    watch.add_argument("campaign_id", type=str,
                       help="the campaign id returned by 'campaign submit'")
    watch.add_argument("--url", type=str, required=True,
                       help="service base URL, e.g. http://127.0.0.1:8765")
    watch.add_argument("--json", action="store_true",
                       help="print one JSON line per SSE event")

    sub.add_parser("presets", help="list the workflow presets and drivers")

    serve = sub.add_parser(
        "serve", help="run the campaign control plane as an HTTP service")
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (default 8765; 0 picks a free port)")
    serve.add_argument("--store-dir", type=str, default="campaign-service",
                       help="directory of the campaign stores + specs — the "
                            "service's only persistent state "
                            "(default campaign-service/)")

    trace = sub.add_parser(
        "trace", help="render a campaign's span trees from its JSONL trace")
    trace.add_argument("campaign", type=str, nargs="?", default=None,
                       help="a campaign id/name, or a path to a trace or "
                            "store file (default: every trace in "
                            "--store-dir)")
    trace.add_argument("--store-dir", type=str, default="campaign-service",
                       help="service store directory searched for "
                            "<campaign>.trace.jsonl (default "
                            "campaign-service/)")
    trace.add_argument("--store", type=str, default=None,
                       help="campaign store path; its sibling trace file "
                            "is rendered")
    trace.add_argument("--run", type=str, default=None,
                       help="only traces touching this run id (prefix "
                            "match)")
    trace.add_argument("--json", action="store_true",
                       help="print one JSON line per span instead of the "
                            "tree")

    sub.add_parser("fom-scan", help="Fig. 4: FOM weak scaling (Frontier vs Summit)")

    streaming = sub.add_parser("streaming-study",
                               help="Fig. 6: full-scale streaming throughput study")
    streaming.add_argument("--bytes-per-node", type=float, default=5.86e9)

    ddp = sub.add_parser("ddp-scan", help="Fig. 8: in-transit training weak scaling")
    ddp.add_argument("--nodes", type=int, nargs="+", default=(8, 24, 48, 96))

    sub.add_parser("khi-info", help="Section IV-A KHI setup constants")

    placement = sub.add_parser("placement", help="Fig. 3c: placement comparison")
    placement.add_argument("--nodes", type=int, default=96)

    from repro.utils.benchjson import add_case_arguments

    for name, case in _bench_cases().items():
        add_case_arguments(sub.add_parser(name, help=case.description,
                                          description=case.description), case)
    return parser


# --------------------------------------------------------------------------- #
def _run_config(args: argparse.Namespace):
    """Resolve the run command's workflow configuration from its flags."""
    from dataclasses import replace

    from repro.core.config import WorkflowConfig
    from repro.workflow import get_preset

    if args.config:
        config = WorkflowConfig.from_file(args.config)
    else:
        config = get_preset(args.preset)
    khi = config.khi
    if args.grid is not None:
        khi = replace(khi, grid_shape=tuple(args.grid))
    if args.particles_per_cell is not None:
        khi = replace(khi, particles_per_cell=args.particles_per_cell)
    if args.seed is not None:
        khi = replace(khi, seed=args.seed)
    ml = config.ml
    if args.n_rep is not None:
        ml = replace(ml, n_rep=args.n_rep)
    return replace(config, khi=khi, ml=ml,
                   seed=config.seed if args.seed is None else args.seed)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.workflow import WorkflowBuilder

    if args.steps < 1:
        print("error: --steps must be >= 1", file=sys.stderr)
        return 2
    try:
        builder = (WorkflowBuilder().config(_run_config(args))
                   .driver(args.driver or "serial"))
        if args.monitor:
            builder.add_consumer("monitor", kind="histogram-monitor")
        session = builder.build()
    except (ValueError, OSError) as error:
        # typo'd preset/driver names, broken config files and out-of-range
        # overrides (checked when the session is built) deserve a clean
        # one-line message, not a traceback
        print(f"error: {error}", file=sys.stderr)
        return 2

    result = session.run(args.steps)
    if result.producer_exception is not None:
        print(f"producer failed: {result.producer_exception}", file=sys.stderr)
    for name, error in result.consumer_exceptions.items():
        print(f"consumer {name!r} failed: {error}", file=sys.stderr)
    if not result.ok:
        if args.json:
            print(json.dumps(_jsonable(_run_result_payload(result)), indent=2))
        return 1

    payload = _run_result_payload(result) if args.json else None
    if not args.json:
        print(f"driver: {result.driver}")
        if result.driver != "serial":
            print(f"max stream queue depth: {result.max_queue_depth}")
        for key, value in result.report.summary().items():
            print(f"{key:>24}: {value}")

    if args.monitor and not args.json:
        monitor = result.consumer_summaries["monitor"]
        print(f"\nmonitor consumer: {monitor['iterations_consumed']} iterations, "
              f"{monitor['samples_consumed']} samples")
        print(f"momentum histogram    : {monitor['momentum_histogram']}")

    if args.evaluate:
        evaluation = session.evaluate()
        if args.json:
            payload["evaluation"] = evaluation.rows()
        else:
            print("\nregion, true peak, predicted peak, histogram L1")
            for row in evaluation.rows():
                print(f"{row['region']:>12}, {row['true_peak']:+.3f}, "
                      f"{row['predicted_peak']:+.3f}, {row['histogram_l1']:.3f}")

    if args.checkpoint:
        from repro.core.checkpoint import save_checkpoint
        info = save_checkpoint(args.checkpoint, session.model,
                               session.mlapp.trainer, step=args.steps)
        if args.json:
            payload["checkpoint"] = {
                "directory": info.directory,
                "training_iterations": info.training_iterations}
        else:
            print(f"\ncheckpoint written to {info.directory} "
                  f"({info.training_iterations} training iterations)")
    if args.json:
        print(json.dumps(_jsonable(payload), indent=2))
    return 0


# --------------------------------------------------------------------------- #
def _campaign_spec(args: argparse.Namespace):
    """Resolve the campaign spec from ``--spec`` / ``--preset``."""
    from repro.campaign import CampaignSpec, get_campaign_preset

    if args.spec and args.preset:
        raise ValueError("pass either --spec or --preset, not both")
    if args.spec:
        return CampaignSpec.from_file(args.spec)
    if args.preset:
        return get_campaign_preset(args.preset)
    raise ValueError("a campaign needs --spec FILE or --preset NAME "
                     "(e.g. --preset campaign-smoke)")


def _campaign_store(args: argparse.Namespace, spec):
    from repro.campaign import CampaignStore

    return CampaignStore(args.store or f"{spec.name}.campaign.jsonl")


def _campaign_executor(args: argparse.Namespace):
    """Build the run executor from the flags.

    The flags are the options :func:`repro.campaign.executor_for` resolves,
    by another name — the service's submit body is the third spelling.
    """
    from repro.campaign import executor_for

    return executor_for({"executor": args.executor,
                         "max_workers": args.max_workers,
                         "timeout": args.timeout, "retries": args.retries})


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    from repro.campaign import ResultCache, run_campaign

    try:
        if args.max_runs is not None and args.max_runs < 0:
            raise ValueError("max_runs must be >= 0")
        spec = _campaign_spec(args)
        store = _campaign_store(args, spec)
        executor = _campaign_executor(args)
        cache_dir = args.cache_dir or spec.cache_dir
        cache = ResultCache(cache_dir) if cache_dir else None
        runs = spec.resolve()
        done_ids = store.completed_run_ids()
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def progress(record) -> None:
        if args.json:
            return
        loss = record.summary.get("final_total_loss")
        detail = (f"loss {loss:.4f}" if isinstance(loss, float)
                  else (record.error or ""))
        if record.cached:
            detail = f"(cached) {detail}"
        print(f"  [{record.run_id}] {record.status:>9} "
              f"in {record.elapsed_s:6.2f} s  {detail}")

    if not args.json:
        complete = len({run.run_id for run in runs} & done_ids)
        print(f"campaign {spec.name!r}: {len(runs)} runs resolved "
              f"({complete} already complete), "
              f"executor {executor.name!r}, store {store.path}")
    try:
        outcome = run_campaign(spec, store, executor, max_runs=args.max_runs,
                               on_record=progress, runs=runs,
                               completed_ids=done_ids, cache=cache)
    except (ValueError, OSError) as error:
        # e.g. the store became unwritable mid-campaign (workers'
        # exceptions are captured into records and never surface here)
        print(f"error: {error}", file=sys.stderr)
        return 2
    executor_stats = getattr(executor, "last_stats", None)
    if args.json:
        payload = outcome.summary()
        if cache is not None:
            payload["cache"] = dict(cache.stats(), dir=cache_dir)
        if executor_stats:
            payload["executor_stats"] = executor_stats
        print(json.dumps(_jsonable(payload), indent=2))
    else:
        if executor_stats:
            print("worker pool: " + ", ".join(
                f"{key}: {value}" for key, value
                in sorted(executor_stats.items())))
        if cache is not None:
            attempted = outcome.cache_hits + outcome.executed
            percent = (100.0 * outcome.cache_hits / attempted
                       if attempted else 0.0)
            print(f"cache: {outcome.cache_hits} hit(s) of {attempted} "
                  f"pending ({percent:.0f}%), dir {cache_dir}")
        summary = outcome.summary()
        print(", ".join(f"{key}: {summary[key]}" for key in
                        ("total_runs", "skipped", "cache_hits", "executed",
                         "completed", "failed", "deferred", "done")))
    return 0 if outcome.failed == 0 else 1


def _campaign_records(args: argparse.Namespace):
    """Spec, store and the spec-scoped records (shared by status/report).

    Only this campaign's runs are kept — a shared or stale store may hold
    records of other specs, which must not skew the numbers.
    """
    spec = _campaign_spec(args)
    store = _campaign_store(args, spec)
    runs = spec.resolve()
    run_ids = {run.run_id for run in runs}
    records = [record for record in store.records()
               if record.run_id in run_ids]
    return spec, store, runs, records


def _campaign_telemetry(store_path: str) -> Optional[dict]:
    """Telemetry summary for ``campaign status``, read from the trace file.

    Returns ``None`` when the store has no trace (telemetry disabled or the
    campaign never ran locally); otherwise the trace path plus the executor
    stats recorded on the most recent root "campaign" span.
    """
    from repro.telemetry import read_spans, trace_path_for

    trace_path = trace_path_for(store_path)
    if not os.path.exists(trace_path):
        return None
    roots = [span for span in read_spans(trace_path)
             if span.name == "campaign" and span.parent_id is None]
    telemetry: dict = {"trace": trace_path, "launches": len(roots)}
    if roots:
        latest = max(roots, key=lambda span: span.start_s)
        stats = latest.attrs.get("executor_stats")
        if stats:
            telemetry["executor"] = stats
    return telemetry


def _cmd_campaign_status(args: argparse.Namespace) -> int:
    from repro.campaign import status_document

    try:
        spec, store, runs, records = _campaign_records(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # the same serializer the service's GET /v1/campaigns/{id} emits, so
    # local and remote tooling read one status schema
    status = status_document(spec.name, len(runs), records, store=store.path,
                             telemetry=_campaign_telemetry(store.path))
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        for key, value in status.items():
            print(f"{key:>12}: {value}")
    return 0


def _cmd_campaign_report(args: argparse.Namespace) -> int:
    from repro.campaign import aggregate

    try:
        spec, store, _, records = _campaign_records(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not records:
        print(f"error: no recorded runs of campaign {spec.name!r} in "
              f"{store.path}; run the campaign first", file=sys.stderr)
        return 2
    report = aggregate(records, campaign=spec.name)
    if args.json:
        print(json.dumps(_jsonable(report.to_dict()), indent=2))
    else:
        print(report.format_text())
    return 0


def _print_event(event, as_json: bool) -> None:
    """Render one SSE event for ``campaign watch`` (text or JSON lines)."""
    if as_json:
        print(json.dumps(_jsonable({"event": event.event, "id": event.id,
                                    "data": event.data})), flush=True)
        return
    data = event.data
    if event.event in ("run", "snapshot"):
        loss = (data.get("summary") or {}).get("final_total_loss")
        detail = (f"loss {loss:.4f}" if isinstance(loss, float)
                  else (data.get("error") or ""))
        if data.get("cached"):
            detail = f"(cached) {detail}"
        print(f"  [{data.get('run_id')}] {event.event:>9} "
              f"{data.get('status', ''):>9}  {detail}", flush=True)
    elif event.event == "dropped":
        print(f"  ! {data.get('dropped')} event(s) dropped (slow consumer); "
              f"re-check campaign status for the full picture", flush=True)
    else:
        parts = [f"{key}: {data[key]}" for key in
                 ("campaign", "state", "total_runs", "completed", "failed",
                  "cached") if key in data]
        if isinstance(data.get("runs_per_sec"), float):
            parts.append(f"runs_per_sec: {data['runs_per_sec']:.2f}")
        print(f"{event.event}: " + ", ".join(parts), flush=True)


def _cmd_campaign_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    try:
        spec = _campaign_spec(args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    client = ServiceClient(args.url)
    try:
        document = client.submit(
            spec=spec.to_dict(), executor=args.executor,
            max_workers=args.max_workers, retries=args.retries,
            timeout=args.timeout, cache_dir=args.cache_dir)
    except (ServiceError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(_jsonable(document), indent=2))
    else:
        print(f"campaign {document['campaign']!r} submitted as "
              f"{document['campaign_id']} (state {document['state']}, "
              f"{document['total_runs']} runs, "
              f"{document['completed']} already complete)")
        print(f"watch it: python -m repro.cli campaign watch "
              f"--url {args.url} {document['campaign_id']}")
    return 0


def _cmd_campaign_watch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    final_state = None
    try:
        for event in client.watch(args.campaign_id):
            _print_event(event, args.json)
            if event.event == "done":
                final_state = event.data.get("state")
    except (ServiceError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return 0 if final_state == "completed" else 1


_CAMPAIGN_COMMANDS = {
    "run": _cmd_campaign_run,
    "status": _cmd_campaign_status,
    "report": _cmd_campaign_report,
    "submit": _cmd_campaign_submit,
    "watch": _cmd_campaign_watch,
}


def _cmd_campaign(args: argparse.Namespace) -> int:
    return _CAMPAIGN_COMMANDS[args.campaign_command](args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve as serve_service

    def banner(server) -> None:
        print(f"campaign service listening on {server.url} "
              f"(store dir {server.manager.store_dir}); Ctrl-C stops it",
              flush=True)

    try:
        return serve_service(args.host, args.port, args.store_dir,
                             ready=banner)
    except OSError as error:
        # e.g. the port is taken or the store dir is not writable
        print(f"error: {error}", file=sys.stderr)
        return 2


def _trace_candidates(args: argparse.Namespace) -> list:
    """Candidate trace-file paths for ``trace``, in resolution order."""
    from repro.telemetry import TRACE_SUFFIX, trace_path_for

    if args.store:
        return [trace_path_for(args.store)]
    if args.campaign and os.path.exists(args.campaign):
        path = args.campaign
        return [path if path.endswith(TRACE_SUFFIX) else trace_path_for(path)]
    if args.campaign:
        return [os.path.join(args.store_dir, f"{args.campaign}{TRACE_SUFFIX}"),
                trace_path_for(f"{args.campaign}.campaign.jsonl")]
    if os.path.isdir(args.store_dir):
        return sorted(
            os.path.join(args.store_dir, name)
            for name in os.listdir(args.store_dir)
            if name.endswith(TRACE_SUFFIX))
    return []


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import read_spans, render_traces

    candidates = _trace_candidates(args)
    paths = [path for path in candidates if os.path.exists(path)]
    if args.campaign or args.store:
        # named lookups are a fallback chain: first hit wins (the same
        # file can be reachable through several candidate paths)
        paths = paths[:1]
    if not paths:
        tried = ", ".join(candidates) if candidates else args.store_dir
        print(f"error: no trace file found (looked at: {tried}); traces are "
              f"written next to the campaign store when telemetry is enabled",
              file=sys.stderr)
        return 2
    spans = []
    for path in paths:
        spans.extend(read_spans(path))
    if args.json:
        for span in spans:
            print(json.dumps(span.to_dict(), sort_keys=True))
        return 0
    rendered = render_traces(spans, run_id=args.run)
    if not rendered:
        what = f"run {args.run!r}" if args.run else "any spans"
        print(f"error: no trace matches {what} in "
              f"{', '.join(paths)}", file=sys.stderr)
        return 2
    print(rendered)
    return 0


def _cmd_presets(_: argparse.Namespace) -> int:
    from repro.workflow import available_consumers, available_drivers, preset_rows

    print(f"{'preset':>12} {'grid':>12} {'ppc':>4} {'points':>7} "
          f"{'latent':>7} {'n_rep':>6} {'seed':>6}")
    for row in preset_rows():
        print(f"{row['name']:>12} {row['grid']:>12} {row['particles_per_cell']:>4} "
              f"{row['n_input_points']:>7} {row['latent_dim']:>7} "
              f"{row['n_rep']:>6} {row['seed']:>6}")
    print(f"\ndrivers  : {', '.join(available_drivers())}")
    print(f"consumers: {', '.join(available_consumers())}")
    return 0


def _study_error(error: ValueError) -> int:
    """A figure study's out-of-range input: one ``error:`` line, exit 2."""
    print(f"error: {error}", file=sys.stderr)
    return 2


def _cmd_fom_scan(_: argparse.Namespace) -> int:
    from repro.perfmodel.fom import FOMScalingModel

    frontier = FOMScalingModel.frontier_calibrated()
    summit = FOMScalingModel.summit_calibrated()
    print(f"{'GPUs':>8} {'Frontier [TUp/s]':>18} {'Summit [TUp/s]':>16}")
    for n in FOMScalingModel.paper_gpu_counts():
        summit_value = summit.fom(n) / 1e12 if n <= 27_648 else float("nan")
        print(f"{n:>8} {frontier.fom(n) / 1e12:>18.2f} {summit_value:>16.2f}")
    print("\npaper reference: 65.3 TeraUpdates/s on full Frontier, "
          "14.7 TeraUpdates/s on Summit")
    return 0


def _cmd_streaming_study(args: argparse.Namespace) -> int:
    from repro.perfmodel.streaming import StreamingScalingStudy

    try:
        rows = StreamingScalingStudy(bytes_per_node=args.bytes_per_node).rows()
    except ValueError as error:
        return _study_error(error)
    print(f"{'data plane':>18} {'strategy':>12} {'nodes':>6} {'TB/s':>7} "
          f"{'GB/s/node':>10} {'step [s]':>9}")

    def fmt(value, width, precision):
        return "n/a".rjust(width) if value is None else f"{value:{width}.{precision}f}"

    for row in rows:
        print(f"{row['data_plane']:>18} {row['strategy']:>12} {row['nodes']:>6} "
              f"{fmt(row['parallel_tb_per_s'], 7, 1)} "
              f"{fmt(row['per_node_gb_per_s'], 10, 2)} "
              f"{fmt(row['step_time_s'], 9, 2)}")
    return 0


def _cmd_ddp_scan(args: argparse.Namespace) -> int:
    from repro.perfmodel.ddp import DDPWeakScalingModel

    model = DDPWeakScalingModel.paper_calibrated()
    try:
        points = model.scan(tuple(args.nodes))
    except ValueError as error:
        return _study_error(error)
    print(f"{'nodes':>6} {'GCDs':>6} {'batch':>6} {'efficiency %':>13} "
          f"{'allreduce %':>12} {'MMD %':>7}")
    for point in points:
        print(f"{point.n_nodes:>6} {point.n_gcds:>6} {point.global_batch_size:>6} "
              f"{100 * point.efficiency:>13.1f} {100 * point.allreduce_fraction:>12.1f} "
              f"{100 * point.mmd_fraction:>7.1f}")
    attribution = model.deficit_attribution(max(args.nodes))
    print(f"\ndeficit attribution at {max(args.nodes)} nodes: "
          f"allreduce {100 * attribution['allreduce']:.0f} %, "
          f"MMD {100 * attribution['mmd']:.0f} %")
    return 0


def _cmd_khi_info(_: argparse.Namespace) -> int:
    from repro import constants
    from repro.pic.khi import KHIConfig

    paper = KHIConfig.paper()
    print("Section IV-A KHI setup (paper constants):")
    print(f"  smallest volume      : {'x'.join(str(n) for n in paper.grid_shape)} cells "
          f"on {constants.PAPER_SMALLEST_GPUS} GPUs")
    print(f"  cell size            : {paper.cell_size * 1e6:.1f} um (cubic)")
    print(f"  paper time step      : {constants.PAPER_TIME_STEP * 1e15:.1f} fs")
    print(f"  density              : {constants.PAPER_DENSITY:.1e} 1/m^3")
    print(f"  stream velocity      : beta = {paper.beta}")
    print(f"  particles per cell   : {paper.particles_per_cell}")
    print(f"  macro electrons      : {paper.n_macro_electrons:,}")
    default = KHIConfig()
    print("\nlaptop-scale defaults of this reproduction:")
    print(f"  grid                 : {'x'.join(str(n) for n in default.grid_shape)} cells")
    print(f"  density              : {default.density:.1e} 1/m^3 "
          f"(omega_p * dt = {default.omega_p_dt():.2f})")
    return 0


def _cmd_placement(args: argparse.Namespace) -> int:
    from repro.perfmodel.placement import PlacementMode, ResourcePlan
    from repro.perfmodel.streaming import PAPER_BYTES_PER_NODE

    try:
        plans = [ResourcePlan(n_nodes=args.nodes, mode=mode) for mode in PlacementMode]
    except ValueError as error:
        return _study_error(error)
    for plan in plans:
        description = plan.describe()
        exchange = plan.exchange_time_per_step(PAPER_BYTES_PER_NODE)
        print(f"{plan.mode.value:>12}: {description}  exchange of 5.86 GB/node: "
              f"{exchange:.3f} s")
    return 0


def _bench_cases() -> Dict[str, object]:
    """The persisted benchmarks by command name (flags live with the case)."""
    from repro.campaign.hotpath import CASE as campaign_case
    from repro.pic.hotpath import CASE as hotpath_case
    from repro.workflow.train_hotpath import CASE as train_case

    return {"bench-hotpath": hotpath_case, "bench-campaign": campaign_case,
            "bench-train": train_case}


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.utils.benchjson import run_case

    return run_case(_bench_cases()[args.command], args)


_COMMANDS = {
    "run": _cmd_run,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
    "trace": _cmd_trace,
    "presets": _cmd_presets,
    "fom-scan": _cmd_fom_scan,
    "streaming-study": _cmd_streaming_study,
    "ddp-scan": _cmd_ddp_scan,
    "khi-info": _cmd_khi_info,
    "placement": _cmd_placement,
    "bench-hotpath": _cmd_bench,
    "bench-campaign": _cmd_bench,
    "bench-train": _cmd_bench,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.utils.logging import setup_logging

    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        setup_logging(args.log_level)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    try:
        code = main()
    except BrokenPipeError:
        # e.g. `... campaign report | head`: the reader closed the pipe —
        # not an error worth a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)

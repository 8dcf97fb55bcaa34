"""``campaign run|status|report`` locally and ``campaign submit|watch``
against a running service (see :mod:`repro.campaign` and
:mod:`repro.service`)."""

from __future__ import annotations

import argparse
import json
import os
from typing import Mapping, Optional

from repro.utils.serialization import jsonable


def register(subparsers) -> None:
    campaign = subparsers.add_parser(
        "campaign", help="parameter-sweep / ensemble campaigns over workflow runs")
    commands = campaign.add_subparsers(dest="campaign_command", required=True)

    run = commands.add_parser(
        "run", help="run (or resume) a campaign; completed runs are skipped")
    _add_launch_flags(run)
    _add_store_flag(run)
    run.add_argument("--max-runs", type=int, default=None,
                     help="execute at most this many pending runs")
    run.set_defaults(handler=_run)

    for name, handler, description in (
            ("status", _status, "pending/completed/failed counts of a campaign"),
            ("report", _report, "aggregate the campaign's recorded runs")):
        command = commands.add_parser(name, help=description)
        _add_spec_flags(command)
        _add_store_flag(command)
        command.set_defaults(handler=handler)

    submit = commands.add_parser(
        "submit", help="submit a campaign to a running service "
                       "(see the 'serve' command)")
    submit.add_argument("--url", type=str, required=True,
                        help="service base URL, e.g. http://127.0.0.1:8765")
    _add_launch_flags(submit)
    submit.set_defaults(handler=_submit)

    watch = commands.add_parser(
        "watch", help="stream a campaign's runs live over SSE")
    watch.add_argument("campaign_id", type=str,
                       help="the campaign id returned by 'campaign submit'")
    watch.add_argument("--url", type=str, required=True,
                       help="service base URL, e.g. http://127.0.0.1:8765")
    watch.add_argument("--json", action="store_true",
                       help="print one JSON line per SSE event")
    watch.set_defaults(handler=_watch)


def _add_spec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", type=str, default=None,
                        help="CampaignSpec JSON file")
    parser.add_argument("--preset", type=str, default=None,
                        help="named campaign preset (e.g. campaign-smoke)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON output")


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--store", type=str, default=None,
                        help="JSONL result store path "
                             "(default: <campaign-name>.campaign.jsonl)")


def _add_launch_flags(parser: argparse.ArgumentParser) -> None:
    """The spec and the options :func:`repro.campaign.executor_for`
    resolves — a local ``run`` and a ``submit`` to the service alike."""
    _add_spec_flags(parser)
    parser.add_argument("--executor", type=str, default=None,
                        help="campaign executor: serial (default) or workers "
                             "(persistent warm worker pool)")
    parser.add_argument("--max-workers", type=int, default=None,
                        help="width of the worker pool "
                             "(needs --executor workers)")
    parser.add_argument("--cache-dir", type=str, default=None,
                        help="content-addressed result cache: pending runs "
                             "already cached (even by another campaign) are "
                             "recorded without being executed; new completed "
                             "runs are added")


def _spec(args: argparse.Namespace):
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


def _store(args: argparse.Namespace, spec):
    from repro.campaign import CampaignStore

    return CampaignStore(args.store or f"{spec.name}.campaign.jsonl")


def _record_line(record: Mapping, state: str) -> str:
    """One run as ``  [run_id] <state>  <loss or error>`` — a record row
    (``campaign run``'s progress) or an SSE run frame (``campaign watch``)."""
    loss = (record.get("summary") or {}).get("final_total_loss")
    detail = (f"loss {loss:.4f}" if isinstance(loss, float)
              else (record.get("error") or ""))
    if record.get("cached"):
        detail = f"(cached) {detail}"
    return f"  [{record.get('run_id')}] {state}  {detail}"


def _run(args: argparse.Namespace) -> int:
    from repro.campaign import ResultCache, executor_for, run_campaign

    if args.max_runs is not None and args.max_runs < 0:
        raise ValueError("max_runs must be >= 0")
    spec = _spec(args)
    store = _store(args, spec)
    executor = executor_for(vars(args))
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    runs = spec.resolve()
    done_ids = store.completed_run_ids()

    def progress(record) -> None:
        if not args.json:
            print(_record_line(vars(record), f"{record.status:>9} "
                               f"in {record.elapsed_s:6.2f} s"))

    if not args.json:
        complete = len({run.run_id for run in runs} & done_ids)
        print(f"campaign {spec.name!r}: {len(runs)} runs resolved "
              f"({complete} already complete), "
              f"executor {executor.name!r}, store {store.path}")
    # workers' exceptions are captured into records; what surfaces here is
    # e.g. a store that became unwritable mid-campaign
    outcome = run_campaign(spec, store, executor, max_runs=args.max_runs,
                           on_record=progress, runs=runs,
                           completed_ids=done_ids, cache=cache)
    executor_stats = executor.last_stats
    if args.json:
        payload = outcome.summary()
        if cache is not None:
            payload["cache"] = dict(cache.stats(), dir=args.cache_dir)
        if executor_stats:
            payload["executor_stats"] = executor_stats
        print(json.dumps(jsonable(payload), indent=2))
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
                  f"pending ({percent:.0f}%), dir {args.cache_dir}")
        summary = outcome.summary()
        print(", ".join(f"{key}: {summary[key]}" for key in
                        ("total_runs", "skipped", "cache_hits", "executed",
                         "completed", "failed", "deferred", "done")))
    return 0 if outcome.failed == 0 else 1


def _records(args: argparse.Namespace):
    """Spec, store and the spec-scoped records (shared by status/report).

    Only this campaign's runs are kept — a shared or stale store may hold
    records of other specs, which must not skew the numbers.
    """
    spec = _spec(args)
    store = _store(args, spec)
    runs = spec.resolve()
    run_ids = {run.run_id for run in runs}
    records = [record for record in store.records()
               if record.run_id in run_ids]
    return spec, store, runs, records


def _telemetry(store_path: str) -> Optional[dict]:
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


def _status(args: argparse.Namespace) -> int:
    from repro.campaign import status_document

    spec, store, runs, records = _records(args)
    # the same serializer the service's GET /v1/campaigns/{id} emits, so
    # local and remote tooling read one status schema
    status = status_document(spec.name, len(runs), records, store=store.path,
                             telemetry=_telemetry(store.path))
    if args.json:
        print(json.dumps(status, indent=2))
    else:
        for key, value in status.items():
            print(f"{key:>12}: {value}")
    return 0


def _report(args: argparse.Namespace) -> int:
    from repro.campaign import aggregate

    spec, store, _, records = _records(args)
    if not records:
        raise ValueError(f"no recorded runs of campaign {spec.name!r} in "
                         f"{store.path}; run the campaign first")
    report = aggregate(records, campaign=spec.name)
    if args.json:
        print(json.dumps(jsonable(report.to_dict()), indent=2))
    else:
        print(report.format_text())
    return 0


def _submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    spec = _spec(args)
    document = ServiceClient(args.url).submit(
        spec=spec.to_dict(), executor=args.executor,
        max_workers=args.max_workers, cache_dir=args.cache_dir)
    if args.json:
        print(json.dumps(jsonable(document), indent=2))
    else:
        print(f"campaign {document['campaign']!r} submitted as "
              f"{document['campaign_id']} (state {document['state']}, "
              f"{document['total_runs']} runs, "
              f"{document['completed']} already complete)")
        print(f"watch it: python -m repro.cli campaign watch "
              f"--url {args.url} {document['campaign_id']}")
    return 0


def _print_event(event, as_json: bool) -> None:
    """Render one SSE event for ``campaign watch`` (text or JSON lines)."""
    if as_json:
        print(json.dumps(jsonable({"event": event.event, "id": event.id,
                                   "data": event.data})), flush=True)
        return
    data = event.data
    if event.event in ("run", "snapshot"):
        print(_record_line(data, f"{event.event:>9} "
                           f"{data.get('status', ''):>9}"), flush=True)
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


def _watch(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    final_state = None
    for event in ServiceClient(args.url).watch(args.campaign_id):
        _print_event(event, args.json)
        if event.event == "done":
            final_state = event.data.get("state")
    return 0 if final_state == "completed" else 1

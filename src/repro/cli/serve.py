"""``serve`` (the campaign control plane over HTTP) and ``trace`` (a
campaign's span trees, read from the JSONL trace next to its store)."""

from __future__ import annotations

import argparse
import json
import os


def register(subparsers) -> None:
    serve = subparsers.add_parser(
        "serve", help="run the campaign control plane as an HTTP service")
    serve.add_argument("--host", type=str, default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="bind port (default 8765; 0 picks a free port)")
    serve.add_argument("--store-dir", type=str, default="campaign-service",
                       help="directory of the campaign stores + specs — the "
                            "service's only persistent state "
                            "(default campaign-service/)")
    serve.set_defaults(handler=_serve)

    # no prefix matching: the removed ``--store`` must be rejected, not
    # read as ``--store-dir``
    trace = subparsers.add_parser(
        "trace", help="render a campaign's span trees from its JSONL trace",
        allow_abbrev=False)
    trace.add_argument("campaign", type=str, nargs="?", default=None,
                       help="a campaign id/name, or a path to a trace or "
                            "store file (default: every trace in "
                            "--store-dir)")
    trace.add_argument("--store-dir", type=str, default="campaign-service",
                       help="service store directory searched for "
                            "<campaign>.trace.jsonl (default "
                            "campaign-service/)")
    trace.add_argument("--run", type=str, default=None,
                       help="only traces touching this run id (prefix "
                            "match)")
    trace.add_argument("--json", action="store_true",
                       help="print one JSON line per span instead of the "
                            "tree")
    trace.set_defaults(handler=_trace)


def _serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    def banner(server) -> None:
        print(f"campaign service listening on {server.url} "
              f"(store dir {server.manager.store_dir}); Ctrl-C stops it",
              flush=True)

    # a taken port or an unwritable store dir is an OSError
    return serve(args.host, args.port, args.store_dir, ready=banner)


def _trace_candidates(args: argparse.Namespace) -> list:
    """Candidate trace-file paths for ``trace``, in resolution order."""
    from repro.telemetry import TRACE_SUFFIX, trace_path_for

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


def _trace(args: argparse.Namespace) -> int:
    from repro.telemetry import read_spans, render_traces

    candidates = _trace_candidates(args)
    paths = [path for path in candidates if os.path.exists(path)]
    if args.campaign:
        # a named lookup is a fallback chain: first hit wins (the same
        # file can be reachable through several candidate paths)
        paths = paths[:1]
    if not paths:
        tried = ", ".join(candidates) if candidates else args.store_dir
        raise FileNotFoundError(
            f"no trace file found (looked at: {tried}); traces are written "
            f"next to the campaign store when telemetry is enabled")
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
        raise ValueError(f"no trace matches {what} in {', '.join(paths)}")
    print(rendered)
    return 0

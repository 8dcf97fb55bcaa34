"""Command-line interface: ``python -m repro.cli <command>``.

One module per command group; each declares its sub-commands in a
``register(subparsers)`` function and binds every leaf to its handler with
``set_defaults(handler=...)``:

* :mod:`~repro.cli.run` — ``run`` (the coupled in-transit workflow; see
  :mod:`repro.workflow`) and ``presets`` (the named workflow presets and
  drivers),
* :mod:`~repro.cli.campaign` — ``campaign run|status|report`` (parameter
  sweeps over many workflow runs, see :mod:`repro.campaign`) and
  ``campaign submit|watch --url`` against a running service,
* :mod:`~repro.cli.serve` — ``serve`` (the campaign control plane over
  HTTP with SSE streaming, see ``docs/service.md``) and ``trace`` (a
  campaign's span trees from the JSONL trace next to its store, see
  ``docs/observability.md``),
* :mod:`~repro.cli.studies` — the paper-scale figure studies ``placement``
  (Fig. 3c), ``fom-scan`` (Fig. 4), ``streaming-study`` (Fig. 6),
  ``ddp-scan`` (Fig. 8) and ``khi-info`` (the Section IV-A setup),
* :mod:`~repro.cli.bench` — ``bench-train`` and ``bench-learning``, each
  mounting the flags its case declares and running under the harness in
  :mod:`repro.utils.benchjson`.

Handlers return an exit code (0, or 1 for a failed run or gate) and raise
on bad input; :func:`main` turns a ``ValueError`` or ``OSError`` into one
``error:`` line and exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cli import bench, campaign, run, serve, studies


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Reproduction of 'The Artificial Scientist: in-transit "
                    "Machine Learning of Plasma Simulations'")
    parser.add_argument("--log-level", type=str, default=None,
                        metavar="LEVEL",
                        help="logging level of every repro module (debug, "
                             "info, warning, error; default warning)")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for group in (run, campaign, serve, studies, bench):
        group.register(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.utils.logging import setup_logging

    args = _build_parser().parse_args(argv)
    try:
        setup_logging(args.log_level)
        return args.handler(args)
    except BrokenPipeError:
        raise               # a closed stdout is not an error: see __main__
    except (ValueError, OSError) as error:
        # typo'd names, unreadable or unwritable files, out-of-range inputs
        # and an unreachable service deserve one line, not a traceback
        print(f"error: {error}", file=sys.stderr)
        return 2

"""``run`` (one coupled workflow run) and ``presets``.

``run`` assembles a ``WorkflowSession`` from a preset (or a JSON config
file) with :class:`repro.workflow.WorkflowBuilder` and drives it with the
chosen execution driver.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Dict

from repro.utils.serialization import jsonable


def register(subparsers) -> None:
    run = subparsers.add_parser("run", help="run the coupled in-transit workflow")
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
    run.set_defaults(handler=_run)

    subparsers.add_parser(
        "presets", help="list the workflow presets and drivers"
    ).set_defaults(handler=_presets)


def _run_result_payload(result) -> Dict[str, object]:
    """The machine-readable ``run --json`` dump of one RunResult.

    Raw (may still hold numpy types) — the print site owns the single
    ``jsonable`` coercion pass, after any extra keys are appended.
    """
    payload = dict(result.summary())
    payload["consumer_summaries"] = result.consumer_summaries
    payload["producer_exception"] = (None if result.producer_exception is None
                                     else str(result.producer_exception))
    payload["consumer_exceptions"] = {name: str(error) for name, error
                                      in result.consumer_exceptions.items()}
    return payload


def _run_config(args: argparse.Namespace):
    """Resolve the run command's workflow configuration from its flags."""
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


def _run(args: argparse.Namespace) -> int:
    from repro.workflow import WorkflowBuilder

    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    # out-of-range overrides are checked here, when the session is built
    builder = (WorkflowBuilder().config(_run_config(args))
               .driver(args.driver or "serial"))
    if args.monitor:
        builder.add_consumer("monitor", kind="histogram-monitor")
    session = builder.build()

    result = session.run(args.steps)
    if result.producer_exception is not None:
        print(f"producer failed: {result.producer_exception}", file=sys.stderr)
    for name, error in result.consumer_exceptions.items():
        print(f"consumer {name!r} failed: {error}", file=sys.stderr)
    if not result.ok:
        if args.json:
            print(json.dumps(jsonable(_run_result_payload(result)), indent=2))
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
            payload["ratios_to_constant"] = evaluation.ratios()
        else:
            print("\nregion, true peak, predicted peak, histogram L1 (pooled's)")
            for row in evaluation.rows():
                print(f"{row['region']:>12}, {row['true_peak']:+.3f}, "
                      f"{row['predicted_peak']:+.3f}, {row['histogram_l1']:.3f} "
                      f"({row['constant_histogram_l1']:.3f})")
            print(f"surrogate spectrum MSE {evaluation.surrogate_spectrum_mse:.4f} "
                  f"(the mean spectrum's {evaluation.constant_spectrum_mse:.4f}), "
                  f"classifier accuracy {evaluation.latent_classifier_accuracy:.3f} "
                  f"(majority share {evaluation.majority_share:.3f})")

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
        print(json.dumps(jsonable(payload), indent=2))
    return 0


def _presets(_: argparse.Namespace) -> int:
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

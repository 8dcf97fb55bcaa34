"""The paper-scale figure studies, from the models in :mod:`repro.perfmodel`:
``placement`` (Fig. 3c), ``fom-scan`` (Fig. 4), ``streaming-study``
(Fig. 6), ``ddp-scan`` (Fig. 8) and ``khi-info`` (the Section IV-A setup).

An out-of-range input raises ``ValueError`` before the table's header is
printed.
"""

from __future__ import annotations

import argparse


def register(subparsers) -> None:
    subparsers.add_parser(
        "fom-scan", help="Fig. 4: FOM weak scaling (Frontier vs Summit)"
    ).set_defaults(handler=_fom_scan)

    streaming = subparsers.add_parser(
        "streaming-study", help="Fig. 6: full-scale streaming throughput study")
    streaming.add_argument("--bytes-per-node", type=float, default=5.86e9)
    streaming.set_defaults(handler=_streaming_study)

    ddp = subparsers.add_parser(
        "ddp-scan", help="Fig. 8: in-transit training weak scaling")
    ddp.add_argument("--nodes", type=int, nargs="+", default=(8, 24, 48, 96))
    ddp.set_defaults(handler=_ddp_scan)

    subparsers.add_parser(
        "khi-info", help="Section IV-A KHI setup constants"
    ).set_defaults(handler=_khi_info)

    placement = subparsers.add_parser(
        "placement", help="Fig. 3c: placement comparison")
    placement.add_argument("--nodes", type=int, default=96)
    placement.set_defaults(handler=_placement)


def _fom_scan(_: argparse.Namespace) -> int:
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


def _streaming_study(args: argparse.Namespace) -> int:
    from repro.perfmodel.streaming import StreamingScalingStudy

    rows = StreamingScalingStudy(bytes_per_node=args.bytes_per_node).rows()
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


def _ddp_scan(args: argparse.Namespace) -> int:
    from repro.perfmodel.ddp import DDPWeakScalingModel

    model = DDPWeakScalingModel.paper_calibrated()
    points = model.scan(tuple(args.nodes))
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


def _khi_info(_: argparse.Namespace) -> int:
    from repro import constants
    from repro.pic.khi import KHIConfig

    paper = KHIConfig.paper()
    print("Section IV-A KHI setup (paper constants):")
    print(f"  smallest volume      : {'x'.join(str(n) for n in paper.grid_shape)} cells "
          f"on {constants.PAPER_SMALLEST_GPUS} GPUs")
    print(f"  cell size            : {constants.PAPER_CELL_SIZE * 1e6:.1f} um (cubic)")
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


def _placement(args: argparse.Namespace) -> int:
    from repro.perfmodel.placement import PlacementMode, ResourcePlan
    from repro.perfmodel.streaming import PAPER_BYTES_PER_NODE

    plans = [ResourcePlan(n_nodes=args.nodes, mode=mode) for mode in PlacementMode]
    for plan in plans:
        description = plan.describe()
        exchange = plan.exchange_time_per_step(PAPER_BYTES_PER_NODE)
        print(f"{plan.mode.value:>12}: {description}  exchange of 5.86 GB/node: "
              f"{exchange:.3f} s")
    return 0

#!/usr/bin/env python
"""Quickstart: run the Artificial Scientist end to end at laptop scale.

Builds the coupled workflow of the paper — a Kelvin-Helmholtz PIC simulation
streaming per-sub-volume particle point clouds and radiation spectra through
an in-memory (SST-style) stream into the MLapp, which trains the VAE+INN in
transit with experience replay — and runs it for a handful of steps.

The assembly uses the composable :mod:`repro.workflow` API: a named preset
supplies the configuration, the builder wires the stream, and an execution
driver (serial here; try ``"pipelined"``) owns the run schedule.  Lifecycle hooks observe the run without touching any component.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.workflow import WorkflowBuilder


def main() -> None:
    session = (
        WorkflowBuilder()
        .preset("laptop")
        .driver("serial")
        .on_step(lambda _session, index: print(f"  simulation step {index} done"))
        .on_iteration_consumed(
            lambda _session, consumer, index, n:
            print(f"  {consumer} trained on iteration {index} ({n} samples)"))
        .build()
    )

    print("running the coupled simulation + in-transit training ...")
    result = session.run(5)
    result.raise_if_failed()

    print("\n--- workflow report -------------------------------------------")
    for key, value in result.report.summary().items():
        print(f"{key:>24}: {value}")

    print("\n--- loss terms (mean over the last iterations) -----------------")
    for name, value in session.mlapp.loss_summary().items():
        print(f"{name:>24}: {value:.4f}")

    print("\nNo simulation data was written to disk: everything stayed in memory "
          "and was discarded after training, as in the paper's in-transit workflow.")


if __name__ == "__main__":
    main()

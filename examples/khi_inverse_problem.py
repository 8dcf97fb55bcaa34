#!/usr/bin/env python
"""The KHI inverse problem: train in transit, then invert radiation spectra.

This is the scientific scenario of the paper (Fig. 9): after training on the
streamed KHI data, the INN's backward pass maps observed radiation spectra
back to local particle momentum distributions.  The script

1. runs the coupled workflow for a number of steps,
2. evaluates the inversion per plasma region (bulk approaching / receding /
   vortex),
3. prints a Fig. 9-style comparison table (true vs predicted momentum peaks,
   histogram distance, two-population detection in the vortex region), the
   surrogate MSE and the latent-regime-classifier accuracy, each beside the
   spectrum-blind constant it has to beat: the pooled momentum histogram of
   all regions, the mean spectrum and the majority region's share.

Run with::

    python examples/khi_inverse_problem.py [n_steps]
"""

from __future__ import annotations

import sys

from repro.core import MLConfig, StreamingConfig, WorkflowConfig
from repro.models.config import ModelConfig
from repro.pic.khi import KHIConfig
from repro.workflow import WorkflowBuilder


def build_config() -> WorkflowConfig:
    model = ModelConfig(n_input_points=96, encoder_channels=(16, 32, 64),
                        encoder_head_hidden=48, latent_dim=48,
                        decoder_grid=(2, 2, 2), decoder_channels=(16, 8, 6),
                        spectrum_dim=24, inn_blocks=3, inn_hidden=(48, 48))
    return WorkflowConfig(
        khi=KHIConfig(grid_shape=(12, 24, 2), particles_per_cell=6, seed=3),
        ml=MLConfig(model=model, n_rep=4, base_learning_rate=2e-3),
        streaming=StreamingConfig(queue_limit=2),
        region_counts=(1, 6, 1),
        n_detector_directions=3,
        seed=7,
    )


def main() -> None:
    n_steps = int(sys.argv[1]) if len(sys.argv) > 1 else 12
    session = WorkflowBuilder().config(build_config()).driver("serial").build()
    print(f"running {n_steps} coupled steps (simulation + in-transit training) ...")
    report = session.run(n_steps, keep_for_evaluation=2).raise_if_failed().report
    print(f"streamed {report.samples_streamed} samples "
          f"({report.streamed_megabytes:.1f} MB), "
          f"{report.training_iterations} training iterations, "
          f"final loss {report.final_losses.get('total', float('nan')):.3f}")

    print("\nevaluating the inversion (radiation -> momentum distribution) ...")
    evaluation = session.evaluate(n_posterior_samples=4)

    header = (f"{'region':>12} {'n':>4} {'true peak':>10} {'pred peak':>10} "
              f"{'peak err':>9} {'hist L1':>8} {'const L1':>9} "
              f"{'2 pops (true/pred)':>20}")
    print("\n--- Fig. 9-style comparison ------------------------------------")
    print(header)
    for row in evaluation.rows():
        print(f"{row['region']:>12} {row['n_samples']:>4} {row['true_peak']:>10.3f} "
              f"{row['predicted_peak']:>10.3f} {row['peak_error']:>9.3f} "
              f"{row['histogram_l1']:>8.3f} {row['constant_histogram_l1']:>9.3f} "
              f"{str(row['two_populations_true']):>9}/{str(row['two_populations_predicted']):<9}")

    print(f"\nsurrogate spectrum MSE      : {evaluation.surrogate_spectrum_mse:.5f}"
          f"  (mean spectrum: {evaluation.constant_spectrum_mse:.5f})")
    print(f"latent regime classifier acc: {evaluation.latent_classifier_accuracy:.3f}"
          f"  (majority share: {evaluation.majority_share:.3f})")

    ratios = evaluation.ratios()
    beaten = [name for name, ratio in ratios.items() if ratio < 1]
    lost = [name for name, ratio in ratios.items() if ratio >= 1]
    print("\nerror over the constant's error (below 1 beats it):")
    for name, ratio in ratios.items():
        print(f"  {name:>26}: {ratio:.3f}")
    inverted = all(ratio < 1 for name, ratio in ratios.items()
                   if name.startswith("histogram_l1."))
    print(f"\nInterpretation: at {n_steps} steps the model beats its "
          f"spectrum-blind constant on {', '.join(beaten) or 'no metric'} and "
          f"not on {', '.join(lost) or 'any other'}. The classifier reads the "
          "latents of the true clouds, not the spectra; the inversion "
          "(Fig. 9) works where a region's L1 ratio is below 1, and this run "
          + ("shows that in every region." if inverted else
             "does not show that in every region."))

if __name__ == "__main__":
    main()

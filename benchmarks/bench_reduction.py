"""Fig. 3(b) ablation — in-stream data reduction close to the producer.

Measures the cost of the producer-side reduction pipeline (particle
subsampling + precision cast) on a realistic per-step payload and reports
the bandwidth saving, i.e. by how much the per-node streaming requirement of
Fig. 6 would drop if the consumer tolerates the reduced data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perfmodel.streaming import PAPER_BYTES_PER_NODE
from repro.streaming.reduction import (ParticleSubsampleReducer, PrecisionReducer,
                                       ReductionPipeline)


def test_fig3b_reduction_pipeline(benchmark, rng):
    n_particles = 200_000
    variables = {
        "particles/electrons/position/x": rng.random(n_particles),
        "particles/electrons/position/y": rng.random(n_particles),
        "particles/electrons/position/z": rng.random(n_particles),
        "particles/electrons/momentum/x": rng.normal(size=n_particles),
        "particles/electrons/momentum/y": rng.normal(size=n_particles),
        "particles/electrons/momentum/z": rng.normal(size=n_particles),
        "particles/electrons/weighting": rng.uniform(1, 2, size=n_particles),
    }
    pipeline = ReductionPipeline([
        ParticleSubsampleReducer(0.25, rng=np.random.default_rng(0)),
        PrecisionReducer(),
    ])

    benchmark(lambda: pipeline.reduce_step(variables))

    factor = pipeline.reports[-1].factor
    benchmark.extra_info["reduction_factor"] = round(factor, 2)
    benchmark.extra_info["payload_mb"] = round(
        sum(v.nbytes for v in variables.values()) / 1e6, 1)
    benchmark.extra_info["fig6_bytes_per_node_after_reduction_gb"] = round(
        PAPER_BYTES_PER_NODE / factor / 1e9, 2)
    # subsample 4x * precision 2x => ~8x less bandwidth demand
    assert factor == pytest.approx(8.0, rel=0.05)

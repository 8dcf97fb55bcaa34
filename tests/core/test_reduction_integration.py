"""Integration of the producer-side reduction with the coupled workflow."""

from __future__ import annotations

import pytest

from repro.core import StreamingConfig
from tests.core.test_artificial_scientist import (default_session, run_report,
                                                  tiny_config)


class TestStreamReduction:
    def test_subsampling_shrinks_streamed_bytes(self):
        base_config = tiny_config(n_rep=1)
        reduced_config = tiny_config(n_rep=1)
        reduced_config.streaming = StreamingConfig(queue_limit=4,
                                                   particle_subsample_fraction=0.25,
                                                   reduce_precision=True)

        baseline_report = run_report(default_session(base_config), 2)

        reduced = default_session(reduced_config)
        reduced_report = run_report(reduced, 2)

        # the ML samples are identical in size; the raw particle records
        # (seven float64 columns per electron and step) shrink eightfold
        assert reduced.producer.reduction is not None
        n_electrons = reduced.simulation.get_species("electrons").n_macro
        raw_bytes = 2 * 7 * 8 * n_electrons
        ml_bytes = baseline_report.bytes_streamed - raw_bytes
        assert raw_bytes > 3 * (reduced_report.bytes_streamed - ml_bytes)
        # training still works on the reduced stream
        assert reduced_report.training_iterations == baseline_report.training_iterations

    def test_reduced_stream_keeps_consistent_particle_records(self):
        config = tiny_config(n_rep=1)
        config.streaming = StreamingConfig(queue_limit=4,
                                           particle_subsample_fraction=0.5)
        session = default_session(config)
        # intercept one streamed step by reading the trainer's queue by hand
        session.simulation.step()
        step = next(session.consumers["mlapp"].mlapp.series.read_iterations())
        x = step.arrays["particles/electrons/position/x"]
        ux = step.arrays["particles/electrons/momentum/x"]
        w = step.arrays["particles/electrons/weighting"]
        n_original = session.simulation.get_species("electrons").n_macro
        assert len(x) == len(ux) == len(w)
        assert len(x) == pytest.approx(0.5 * n_original, rel=0.05)
        # weights rescaled so the total charge is preserved in expectation
        assert w.sum() == pytest.approx(
            session.simulation.get_species("electrons").weights.sum(), rel=0.05)

    def test_no_pipeline_unless_an_option_is_set(self):
        assert default_session(tiny_config()).producer.reduction is None
        for streaming in (StreamingConfig(particle_subsample_fraction=0.5),
                          StreamingConfig(reduce_precision=True)):
            config = tiny_config()
            config.streaming = streaming
            assert default_session(config).producer.reduction is not None

"""Execution-driver comparison: serial vs pipelined.

The paper's co-scheduled system overlaps simulation and training; the
workflow drivers reproduce the schedule choices at laptop scale.  This
benchmark runs the same tiny coupled workflow under every registered
driver and checks the redesign's core contract: identical streaming and
training accounting, one uniform report schema, only the wall-clock
distribution differs.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import tiny_workflow_config
from repro.workflow import WorkflowBuilder, available_drivers

N_STEPS = 5


@pytest.mark.parametrize("driver", available_drivers())
def test_driver_throughput(benchmark, driver):
    def run():
        session = (WorkflowBuilder()
                   .config(tiny_workflow_config(n_rep=1, seed=23))
                   .driver(driver)
                   .build())
        return session.run(N_STEPS)

    result = benchmark.pedantic(run, iterations=1, rounds=3)
    assert result.ok, (result.producer_exception, result.consumer_exceptions)
    report = result.report

    benchmark.extra_info["driver"] = driver
    benchmark.extra_info["iterations_streamed"] = report.iterations_streamed
    benchmark.extra_info["max_queue_depth"] = result.max_queue_depth
    benchmark.extra_info["streamed_megabytes"] = round(report.streamed_megabytes, 2)

    # identical accounting regardless of the execution strategy
    assert report.n_steps == N_STEPS
    assert report.iterations_streamed == N_STEPS
    assert report.training_iterations == N_STEPS  # n_rep=1
    assert set(report.summary()) == {
        "steps", "iterations_streamed", "samples_streamed",
        "training_iterations", "streamed_megabytes", "wall_time_s",
        "simulation_time_s", "training_time_s", "final_total_loss"}

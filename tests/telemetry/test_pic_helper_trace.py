"""A traced serial run whose second species steps on the PIC helper thread:
the helper records into the caller's trace, under the step it works for."""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.pic import kernels
from repro.telemetry import SpanRecorder, recording, span
from repro.workflow import WorkflowBuilder
from tests.core.test_artificial_scientist import tiny_config


@pytest.fixture
def traced_run(monkeypatch):
    """The spans of a two-step serial run with the helper engaged (blocks of
    64 particles: the tiny problem's 432 a species are over ``CHUNK``, two
    species beside each other as in ``coupled-pic-bound``)."""
    monkeypatch.setattr(kernels, "CHUNK", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    recorder = SpanRecorder()
    session = WorkflowBuilder().config(tiny_config()).driver("serial").build()
    with recording(recorder), span("run", {}, None):
        session.run(2).raise_if_failed()
    return recorder.spans


def test_both_species_kernels_sit_under_each_step(traced_run):
    by_id = {s.span_id: s for s in traced_run}
    steps = [s for s in traced_run if s.name == "workflow.pic"]
    assert len(steps) == 2
    for step in steps:
        children = Counter(s.name for s in traced_run
                           if s.parent_id == step.span_id)
        # per species: the gather and the push in two parts (the second
        # also advances the positions), then the deposit
        assert {kernel: children[kernel] for kernel in
                ("pic.gather", "pic.push", "pic.deposit")} == {
            "pic.gather": 4, "pic.push": 4, "pic.deposit": 2}
    (root,) = [s for s in traced_run if s.parent_id is None]
    assert all(s.trace_id == root.trace_id for s in traced_run)
    # each kernel span lies inside the step it was recorded under
    for kernel in (s for s in traced_run if s.name.startswith("pic.")):
        parent = by_id[kernel.parent_id]
        assert parent.start_s <= kernel.start_s <= kernel.end_s <= parent.end_s

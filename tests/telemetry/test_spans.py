"""Unit tests of spans, trace export and the trace renderer."""

from __future__ import annotations

import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.telemetry import (Span, SpanRecorder, Timer, TraceWriter,
                             carry_trace, current_span, disabled, new_id,
                             read_spans, recording, render_trace,
                             render_traces, span, trace_path_for)
from repro.telemetry import spans as spans_module


class TestSpanBasics:
    def test_nesting_builds_parent_links_and_one_trace(self):
        recorder = SpanRecorder()
        with recording(recorder):
            with span("outer", {}, None) as outer:
                with span("inner", {}, None) as inner:
                    assert current_span() is inner
                    assert inner.parent_id == outer.span_id
                    assert inner.trace_id == outer.trace_id
        names = [s.name for s in recorder.spans]
        assert names == ["inner", "outer"]          # emitted on close
        assert all(s.end_s is not None for s in recorder.spans)

    def test_no_sink_yields_none(self):
        with span("anything", {}, None) as opened:
            assert opened is None
        assert current_span() is None

    def test_disabled_yields_none_even_with_sink(self):
        recorder = SpanRecorder()
        with recording(recorder), disabled():
            with span("x", {}, None) as opened:
                assert opened is None
        assert recorder.spans == []

    def test_remote_ctx_overrides_local_parent(self):
        recorder = SpanRecorder()
        remote = Span(name="dispatch", trace_id=new_id())
        with recording(recorder):
            with span("execute", {}, {"trace_id": remote.trace_id,
                                      "span_id": remote.span_id}) as execute:
                assert execute.trace_id == remote.trace_id
                assert execute.parent_id == remote.span_id

    def test_exception_marks_error_and_reraises(self):
        recorder = SpanRecorder()
        with recording(recorder):
            with pytest.raises(RuntimeError):
                with span("boom", {}, None):
                    raise RuntimeError("kaboom")
        (emitted,) = recorder.spans
        assert emitted.status == "error"
        assert emitted.attrs["exception"] == "RuntimeError"

    def test_to_dict_roundtrip(self):
        original = Span(name="x", trace_id=new_id(),
                        attrs={"run_id": "abc"}).finish()
        clone = Span.from_dict(json.loads(json.dumps(original.to_dict())))
        assert clone == original

    def test_finish_is_idempotent(self):
        opened = Span(name="x", trace_id=new_id())
        first_end = opened.finish().end_s
        time.sleep(0.01)
        assert opened.finish().end_s == first_end
        assert opened.duration_s is not None


@pytest.fixture
def unit_sections(monkeypatch):
    """Every :class:`Timer` section lasts exactly one second: each thread
    reads its own clock, which one call advances by one."""
    local = threading.local()

    def perf_counter():
        local.now = getattr(local, "now", 0.0) + 1.0
        return local.now
    monkeypatch.setattr(spans_module, "time",
                        SimpleNamespace(perf_counter=perf_counter,
                                        time=time.time))


class TestTimer:
    def test_sections_accumulate_under_their_bare_names(self):
        timer = Timer("pic")
        with timer.section("a"):
            pass
        with timer.section("a"):
            pass
        assert list(timer.totals()) == ["a"] and timer.totals()["a"] >= 0.0
        timer.reset()
        assert timer.totals() == {}

    def test_a_section_is_a_prefixed_child_of_the_current_span(self):
        recorder = SpanRecorder()
        timer = Timer("pic")
        with recording(recorder):
            with span("execute", {}, None) as execute:
                with timer.section("gather"):
                    pass
        gather, _ = recorder.spans
        assert gather.name == "pic.gather"
        assert gather.parent_id == execute.span_id
        assert gather.trace_id == execute.trace_id
        assert list(timer.totals()) == ["gather"]

    def test_an_exception_marks_the_span_reraises_and_still_counts(self):
        recorder = SpanRecorder()
        timer = Timer("continual")
        with recording(recorder):
            with pytest.raises(ValueError):
                with timer.section("backward"):
                    raise ValueError("boom")
        (emitted,) = recorder.spans
        assert emitted.name == "continual.backward"
        assert emitted.status == "error"
        assert emitted.attrs["exception"] == "ValueError"
        assert list(timer.totals()) == ["backward"]

    def test_no_sink_or_telemetry_disabled_emits_nothing(self):
        timer = Timer("pic")
        with timer.section("push"):
            assert current_span() is None
        recorder = SpanRecorder()
        with recording(recorder), disabled():
            with timer.section("push"):
                assert current_span() is None
        assert recorder.spans == []
        assert list(timer.totals()) == ["push"]

    def test_carry_trace_joins_another_thread_under_the_open_span(self):
        recorder = SpanRecorder()
        timer = Timer("workflow")
        with recording(recorder):
            with span("execute", {}, None) as execute:
                worker = threading.Thread(target=carry_trace(_step),
                                          args=(timer,))
                worker.start()
                worker.join()
        pic, _ = recorder.spans
        assert pic.name == "workflow.pic"
        assert pic.parent_id == execute.span_id
        assert pic.trace_id == execute.trace_id
        assert list(timer.totals()) == ["pic"]

    def test_threads_timing_their_own_sections_lose_no_update(
            self, unit_sections):
        """One timer and one recorder shared by more threads than cores,
        switching as often as the interpreter allows: every section of
        every thread is added and recorded."""
        recorder = SpanRecorder()
        timer = Timer("workflow")
        names = [f"consumer{index}" for index in range(8)]

        def drain(name):
            for _ in range(200):
                with timer.section(name):
                    pass
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with recording(recorder), span("execute", {}, None):
                threads = [threading.Thread(target=carry_trace(drain),
                                            args=(name,)) for name in names]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert timer.totals() == {name: 200.0 for name in names}
        assert len(recorder.spans) == 8 * 200 + 1

    def test_two_threads_timing_one_section_name_lose_no_time(
            self, unit_sections):
        """The PIC step's helper times ``gather``/``push``/``deposit`` on the
        stepping thread's timer: two threads adding to one name at once
        lose no section's time."""
        timer = Timer("pic")

        def time_sections():
            for _ in range(10_000):
                with timer.section("gather"):
                    sum(range(50))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=time_sections)
                       for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert timer.totals() == {"gather": 20_000.0}

    def test_carry_trace_without_a_sink_returns_the_target(self):
        def target():
            return 1
        assert carry_trace(target) is target


def _step(timer):
    with timer.section("pic"):
        pass


class TestExport:
    def test_trace_path_for_variants(self):
        assert trace_path_for("x.campaign.jsonl") == "x.trace.jsonl"
        assert trace_path_for("dir/y.jsonl") == "dir/y.trace.jsonl"
        assert trace_path_for("plain") == "plain.trace.jsonl"

    def test_writer_roundtrip_and_lazy_creation(self, tmp_path):
        path = tmp_path / "deep" / "t.trace.jsonl"
        writer = TraceWriter(path)
        assert not path.parent.exists()       # nothing until the first emit
        first = Span(name="a", trace_id=new_id()).finish()
        writer.emit(first)
        writer.emit(Span(name="b", trace_id=first.trace_id,
                         parent_id=first.span_id).finish())
        writer.close()
        spans = read_spans(path)
        assert [s.name for s in spans] == ["a", "b"]
        assert spans[0] == first

    def test_read_skips_corrupt_lines(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        good = Span(name="ok", trace_id=new_id()).finish()
        path.write_text(json.dumps(good.to_dict()) + "\n"
                        + "{torn line\n\n" + '{"not": "a span"}\n')
        spans = read_spans(path)
        assert [s.name for s in spans] == ["ok"]


class TestRender:
    def _trace(self):
        root = Span(name="campaign", trace_id=new_id(),
                    attrs={"campaign": "smoke"}).finish()
        child = Span(name="dispatch", trace_id=root.trace_id,
                     parent_id=root.span_id,
                     attrs={"run_id": "abcdef0123456789"}).finish()
        grand = Span(name="execute", trace_id=root.trace_id,
                     parent_id=child.span_id, status="error",
                     attrs={"exception": "RuntimeError"}).finish()
        return [grand, child, root]            # emit order: leaves first

    def test_tree_shape_and_markers(self):
        rendered = render_traces(self._trace())
        lines = rendered.splitlines()
        assert lines[0].startswith("trace ")
        assert "campaign" in lines[1]
        assert "dispatch" in lines[2] and "run_id=abcdef012345" in lines[2]
        assert "execute" in lines[3] and "!" in lines[3]   # error marker
        assert lines[3].index("execute") > lines[2].index("dispatch")

    def test_run_id_prefix_filter(self):
        spans = self._trace()
        assert render_traces(spans, run_id="abcdef") != ""
        assert render_traces(spans, run_id="ffff") == ""

    def test_same_line_siblings_fold_with_their_subtrees(self):
        trace = new_id()

        def make(name, parent, start, end, **attrs):
            return Span(name=name, trace_id=trace, span_id=new_id(),
                        parent_id=parent and parent.span_id, start_s=start,
                        end_s=end, attrs=attrs)
        root = make("execute", None, 0.0, 1.0, run_id="run-a")
        spans = [root]
        for step in range(2):
            pic = make("workflow.pic", root, 0.1 * step, 0.1 * step + 0.05)
            spans.append(pic)
            spans += [make("pic.gather", pic, pic.start_s, pic.start_s + 0.01)
                      for _ in range(3)]
        train = make("workflow.mlapp", root, 0.5, 0.6)
        failed = make("pic.gather", spans[1], 0.01, 0.02)
        failed.status = "error"
        spans += [train, failed]
        spans += [make("dispatch", root, start, start + 0.1, run_id=run)
                  for start, run in ((0.7, "run-b"), (0.8, "run-c"))]
        assert render_trace(spans).splitlines() == [
            "execute (1.00s)  [run_id=run-a]",
            "├─ workflow.pic ×2 (100.0ms)",
            "│  ├─ pic.gather ×6 (60.0ms)",
            "│  └─ pic.gather ! (10.0ms)",
            "├─ workflow.mlapp (100.0ms)",
            "├─ dispatch (100.0ms)  [run_id=run-b]",
            "└─ dispatch (100.0ms)  [run_id=run-c]",
        ]

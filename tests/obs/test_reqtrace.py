"""Request-tracing unit tests: wire context, sampling, sink, rebuild."""

from __future__ import annotations

import json

import pytest

from repro.obs import reqtrace
from repro.obs.reqtrace import (
    NOOP_SPAN,
    RequestTracer,
    TraceContext,
    TraceSink,
    build_traces,
    configure_tracer,
    extract,
    get_tracer,
    inject,
    load_spans,
    render_trace,
    reset_tracer,
    trace_summary,
)


@pytest.fixture()
def tracer():
    return RequestTracer(TraceSink(), sample_rate=1.0, seed=7)


class TestWireContext:
    def test_inject_extract_roundtrip(self, tracer):
        with tracer.root("client/predict") as span:
            payload = {"op": "predict", "x": [1.0]}
            inject(payload, span)
        ctx = extract(payload)
        assert ctx is not None
        assert ctx.trace_id == span.trace_id
        assert ctx.span_id == span.span_id
        assert ctx.sampled is True

    def test_inject_from_context_object(self):
        ctx = TraceContext("a" * 16, "b" * 16, False)
        payload = {}
        inject(payload, ctx)
        assert payload["trace"] == {"id": "a" * 16, "span": "b" * 16,
                                    "sampled": 0}

    @pytest.mark.parametrize("field", [
        None, "not-a-dict", {}, {"id": "short", "span": "b" * 16},
        {"id": "a" * 16, "span": 12345},
        {"id": "A" * 16, "span": "b" * 16},  # uppercase = invalid
    ])
    def test_extract_tolerates_malformed(self, field):
        request = {"op": "predict"}
        if field is not None:
            request["trace"] = field
        assert extract(request) is None

    def test_extract_non_dict_request(self):
        assert extract(None) is None
        assert extract(["not", "a", "dict"]) is None


class TestSampling:
    def test_disabled_tracer_returns_noop(self):
        disabled = RequestTracer()
        assert disabled.root("x") is NOOP_SPAN
        assert disabled.child_of(NOOP_SPAN, "y") is NOOP_SPAN
        assert disabled.from_wire({"trace": {}}, "z") is NOOP_SPAN
        assert NOOP_SPAN.context is None

    def test_sample_rate_zero_emits_nothing_on_ok(self):
        sink = TraceSink()
        tracer = RequestTracer(sink, sample_rate=0.0, seed=1)
        with tracer.root("client/predict"):
            pass
        assert sink.emitted == 0

    def test_unsampled_error_span_still_emitted(self):
        sink = TraceSink()
        tracer = RequestTracer(sink, sample_rate=0.0, seed=1)

        class Shed(Exception):
            code = "shed"

        with pytest.raises(Shed):
            with tracer.root("client/predict"):
                raise Shed()
        assert sink.emitted == 1
        assert sink.spans()[0]["status"] == "shed"

    def test_sampling_decision_rides_the_wire(self):
        sink = TraceSink()
        tracer = RequestTracer(sink, sample_rate=0.0, seed=1)
        root = tracer.root("client/predict")
        assert root.sampled is False
        child = tracer.child_of(root, "server/predict")
        with child:
            pass
        assert sink.emitted == 0  # child inherited the unsampled decision

    def test_force_overrides_rate(self):
        sink = TraceSink()
        tracer = RequestTracer(sink, sample_rate=0.0, seed=1)
        with tracer.root("rollout/run", force=True):
            pass
        assert sink.emitted == 1

    def test_exception_status_from_code_attr(self, tracer):
        class Deadline(Exception):
            code = "deadline_exceeded"

        with pytest.raises(Deadline):
            with tracer.root("server/predict"):
                raise Deadline()
        assert tracer.sink.spans()[-1]["status"] == "deadline_exceeded"

    def test_plain_exception_status(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.root("server/predict"):
                raise RuntimeError("boom")
        assert tracer.sink.spans()[-1]["status"] == "exception"

    def test_event_always_emitted_even_unsampled(self):
        sink = TraceSink()
        tracer = RequestTracer(sink, sample_rate=0.0, seed=1)
        tracer.event("router/eject", attrs={"replica": "r0"})
        assert sink.emitted == 1
        assert sink.spans()[0]["status"] == "event"

    def test_emit_timed_skips_unsampled_ok_keeps_errors(self):
        sink = TraceSink()
        tracer = RequestTracer(sink, sample_rate=0.0, seed=1)
        ctx = TraceContext("a" * 16, "b" * 16, sampled=False)
        tracer.emit_timed("server/queue", ctx, 0.001)
        assert sink.emitted == 0
        tracer.emit_timed("server/queue", ctx, 0.001,
                          status="deadline_exceeded")
        assert sink.emitted == 1

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            RequestTracer(TraceSink(), sample_rate=1.5)


class TestSink:
    def test_file_export_and_pid_expansion(self, tmp_path):
        import os

        path = tmp_path / "spans-{pid}.jsonl"
        sink = TraceSink(str(path))
        assert str(os.getpid()) in sink.path
        sink.emit({"trace": "a" * 16, "span": "b" * 16, "parent": None,
                   "name": "x", "start": 1.0, "dur": 0.1, "status": "ok",
                   "attrs": {}})
        sink.close()
        records = load_spans(str(tmp_path / "spans-*.jsonl"))
        assert len(records) == 1 and records[0]["name"] == "x"

    def test_max_spans_cap_counts_drops(self, tmp_path, monkeypatch):
        path = tmp_path / "spans.jsonl"
        monkeypatch.setattr(reqtrace, "MAX_SPANS", 2)
        sink = TraceSink(str(path))
        for i in range(5):
            sink.emit({"span": f"{i:016x}"})
        sink.close()
        assert sink.emitted == 5
        assert sink.dropped == 3
        assert len(path.read_text().splitlines()) == 2
        # The memory ring still holds the most recent spans regardless.
        assert len(sink.spans()) == 5

    def test_memory_ring_bounded(self, monkeypatch):
        monkeypatch.setattr(reqtrace, "MEMORY_SPANS", 3)
        sink = TraceSink()
        for i in range(10):
            sink.emit({"span": f"{i:016x}"})
        assert len(sink.spans()) == 3

    def test_load_spans_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        path.write_text(
            'garbage\n{"span": "' + "a" * 16 + '"}\n{"no": "span"}\n\n'
        )
        records = load_spans(str(path))
        assert len(records) == 1

    def test_global_configure_reset(self, tmp_path):
        assert not get_tracer().enabled
        tracer = configure_tracer(str(tmp_path / "t.jsonl"))
        try:
            assert get_tracer() is tracer and tracer.enabled
        finally:
            reset_tracer()
        assert not get_tracer().enabled


def _emit_tree(tracer):
    """client -> router -> forward -> server(predict -> model_call)."""
    with tracer.root("client/predict") as root:
        with tracer.child_of(root, "router/route") as route:
            with tracer.child_of(route, "router/forward") as fwd:
                with tracer.child_of(fwd, "server/predict") as srv:
                    tracer.emit_timed("server/model_call", srv, 0.0)
    return root.trace_id


class TestReconstruction:
    def test_connected_tree_single_root(self, tracer):
        trace_id = _emit_tree(tracer)
        trees = build_traces(tracer.sink.spans())
        assert set(trees) == {trace_id}
        tree = trees[trace_id]
        assert tree.connected
        assert len(tree.spans) == 5
        assert tree.root["name"] == "client/predict"
        names = [record["name"] for _, record in tree.walk()]
        assert names[0] == "client/predict"
        assert "server/model_call" in names

    def test_orphan_detection(self, tracer):
        _emit_tree(tracer)
        records = tracer.sink.spans()
        # Drop the router/route span: its children lose their link.
        broken = [r for r in records if r["name"] != "router/route"]
        tree = next(iter(build_traces(broken).values()))
        assert not tree.connected
        assert len(tree.orphans) == 1

    def test_self_times_sum_to_root_duration(self, tracer):
        trace_id = _emit_tree(tracer)
        tree = build_traces(tracer.sink.spans())[trace_id]
        summary = trace_summary(tree)
        assert summary["connected"]
        assert summary["accounted_s"] == pytest.approx(
            summary["total_s"], rel=1e-9
        )

    def test_summary_phases_cover_model_call(self, tracer):
        trace_id = _emit_tree(tracer)
        tree = build_traces(tracer.sink.spans())[trace_id]
        summary = trace_summary(tree)
        assert "predict kernel (paper §3)" in summary["phases"]
        assert summary["hops"]["client/predict"]["count"] == 1

    def test_render_trace_marks_errors(self, tracer):
        class Shed(Exception):
            code = "shed"

        with pytest.raises(Shed):
            with tracer.root("client/predict") as root:
                with tracer.child_of(root, "server/predict"):
                    raise Shed()
        tree = next(iter(build_traces(tracer.sink.spans()).values()))
        text = render_trace(tree)
        assert "!shed" in text
        assert "client/predict" in text

    def test_render_disconnected_banner(self, tracer):
        _emit_tree(tracer)
        broken = [r for r in tracer.sink.spans()
                  if r["name"] != "client/predict"]
        tree = next(iter(build_traces(broken).values()))
        assert "DISCONNECTED" in render_trace(tree)

    def test_wire_roundtrip_reconnects_across_processes(self, tracer):
        # Simulate the cross-process hop: context travels as JSON bytes.
        with tracer.root("client/predict") as root:
            payload = {"op": "predict", "x": [0.0]}
            inject(payload, root)
            wire = json.dumps(payload).encode()
            request = json.loads(wire)
            with tracer.from_wire(request, "server/predict"):
                pass
        tree = next(iter(build_traces(tracer.sink.spans()).values()))
        assert tree.connected

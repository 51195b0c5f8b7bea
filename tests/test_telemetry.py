"""Unit tests for the telemetry subsystem.

Covers the metric primitives, span nesting, registry thread-safety under
real threads, the zero-entries guarantee of disabled mode, sink
round-trips, and the backend chunk/imbalance instrumentation.
"""

from __future__ import annotations

import io
import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.errors import TelemetryError
from repro.parallel.backends import SerialBackend, ThreadBackend
from repro.parallel.shm import SharedMemoryBackend
from repro.telemetry import (
    Counter,
    Gauge,
    JsonLinesSink,
    NullSink,
    Registry,
    TableSink,
    Timer,
    render_report,
)


@pytest.fixture(autouse=True)
def clean_state():
    """Every test starts and ends with telemetry disabled and empty."""
    telemetry.reset()
    yield
    telemetry.reset()


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------

def test_counter_inc_and_snapshot():
    c = Counter("hits")
    c.inc()
    c.inc(4)
    assert c.value == 5
    snap = c.snapshot()
    assert snap["kind"] == "counter" and snap["value"] == 5


def test_gauge_tracks_extremes():
    g = Gauge("err")
    for v in (3.0, 1.0, 2.0):
        g.set(v)
    snap = g.snapshot()
    assert snap["value"] == 2.0
    assert snap["min"] == 1.0 and snap["max"] == 3.0
    assert snap["writes"] == 3


def test_timer_observe_and_context():
    t = Timer("work")
    t.observe(0.5)
    t.observe(1.5)
    with t.time():
        pass
    snap = t.snapshot()
    assert snap["count"] == 3
    assert snap["max"] == 1.5 and snap["min"] >= 0.0
    assert snap["mean"] == pytest.approx(snap["total"] / 3)


def test_registry_kind_mismatch_raises():
    reg = Registry()
    reg.counter("x").inc()
    with pytest.raises(TelemetryError):
        reg.timer("x")
    # same-kind re-access returns the same object
    assert reg.counter("x") is reg.counter("x")


def test_registry_snapshot_and_clear():
    reg = Registry()
    reg.counter("a").inc(2)
    reg.gauge("b").set(7.0)
    assert set(reg.names()) == {"a", "b"}
    assert "a" in reg and len(reg) == 2
    snap = reg.snapshot()
    assert snap["a"]["value"] == 2 and snap["b"]["value"] == 7.0
    reg.clear()
    assert len(reg) == 0


# ----------------------------------------------------------------------
# Module-level state: enable/disable/session
# ----------------------------------------------------------------------

def test_disabled_mode_records_nothing():
    assert not telemetry.enabled()
    telemetry.incr("c")
    telemetry.set_gauge("g", 1.0)
    telemetry.observe("t", 0.1)
    telemetry.event("e", detail=1)
    with telemetry.span("s"):
        pass
    assert len(telemetry.get_registry()) == 0


def test_disabled_span_is_shared_noop():
    a = telemetry.span("x")
    b = telemetry.span("y", attr=1)
    assert a is b  # no allocation on the disabled path


def test_enable_and_record():
    reg = telemetry.enable()
    telemetry.incr("c", 3)
    telemetry.set_gauge("g", 2.5)
    telemetry.observe("t", 0.25)
    assert reg.counter("c").value == 3
    assert reg.gauge("g").snapshot()["value"] == 2.5
    assert reg.timer("t").snapshot()["count"] == 1
    telemetry.disable()
    telemetry.incr("c", 100)
    assert reg.counter("c").value == 3


def test_session_restores_previous_state():
    outer = telemetry.enable()
    telemetry.incr("outer")
    with telemetry.session() as inner:
        assert telemetry.get_registry() is inner
        telemetry.incr("inner")
    assert telemetry.enabled()
    assert telemetry.get_registry() is outer
    assert "inner" not in outer
    assert inner.counter("inner").value == 1


def test_span_nesting_builds_paths():
    reg = telemetry.enable()
    with telemetry.span("outer"):
        with telemetry.span("mid"):
            with telemetry.span("leaf"):
                pass
        with telemetry.span("leaf"):
            pass
    names = set(reg.names())
    assert "span.outer" in names
    assert "span.outer/mid" in names
    assert "span.outer/mid/leaf" in names
    assert "span.outer/leaf" in names
    assert reg.timer("span.outer").snapshot()["count"] == 1


def test_span_attrs_reach_sink():
    buf = io.StringIO()
    sink = JsonLinesSink(buf)
    telemetry.enable(sink)
    with telemetry.span("op", n=5) as sp:
        sp.set(result=np.int64(7))
    events = [json.loads(l) for l in buf.getvalue().splitlines()]
    assert events[0]["name"] == "op"
    assert events[0]["n"] == 5
    assert events[0]["result"] == 7  # numpy scalar coerced
    assert events[0]["seconds"] >= 0


def test_span_exception_still_pops_stack():
    reg = telemetry.enable()
    with pytest.raises(RuntimeError):
        with telemetry.span("outer"):
            with telemetry.span("boom"):
                raise RuntimeError()
    with telemetry.span("after"):
        pass
    assert "span.after" in set(reg.names())  # not span.outer/boom/after


# ----------------------------------------------------------------------
# Thread safety
# ----------------------------------------------------------------------

def test_registry_thread_safe_exact_counts():
    reg = telemetry.enable()
    n, per = 8, 5000

    def worker():
        for _ in range(per):
            telemetry.incr("shared")
            telemetry.observe("lat", 0.001)

    threads = [threading.Thread(target=worker) for _ in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.counter("shared").value == n * per
    assert reg.timer("lat").snapshot()["count"] == n * per


def test_counts_exact_under_thread_backend():
    reg = telemetry.enable()
    backend = ThreadBackend(4)
    try:
        def work(lo, hi):
            for _ in range(lo, hi):
                telemetry.incr("items")
            return hi - lo

        total = sum(backend.map_ranges(work, 1000))
    finally:
        backend.close()
    assert total == 1000
    assert reg.counter("items").value == 1000


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------

def test_jsonl_sink_roundtrip(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonLinesSink(path)
    telemetry.enable(sink)
    telemetry.event("alpha", x=1)
    telemetry.event("beta", y=np.float64(2.5))
    telemetry.disable()
    sink.close()
    events = JsonLinesSink.read(path)
    assert events == [
        {"event": "alpha", "x": 1},
        {"event": "beta", "y": 2.5},
    ]


def test_table_sink_formats_events():
    buf = io.StringIO()
    telemetry.enable(TableSink(buf))
    telemetry.event("note", k=1)
    with telemetry.span("op"):
        pass
    out = buf.getvalue()
    assert "note" in out and "k=1" in out
    assert "op" in out and "ms" in out


def test_null_sink_swallows():
    telemetry.enable(NullSink())
    telemetry.event("anything")
    # nothing to assert beyond "no crash"; the event still hit no buffer


def test_render_report_lists_all_kinds():
    reg = telemetry.enable()
    telemetry.incr("c", 2)
    telemetry.set_gauge("g", 0.5)
    telemetry.observe("t", 0.1)
    report = render_report(reg.snapshot())
    for token in ("c", "g", "t", "counter", "gauge", "timer"):
        assert token in report
    assert render_report({}) == "(no metrics recorded)\n"


# ----------------------------------------------------------------------
# Backend instrumentation
# ----------------------------------------------------------------------

def _map_with(backend, n=400):
    try:
        return backend.map_ranges(lambda lo, hi: hi - lo, n)
    finally:
        backend.close()


@pytest.mark.parametrize(
    "make,label,parts",
    [
        (lambda: SerialBackend(), "serial", 1),
        (lambda: ThreadBackend(3), "threads", 3),
        (lambda: SharedMemoryBackend(2), "shm", 2),
    ],
)
def test_backend_chunk_metrics(make, label, parts):
    reg = telemetry.enable()
    out = _map_with(make())
    assert sum(out) == 400
    assert reg.counter(f"parallel.{label}.calls").value == 1
    chunk = reg.timer(f"parallel.{label}.chunk").snapshot()
    assert chunk["count"] == parts
    imb = reg.gauge(f"parallel.{label}.imbalance").snapshot()["value"]
    assert imb >= 1.0


def test_backend_silent_when_disabled():
    out = _map_with(ThreadBackend(3))
    assert sum(out) == 400
    assert len(telemetry.get_registry()) == 0

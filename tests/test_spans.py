"""Span recorder, typed metrics, and the span-derived figure numbers."""

import json

import pytest

from repro.cruz.cluster import CruzCluster
from repro.sim.spans import (
    INSTANT,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    SpanRecorder,
    round_coverage,
    round_phases,
    union_coverage,
)
from repro.sim.trace import Trace
from tests.test_cruz_coordination import make_cluster, ring_app


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def recorder(clock):
    return SpanRecorder(clock=clock)


# -- recorder semantics ----------------------------------------------------


def test_nesting_under_interleaved_nodes(recorder, clock):
    """Per-node ambient stacks keep concurrent nodes' spans separate."""
    a_outer = recorder.begin("phase", node="a")
    clock.advance(1.0)
    b_outer = recorder.begin("phase", node="b")
    clock.advance(1.0)
    a_inner = recorder.begin("step", node="a")
    b_inner = recorder.begin("step", node="b")
    assert recorder.parent_of(a_inner) is a_outer
    assert recorder.parent_of(b_inner) is b_outer
    assert recorder.parent_of(a_outer) is None
    clock.advance(1.0)
    recorder.end(a_inner)
    recorder.end(a_outer)
    recorder.end(b_inner)
    recorder.end(b_outer)
    assert a_outer.duration == 3.0
    assert a_inner.duration == 1.0
    assert recorder.children_of(b_outer) == [b_inner]


def test_non_lifo_end_closes_open_descendants(recorder, clock):
    outer = recorder.begin("outer", node="n")
    inner = recorder.begin("inner", node="n")
    leaf = recorder.begin("leaf", node="n")
    clock.advance(2.0)
    recorder.end(outer)  # inner and leaf are still open
    assert not inner.is_open and not leaf.is_open
    assert inner.end == leaf.end == outer.end == 2.0
    # The stack is clean: a new span is not parented to dead spans.
    fresh = recorder.begin("fresh", node="n")
    assert recorder.parent_of(fresh) is None


def test_end_is_idempotent_and_merges_attrs(recorder, clock):
    span = recorder.begin("s", node="n", epoch=3)
    clock.advance(1.0)
    recorder.end(span, committed=True)
    clock.advance(5.0)
    recorder.end(span)  # no effect on the timestamp
    assert span.end == 1.0
    assert span.attrs == {"epoch": 3, "committed": True}


def test_attach_false_keeps_span_off_the_stack(recorder, clock):
    base = recorder.begin("base", node="n")
    wait = recorder.begin("wait", node="n", attach=False, parent=base)
    other = recorder.begin("other", node="n")
    # ``other`` nests under base, not under the detached wait span.
    assert recorder.parent_of(wait) is base
    assert recorder.parent_of(other) is base
    recorder.end(wait)
    recorder.end(base)


def test_instant_parents_to_the_stack_top(recorder, clock):
    recorder.instant("lonely", node="n")
    outer = recorder.begin("outer", node="n")
    mark = recorder.instant("mark", node="n", seq=7)
    assert recorder.parent_of(mark) is outer
    assert mark.kind == INSTANT
    assert mark.end == mark.start and mark.duration == 0.0
    assert recorder.query("lonely")[0].parent_id is None


def test_effective_attr_inherits_and_query_matches_ancestors(
        recorder, clock):
    outer = recorder.begin("agent.local", node="n", epoch=4)
    inner = recorder.begin("zap.serialize", node="n")
    clock.advance(1.0)
    recorder.end(inner)
    recorder.end(outer)
    assert recorder.effective_attr(inner, "epoch") == 4
    assert recorder.effective_attr(inner, "missing", -1) == -1
    assert recorder.query("zap.serialize", epoch=4) == [inner]
    assert recorder.query("zap.serialize", epoch=5) == []
    assert recorder.query(node="n", epoch=4) == [outer, inner]


def test_one_requires_a_unique_match(recorder, clock):
    recorder.begin("dup", node="n", epoch=1)
    recorder.begin("dup", node="n", epoch=1)
    with pytest.raises(LookupError):
        recorder.one("dup", epoch=1)
    with pytest.raises(LookupError):
        recorder.one("absent")


def test_disabled_recorder_hands_back_usable_spans(clock):
    recorder = SpanRecorder(clock=clock, enabled=False)
    span = recorder.begin("s", node="n")
    clock.advance(2.0)
    recorder.end(span)
    assert span.duration == 2.0  # measurable...
    assert recorder.spans == []  # ...but not retained
    assert recorder.query("s") == []
    assert recorder.to_chrome()["traceEvents"] == []


# -- exporters -------------------------------------------------------------


def test_chrome_export_round_trips_through_json(recorder, clock):
    outer = recorder.begin("round", node="node0", epoch=1)
    clock.advance(0.5)
    recorder.instant("tcp.retransmit", node="node0", seq=9)
    inner = recorder.begin("coord.request", node="node0")
    clock.advance(0.25)
    recorder.end(inner)
    recorder.end(outer)

    blob = json.dumps(recorder.to_chrome())
    doc = json.loads(blob)
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) == 2 and len(instants) == 1 and len(meta) == 1
    assert meta[0]["args"]["name"] == "node0"

    by_name = {e["name"]: e for e in complete}
    assert by_name["round"]["dur"] == pytest.approx(0.75e6)
    assert by_name["coord.request"]["ts"] == pytest.approx(0.5e6)
    assert by_name["round"]["cat"] == "round"
    assert by_name["coord.request"]["cat"] == "coord"
    # The hierarchy survives the flat format via args.
    assert by_name["coord.request"]["args"]["parent_id"] == \
        by_name["round"]["args"]["span_id"]


def test_summary_rows_aggregate_per_name(recorder, clock):
    for duration in (1.0, 3.0):
        span = recorder.begin("work", node="n")
        clock.advance(duration)
        recorder.end(span)
    open_span = recorder.begin("open", node="n")
    rows = recorder.summary_rows()
    assert [r["span"] for r in rows] == ["work"]  # open spans excluded
    assert rows[0]["count"] == 2
    assert rows[0]["total_s"] == 4.0
    assert rows[0]["mean_s"] == 2.0
    assert rows[0]["max_s"] == 3.0
    recorder.end(open_span)


def test_union_coverage_merges_overlaps():
    assert union_coverage([(0.0, 1.0)], 0.0, 2.0) == 0.5
    assert union_coverage([(0.0, 1.5), (1.0, 2.0)], 0.0, 2.0) == 1.0
    assert union_coverage([(-5.0, 0.5), (1.5, 9.0)], 0.0, 2.0) == 0.5
    assert union_coverage([], 0.0, 2.0) == 0.0
    assert union_coverage([(0.0, 1.0)], 1.0, 1.0) == 0.0


# -- typed metrics ---------------------------------------------------------


def test_counter_accumulates_and_rejects_decrease():
    counter = CounterMetric("c")
    counter.inc()
    counter.inc(2, label="a")
    counter.inc(3, label="b")
    assert counter.value == 6
    assert counter.labelled("a") == 2
    assert counter.labelled("missing") == 0
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_moves_both_ways():
    gauge = GaugeMetric("g")
    gauge.set(5)
    gauge.add(-2)
    assert gauge.value == 3


def test_histogram_nearest_rank_percentiles():
    hist = HistogramMetric("h")
    for value in range(1, 101):  # 1..100
        hist.observe(float(value))
    assert hist.count == 100
    assert hist.mean == pytest.approx(50.5)
    assert hist.percentile(50) == 50.0
    assert hist.percentile(99) == 99.0
    assert hist.percentile(100) == 100.0
    assert hist.percentile(0.5) == 1.0  # rank clamps to the first sample
    with pytest.raises(ValueError):
        hist.percentile(0)
    with pytest.raises(ValueError):
        hist.percentile(101)
    assert HistogramMetric("empty").percentile(50) == 0.0


def test_registry_is_get_or_create_and_type_checked():
    registry = MetricsRegistry()
    counter = registry.counter("x")
    assert registry.counter("x") is counter
    with pytest.raises(TypeError):
        registry.gauge("x")
    registry.gauge("depth").set(4)
    registry.histogram("lat").observe(0.5)
    snap = registry.snapshot()
    assert snap["x"]["type"] == "counter"
    assert snap["depth"] == {"type": "gauge", "value": 4}
    assert snap["lat"]["count"] == 1 and snap["lat"]["p50"] == 0.5
    assert registry.names() == ["depth", "lat", "x"]


def test_disabled_trace_still_counts_but_retains_nothing():
    trace = Trace(enabled=False)
    trace.metrics.counter("msg").inc()
    trace.metrics.counter("msg").inc()
    trace.spans.instant("app.log", node="n0", nbytes=10)
    assert trace.metrics.counter("msg").value == 2
    assert trace.spans.spans == []
    assert trace.spans.enabled is False


# -- instrumented cluster runs ---------------------------------------------


def checkpointed_cluster(n_nodes=2):
    cluster = make_cluster(n_nodes)
    app = ring_app(cluster, n_nodes, max_token=100000)
    for pod in app.pods:
        pod.processes()[0].memory.allocate("grid", 8 << 20)
    cluster.run_for(0.2)
    stats = cluster.checkpoint_app(app)
    assert stats.committed
    return cluster, app, stats


def test_round_spans_cover_the_latency_window():
    cluster, _, stats = checkpointed_cluster()
    coverage = round_coverage(cluster.spans, stats.epoch)
    assert coverage >= 0.95
    # And the umbrella round span brackets the whole protocol.
    round_span = cluster.spans.one("round", epoch=stats.epoch)
    assert round_span.duration >= stats.latency_s


def test_round_stats_carry_the_phase_breakdown():
    cluster, _, stats = checkpointed_cluster()
    phases = stats.phase_s
    assert phases == round_phases(cluster.spans, stats.epoch)
    for name in ("coord.request", "coord.wait_done", "agent.local",
                 "agent.pod_pause", "zap.serialize"):
        assert name in phases, name
    # The local phase is the critical path of the round's latency.
    assert phases["agent.local"] == stats.max_local_op_s
    assert phases["coord.wait_done"] <= stats.latency_s


@pytest.mark.parametrize("optimized, waits, never", [
    (False, "coord.wait_continue_done", "coord.wait_comm_disabled"),
    (True, "coord.wait_comm_disabled", "coord.wait_continue_done"),
], ids=["fig2", "fig4"])
def test_a_round_waits_in_one_span_per_reply_kind(optimized, waits, never):
    """A round's two waits are named for the replies it collects, and
    Fig. 5a's latency ends where ``coord.wait_done`` does, bit for bit,
    whichever step collects DONE."""
    cluster = make_cluster(2)
    app = ring_app(cluster, 2, max_token=100000)
    cluster.run_for(0.2)
    stats = cluster.checkpoint_app(app, optimized=optimized)
    assert stats.committed
    assert "coord.wait_done" in stats.phase_s
    assert waits in stats.phase_s
    assert never not in stats.phase_s
    round_span = cluster.spans.one("round", epoch=stats.epoch)
    done = cluster.spans.one("coord.wait_done", epoch=stats.epoch)
    assert done.end - round_span.start == stats.latency_s


def test_store_metrics_accumulate_per_mode():
    cluster, app, _ = checkpointed_cluster()
    saves = cluster.metrics.counter("store.saves")
    assert saves.value >= 2  # one save per pod
    assert cluster.metrics.counter("store.bytes_written").value > 0
    assert cluster.metrics.histogram("store.save_write_bytes").count >= 2
    cluster.run_for(0.1)
    before = saves.value
    cluster.checkpoint_app(app)
    assert saves.value > before


def test_run_until_stops_at_the_triggering_event():
    """The event-aware run_until notices the predicate right after the
    event batch that made it true, without overshooting by step."""
    cluster = make_cluster(2)
    fired = []
    cluster.sim.call_later(0.05, lambda: fired.append(cluster.sim.now))
    cluster.run_until(lambda: bool(fired), limit=10.0, step=5.0)
    assert fired == [0.05]
    # A full coarse step past the event would put now at >= 5.0.
    assert cluster.sim.now < 1.0


def test_run_until_falls_back_to_step_on_an_empty_queue():
    cluster = make_cluster(2)
    target = cluster.sim.now + 1.0
    # Drain all pending activity first so the queue can go quiet.
    cluster.run_until(lambda: cluster.sim.now >= target, limit=30.0,
                      step=0.25)
    assert cluster.sim.now >= target
    with pytest.raises(TimeoutError):
        cluster.run_until(lambda: False, limit=cluster.sim.now + 0.5,
                          step=0.25)


# -- the figures, rebuilt on spans, stay bit-identical ---------------------


def test_fig5_span_numbers_match_roundstats_bit_for_bit():
    """The span-derived Fig. 5 statistics equal the coordinator's own
    RoundStats bookkeeping exactly — recording changes nothing."""
    from repro.bench.fig5 import run_fig5
    from repro.bench.harness import Stat

    points = run_fig5(node_counts=(2,), rounds=2)
    (point,) = points
    assert len(point.rounds) == 2
    expect_latency = Stat.of([r.latency_s for r in point.rounds])
    expect_local = Stat.of([r.max_local_op_s for r in point.rounds])
    expect_overhead = Stat.of([r.latency_s - r.max_local_op_s
                               for r in point.rounds])
    assert point.latency == expect_latency
    assert point.local_save == expect_local
    assert point.overhead == expect_overhead
    assert point.restart_round is not None
    assert point.restart_latency == \
        Stat.of([point.restart_round.latency_s])

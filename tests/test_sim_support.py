"""Tests for random streams and trace recording."""

from repro.sim.rand import RandomStreams
from repro.sim.trace import Trace


def test_streams_are_deterministic():
    a = RandomStreams(7).stream("tcp").random()
    b = RandomStreams(7).stream("tcp").random()
    assert a == b


def test_streams_are_independent():
    streams = RandomStreams(7)
    first = streams.stream("a").random()
    # Drawing from another stream must not perturb "a".
    streams2 = RandomStreams(7)
    streams2.stream("b").random()
    assert streams2.stream("a").random() == first


def test_fork_differs_from_parent():
    parent = RandomStreams(7)
    child = parent.fork("node0")
    assert child.stream("x").random() != parent.stream("x").random()


def test_trace_select_and_series():
    trace = Trace()
    trace.emit(1.0, "rx", node="n1", nbytes=100)
    trace.emit(2.0, "rx", node="n2", nbytes=50)
    trace.emit(3.0, "rx", node="n1", nbytes=200)
    assert trace.count("rx") == 3
    assert trace.series("rx", "nbytes", node="n1") == [(1.0, 100.0),
                                                       (3.0, 200.0)]


def test_trace_counts_when_disabled():
    trace = Trace(enabled=False)
    trace.emit(1.0, "rx", nbytes=1)
    assert trace.count("rx") == 1
    assert trace.records == []


def test_sliding_rate_window():
    trace = Trace()
    # 100 bytes at t=0.995 and t=1.0; window (0.99, 1.0] catches both.
    trace.emit(0.995, "rx", node="r", nbytes=100)
    trace.emit(1.0, "rx", node="r", nbytes=100)
    points = trace.sliding_rate("rx", "nbytes", window=0.01,
                                t_start=1.0, t_end=1.0, step=0.01, node="r")
    assert points == [(1.0, 20000.0)]


def test_counter_labels():
    counter = Trace().metrics.counter("msgs")
    counter.inc(label="checkpoint")
    counter.inc(2, label="done")
    assert counter.value == 3
    assert counter.by_label == {"checkpoint": 1, "done": 2}

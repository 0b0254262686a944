"""Tests for random streams, the telemetry hub and the Fig. 6 window."""

from repro.bench.fig6 import sliding_rate
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


def test_trace_counts_when_disabled():
    trace = Trace(enabled=False)
    trace.metrics.counter("control.messages").inc(label="cruz")
    assert trace.metrics.counter("control.messages").labelled("cruz") == 1


def test_sliding_rate_window():
    # 100 bytes at t=0.995 and t=1.0; window (0.99, 1.0] catches both.
    received = [(0.995, 100.0), (1.0, 100.0)]
    assert sliding_rate(received, window=0.01, t_start=1.0, t_end=1.0,
                        step=0.01) == [(1.0, 20000.0)]
    # The window is open below and closed above: 0.75 is outside
    # (0.75, 1.0], 1.0 inside.
    assert sliding_rate([(0.75, 7.0), (1.0, 1.0)], window=0.25,
                        t_start=1.0, t_end=1.0, step=1.0) == [(1.0, 4.0)]
    # One sample per step, t_end included; each sees only its own window.
    assert sliding_rate([(1.0, 2.0), (3.0, 4.0)], window=1.0,
                        t_start=1.0, t_end=3.0, step=1.0) == [
        (1.0, 2.0), (2.0, 0.0), (3.0, 4.0)]


def test_counter_labels():
    counter = Trace().metrics.counter("msgs")
    counter.inc(label="checkpoint")
    counter.inc(2, label="done")
    assert counter.value == 3
    assert counter.by_label == {"checkpoint": 1, "done": 2}

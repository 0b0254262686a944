"""Tests for random streams, the telemetry hub and the Fig. 6 window."""

import random

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


def sliding_rate_by_rescanning(points, window, t_start, t_end, step):
    """``sliding_rate`` as it was: every point tested for every sample."""
    out = []
    t = t_start
    while t <= t_end + 1e-12:
        total = 0.0
        for when, value in points:
            if t - window < when <= t:
                total += value
        out.append((t, total / window))
        t += step
    return out


def test_sliding_rate_equals_the_rescanning_loop_bit_for_bit():
    rng = random.Random(6)
    for _ in range(20):
        # Time-ordered as the span recorder yields them, with ties and
        # with values whose sum depends on the order of additions.
        times = sorted(rng.choice((rng.uniform(0.0, 2.0),
                                   round(rng.uniform(0.0, 2.0), 2)))
                       for _ in range(rng.randint(0, 400)))
        points = [(when, rng.uniform(0.1, 1500.0) * 10 ** rng.randint(-3, 6))
                  for when in times]
        window = rng.choice((0.01, 0.05, 0.3))
        args = (window, rng.uniform(-0.1, 0.5), rng.uniform(0.5, 2.2),
                rng.choice((0.002, 0.01, 0.13)))
        assert sliding_rate(points, *args) == \
            sliding_rate_by_rescanning(points, *args)
        # Byte counts (whole numbers) add up the same in any order.
        counts = [(when, float(rng.randint(1, 1460))) for when in times]
        rng.shuffle(counts)
        assert sliding_rate(counts, *args) == \
            sliding_rate_by_rescanning(counts, *args)


def test_counter_labels():
    counter = Trace().metrics.counter("msgs")
    counter.inc(label="checkpoint")
    counter.inc(2, label="done")
    assert counter.value == 3
    assert counter.by_label == {"checkpoint": 1, "done": 2}

"""Deterministic discrete-event simulation kernel."""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    NORMAL,
    SimProcess,
    Simulator,
    Timeout,
    URGENT,
)
from repro.sim.rand import RandomStreams
from repro.sim.spans import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    MetricsRegistry,
    Span,
    SpanRecorder,
    round_coverage,
    round_phases,
    union_coverage,
)
from repro.sim.trace import Trace

__all__ = [
    "AllOf",
    "AnyOf",
    "CounterMetric",
    "Event",
    "GaugeMetric",
    "HistogramMetric",
    "Interrupt",
    "MetricsRegistry",
    "NORMAL",
    "RandomStreams",
    "SimProcess",
    "Simulator",
    "Span",
    "SpanRecorder",
    "Timeout",
    "Trace",
    "URGENT",
    "round_coverage",
    "round_phases",
    "union_coverage",
]

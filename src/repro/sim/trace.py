"""Structured event tracing, spans, and typed metrics.

The benchmark harnesses reconstruct the paper's figures from telemetry:
Fig 6 is a sliding-window rate computed over ``bytes-delivered`` records,
while Fig 4/5 phase timings come from the span recorder (``Trace.spans``,
see :mod:`repro.sim.spans`). Category counts are backed by the typed
metrics registry (``Trace.metrics``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.sim.spans import MetricsRegistry, SpanRecorder


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: what happened, where, when."""

    time: float
    category: str
    node: str
    detail: Dict[str, Any]


class Trace:
    """An append-only trace with category filters and windowed aggregation.

    A ``Trace`` is the per-cluster telemetry hub: flat records (this
    class), nested spans (``self.spans``) and typed metrics
    (``self.metrics``). ``enabled`` gates record/span *retention* only —
    metric counts always accumulate, so message accounting works even in
    traceless benchmark runs.
    """

    def __init__(self, enabled: bool = True,
                 clock: Optional[Callable[[], float]] = None):
        self.enabled = enabled
        self.records: List[TraceRecord] = []
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(clock=clock, enabled=enabled)
        #: Optional :class:`repro.analysis.sanitize.Sanitizer`. The
        #: runtime hooks (TCP input, chunk store, coordinator, agents,
        #: kernel) check this slot and stay silent while it is None.
        self.sanitizer = None
        self._emits = self.metrics.counter("trace.emits")

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Bind span timestamps to a time source (the simulator clock)."""
        self.spans.attach_clock(clock)

    def emit(self, time: float, category: str, node: str = "",
             **detail: Any) -> None:
        self._emits.inc(label=category)
        if self.enabled:
            self.records.append(TraceRecord(time, category, node, detail))

    def count(self, category: str) -> int:
        """Total emissions of ``category`` (counted even when disabled)."""
        return int(self._emits.labelled(category))

    def select(self, category: str,
               node: Optional[str] = None) -> Iterator[TraceRecord]:
        for record in self.records:
            if record.category != category:
                continue
            if node is not None and record.node != node:
                continue
            yield record

    def series(self, category: str, value_key: str,
               node: Optional[str] = None) -> List[Tuple[float, float]]:
        """Extract ``(time, detail[value_key])`` pairs for a category."""
        return [(r.time, float(r.detail[value_key]))
                for r in self.select(category, node)]

    def sliding_rate(self, category: str, value_key: str, window: float,
                     t_start: float, t_end: float, step: float,
                     node: Optional[str] = None) -> List[Tuple[float, float]]:
        """Average rate (units/second) over a trailing window.

        This mirrors the paper's Fig 6 methodology: "the average rate
        measured in the receiver during a sliding window of 10 ms duration
        previous to the corresponding point".
        """
        points = self.series(category, value_key, node)
        out: List[Tuple[float, float]] = []
        t = t_start
        while t <= t_end + 1e-12:
            total = 0.0
            for when, value in points:
                if t - window < when <= t:
                    total += value
            out.append((t, total / window))
            t += step
        return out

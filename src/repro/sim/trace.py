"""The per-cluster telemetry hub: spans and typed metrics.

The benchmark harnesses reconstruct the paper's figures from telemetry:
Fig 4/5 phase timings and Fig 6's receive rate (``app.log`` instants)
come from the span recorder (``Trace.spans``, see
:mod:`repro.sim.spans`); message and byte counts from the typed metrics
registry (``Trace.metrics``).
"""

from __future__ import annotations

from typing import Callable

from repro.sim.spans import MetricsRegistry, SpanRecorder


class Trace:
    """Spans (``self.spans``) and typed metrics (``self.metrics``).

    ``enabled`` gates span *retention* only — metric counts always
    accumulate, so message accounting works even in traceless benchmark
    runs.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.spans = SpanRecorder(enabled=enabled)
        #: Optional :class:`repro.analysis.sanitize.Sanitizer`. The
        #: runtime hooks (TCP input, chunk store, coordinator, agents,
        #: kernel) check this slot and stay silent while it is None.
        self.sanitizer = None

    def attach_clock(self, clock: Callable[[], float]) -> None:
        """Bind span timestamps to a time source (the simulator clock)."""
        self.spans.attach_clock(clock)

"""Client-side SLO accounting: per-request latency percentiles and
error/shed/retry counters, windowed across disruption events.

Every quantity here is measured at the *client* — the only vantage point
the SLO claim is about. The harness feeds each finished
:class:`~repro.apps.kvserver.KvSessionClient`'s samples into a
:class:`SloRecorder`, tags the disruption windows it drove (checkpoint
rounds, failover, migration, canary), and :meth:`SloRecorder.report`
answers the question ISSUE 10 asks: what did p50/p99 and the
error/shed/retry counts look like overall *and inside each disruption*?

Percentiles use the nearest-rank method (same convention as
:class:`repro.sim.spans.HistogramMetric`), so a window's p99 is an actual
observed latency, not an interpolation artifact.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

#: Client counters mirrored into the shared MetricsRegistry.
_CLIENT_COUNTERS = ("responses_ok", "errors", "sheds", "retries",
                    "reconnects", "deadline_misses")


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile; NaN on an empty sample."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


class SloRecorder:
    """Accumulates per-request samples and disruption windows.

    Samples are dicts of ``{"start", "end", "op", "status", "attempts"}``
    (simulated seconds; status ``ok``/``error``/``shed``) as produced by
    :class:`~repro.apps.kvserver.KvSessionClient`. A request belongs to a
    window when its ``[start, end]`` span overlaps the window's — a
    request *stalled by* a failover counts against the failover window
    even though it was issued before the crash.

    When a :class:`~repro.sim.spans.MetricsRegistry` is supplied, the
    aggregate view is mirrored into ``serve.latency`` (histogram),
    ``serve.requests`` (counter labelled by status), and one
    ``serve.<counter>`` counter per client-side tally, so ``repro spans``
    tooling sees serving traffic like any other subsystem.
    """

    def __init__(self, metrics=None):
        self.metrics = metrics
        self.samples: List[Dict[str, Any]] = []
        self.windows: List[Dict[str, Any]] = []
        self.counters: Dict[str, int] = {
            name: 0 for name in _CLIENT_COUNTERS}
        self.clients = 0

    # -- ingestion -----------------------------------------------------------

    def add_window(self, name: str, start: float, end: float) -> None:
        """Tag one disruption window ``[start, end]`` in simulated time."""
        self.windows.append({"name": name, "start": start, "end": end})

    def ingest_client(self, client_id: int, program) -> None:
        """Absorb one finished session client's samples and counters."""
        self.clients += 1
        for sample in program.samples:
            record = dict(sample)
            record["client"] = client_id
            self.samples.append(record)
            if self.metrics is not None:
                latency = record["end"] - record["start"]
                self.metrics.histogram("serve.latency").observe(latency)
                self.metrics.counter("serve.requests").inc(
                    label=record["status"])
        for name in _CLIENT_COUNTERS:
            amount = getattr(program, name, 0)
            self.counters[name] += amount
            if self.metrics is not None and amount:
                self.metrics.counter(f"serve.{name}").inc(amount)

    # -- reporting -----------------------------------------------------------

    @staticmethod
    def _summary(samples: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
        latencies = [s["end"] - s["start"] for s in samples]
        statuses: Dict[str, int] = {}
        for sample in samples:
            statuses[sample["status"]] = \
                statuses.get(sample["status"], 0) + 1
        extra_attempts = sum(s["attempts"] - 1 for s in samples)
        # None (not NaN) for empty windows: the report must stay valid
        # strict JSON for --json pipelines and the committed baseline.
        return {
            "requests": len(samples),
            "p50_s": percentile(latencies, 50) if latencies else None,
            "p99_s": percentile(latencies, 99) if latencies else None,
            "max_s": max(latencies) if latencies else None,
            "by_status": statuses,
            "extra_attempts": extra_attempts,
        }

    def window_samples(self, window: Dict[str, Any]
                       ) -> List[Dict[str, Any]]:
        return [s for s in self.samples
                if s["start"] <= window["end"]
                and s["end"] >= window["start"]]

    def report(self) -> Dict[str, Any]:
        """Overall + per-window percentile/status summary (plain dicts)."""
        overall = self._summary(self.samples)
        windows = []
        for window in self.windows:
            summary = self._summary(self.window_samples(window))
            summary["window"] = window["name"]
            summary["start"] = window["start"]
            summary["end"] = window["end"]
            windows.append(summary)
        return {
            "clients": self.clients,
            "overall": overall,
            "windows": windows,
            "counters": dict(self.counters),
        }

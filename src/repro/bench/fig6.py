"""Fig. 6 harness: TCP stream rate through a checkpoint (the paper's
setup and the behaviour it reports are ``FIGURE.paper`` below)."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from repro.apps.tcpstream import stream_factory
from repro.bench.fig5 import round_span_metrics
from repro.bench.harness import Figure, ShapeReport
from repro.cruz.cluster import CruzCluster
from repro.cruz.protocol import RoundStats


@dataclass
class Fig6Result:
    """The rate timeline and derived landmark timings."""

    #: (time_since_checkpoint_start_s, rate_bits_per_s) samples.
    series: List[Tuple[float, float]] = field(default_factory=list)
    pre_checkpoint_rate_bps: float = 0.0
    checkpoint_duration_s: float = 0.0
    #: First instant after the checkpoint started with zero delivery.
    stall_start_s: float = 0.0
    #: The post-resume receiver drain pulse (None if not observed).
    pulse_time_s: float = -1.0
    #: When the stream is back above half its original rate for good.
    recovery_time_s: float = 0.0
    #: Raw coordinator stats for the round (for cross-checks).
    round: Optional[RoundStats] = None
    #: Times (relative to checkpoint start) of TCP retransmissions the
    #: recovery depends on, from the ``tcp.retransmit`` span instants.
    retransmit_times_s: List[float] = field(default_factory=list)
    #: Bytes the receiver drained at unfreeze (``tcp.drain`` instants).
    drain_bytes: int = 0

    @property
    def outage_after_checkpoint_s(self) -> float:
        """Quiet period between checkpoint completion and recovery."""
        return self.recovery_time_s - self.checkpoint_duration_s


def sliding_rate(points: Sequence[Tuple[float, float]], window: float,
                 t_start: float, t_end: float, step: float
                 ) -> List[Tuple[float, float]]:
    """Average rate (units/second) of ``(time, value)`` points over a
    trailing window, sampled every ``step``.

    The paper's Fig 6 methodology: "the average rate measured in the
    receiver during a sliding window of 10 ms duration previous to the
    corresponding point".

    Each window is one slice of the time-ordered points (ties keep
    their input order), added up front to back.
    """
    ordered = sorted(points, key=itemgetter(0))
    times = [when for when, _value in ordered]
    out: List[Tuple[float, float]] = []
    t = t_start
    while t <= t_end + 1e-12:
        total = 0.0
        for _when, value in ordered[bisect_right(times, t - window):
                                    bisect_right(times, t)]:
            total += value
        out.append((t, total / window))
        t += step
    return out


def run_fig6(window_s: float = 0.010,
             sample_step_s: float = 0.002,
             warmup_s: float = 0.5,
             follow_s: float = 1.0,
             memory_mb: float = 8.0,
             optimized: bool = False,
             early_network: bool = False) -> Fig6Result:
    """Run the streaming benchmark and checkpoint it mid-stream.

    ``optimized``/``early_network`` select the §5.2 protocol variants so
    their effect on the outage can be measured (the paper proposes
    early re-enable precisely to shrink the TCP backoff window).
    """
    cluster = CruzCluster(2, trace_enabled=True)
    app = cluster.launch_app_factory(
        "stream", 2, stream_factory(total_bytes=1 << 62))
    # Give the pods a little state so the checkpoint takes visible time.
    for pod in app.pods:
        pod.processes()[0].memory.allocate(
            "state", int(memory_mb * (1 << 20)))
    cluster.run_for(warmup_s)

    t0 = cluster.sim.now
    stats = cluster.checkpoint_app(app, optimized=optimized,
                                   early_network=early_network)
    cluster.run_for(follow_s)

    # The checkpoint duration comes off the span timeline: round start to
    # the end of the coordinator's wait-for-<done> phase — the same
    # instants RoundStats.latency_s samples.
    spans = cluster.spans
    received = [(span.start, float(span.attrs["nbytes"]))
                for span in spans.query("app.log",
                                        node=app.pods[0].node.name)]
    series = sliding_rate(
        received, window=window_s,
        t_start=t0 - 0.05, t_end=t0 + follow_s - 2 * window_s,
        step=sample_step_s)
    checkpoint_duration_s, _, _ = round_span_metrics(spans, stats)
    result = Fig6Result(
        series=[(t - t0, rate * 8) for t, rate in series],
        checkpoint_duration_s=checkpoint_duration_s,
        round=stats,
        retransmit_times_s=[
            s.start - t0 for s in spans.query("tcp.retransmit")
            if s.start >= t0],
        drain_bytes=sum(
            s.attrs.get("nbytes", 0) for s in spans.query("tcp.drain")
            if s.start >= t0))

    pre = [rate for t, rate in result.series if t < 0]
    result.pre_checkpoint_rate_bps = max(pre) if pre else 0.0
    threshold = result.pre_checkpoint_rate_bps / 2

    for t, rate in result.series:
        if t >= 0 and rate == 0.0:
            result.stall_start_s = t
            break
    # The drain pulse: the first nonzero sample after checkpoint
    # completion (the receiver consuming data that arrived before it).
    for t, rate in result.series:
        if t <= result.checkpoint_duration_s:
            continue
        if rate > 0 and result.pulse_time_s < 0:
            result.pulse_time_s = t
            break
    # Recovery: the last time the rate crossed up through the threshold.
    recovery = 0.0
    for (t1, r1), (t2, r2) in zip(result.series, result.series[1:]):
        if r1 < threshold <= r2 and t2 > result.checkpoint_duration_s:
            recovery = t2
    result.recovery_time_s = recovery
    return result


def fig6_shape_report(result: Fig6Result) -> ShapeReport:
    """The paper's qualitative Fig. 6 claims as a shape report."""
    report = ShapeReport("Fig. 6 shape")
    report.check("rate_drops_to_zero",
                 any(rate == 0.0 for t, rate in result.series if t > 0),
                 expect="delivery stalls during the checkpoint")
    report.check("checkpoint_is_100ms_scale",
                 0.02 < result.checkpoint_duration_s < 0.5,
                 value=result.checkpoint_duration_s,
                 expect="20 ms < duration < 500 ms")
    report.check("drain_pulse_after_resume",
                 result.pulse_time_s >= result.checkpoint_duration_s,
                 value=result.pulse_time_s,
                 expect="receiver drain pulse after completion")
    report.check("recovery_within_rto_scale",
                 0.0 < result.outage_after_checkpoint_s < 0.35,
                 value=result.outage_after_checkpoint_s,
                 expect="outage < 350 ms (TCP backoff scale)")
    report.check("rate_restored",
                 bool(result.series) and max(
                     rate for t, rate in result.series
                     if t > result.recovery_time_s) >
                 result.pre_checkpoint_rate_bps * 0.6,
                 expect="stream returns to >60% of its old rate")
    return report


def _render(result: Fig6Result) -> List[str]:
    return [
        f"steady rate        : "
        f"{result.pre_checkpoint_rate_bps/1e6:.1f} Mb/s",
        f"checkpoint duration: "
        f"{result.checkpoint_duration_s*1000:.1f} ms",
        f"drain pulse at     : {result.pulse_time_s*1000:.1f} ms",
        f"recovery at        : {result.recovery_time_s*1000:.1f} ms",
        f"retransmissions    : {len(result.retransmit_times_s)}",
    ]


FIGURE = Figure(
    name="fig6", help="TCP stream through a checkpoint",
    section="Fig. 6 — TCP stream rate through a checkpoint",
    paper="""\
Paper, Fig. 6: a two-node maximum-rate TCP stream, checkpoint at t = 0.
The receive rate drops to zero when communication is disabled; the
checkpoint completes after ≈ 120 ms; a short pulse follows as the
receiver consumes data that arrived before the checkpoint; the sender
stays quiet until TCP retransmission recovers from the packets the
filter dropped, ≈ 100 ms after completion; normal rate thereafter.

Here: the same stream over simulated gigabit Ethernet with 8 MB of
state per pod, the rate taken as the paper takes it (a 10 ms sliding
window at the receiver). The event sequence is the paper's; the
recovery gap is set by TCP's minimum retransmission timeout (200 ms,
as in Linux) counted from the last transmission before the filter
went up, so it moves with the checkpoint's duration.""",
    run=lambda args: run_fig6(), shape=fig6_shape_report,
    render=_render, payload=lambda result: {"result": result})

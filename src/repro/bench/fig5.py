"""Fig. 5 harness: checkpoint latency, coordination overhead and restart
latency vs nodes (the paper's setup and numbers are ``FIGURE.paper``
below), and the §7 scalability sentence, which is the same measurement
carried to 32 nodes and projected (``SCALABILITY``)."""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.apps.slm import run_slm_rounds
from repro.bench.harness import (Figure, ShapeReport, Stat, at_least,
                                 render_table)
from repro.cruz.cluster import CruzCluster
from repro.cruz.protocol import RoundStats
from repro.sim.spans import SpanRecorder

#: Per-rank state, so the local save is ~1 s at 100 MB/s.
MEMORY_MB_PER_RANK = 100.0
CHECKPOINT_INTERVAL_S = 2.0


@dataclass
class Fig5Point:
    """One node-count's measurements across several checkpoint rounds."""

    n_nodes: int
    latency: Stat            # seconds (Fig. 5a)
    overhead: Stat           # seconds (Fig. 5b)
    local_save: Stat         # seconds (the disk-bound component)
    restart_latency: Stat    # seconds (§6: "similar", figure omitted)
    messages_per_round: float
    #: The raw per-round coordinator stats the Stats above derive from —
    #: kept so regression tests can cross-check the span-derived numbers
    #: against the RoundStats bookkeeping.
    rounds: List[RoundStats] = field(default_factory=list)
    restart_round: Optional[RoundStats] = None


def round_span_metrics(spans: SpanRecorder,
                       stats: RoundStats) -> Tuple[float, float, float]:
    """(latency, overhead, local) of one round, from the span timeline.

    The Fig. 5a latency is the ``round`` span's start to the end of the
    coordinator's ``coord.wait_done`` phase; the local component is the
    slowest node's ``agent.local`` span; overhead is the difference —
    exactly the quantities ``RoundStats`` reports, reconstructed from the
    timeline (the spans open/close at the same simulation instants the
    coordinator samples its clock, so the floats are identical).
    """
    round_span = spans.one("round", epoch=stats.epoch)
    done = spans.one("coord.wait_done", epoch=stats.epoch)
    latency = done.end - round_span.start
    locals_ = [s.duration
               for s in spans.query("agent.local", epoch=stats.epoch)]
    local = max(locals_) if locals_ else 0.0
    return latency, latency - local, local


def run_fig5(node_counts: Sequence[int] = (2, 4, 6, 8),
             rounds: int = 5) -> List[Fig5Point]:
    """Measure checkpoint and restart rounds for each node count."""
    points = []
    for n_nodes in node_counts:
        # The previous node count's cluster is cyclic garbage by now,
        # and building the next may not trigger the full collection
        # that frees it: free it here, so peak memory is one cluster's.
        cluster = app = spans = None
        gc.collect()
        cluster = CruzCluster(n_nodes, trace_enabled=True)
        app, checkpoint_rounds = run_slm_rounds(
            cluster, n_nodes, MEMORY_MB_PER_RANK, rounds=rounds,
            interval_s=CHECKPOINT_INTERVAL_S)
        # Control messages flow only inside rounds, so the cluster-wide
        # count so far is the checkpoint rounds' total.
        round_messages = cluster.coordination_message_count()
        # Restart measurement: crash and restart from the last image.
        cluster.crash_app(app)
        restart_stats = cluster.restart_app(app)
        # Derive the figure's numbers from the span timeline rather than
        # the coordinator's private bookkeeping.
        spans = cluster.spans
        measured = [round_span_metrics(spans, r)
                    for r in checkpoint_rounds]
        restart_latency, _, _ = round_span_metrics(spans, restart_stats)
        points.append(Fig5Point(
            n_nodes=n_nodes,
            latency=Stat.of([latency for latency, _, _ in measured]),
            overhead=Stat.of([overhead for _, overhead, _ in measured]),
            local_save=Stat.of([local for _, _, local in measured]),
            restart_latency=Stat.of([restart_latency]),
            messages_per_round=round_messages / rounds,
            rounds=checkpoint_rounds,
            restart_round=restart_stats))
    return points


def fig5_shape_report(points: List[Fig5Point]) -> ShapeReport:
    """The paper's qualitative claims as a checkable shape report."""
    latencies = [p.latency.mean for p in points]
    overheads = [p.overhead.mean for p in points]
    report = ShapeReport("Fig. 5 shape")
    # 5(a): latency is ~constant (disk-bound), around a second.
    report.check("latency_flat",
                 max(latencies) < 1.3 * min(latencies),
                 value=max(latencies) / min(latencies),
                 expect="max/min < 1.3 across node counts")
    report.check("latency_is_seconds_scale",
                 all(0.3 < v < 3.0 for v in latencies),
                 value=latencies, expect="0.3 s < latency < 3 s")
    # 5(a): latency is dominated by the local save.
    report.check("save_dominates",
                 all(p.local_save.mean > 0.95 * p.latency.mean
                     for p in points),
                 value=min(p.local_save.mean / p.latency.mean
                           for p in points),
                 expect="local save > 95% of latency")
    # 5(b): overhead is microseconds, far below the latency.
    report.check("overhead_microseconds",
                 all(1e-5 < v < 5e-3 for v in overheads),
                 value=overheads, expect="10 µs < overhead < 5 ms")
    # 5(b): overhead grows with node count (needs two counts to tell).
    report.check("overhead_grows",
                 len(points) < 2 or overheads[-1] > overheads[0],
                 value=overheads[-1] - overheads[0],
                 expect="overhead(N_max) > overhead(N_min)")
    # restart comparable to checkpoint.
    report.check("restart_similar",
                 all(0.3 * p.latency.mean < p.restart_latency.mean
                     < 3.0 * p.latency.mean for p in points),
                 value=[p.restart_latency.mean / p.latency.mean
                        for p in points],
                 expect="restart within 0.3x-3x of checkpoint")
    # 5(b): the growth is tens of microseconds per added node.
    growth = None if len(points) < 2 else (
        (overheads[-1] - overheads[0])
        / (points[-1].n_nodes - points[0].n_nodes))
    report.check("overhead_growth_per_node",
                 growth is None or 20e-6 < growth < 100e-6,
                 value=growth, expect="20-100 µs/node (paper: ~50)")
    # 5(b): "negligible" next to the checkpoint it coordinates.
    headroom = min(p.latency.mean / p.overhead.mean for p in points)
    report.check("overhead_negligible", headroom > 500,
                 value=headroom, expect="latency/overhead > 500")
    # restart is flat in N, like the checkpoint.
    restarts = [p.restart_latency.mean for p in points]
    report.check("restart_flat", max(restarts) < 1.3 * min(restarts),
                 value=max(restarts) / min(restarts),
                 expect="max/min < 1.3 across node counts")
    return report


def _render(points: List[Fig5Point]) -> List[str]:
    rows = [[p.n_nodes, f"{p.latency.mean:.3f} s",
             f"{p.overhead.mean*1e6:.0f} us",
             f"{p.restart_latency.mean:.3f} s",
             int(p.messages_per_round)] for p in points]
    return [render_table(
        "Fig 5 — checkpoint latency / coordination overhead / restart",
        ["nodes", "latency", "overhead", "restart", "msgs"], rows)]


def _add_arguments(parser) -> None:
    parser.add_argument("--nodes", type=at_least(1), nargs="+",
                        default=[2, 4, 6, 8])
    parser.add_argument("--rounds", type=at_least(1), default=5)


FIGURE = Figure(
    name="fig5", help="checkpoint latency/overhead",
    section="Fig. 5(a), 5(b) and §6 restart — checkpoint latency, "
            "coordination overhead and restart latency vs nodes",
    paper="""\
Paper, Fig. 5(a): total checkpoint latency ≈ 1 s for every node count
from 2 to 8; "a function of the size of the application state ...
dominated by the time to write this state to disk". Fig. 5(b):
coordination overhead 350–550 µs, which "increases by approximately
50 µs for each node for configurations with more than 4 nodes". §6 on
restart: "Performance results for the restart operation are similar to
the results of Figures 5(a) and 5(b) but are omitted here because of
space limitations."

Here: slm with 100 MB of state per rank, five rounds per node count,
then a crash and a coordinated restart from the last image. The disk
model writes at 100 MB/s and reads at 150 MB/s, which is the whole of
the restart/checkpoint ratio. The overhead grows linearly from N=2
rather than kinking at 4; the paper's flatness below 4 nodes is within
its own error bars.""",
    run=lambda args: run_fig5(node_counts=sorted(set(args.nodes)),
                              rounds=args.rounds),
    shape=fig5_shape_report, render=_render,
    payload=lambda points: {"points": points},
    add_arguments=_add_arguments)


def run_scalability() -> List[RoundStats]:
    """One blocking round per node count, 20 MB of state per rank."""
    rounds = []
    for n_nodes in (2, 4, 8, 16, 32):
        # As in run_fig5: one cluster alive at a time.
        cluster = _app = None
        gc.collect()
        cluster = CruzCluster(n_nodes, trace_enabled=False)
        _app, stats = run_slm_rounds(cluster, n_nodes, 20.0, rounds=1)
        rounds += stats
    return rounds


def _breakeven_nodes(rounds: List[RoundStats]) -> int:
    """Linear projection: the node count at which the coordination
    overhead would equal the local save."""
    first, last = rounds[0], rounds[-1]
    per_node = ((last.coordination_overhead_s
                 - first.coordination_overhead_s)
                / (last.n_nodes - first.n_nodes))
    return int(last.max_local_op_s / per_node)


def scalability_shape_report(rounds: List[RoundStats]) -> ShapeReport:
    ratios = [r.coordination_overhead_s / r.max_local_op_s
              for r in rounds]
    report = ShapeReport("§7 scalability shape")
    report.check("overhead_far_below_local_save",
                 all(ratio < 0.02 for ratio in ratios),
                 value=max(ratios),
                 expect="overhead < 2% of local save at every N")
    breakeven = _breakeven_nodes(rounds)
    report.check("breakeven_in_the_thousands", breakeven > 1000,
                 value=breakeven,
                 expect="projected break-even > 1000 nodes")
    return report


def _render_scalability(rounds: List[RoundStats]) -> List[str]:
    rows = [[r.n_nodes, f"{r.coordination_overhead_s*1e6:.0f} us",
             f"{r.max_local_op_s*1000:.0f} ms",
             f"{r.coordination_overhead_s/r.max_local_op_s*100:.3f} %"]
            for r in rounds]
    return [render_table(
        "Scalability — coordination overhead vs local checkpoint",
        ["nodes", "overhead", "local ckpt", "ratio"], rows,
        note=f"linear projection: overhead matches the local "
             f"checkpoint only around ~{_breakeven_nodes(rounds)} "
             f"nodes")]


SCALABILITY = Figure(
    name="scalability", help="§7 overhead projection to 32 nodes",
    section="§7 — scalability projection",
    paper="""\
Paper, §7: "the system should scale to a large number of nodes before
coordination overhead becomes comparable to the time to perform local
checkpoint or restart" — argued from Fig. 5(b), not measured.

Here: one blocking round of slm, started by the same launcher as
Fig. 5, at 2, 4, 8, 16 and 32 nodes with 20 MB of state per rank (a
fifth of Fig. 5's, so the ratio column is five times less favourable
than at the paper's scale), and the straight line through the first
and last overheads carried out to where it meets the local save.""",
    run=lambda args: run_scalability(),
    shape=scalability_shape_report, render=_render_scalability,
    payload=lambda rounds: {"rounds": rounds})

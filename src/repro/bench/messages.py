"""Message-complexity harness (§5.2): Cruz O(N) vs flush-based O(N²).

Both protocols run over the same simulated network against the same
application; the counts are measured from the wire, and the flush
baseline's restart re-establishment cost is included analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.apps.slm import slm_factory
from repro.baselines.flush import (
    flush_checkpoint_app,
    install_flush_baseline,
    restart_message_estimate,
)
from repro.bench.harness import (Figure, ShapeReport, at_least,
                                 render_table)
from repro.cruz.cluster import CruzCluster


@dataclass
class MessagePoint:
    n_nodes: int
    cruz_messages: int
    flush_messages: int
    cruz_latency_s: float
    flush_latency_s: float
    flush_restart_estimate: int


def run_messages(node_counts: Sequence[int] = (2, 4, 8, 16),
                 ) -> List[MessagePoint]:
    points = []
    for n_nodes in node_counts:
        cluster = CruzCluster(n_nodes, trace_enabled=True)
        # A chatty configuration: halo exchanges every ~millisecond keep
        # real data in flight, so the baseline's channel drain costs time.
        app = cluster.launch_app_factory(
            "slm", n_nodes,
            slm_factory(n_nodes, global_rows=8 * n_nodes, cols=256,
                        steps=100000, total_work_s=100.0 * n_nodes))
        install_flush_baseline(cluster)
        cluster.run_for(0.4)

        before = cluster.coordination_message_count()
        cruz_stats = cluster.checkpoint_app(app)
        cruz_messages = cluster.coordination_message_count() - before

        cluster.run_for(0.2)
        flushed = cluster.metrics.counter("control.messages")
        before = flushed.labelled("flush")
        flush_stats = flush_checkpoint_app(cluster, app)
        flush_messages = int(flushed.labelled("flush") - before)

        points.append(MessagePoint(
            n_nodes=n_nodes,
            cruz_messages=cruz_messages,
            flush_messages=flush_messages,
            cruz_latency_s=cruz_stats.latency_s,
            flush_latency_s=flush_stats.latency_s,
            flush_restart_estimate=restart_message_estimate(n_nodes)))
    return points


def messages_shape_report(points: List[MessagePoint]) -> ShapeReport:
    by_n = {p.n_nodes: p for p in points}
    ns = sorted(by_n)
    first, last = by_n[ns[0]], by_n[ns[-1]]
    scale = ns[-1] / ns[0]
    report = ShapeReport("Message complexity shape")
    # Cruz: exactly linear (4 messages per node).
    report.check("cruz_linear",
                 all(by_n[n].cruz_messages == 4 * n for n in ns),
                 value=[by_n[n].cruz_messages for n in ns],
                 expect="exactly 4N per round")
    # Flush: superlinear growth (4N + N(N-1)).
    report.check("flush_quadratic",
                 all(by_n[n].flush_messages == 4 * n + n * (n - 1)
                     for n in ns),
                 value=[by_n[n].flush_messages for n in ns],
                 expect="4N + N(N-1) per round")
    # The gap widens with N (needs two counts to tell).
    report.check("gap_widens",
                 len(ns) < 2 or
                 (last.flush_messages / last.cruz_messages) >
                 (first.flush_messages / first.cruz_messages),
                 value=last.flush_messages / last.cruz_messages,
                 expect="flush/cruz ratio grows with N")
    # Cruz is never slower per round.
    report.check("cruz_latency_wins",
                 all(by_n[n].cruz_latency_s <= by_n[n].flush_latency_s
                     for n in ns),
                 expect="cruz round latency <= flush")
    report.check("cruz_message_growth_matches_scale",
                 last.cruz_messages == first.cruz_messages * scale,
                 value=last.cruz_messages / first.cruz_messages,
                 expect=f"count grows exactly {scale:g}x")
    return report


def _render(points: List[MessagePoint]) -> List[str]:
    rows = [[p.n_nodes, p.cruz_messages, p.flush_messages,
             f"{p.cruz_latency_s*1000:.2f} ms",
             f"{p.flush_latency_s*1000:.2f} ms",
             p.flush_restart_estimate] for p in points]
    return [render_table(
        "Message complexity — Cruz O(N) vs flush O(N^2)",
        ["nodes", "cruz", "flush", "cruz lat", "flush lat",
         "flush restart"], rows)]


def _add_arguments(parser) -> None:
    # A one-node job has no channel to flush: nothing to compare.
    parser.add_argument("--nodes", type=at_least(2), nargs="+",
                        default=[2, 4, 8, 16])


FIGURE = Figure(
    name="messages", help="Cruz vs flush message complexity",
    section="§5.2 — message complexity vs channel-flushing protocols",
    paper="""\
Paper, §5.2: flush-based protocols (MPVM, CoCheck, LAM-MPI) have
"O(N²) message complexity compared to O(N) complexity with our
approach"; Cruz needs only the messages of a two-phase commit.

Here: both protocols run over the same simulated network against the
same chatty slm job, one round each per node count, counted on the
wire. The flush baseline also stalls in its drain phase, which is the
latency column. A flush-based *restart* would further need about four
messages per channel to rebuild connections (the `flush restart`
column, analytic) where Cruz needs none.""",
    run=lambda args: run_messages(node_counts=sorted(set(args.nodes))),
    shape=messages_shape_report, render=_render,
    payload=lambda points: {"points": points},
    add_arguments=_add_arguments)

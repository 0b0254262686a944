"""Fig. 4 harness: the early-resume optimisation.

With the blocking Fig. 2 protocol every node stays stopped until *all*
nodes have saved; with Fig. 4 each node resumes as soon as its own save is
done (and communication is known to be disabled everywhere). The benefit
shows on nodes whose state is small relative to the slowest node's.

Measured with a communication-free compute app (for a tightly coupled app
the paper itself notes fast nodes would just stall at the first message to
a still-blocked peer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.compute import compute_factory
from repro.bench.harness import Figure, ShapeReport, render_table
from repro.cruz.cluster import CruzCluster


@dataclass
class OptimizationResult:
    """Per-pod pause durations under each protocol."""

    blocking_pause_s: Dict[str, float]
    optimized_pause_s: Dict[str, float]
    blocking_round_total_s: float
    optimized_round_total_s: float

    @property
    def max_blocking_pause(self) -> float:
        return max(self.blocking_pause_s.values())

    @property
    def min_optimized_pause(self) -> float:
        return min(self.optimized_pause_s.values())


def _pause_durations(cluster, epoch=None) -> Dict[str, float]:
    """Per-pod pause windows, straight off the ``agent.pod_pause`` spans
    (which begin at the pod_paused instant and end at pod_resumed)."""
    attrs = {} if epoch is None else {"epoch": epoch}
    return {span.attrs["pod"]: span.duration
            for span in cluster.spans.query("agent.pod_pause", **attrs)}


def run_optimization(n_nodes: int = 4,
                     state_mb: List[float] = (100.0, 5.0, 5.0, 5.0),
                     ) -> OptimizationResult:
    """One blocking and one optimised round over unequal state sizes."""

    def one_round(optimized: bool):
        cluster = CruzCluster(n_nodes, trace_enabled=True)
        app = cluster.launch_app_factory(
            "cb", n_nodes,
            compute_factory(iterations=1_000_000, work_s=0.001,
                            state_mb_per_rank=list(state_mb)))
        cluster.run_for(0.2)
        stats = cluster.checkpoint_app(app, optimized=optimized)
        return _pause_durations(cluster), stats.total_s

    blocking, blocking_total = one_round(optimized=False)
    optimized, optimized_total = one_round(optimized=True)
    return OptimizationResult(
        blocking_pause_s=blocking, optimized_pause_s=optimized,
        blocking_round_total_s=blocking_total,
        optimized_round_total_s=optimized_total)


def optimization_shape_report(result: OptimizationResult) -> ShapeReport:
    blocking = result.blocking_pause_s
    optimized = result.optimized_pause_s
    slowest = max(blocking, key=blocking.get)
    fast_pods = [pod for pod in blocking if pod != slowest]
    report = ShapeReport("Fig. 4 optimisation shape")
    # Blocking: everyone pauses for about the slowest node's save.
    report.check("blocking_all_wait",
                 all(blocking[pod] > 0.9 * blocking[slowest]
                     for pod in blocking),
                 value=min(blocking.values()) / blocking[slowest],
                 expect="every pause > 90% of the slowest")
    # Optimised: small-state pods resume much earlier.
    report.check("optimized_fast_pods_resume_early",
                 all(optimized[pod] < 0.5 * blocking[pod]
                     for pod in fast_pods),
                 value=max((optimized[pod] / blocking[pod]
                            for pod in fast_pods), default=0.0),
                 expect="fast pods pause < 50% of blocking")
    # The slowest pod cannot do better than its own save time.
    report.check("slowest_unchanged",
                 optimized[slowest] > 0.5 * blocking[slowest],
                 value=optimized[slowest] / blocking[slowest],
                 expect="slowest pod's pause is save-bound")
    return report


def _render(result: OptimizationResult) -> List[str]:
    rows = [[pod, f"{result.blocking_pause_s[pod]*1000:.0f} ms",
             f"{result.optimized_pause_s[pod]*1000:.0f} ms"]
            for pod in sorted(result.blocking_pause_s)]
    return [render_table("Fig 4 — per-pod pause, blocking vs optimised",
                         ["pod", "blocking", "optimised"], rows)]


FIGURE = Figure(
    name="fig4", help="early-resume optimisation",
    run=lambda args: run_optimization(),
    shape=optimization_shape_report, render=_render,
    payload=lambda result: {"result": result})

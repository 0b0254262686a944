"""Fig. 4 harness: the early-resume optimisation (``FIGURE``), and the
ablation of every §5.2 optimisation against the blocking protocol
(``ABLATION``): each knob alone — early resume, early network re-enable,
copy-on-write concurrency, incremental saves — on the same compute app,
and the paper's TCP-backoff claim for early re-enable on the Fig. 6
stream. What the paper says of each is the record's ``paper``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.apps.compute import compute_factory
from repro.bench.fig6 import run_fig6
from repro.bench.harness import Figure, ShapeReport, render_table
from repro.cruz.cluster import CruzCluster

#: Fig. 4's compute job: r0 saves 100 MB, the other ranks 5 MB each.
STATE_MB = (100.0, 5.0, 5.0, 5.0)


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


def _pause_durations(cluster) -> Dict[str, float]:
    """Per-pod pause windows, straight off the ``agent.pod_pause`` spans
    (which begin at the pod_paused instant and end at pod_resumed)."""
    return {span.attrs["pod"]: span.duration
            for span in cluster.spans.query("agent.pod_pause")}


def run_optimization() -> OptimizationResult:
    """One blocking and one optimised round over unequal state sizes."""

    def one_round(optimized: bool):
        cluster = CruzCluster(len(STATE_MB), trace_enabled=True)
        app = cluster.launch_app_factory(
            "cb", len(STATE_MB),
            compute_factory(iterations=1_000_000, work_s=0.001,
                            state_mb_per_rank=list(STATE_MB)))
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
    section="Fig. 4 — early-resume optimisation",
    paper="""\
Paper, Fig. 4 and §5.2: once the coordinator knows communication is
disabled everywhere, each node may resume as soon as its own save
completes instead of waiting for the slowest node.

Here: a communication-free compute job on four nodes, r0 with 100 MB
of state and r1–r3 with 5 MB, one blocking (Fig. 2) round and one
optimised round; the pause is the pod's stopped window. (For a tightly
coupled job the paper itself notes the fast nodes would stall at their
first message to a peer that is still blocked.)""",
    run=lambda args: run_optimization(),
    shape=optimization_shape_report, render=_render,
    payload=lambda result: {"result": result})


#: The options each §5.2 round variant passes to ``checkpoint_app``.
ABLATION_VARIANTS = {
    "baseline (Fig 2)": {},
    "optimized (Fig 4)": {"optimized": True},
    "optimized + early network": {"optimized": True,
                                  "early_network": True},
    "concurrent (copy-on-write)": {"concurrent": True},
    "incremental, 2nd round": {"incremental": True},
}
BASELINE, EARLY_NETWORK, CONCURRENT, INCREMENTAL = (
    "baseline (Fig 2)", "optimized + early network",
    "concurrent (copy-on-write)", "incremental, 2nd round")


@dataclass
class AblationResult:
    #: variant -> (round latency in seconds, work units the job
    #: completed while the round ran).
    rounds: Dict[str, Tuple[float, int]]
    #: variant -> (checkpoint duration, outage after it completes), in
    #: seconds, on the Fig. 6 stream.
    stream: Dict[str, Tuple[float, float]]


def run_ablation_rounds(state_mb: float = 60.0
                        ) -> Dict[str, Tuple[float, int]]:
    """One round per variant over a 2-node compute job that dirties
    about 2 % of its state per iteration (the regime incremental
    checkpoints are for)."""
    results = {}
    for variant, options in ABLATION_VARIANTS.items():
        cluster = CruzCluster(2, trace_enabled=False)
        app = cluster.launch_app_factory(
            "cb", 2, compute_factory(iterations=10_000_000,
                                     work_s=0.001,
                                     state_mb_per_rank=state_mb,
                                     touch_fraction=0.02))
        cluster.run_for(0.2)
        if options.get("incremental"):
            # Only a second round has a previous image to build on.
            cluster.checkpoint_app(app, incremental=True)
            cluster.run_for(0.05)
        before = sum(p.done for p in cluster.app_programs(app))
        stats = cluster.checkpoint_app(app, **options)
        after = sum(p.done for p in cluster.app_programs(app))
        results[variant] = (stats.latency_s, after - before)
    return results


def run_ablation() -> AblationResult:
    """The round variants at 60 MB per rank, then the Fig. 6 stream
    (30 MB per pod) through a blocking round and through one that lifts
    the filter at capture time."""
    stream = {}
    for variant in (BASELINE, EARLY_NETWORK):
        result = run_fig6(memory_mb=30.0, **ABLATION_VARIANTS[variant])
        stream[variant] = (result.checkpoint_duration_s,
                           result.outage_after_checkpoint_s)
    return AblationResult(rounds=run_ablation_rounds(), stream=stream)


def ablation_shape_report(result: AblationResult) -> ShapeReport:
    base_latency, base_progress = result.rounds[BASELINE]
    incremental_latency, _ = result.rounds[INCREMENTAL]
    _, cow_progress = result.rounds[CONCURRENT]
    _, base_outage = result.stream[BASELINE]
    _, early_outage = result.stream[EARLY_NETWORK]
    report = ShapeReport("§5.2 ablation shape")
    # An incremental second round writes only the dirty pages.
    report.check("incremental_round_is_cheap",
                 incremental_latency < base_latency / 5,
                 value=base_latency / incremental_latency,
                 expect="baseline/incremental latency > 5")
    # Copy-on-write lets the job compute through the save.
    report.check("cow_computes_through_the_save",
                 cow_progress > 10 * max(1, base_progress),
                 value=cow_progress / max(1, base_progress),
                 expect="progress during round > 10x baseline")
    # "The impact of TCP backoff can be reduced by keeping
    # communication disabled only for the duration it takes to save
    # the communication state."
    report.check("early_network_shrinks_outage",
                 early_outage < base_outage / 5,
                 value=base_outage / early_outage,
                 expect="baseline/early outage > 5")
    return report


def _render_ablation(result: AblationResult) -> List[str]:
    return [
        render_table(
            "Ablation — §5.2 optimisations, one round each",
            ["variant", "round latency", "progress during round"],
            [[variant, f"{latency*1000:.1f} ms", progress]
             for variant, (latency, progress) in result.rounds.items()]),
        render_table(
            "Ablation — early network re-enable on the Fig. 6 stream",
            ["variant", "checkpoint", "outage after checkpoint"],
            [[variant, f"{checkpoint*1000:.0f} ms",
              f"{outage*1000:.0f} ms"]
             for variant, (checkpoint, outage) in result.stream.items()]),
    ]


ABLATION = Figure(
    name="ablation", help="§5.2 optimisations, each against Fig. 2",
    section="§5.2 — optimisation ablation (beyond the paper's figures)",
    paper="""\
Paper, §5.2, proposed and not measured: resume each node after its own
save (Fig. 4); re-enable communication as soon as the socket state is
captured, since "keeping communication disabled only for the duration
it takes to save the communication state ... allows any recovery from
TCP backoffs to proceed in parallel with saving the checkpoint state";
copy-on-write so that computation overlaps the save; incremental
checkpoints that write only the pages dirtied since the last one.

Here: each knob alone against the blocking Fig. 2 round on a 2-node
compute job (60 MB of state per rank, about 2 % dirtied per iteration;
progress is iterations completed while the round ran), then blocking
against early re-enable on the Fig. 6 stream with 30 MB of state per
pod, where the filter is what makes TCP back off.""",
    run=lambda args: run_ablation(),
    shape=ablation_shape_report, render=_render_ablation,
    payload=lambda result: {"result": result})

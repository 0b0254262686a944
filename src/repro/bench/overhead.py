"""Runtime-overhead harness (§6; the claim is ``FIGURE.paper`` below).

Methodology: run the identical slm configuration twice — once inside pods
(every syscall pays the interposition surcharge) and once as bare
processes — and compare completion times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.apps.slm import slm_factory
from repro.bench.harness import Figure, ShapeReport
from repro.cruz.cluster import CruzCluster

#: The slm job both runs complete.
N_NODES = 2
STEPS = 200
TOTAL_WORK_S = 4.0


@dataclass
class OverheadResult:
    bare_runtime_s: float
    pod_runtime_s: float

    @property
    def overhead_fraction(self) -> float:
        return (self.pod_runtime_s - self.bare_runtime_s) / \
            self.bare_runtime_s


def _run_until_done(cluster, procs):
    done = cluster.sim.all_of([p.exit_event for p in procs])
    cluster.sim.run_until_complete(done, limit=1e5)
    return cluster.sim.now


def run_overhead() -> OverheadResult:
    factory = slm_factory(N_NODES, global_rows=8 * N_NODES, cols=16,
                          steps=STEPS, total_work_s=TOTAL_WORK_S)

    # Bare: plain processes on the node addresses, no pods anywhere.
    bare = CruzCluster(N_NODES, trace_enabled=False)
    node_ips = [str(node.stack.eth0.ip) for node in
                bare.nodes[:N_NODES]]
    bare_procs = [bare.nodes[rank].spawn(factory(rank, node_ips))
                  for rank in range(N_NODES)]
    bare_runtime = _run_until_done(bare, bare_procs)

    # Pods: the same program through the Zap virtualisation layer.
    podded = CruzCluster(N_NODES, trace_enabled=False)
    app = podded.launch_app_factory("slm", N_NODES, factory)
    pod_procs = [proc for pod in app.pods for proc in pod.processes()]
    pod_runtime = _run_until_done(podded, pod_procs)

    return OverheadResult(bare_runtime_s=bare_runtime,
                          pod_runtime_s=pod_runtime)


def overhead_shape_report(result: OverheadResult) -> ShapeReport:
    report = ShapeReport("Runtime overhead shape")
    report.check("overhead_positive",
                 result.overhead_fraction >= 0.0,
                 value=result.overhead_fraction,
                 expect="virtualization costs something")
    report.check("overhead_below_half_percent",
                 result.overhead_fraction < 0.005,
                 value=result.overhead_fraction,
                 expect="< 0.5% (§6)")
    return report


def _render(result: OverheadResult) -> List[str]:
    return [
        f"bare runtime : {result.bare_runtime_s:.4f} s",
        f"pod runtime  : {result.pod_runtime_s:.4f} s",
        f"overhead     : {result.overhead_fraction*100:.4f} % "
        f"(paper: < 0.5 %)",
    ]


FIGURE = Figure(
    name="overhead", help="virtualisation runtime overhead",
    section="§6 — runtime virtualisation overhead",
    paper="""\
Paper, §6: "The runtime overhead of Cruz is negligible (less than
0.5%) since the underlying Zap mechanism requires nothing more than
virtualizing identifiers."

Here: the identical 2-node slm job run to completion twice, as bare
processes and inside pods, where every system call pays a 0.15 µs
interposition surcharge. Compute-bound slm barely enters the kernel,
so the measured figure sits far below the paper's bound.""",
    run=lambda args: run_overhead(), shape=overhead_shape_report,
    render=_render,
    payload=lambda result: {
        "result": result,
        "overhead_fraction": result.overhead_fraction})

"""Fig. 4: the early-resume optimisation.

Paper: once the coordinator knows communication is disabled everywhere,
each node may resume as soon as its own save completes, instead of waiting
for the slowest node.
"""

from repro.bench.harness import paper_vs_measured, render_table
from repro.bench.optimization import (
    optimization_shape_report,
    run_optimization,
)


def test_fig4_optimization(benchmark, show):
    result = benchmark.pedantic(
        lambda: run_optimization(n_nodes=4,
                                 state_mb=(100.0, 5.0, 5.0, 5.0)),
        rounds=1, iterations=1)
    shape = optimization_shape_report(result)
    pods = sorted(result.blocking_pause_s)
    rows = [[pod,
             f"{result.blocking_pause_s[pod]*1000:.0f} ms",
             f"{result.optimized_pause_s[pod]*1000:.0f} ms"]
            for pod in pods]
    show(render_table(
        "Fig 4 — per-pod pause time, blocking (Fig 2) vs optimised",
        ["pod (r0 has 100 MB, others 5 MB)", "blocking", "optimised"],
        rows))
    show(paper_vs_measured("Fig 4 shape", [
        ("blocking: all nodes wait for slowest", "yes",
         "yes" if shape["blocking_all_wait"] else "no",
         shape["blocking_all_wait"]),
        ("optimised: small-state nodes resume early", "yes",
         f"{result.min_optimized_pause*1000:.0f} ms vs "
         f"{result.max_blocking_pause*1000:.0f} ms",
         shape["optimized_fast_pods_resume_early"]),
        ("slowest node bounded by its own save", "yes",
         "yes" if shape["slowest_unchanged"] else "no",
         shape["slowest_unchanged"]),
    ]))
    assert shape.passed, shape.render()

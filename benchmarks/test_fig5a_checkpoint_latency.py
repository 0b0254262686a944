"""Fig. 5(a): total checkpoint latency vs number of nodes (slm benchmark).

Paper: ≈1 s for 2–8 nodes, flat, dominated by writing the state to disk.
"""

from repro.bench.fig5 import fig5_shape_report, run_fig5
from repro.bench.harness import paper_vs_measured, render_table


def test_fig5a_checkpoint_latency(benchmark, show):
    points = benchmark.pedantic(
        lambda: run_fig5(node_counts=(2, 4, 6, 8), rounds=5),
        rounds=1, iterations=1)
    shape = fig5_shape_report(points)
    rows = [[p.n_nodes, f"{p.latency.mean:.3f} s",
             f"± {p.latency.std * 1000:.2f} ms",
             f"{p.local_save.mean:.3f} s"] for p in points]
    show(render_table(
        "Fig 5(a) — total checkpoint latency (slm)",
        ["nodes", "latency", "stddev", "local save (max)"], rows))
    show(paper_vs_measured("Fig 5(a) shape", [
        ("latency ~1 s, all node counts", "≈1.0 s flat",
         f"{points[0].latency.mean:.2f}–{points[-1].latency.mean:.2f} s",
         shape["latency_flat"] and shape["latency_is_seconds_scale"]),
        ("dominated by local state save", "yes",
         "yes" if shape["save_dominates"] else "no",
         shape["save_dominates"]),
    ]))
    assert shape["latency_flat"]
    assert shape["latency_is_seconds_scale"]
    assert shape["save_dominates"]

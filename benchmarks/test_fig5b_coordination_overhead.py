"""Fig. 5(b): coordination overhead vs number of nodes.

Paper: 350–550 µs total; grows ≈50 µs per node beyond 4 nodes — negligible
next to the ~1 s checkpoint, hence "scalable".
"""

from repro.bench.fig5 import fig5_shape_report, run_fig5
from repro.bench.harness import paper_vs_measured, render_table


def test_fig5b_coordination_overhead(benchmark, show):
    points = benchmark.pedantic(
        lambda: run_fig5(node_counts=(2, 4, 6, 8), rounds=5),
        rounds=1, iterations=1)
    shape = fig5_shape_report(points)
    rows = [[p.n_nodes, f"{p.overhead.mean * 1e6:.0f} us",
             f"± {p.overhead.std * 1e6:.0f} us",
             f"{p.messages_per_round:.0f}"] for p in points]
    show(render_table(
        "Fig 5(b) — coordination overhead (slm)",
        ["nodes", "overhead", "stddev", "messages/round"], rows))
    growth_per_node = ((points[-1].overhead.mean - points[0].overhead.mean)
                       / (points[-1].n_nodes - points[0].n_nodes))
    show(paper_vs_measured("Fig 5(b) shape", [
        ("overhead magnitude", "350–550 us",
         f"{points[0].overhead.mean*1e6:.0f}–"
         f"{points[-1].overhead.mean*1e6:.0f} us",
         shape["overhead_microseconds"]),
        ("growth per node", "~50 us/node",
         f"{growth_per_node*1e6:.0f} us/node",
         20e-6 < growth_per_node < 100e-6),
        ("overhead << checkpoint latency", "3+ orders",
         f"{points[-1].latency.mean / points[-1].overhead.mean:.0f}x",
         points[-1].latency.mean / points[-1].overhead.mean > 500),
    ]))
    assert shape["overhead_microseconds"]
    assert shape["overhead_grows"]
    assert 20e-6 < growth_per_node < 100e-6

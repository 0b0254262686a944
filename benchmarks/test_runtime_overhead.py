"""§6 (text): "The runtime overhead of Cruz is negligible (less than 0.5%)
since the underlying Zap mechanism requires nothing more than virtualizing
identifiers."
"""

from repro.bench.harness import paper_vs_measured
from repro.bench.overhead import overhead_shape_report, run_overhead


def test_runtime_overhead(benchmark, show):
    result = benchmark.pedantic(
        lambda: run_overhead(n_nodes=2, steps=200, total_work_s=4.0),
        rounds=1, iterations=1)
    shape = overhead_shape_report(result)
    show(paper_vs_measured("Runtime virtualisation overhead (slm)", [
        ("pod vs bare runtime", "< 0.5%",
         f"{result.overhead_fraction*100:.4f}% "
         f"({result.bare_runtime_s:.3f}s -> "
         f"{result.pod_runtime_s:.3f}s)",
         shape["overhead_below_half_percent"]),
    ]))
    assert shape["overhead_positive"]
    assert shape["overhead_below_half_percent"]

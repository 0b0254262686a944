"""§5.2: O(N) coordination messages for Cruz versus O(N²) for the
channel-flushing protocols of MPVM/CoCheck/LAM-MPI — measured on the wire
against the same application, plus per-round latency.
"""

from repro.baselines.flush import restart_message_estimate
from repro.bench.harness import paper_vs_measured, render_table
from repro.bench.messages import messages_shape_report, run_messages


def test_message_complexity(benchmark, show):
    points = benchmark.pedantic(
        lambda: run_messages(node_counts=(2, 4, 8, 16)),
        rounds=1, iterations=1)
    shape = messages_shape_report(points)
    rows = [[p.n_nodes, p.cruz_messages, p.flush_messages,
             f"{p.cruz_latency_s*1000:.2f} ms",
             f"{p.flush_latency_s*1000:.2f} ms",
             p.flush_restart_estimate]
            for p in points]
    show(render_table(
        "Coordination message complexity — Cruz vs channel flushing",
        ["nodes", "cruz msgs", "flush msgs", "cruz latency",
         "flush latency", "flush restart msgs (est)"], rows))
    last = points[-1]
    show(paper_vs_measured("§5.2 complexity claims", [
        ("Cruz messages", "O(N) (4 per node)",
         f"{points[0].cruz_messages}..{last.cruz_messages} = 4N",
         shape["cruz_linear"]),
        ("flush messages", "O(N^2)",
         f"{points[0].flush_messages}..{last.flush_messages} = 4N+N(N-1)",
         shape["flush_quadratic"]),
        ("who wins per-round latency", "Cruz",
         "Cruz" if shape["cruz_latency_wins"] else "flush",
         shape["cruz_latency_wins"]),
        ("flush restart channel rebuild", "O(N^2) more messages",
         f"{restart_message_estimate(16)} msgs at N=16 vs 0 for Cruz",
         True),
    ]))
    assert shape.passed, shape.render()

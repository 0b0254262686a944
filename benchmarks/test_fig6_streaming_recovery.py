"""Fig. 6: effect of dropped packets on a TCP stream across a checkpoint.

Paper: rate drops to zero at checkpoint start; checkpoint completes after
~120 ms; a short receiver-drain pulse follows; the sender recovers from the
filter-dropped packets via TCP retransmission ~100 ms later, after which
the stream runs at its prior rate.
"""

from repro.bench.fig6 import fig6_shape_report, run_fig6
from repro.bench.harness import paper_vs_measured, render_table


def test_fig6_streaming_recovery(benchmark, show):
    result = benchmark.pedantic(run_fig6, rounds=1, iterations=1)
    shape = fig6_shape_report(result)

    # A compact rendition of the rate-vs-time curve.
    rows = []
    for t, rate in result.series:
        if -0.02 <= t <= result.recovery_time_s + 0.05 and \
                abs(round(t * 1000) % 20) < 1:
            rows.append([f"{t*1000:+.0f} ms", f"{rate/1e6:8.1f} Mb/s"])
    show(render_table("Fig 6 — receive rate around a checkpoint",
                      ["t (ckpt start = 0)", "rate"], rows))
    show(paper_vs_measured("Fig 6 shape", [
        ("rate drops to zero", "yes",
         "yes" if shape["rate_drops_to_zero"] else "no",
         shape["rate_drops_to_zero"]),
        ("checkpoint duration", "~120 ms",
         f"{result.checkpoint_duration_s*1000:.0f} ms",
         shape["checkpoint_is_100ms_scale"]),
        ("receiver drain pulse after resume", "short pulse",
         f"at {result.pulse_time_s*1000:.0f} ms",
         shape["drain_pulse_after_resume"]),
        ("sender recovery after checkpoint", "~100 ms",
         f"{result.outage_after_checkpoint_s*1000:.0f} ms",
         shape["recovery_within_rto_scale"]),
        ("rate restored to normal", "yes",
         "yes" if shape["rate_restored"] else "no",
         shape["rate_restored"]),
    ]))
    assert shape.passed, shape.render()

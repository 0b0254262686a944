#!/usr/bin/env python
"""Reproduce Fig. 6 interactively: what a checkpoint does to a TCP stream.

Runs the paper's streaming benchmark, checkpoints it mid-stream, and
renders the receiver's 10 ms sliding-window rate as an ASCII timeline:
the drop to zero, the checkpoint window, the receiver drain pulse, and
TCP's retransmission-driven recovery.

Run:  python examples/streaming_timeline.py
"""

from repro.bench.fig6 import fig6_shape_report, run_fig6


def bar(rate_bps: float, full_bps: float, width: int = 50) -> str:
    filled = int(width * min(1.0, rate_bps / full_bps)) if full_bps else 0
    return "#" * filled


def main():
    print("running the TCP streaming benchmark; checkpoint at t=0...")
    result = run_fig6(sample_step_s=0.005, warmup_s=0.3, follow_s=0.5)
    full = result.pre_checkpoint_rate_bps

    print(f"\n  steady-state rate : {full/1e6:7.1f} Mb/s")
    print(f"  checkpoint length : {result.checkpoint_duration_s*1000:5.1f}"
          f" ms")
    print(f"  drain pulse at    : {result.pulse_time_s*1000:5.1f} ms")
    print(f"  recovery at       : {result.recovery_time_s*1000:5.1f} ms "
          f"({result.outage_after_checkpoint_s*1000:.0f} ms after the "
          f"checkpoint finished)\n")

    print(f"{'t (ms)':>8}  {'rate':>12}  ")
    for t, rate in result.series:
        if t < -0.03 or t > result.recovery_time_s + 0.06:
            continue
        marks = []
        if abs(t) < 2.5e-3:
            marks.append("<- checkpoint starts")
        if abs(t - result.checkpoint_duration_s) < 2.5e-3:
            marks.append("<- checkpoint complete")
        if abs(t - result.pulse_time_s) < 2.5e-3:
            marks.append("<- receiver drains buffered data")
        if abs(t - result.recovery_time_s) < 2.5e-3:
            marks.append("<- TCP retransmission recovers")
        print(f"{t*1000:8.0f}  {rate/1e6:9.1f} Mb  "
              f"{bar(rate, full):<50} {' '.join(marks)}")

    shape = fig6_shape_report(result)
    print("\npaper-shape checks:", ", ".join(
        f"{check.name}={'OK' if check.ok else 'FAIL'}"
        for check in shape.checks))


if __name__ == "__main__":
    main()

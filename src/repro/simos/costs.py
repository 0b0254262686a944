"""Timing cost model, calibrated to the paper's testbed.

The evaluation ran on dual 1 GHz Pentium III nodes with gigabit Ethernet
(§6). Absolute constants here are order-of-magnitude estimates for that
hardware; the reproduced *shapes* (flat ~1 s checkpoint latency, µs-scale
coordination overhead, ~100 ms TCP recovery) depend on ratios, not the
exact values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """All tunable timing constants for a simulated node."""

    #: Base cost of entering/leaving the kernel for one syscall.
    syscall_time: float = 0.5e-6
    #: Extra per-syscall cost of Zap's virtualisation layer (the <0.5 %
    #: runtime overhead claim rests on this being tiny, §6).
    pod_syscall_overhead: float = 0.15e-6
    #: Checkpoint images are written to disk; this dominates checkpoint
    #: latency ("the time to write this state to disk", §6).
    disk_write_bandwidth: float = 100e6   # bytes/s
    disk_read_bandwidth: float = 150e6    # bytes/s
    #: Fixed latency per synchronous file write (seek + commit).
    disk_op_latency: float = 1e-4
    #: Memory-copy bandwidth for serialising captured state into chunks.
    #: The §5.2 pipeline overlaps this copy-out with the disk write; only
    #: the copy-out has to happen while the pod is stopped.
    serialize_bandwidth: float = 1e9      # bytes/s
    #: Fixed per-pod checkpoint overhead (quiesce, walk process table).
    checkpoint_fixed: float = 2e-3
    #: Fixed per-pod restart overhead (recreate processes, fds).
    restart_fixed: float = 3e-3
    #: Per-socket time to extract/restore socket state while the network
    #: locks are held (§4.1 — "blocked only for a short duration").
    socket_capture_time: float = 30e-6
    #: Agent CPU time to handle one coordination message (§6 shows the
    #: coordination overhead at 350–550 µs total across the protocol).
    agent_message_handling: float = 200e-6
    #: Coordinator CPU time to send or process one protocol message. Two
    #: of these per node per round gives the paper's ~50 µs/node growth.
    coordinator_message_handling: float = 25e-6
    #: Time to install/remove a netfilter rule.
    netfilter_update: float = 15e-6
    #: Time to send a SIGSTOP/SIGCONT to one process.
    signal_delivery: float = 5e-6


DEFAULT_COSTS = CostModel()

"""Cluster introspection: ``ps``, ``netstat``, pod and round reports.

These functions return plain data (lists of dicts) so tests can assert on
them, plus a :func:`format_table` renderer for human output — the same
split real operator tools use.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.cluster import Cluster
from repro.simos.kernel import Node


def ps(node: Node) -> List[Dict[str, Any]]:
    """Process listing for one node (physical and virtual identities)."""
    rows = []
    for pid in sorted(node.processes):
        proc = node.processes[pid]
        pod = proc.pod
        rows.append({
            "pid": proc.pid,
            "vpid": pod.pid_to_vpid.get(proc.pid) if pod is not None
            else None,
            "pod": pod.name if pod is not None else "",
            "name": proc.name,
            "state": proc.state.value,
            "stopped": proc.stopped,
            "syscall": str(proc.current_syscall)
            if proc.current_syscall else "",
            "cpu_s": round(proc.cpu_seconds, 6),
            "syscalls": proc.syscall_count,
            "exit_code": proc.exit_code,
        })
    return rows


def netstat(node: Node) -> List[Dict[str, Any]]:
    """Connection/listener listing for one node's TCP stack."""
    rows = []
    stack = node.stack
    for (ip, port), listener in sorted(
            stack.tcp.listeners.items(),
            key=lambda item: (item[0][1], str(item[0][0]))):
        rows.append({
            "proto": "tcp", "state": "LISTEN",
            "local": f"{ip}:{port}", "remote": "*:*",
            "sendq": 0, "recvq": len(listener.accept_queue),
            "retransmits": 0,
        })
    for key in sorted(stack.tcp.connections,
                      key=lambda k: (str(k[0]), k[1], str(k[2]), k[3])):
        connection = stack.tcp.connections[key]
        tcb = connection.tcb
        rows.append({
            "proto": "tcp", "state": tcb.state.value,
            "local": f"{tcb.local_ip}:{tcb.local_port}",
            "remote": f"{tcb.remote_ip}:{tcb.remote_port}",
            "sendq": connection.send_buffer.used,
            "recvq": connection.available,
            "retransmits": connection.segments_retransmitted,
        })
    return rows


def pod_report(cluster: Cluster) -> List[Dict[str, Any]]:
    """Every pod on every node, with addresses and process counts."""
    rows = []
    for node in cluster.nodes:
        for interface in node.stack.interfaces.all():
            if interface.pod_id is None:
                continue
            pod = None
            for proc in node.processes.values():
                if proc.pod is not None and \
                        proc.pod.pod_id == interface.pod_id:
                    pod = proc.pod
                    break
            rows.append({
                "node": node.name,
                "vif": interface.name,
                "pod": pod.name if pod is not None else "?",
                "ip": str(interface.ip),
                "wire_mac": str(interface.mac),
                "identity_mac": str(interface.identity_mac),
                "processes": len(pod.live_processes())
                if pod is not None else 0,
            })
    return rows


def round_report(rounds) -> List[Dict[str, Any]]:
    """Per-phase latency breakdown of coordination rounds.

    One row per round, built from :class:`RoundStats.phase_s` (the span
    timeline's critical-path view): total latency plus each phase's
    share, in milliseconds.
    """
    phase_names: List[str] = []
    for stats in rounds:
        for name in stats.phase_s:
            if name not in phase_names:
                phase_names.append(name)
    rows = []
    for stats in rounds:
        row: Dict[str, Any] = {
            "epoch": stats.epoch,
            "kind": stats.kind,
            "latency_ms": round(stats.latency_s * 1000, 3),
        }
        for name in phase_names:
            row[name] = round(stats.phase_s.get(name, 0.0) * 1000, 3)
        rows.append(row)
    return rows


def format_table(rows: List[Dict[str, Any]]) -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        return "(empty)"
    columns = list(rows[0].keys())
    cells = [[str(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in cells))
              for i, col in enumerate(columns)]
    out = ["  ".join(col.ljust(w) for col, w in zip(columns, widths))]
    out.append("  ".join("-" * w for w in widths))
    for line in cells:
        out.append("  ".join(cell.ljust(w)
                             for cell, w in zip(line, widths)))
    return "\n".join(out)

"""The ledger's metric names: one table, read by the runner, the compare
tool, the tests and (by hand, checked by a test) ``BENCHMARK.json``.

Two clocks, never mixed: a ``sim_*`` metric is simulated seconds and
repeats exactly for a seed; every other time is host wall-clock.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

WORKLOADS: Dict[str, str] = {
    "ckpt_sweep": ("Fig. 5 shape at reduced bytes: slm on 2/4/8 nodes, full "
                   "checkpoint rounds then crash+restart; the store write "
                   "path does the work, the event loop none"),
    "restore_churn": ("same store used the other way: incremental saves, "
                      "dedup hits, loads, restarts onto rotated nodes, live "
                      "migration, supervised failover, verify of every "
                      "version"),
    "tcp_mesh": ("128-node TCP flow mesh with no pods, store or processes: "
                 "event loop and protocol stack only; store changes must "
                 "read no-change here"),
    "serve_fleet": ("closed loop, 8 simulated clients through the kv proxy "
                    "during checkpoint rounds, a live migration and a canary "
                    "restore: the syscall/app path and request tails"),
    "mc_explore": ("CruzMC drop/dup exploration: hundreds of tiny "
                   "build-run-teardown cycles; moves with set-up cost and "
                   "small saves"),
}

#: Host-clock end-to-end metrics every workload produces:
#: (name, unit, bound) — ``bound`` is the share by which the metric may
#: worsen before a change counts as a regression.
HOST_END_TO_END: List[Tuple[str, str, float]] = [
    ("wall_s", "s", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
]

#: Simulated-clock end-to-end results, each produced by the workloads
#: named; compared exactly (bound 0) for one seed.
SIM_END_TO_END: List[Tuple[str, str, Tuple[str, ...]]] = [
    ("sim_ckpt_latency_s", "s", ("ckpt_sweep", "restore_churn")),
    ("sim_coord_overhead_us", "us", ("ckpt_sweep", "restore_churn")),
    ("sim_restart_latency_s", "s", ("ckpt_sweep", "restore_churn")),
    ("sim_migrate_pause_ms", "ms", ("restore_churn",)),
    ("sim_failover_mttr_s", "s", ("restore_churn",)),
    ("sim_req_p50_ms", "ms", ("serve_fleet",)),
    ("sim_req_p99_ms", "ms", ("serve_fleet",)),
    ("sim_flow_p50_ms", "ms", ("tcp_mesh",)),
    ("sim_flow_p99_ms", "ms", ("tcp_mesh",)),
]

#: The product's modules, bucketed (see ``layers.LAYER_RULES``).
LAYERS: Tuple[str, ...] = (
    "sim.core", "sim.eventq", "sim.timers", "sim.spans",
    "net.link", "net.switch", "net.other",
    "tcp.connection", "tcp.buffers", "tcp.stack",
    "simos.kernel", "simos.netstack", "simos.fs",
    "zap.checkpoint", "zap.restart",
    "cruz.storage", "cruz.backend", "cruz.protocol", "cruz.recovery",
    "apps", "serve", "analysis", "cluster", "host.other",
)

#: Runner-side spans around every call into the product.
PHASES: Tuple[str, ...] = (
    "build", "launch", "steady", "checkpoint", "restart", "migrate",
    "failover", "verify", "drain",
)

#: Exact counts from public stats (name, unit, better).
COUNTS: List[Tuple[str, str, str]] = [
    ("sim.events_popped", "count", "lower"),
    ("sim.events_pushed", "count", "lower"),
    ("sim.timers_armed", "count", "lower"),
    ("net.frames_forwarded", "count", "lower"),
    ("tcp.segments_rx", "count", "lower"),
    ("tcp.retransmits", "count", "lower"),
    ("simos.fs_bytes_written", "B", "lower"),
    ("cruz.store.chunks_written", "count", "lower"),
    ("cruz.store.bytes_written", "B", "lower"),
    ("cruz.store.bytes_deduped", "B", "higher"),
    ("cruz.store.replica_bytes", "B", "lower"),
    ("cruz.protocol.messages", "count", "lower"),
    ("cruz.protocol.retransmissions", "count", "lower"),
    ("serve.requests_ok", "count", "higher"),
    ("serve.requests_shed", "count", "lower"),
    ("analysis.mc.runs", "count", "lower"),
]

#: Counts over host time (name, unit); all higher-is-better.
RATES: List[Tuple[str, str]] = [
    ("sim.events_per_wall_s", "1/s"),
    ("sim.sim_s_per_wall_s", "ratio"),
    ("cruz.store.image_mb_per_wall_s", "MB/s"),
    ("tcp.payload_mb_per_wall_s", "MB/s"),
    ("serve.requests_per_wall_s", "1/s"),
    ("analysis.mc.runs_per_wall_s", "1/s"),
]

#: Isolated one-layer rates (name, unit, better), see ``probes.py``.
PROBES: List[Tuple[str, str, str]] = [
    ("sim.eventq.push_pop_per_s", "1/s", "higher"),
    ("sim.timers.arm_cancel_per_s", "1/s", "higher"),
    ("sim.spans.begin_end_per_s", "1/s", "higher"),
    ("sim.spans.overhead_ratio", "ratio", "lower"),
    ("net.link.frames_per_s", "1/s", "higher"),
    ("net.switch.frames_per_s", "1/s", "higher"),
    ("tcp.bulk_mb_per_s", "MB/s", "higher"),
    ("tcp.segments_per_s", "1/s", "higher"),
    ("tcp.conn_setup_per_s", "1/s", "higher"),
    ("simos.kernel.syscalls_per_s", "1/s", "higher"),
    ("simos.fs.file_ops_per_s", "1/s", "higher"),
    ("zap.checkpoint.image_mb_per_s", "MB/s", "higher"),
    ("zap.restart.image_mb_per_s", "MB/s", "higher"),
    ("cruz.storage.save_full_mb_per_s", "MB/s", "higher"),
    ("cruz.storage.save_incr_mb_per_s", "MB/s", "higher"),
    ("cruz.storage.load_mb_per_s", "MB/s", "higher"),
    ("cruz.storage.verify_mb_per_s", "MB/s", "higher"),
    ("cruz.backend.put_per_s", "1/s", "higher"),
    ("cruz.backend.get_per_s", "1/s", "higher"),
    ("cruz.backend.placement_per_s", "1/s", "higher"),
    ("cruz.protocol.rounds_per_s", "1/s", "higher"),
    ("apps.slm.steps_per_s", "1/s", "higher"),
    ("apps.kv.requests_per_s", "1/s", "higher"),
    ("apps.kvproxy.requests_per_s", "1/s", "higher"),
    ("analysis.mc.schedule_runs_per_s", "1/s", "higher"),
    ("analysis.sanitize.overhead_ratio", "ratio", "lower"),
]


def end_to_end() -> List[Dict[str, object]]:
    """``BENCHMARK.json``'s ``end_to_end``: what every workload prints
    on an untraced run."""
    return [{"name": name, "unit": unit, "better": "lower", "bound": bound}
            for name, unit, bound in HOST_END_TO_END]


def per_layer() -> List[Dict[str, str]]:
    """``BENCHMARK.json``'s ``per_layer``: what every workload prints on
    a traced run. The workload-specific ``sim_*`` results ride here
    because the driver wants every end-to-end metric from every
    workload; ``compare`` still judges them exactly."""
    out = [{"name": name, "unit": unit, "better": "lower"}
           for name, unit, _workloads in SIM_END_TO_END]
    for layer in LAYERS:
        out.append({"name": f"{layer}.self_s", "unit": "s",
                    "better": "lower"})
        out.append({"name": f"{layer}.calls", "unit": "count",
                    "better": "lower"})
    out.append({"name": "trace.overhead_ratio", "unit": "ratio",
                "better": "lower"})
    out.append({"name": "host.import_s", "unit": "s", "better": "lower"})
    for phase in PHASES:
        out.append({"name": f"phase.{phase}.wall_s", "unit": "s",
                    "better": "lower"})
    out += [{"name": n, "unit": u, "better": b} for n, u, b in COUNTS]
    out += [{"name": n, "unit": u, "better": "higher"} for n, u in RATES]
    out += [{"name": n, "unit": u, "better": b} for n, u, b in PROBES]
    return out


def units() -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in end_to_end() + per_layer()}

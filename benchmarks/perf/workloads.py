"""The five wall-clock workloads.

Each is ``workload(rep, seed, scale) -> Outcome``: it derives its inputs
from ``seed``, builds a fresh cluster inside ``rep.setup()``, runs the
measured work inside ``rep.timed()``, checks the outputs, and returns the
simulated results, the exact counts and the op tally. ``scale`` shrinks
bytes, flows, sessions and the explored space (``--smoke`` runs 1/8).

Only public, default-preset product entry points are used; the flow
wiring and the Fig. 5 shape checks are this benchmark's own copies.
"""

from __future__ import annotations

import gc
import hashlib
import math
import random
import time
from statistics import fmean as mean
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.mc import McConfig, explore
from repro.apps import reference_solution, slm_factory
from repro.cluster import Cluster
from repro.cruz import CruzCluster
from repro.serve.harness import run_serve
from repro.zap import thaw_object, verify_image

# Sizes at scale 1.0, fitted to the driver's cap (114 runs in 3420 s):
# one repetition is 2-3 s on a 2.1 GHz Xeon core. The proportions are
# the issue's: Fig. 5 node counts and round count, churn at 3/4 of the
# sweep's bytes per rank, a 128-node mesh, 8 closed-loop clients.
SWEEP_NODES = (2, 4, 8)
SWEEP_MB_PER_RANK = 16.0
SWEEP_ROUNDS = 3
SWEEP_INTERVAL_S = 2.0
CHURN_APP_NODES = 5
CHURN_RANKS = 4
CHURN_MB_PER_RANK = 12.0
CHURN_CYCLES = 6
CHURN_RUN_S = 0.5
CHURN_COMPUTE_S_PER_STEP = 0.05
MESH_NODES = 128
MESH_FLOWS = 1000
MESH_PAYLOAD_BYTES = 32 * 1024
MESH_WINDOW_S = 0.25
SERVE_BACKENDS = 3
SERVE_CLIENTS = 8
SERVE_SESSIONS = 25
SERVE_REQUESTS_PER_SESSION = 10
SERVE_THINK_S = 0.004
#: Drop or duplicate one CHECKPOINT datagram: the 180-run slice of the
#: 612-run space ``BENCH_mc.json`` records.
MC_FAULT_MODES = ("drop", "dup")
MC_FAULT_KINDS = ("CHECKPOINT",)

SLM_COLS = 32
SLM_ROWS_PER_RANK = 8


@dataclass
class Outcome:
    """What one repetition produced (everything here repeats exactly)."""

    sim: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, Optional[int]] = field(default_factory=dict)
    ops: int = 0
    failures: List[str] = field(default_factory=list)
    #: Simulated seconds covered, logical image bytes saved and TCP
    #: payload bytes moved: numerators of the per-wall-second rates.
    sim_s: Optional[float] = None
    image_bytes: Optional[int] = None
    payload_bytes: Optional[int] = None

    def check(self, ok: bool, what: str) -> None:
        self.ops += 1
        if not ok:
            self.failures.append(what)


class Rep:
    """One repetition's clocks: a span list with wall and sim times.

    ``setup()`` and ``timed()`` are the two root spans; ``phase()`` spans
    nest under them around each call into the product. The profiler, if
    any, runs only inside ``timed()``.
    """

    def __init__(self, profiler=None):
        self.profiler = profiler
        #: The simulator whose clock spans read, once one exists.
        self.sim = None
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []

    def _sim_now(self) -> Optional[float]:
        return self.sim.now if self.sim is not None else None

    @contextmanager
    def _span(self, name: str):
        record = {"name": name,
                  "parent": self._open[-1] if self._open else None,
                  "sim_start": self._sim_now(), "sim_end": None,
                  "wall_start": time.perf_counter(), "wall_end": None}
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["wall_end"] = time.perf_counter()
            record["sim_end"] = self._sim_now()
            self._open.pop()

    def setup(self):
        return self._span("setup")

    @contextmanager
    def timed(self):
        with self._span("timed"):
            if self.profiler is not None:
                self.profiler.enable()
            try:
                yield
            finally:
                if self.profiler is not None:
                    self.profiler.disable()

    def phase(self, name: str):
        return self._span(f"phase.{name}")

    def total(self, name: str) -> float:
        return sum(s["wall_end"] - s["wall_start"] for s in self.spans
                   if s["name"] == name)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: an observed value, not an interpolation."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def split_memory(rng: random.Random, ranks: int,
                 mb_per_rank: float) -> List[float]:
    """Per-rank image sizes within +-10 % of the mean; the total is the
    same for every seed so host time and memory do not follow the seed."""
    weights = [1.0 + rng.uniform(-0.1, 0.1) for _ in range(ranks)]
    norm = ranks / sum(weights)
    return [mb_per_rank * w * norm for w in weights]


def slm_ranks(ranks: int, mbs: Sequence[float], total_work_s: float):
    """An slm factory whose ranks carry different workspace sizes."""
    def make(rank: int, peer_ips: List[str]):
        return slm_factory(
            ranks, global_rows=SLM_ROWS_PER_RANK * ranks, cols=SLM_COLS,
            steps=100000, total_work_s=total_work_s,
            memory_mb_per_rank=mbs[rank])(rank, peer_ips)
    return make


def slm_state(program) -> tuple:
    return (program.rank, program.step_count,
            hashlib.sha256(program.q.tobytes()).hexdigest())


def slm_field_exact(program) -> bool:
    """slm advects by one cell a step, so the field is a pure function
    of the step count: any lost or replayed update shows here."""
    expected = reference_solution(program.global_rows, program.cols,
                                  program.step_count)
    rows = expected[program.row0:program.row0 + program.local_rows]
    return rows.tobytes() == program.q.tobytes()


def restored_matches_saved(saved, live_state: tuple,
                           live_exact: bool) -> bool:
    """The restored rank continues bit-exactly from the saved one.

    ``live_state``/``live_exact`` are :func:`slm_state` and
    :func:`slm_field_exact` of the rank right after the restart. A halo
    row that was in flight at the capture can be delivered while the
    restart round is still finishing, so the live rank may already be
    one step past the image; beyond that, or with a field that is not
    the exact one for its step, the restore is wrong.
    """
    ahead = live_state[1] - saved.step_count
    if ahead == 0:
        return slm_state(saved) == live_state
    return ahead == 1 and live_exact


def cluster_counts(cluster, rounds: Sequence) -> Dict[str, Optional[int]]:
    """Exact counts from the cluster's public stats."""
    events = cluster.scheduler_stats()
    stats = cluster.stats()
    metrics = cluster.trace.metrics.snapshot()
    counts = {
        "sim.events_popped": int(events["popped"]),
        "sim.events_pushed": int(events["pushed"]),
        "sim.timers_armed": int(events.get("timers", {}).get("armed", 0)),
        "net.frames_forwarded": int(stats["frames_forwarded"]),
        "tcp.segments_rx": sum(node.stack.tcp.segments_received
                               for node in cluster.nodes),
        "tcp.retransmits": int(metrics.get("tcp.retransmits",
                                           {"value": 0})["value"]),
        "simos.fs_bytes_written": int(stats["fs_bytes_written"]),
    }
    store = getattr(cluster, "store", None)
    if store is not None:
        moved = store.stats
        counts.update({
            "cruz.store.chunks_written": moved["chunks_written"],
            "cruz.store.bytes_written": moved["bytes_written"],
            "cruz.store.bytes_deduped": moved["bytes_deduped"],
            "cruz.store.replica_bytes": moved["replica_bytes"],
            "cruz.protocol.messages":
                cluster.coordination_message_count(),
            "cruz.protocol.retransmissions":
                sum(r.retransmissions for r in rounds),
        })
    return counts


def add_counts(total: Dict[str, Optional[int]],
               more: Dict[str, Optional[int]]) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


def image_bytes(counts: Dict[str, Optional[int]]) -> int:
    return (counts["cruz.store.bytes_written"]
            + counts["cruz.store.bytes_deduped"])


# -- ckpt_sweep --------------------------------------------------------------

def ckpt_sweep(rep: Rep, seed: int, scale: float) -> Outcome:
    rng = random.Random(seed)
    out = Outcome(sim_s=0.0)
    points = []
    for n in SWEEP_NODES:
        # The previous node count's cluster is cyclic garbage by now;
        # free it here, outside both clocks, so peak memory is one
        # cluster's and not the sweep's sum.
        cluster = app = saved = None
        gc.collect()
        mbs = split_memory(rng, n, SWEEP_MB_PER_RANK * scale)
        intervals = [SWEEP_INTERVAL_S * (1.0 + rng.uniform(-0.05, 0.05))
                     for _ in range(SWEEP_ROUNDS)]
        with rep.setup():
            with rep.phase("build"):
                cluster = CruzCluster(n, seed=seed, trace_enabled=True)
                rep.sim = cluster.sim
            with rep.phase("launch"):
                app = cluster.launch_app_factory(
                    "slm", n, slm_ranks(n, mbs, total_work_s=1e6))
            with rep.phase("steady"):
                cluster.run_for(0.5)  # mesh up
        rounds = []
        with rep.timed():
            for interval in intervals:
                with rep.phase("steady"):
                    cluster.run_for(interval)
                with rep.phase("checkpoint"):
                    rounds.append(cluster.checkpoint_app(app))
            with rep.phase("restart"):
                cluster.crash_app(app)
                restart = cluster.restart_app(app)
        for stats in rounds + [restart]:
            out.check(stats.committed,
                      f"ckpt_sweep n={n}: epoch {stats.epoch} "
                      f"({stats.kind}) did not commit")
        saved = [thaw_object(cluster.store.load(pod.name)
                             .processes[0].program_blob)
                 for pod in app.pods]
        out.check(all(restored_matches_saved(s, slm_state(p),
                                             slm_field_exact(p))
                      for s, p in zip(saved, cluster.app_programs(app))),
                  f"ckpt_sweep n={n}: restored state differs from image")
        add_counts(out.counts, cluster_counts(cluster, rounds + [restart]))
        out.sim_s += cluster.sim.now
        points.append({
            "latency": mean([r.latency_s for r in rounds]),
            "overhead": mean([r.coordination_overhead_s for r in rounds]),
            "local": mean([r.max_local_op_s for r in rounds]),
            "restart": restart.latency_s,
            "disk_s": max(mbs) * (1 << 20)
            / cluster.costs.disk_write_bandwidth,
        })
    largest = points[-1]
    out.sim = {
        "sim_ckpt_latency_s": largest["latency"],
        "sim_coord_overhead_us": largest["overhead"] * 1e6,
        "sim_restart_latency_s": largest["restart"],
    }
    out.image_bytes = image_bytes(out.counts)
    fig5_shape_checks(out, points)
    return out


def fig5_shape_checks(out: Outcome, points: List[Dict[str, float]]) -> None:
    """The paper's Fig. 5 claims, at reduced bytes: where the paper says
    "about a second" this asks for "about the largest rank's image over
    the disk bandwidth"."""
    latencies = [p["latency"] for p in points]
    overheads = [p["overhead"] for p in points]
    out.check(max(latencies) < 1.3 * min(latencies),
              f"fig5 latency_flat: {latencies}")
    out.check(all(0.8 < p["latency"] / p["disk_s"] < 1.6 for p in points),
              "fig5 latency_is_disk_bound: "
              f"{[p['latency'] / p['disk_s'] for p in points]}")
    out.check(all(p["local"] > 0.95 * p["latency"] for p in points),
              "fig5 save_dominates")
    out.check(all(1e-5 < v < 5e-3 for v in overheads),
              f"fig5 overhead_microseconds: {overheads}")
    out.check(overheads[-1] > overheads[0],
              f"fig5 overhead_grows: {overheads}")
    out.check(all(0.3 * p["latency"] < p["restart"] < 3.0 * p["latency"]
                  for p in points), "fig5 restart_similar")


# -- restore_churn -----------------------------------------------------------

def restore_churn(rep: Rep, seed: int, scale: float) -> Outcome:
    rng = random.Random(seed)
    out = Outcome()
    nodes, ranks = CHURN_APP_NODES, CHURN_RANKS
    mbs = split_memory(rng, ranks, CHURN_MB_PER_RANK * scale)
    run_s = [CHURN_RUN_S * (1.0 + rng.uniform(-0.1, 0.1))
             for _ in range(CHURN_CYCLES)]
    placement = list(range(ranks))
    migrate_rank, crash_rank = 0, 1
    with rep.setup():
        with rep.phase("build"):
            cluster = CruzCluster(nodes, seed=seed, supervise=True)
            rep.sim = cluster.sim
        with rep.phase("launch"):
            app = cluster.launch_app_factory(
                "slm", ranks, slm_ranks(
                    ranks, mbs, total_work_s=CHURN_COMPUTE_S_PER_STEP
                    * 100000 * ranks))
        with rep.phase("steady"):
            cluster.run_for(0.5)
        with rep.phase("checkpoint"):
            rounds = [cluster.checkpoint_app(app)]   # the full base image
    store = cluster.store
    checkpoints, restarts, restored = [], [], []
    with rep.timed():
        for cycle in range(CHURN_CYCLES):
            with rep.phase("steady"):
                cluster.run_for(run_s[cycle])
            with rep.phase("checkpoint"):
                checkpoints.append(
                    cluster.checkpoint_app(app, incremental=True))
            placement = [(index + 1) % nodes for index in placement]
            with rep.phase("restart"):
                cluster.crash_app(app)
                restarts.append(
                    cluster.restart_app(app, node_indices=placement))
            restored += [
                (pod.name, store.latest_version(pod.name),
                 slm_state(program), slm_field_exact(program))
                for pod, program in zip(app.pods,
                                        cluster.app_programs(app))]
        with rep.phase("migrate"):
            pod = app.pods[migrate_rank]
            hosting = {p.node.name for p in app.pods}
            target = next(i for i in range(nodes)
                          if cluster.nodes[i].name not in hosting)
            app.pods[migrate_rank] = cluster.migrate_pod(
                pod, target, live=True)
            migration = cluster.last_migration
        with rep.phase("checkpoint"):
            checkpoints.append(cluster.checkpoint_app(app, incremental=True))
        with rep.phase("failover"):
            victim = cluster.nodes.index(app.pods[crash_rank].node)
            supervisor = cluster.supervisor
            cluster.crash_node(victim)
            cluster.run_for(0.05)   # past the crash instant
            cluster.run_until(
                lambda: bool(supervisor.failovers)
                and not supervisor.failover_active(app.name),
                limit=cluster.sim.now + 60.0)
            cluster.repoint_app(app)
            cluster.revive_node(victim)
            cluster.run_for(1.0)    # heal window: re-replication settles
        with rep.phase("verify"):
            images = {}
            for pod in app.pods:
                for version in store.reconstructible_versions(pod.name):
                    image = store.load(pod.name, version)
                    images[pod.name, version] = image
                    out.check(verify_image(image).ok,
                              f"verify_image {pod.name} v{version}")
    for stats in rounds + checkpoints + restarts:
        out.check(stats.committed,
                  f"restore_churn: epoch {stats.epoch} ({stats.kind}) "
                  f"did not commit")
    for pod_name, version, live_state, live_exact in restored:
        saved = thaw_object(
            images[pod_name, version].processes[0].program_blob)
        out.check(restored_matches_saved(saved, live_state, live_exact),
                  f"restore_churn: {pod_name} v{version} restored state "
                  f"differs from image")
    out.check(len(supervisor.failovers) == 1 and not supervisor.failures,
              f"restore_churn: failovers={len(supervisor.failovers)} "
              f"failures={supervisor.failures}")
    out.check(all(slm_field_exact(p) for p in cluster.app_programs(app)),
              "restore_churn: final slm field is not exact")
    out.check(not store.under_replicated(),
              "restore_churn: chunks left under-replicated after heal")
    out.sim = {
        "sim_ckpt_latency_s": mean([r.latency_s for r in checkpoints]),
        "sim_coord_overhead_us": mean(
            [r.coordination_overhead_s for r in checkpoints]) * 1e6,
        "sim_restart_latency_s": mean([r.latency_s for r in restarts]),
        "sim_migrate_pause_ms": migration.pause_window_s * 1e3,
        "sim_failover_mttr_s": supervisor.failovers[0].mttr_s,
    }
    out.counts = cluster_counts(cluster, rounds + checkpoints + restarts)
    out.sim_s = cluster.sim.now
    out.image_bytes = image_bytes(out.counts)
    return out


# -- tcp_mesh ----------------------------------------------------------------

def wire_flows(cluster, rng: random.Random, n_flows: int,
               payload_bytes: int, window_s: float):
    """Schedule ``n_flows`` TCP transfers between seed-derived peers.

    Each flow listens on its own port at the sink, connects from the
    source at a seed-derived instant inside ``window_s``, pushes
    ``payload_bytes`` and records when the sink has read every byte.
    Returns the flow records and a ``done()`` predicate for
    ``run_until`` (a counter: it is evaluated after every event batch).
    """
    sim = cluster.sim
    nodes = cluster.nodes
    payload = b"\x5a" * payload_bytes
    flows: List[Dict] = []
    completed = [0]

    def start_flow(flow: Dict) -> None:
        src, dst = nodes[flow["src"]], nodes[flow["dst"]]
        flow["start"] = sim.now
        listener = dst.stack.tcp.listen(dst.stack.eth0.ip, flow["port"])

        def on_accept(event) -> None:
            connection = event.value

            def drain() -> None:
                if flow["end"] is not None:
                    return      # already complete; late FIN wakeups
                flow["received"] += len(connection.read(1 << 20))
                if flow["received"] >= payload_bytes:
                    flow["end"] = sim.now
                    completed[0] += 1
                    connection.close()

            connection.on_readable.append(drain)
            drain()

        listener.accept().callbacks.append(on_accept)
        connection = src.stack.tcp.connect(
            src.stack.eth0.ip, dst.stack.eth0.ip, flow["port"])
        source = {"remaining": payload, "pumping": False}

        def pump() -> None:
            # send() runs the on_writable callbacks itself; without the
            # guard the nested call would resend the slice in flight.
            if source["pumping"]:
                return
            source["pumping"] = True
            try:
                while source["remaining"] and connection.send_space > 0:
                    accepted = connection.send(source["remaining"][:4096])
                    source["remaining"] = source["remaining"][accepted:]
            finally:
                source["pumping"] = False

        connection.on_writable.append(pump)
        connection.established_event.callbacks.append(lambda _ev: pump())

    starts = sorted(rng.uniform(0.0, window_s) for _ in range(n_flows))
    for k, at in enumerate(starts):
        src = rng.randrange(len(nodes))
        dst = rng.randrange(len(nodes) - 1)
        flow = {"src": src, "dst": dst + 1 if dst >= src else dst,
                "port": 20000 + k, "start": None, "end": None,
                "received": 0}
        flows.append(flow)
        sim.call_at(at, start_flow, flow)
    return flows, lambda: completed[0] == n_flows


def tcp_mesh(rep: Rep, seed: int, scale: float) -> Outcome:
    rng = random.Random(seed)
    out = Outcome()
    n_flows = max(8, round(MESH_FLOWS * scale))
    with rep.setup():
        with rep.phase("build"):
            cluster = Cluster(MESH_NODES, seed=seed, trace_enabled=False)
            rep.sim = cluster.sim
        with rep.phase("launch"):
            flows, done = wire_flows(cluster, rng, n_flows,
                                     MESH_PAYLOAD_BYTES, MESH_WINDOW_S)
    with rep.timed():
        with rep.phase("drain"):
            cluster.run_until(done, limit=120.0)
    for flow in flows:
        out.check(flow["received"] == MESH_PAYLOAD_BYTES,
                  f"tcp_mesh: flow {flow['port']} read "
                  f"{flow['received']} bytes")
    latencies = [f["end"] - f["start"] for f in flows]
    out.sim = {
        "sim_flow_p50_ms": percentile(latencies, 50) * 1e3,
        "sim_flow_p99_ms": percentile(latencies, 99) * 1e3,
    }
    out.counts = cluster_counts(cluster, ())
    out.sim_s = cluster.sim.now
    out.payload_bytes = n_flows * MESH_PAYLOAD_BYTES
    return out


# -- serve_fleet -------------------------------------------------------------

def serve(seed: int, sessions: int, disrupt: bool) -> dict:
    # kill_backend and failover stay off: restoring one backend under
    # the live proxy can start a pure-ACK ping-pong between the two
    # (README, "Findings") that turns the run into a storm meter -- or,
    # for some seeds, never ends. restore_churn keeps the failover path.
    return run_serve(
        backends=SERVE_BACKENDS, clients=SERVE_CLIENTS, sessions=sessions,
        requests_per_session=SERVE_REQUESTS_PER_SESSION,
        rounds=2 if disrupt else 0, migrate=disrupt, canary=disrupt,
        think_time_s=SERVE_THINK_S, seed=seed)


def serve_fleet(rep: Rep, seed: int, scale: float) -> Outcome:
    out = Outcome()
    sessions = max(2, round(SERVE_SESSIONS * scale))
    # run_serve builds its own cluster, so set-up is measured on a
    # one-session fleet of the same shape: build, fleet up, baseline
    # images, first connections.
    with rep.setup():
        with rep.phase("build"):
            warm = serve(seed, sessions=1, disrupt=False)
    with rep.timed():
        with rep.phase("steady"):
            report = serve(seed, sessions=sessions, disrupt=True)
    overall = report["slo"]["overall"]
    statuses = overall["by_status"]
    expected = SERVE_CLIENTS * sessions * SERVE_REQUESTS_PER_SESSION
    out.ops = expected
    lost = expected - statuses.get("ok", 0)
    if lost:
        out.failures.append(f"serve_fleet: {lost} of {expected} requests "
                            f"not answered ok ({statuses})")
    out.check(warm["ok"], "serve_fleet: warm-up fleet not ok")
    out.check(all(code == 0 for code in report["client_exits"]),
              f"serve_fleet: client exits {report['client_exits']}")
    out.check(report["replicas_consistent"],
              "serve_fleet: replica digests differ")
    out.check(bool(report["canary"]) and report["canary"]["promoted"],
              f"serve_fleet: canary {report['canary']}")
    out.sim = {
        "sim_req_p50_ms": overall["p50_s"] * 1e3,
        "sim_req_p99_ms": overall["p99_s"] * 1e3,
    }
    out.counts = {
        "serve.requests_ok": statuses.get("ok", 0),
        "serve.requests_shed": statuses.get("shed", 0),
    }
    out.sim_s = warm["sim_time_s"] + report["sim_time_s"]
    return out


# -- mc_explore --------------------------------------------------------------

def mc_explore(rep: Rep, seed: int, scale: float) -> Outcome:
    rng = random.Random(seed)
    out = Outcome()
    # The explored tree does not depend on these two; they move the
    # simulated instants every run passes through.
    timing = {"warmup_s": 0.3 + rng.uniform(-0.01, 0.03),
              "memory_mb": 1.0 + rng.uniform(-0.01, 0.01)}
    # --smoke explores the 36-run schedule-only space.
    config = McConfig(**timing) if scale < 0.5 else McConfig(
        fault_modes=MC_FAULT_MODES, fault_budget=1,
        fault_kinds=MC_FAULT_KINDS, **timing)
    with rep.setup():
        with rep.phase("build"):
            # One default-schedule run: cluster build, app launch, one
            # round and the end-state audit.
            warm = explore(McConfig(max_states=1, **timing),
                           stop_on_violation=False)
    with rep.timed():
        with rep.phase("steady"):
            report = explore(config, stop_on_violation=False)
    out.ops = report.runs
    out.failures += [f"mc_explore: {v['rendered']}"
                     for v in report.violations]
    out.failures += [f"mc_explore: {e}" for e in report.harness_errors]
    out.check(warm.runs == 1 and warm.ok, "mc_explore: warm-up run failed")
    out.check(report.exhausted, "mc_explore: space not exhausted")
    out.counts = {"analysis.mc.runs": report.runs}
    return out


WORKLOADS: Dict[str, Callable[[Rep, int, float], Outcome]] = {
    "ckpt_sweep": ckpt_sweep,
    "restore_churn": restore_churn,
    "tcp_mesh": tcp_mesh,
    "serve_fleet": serve_fleet,
    "mc_explore": mc_explore,
}

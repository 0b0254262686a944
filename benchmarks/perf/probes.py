"""Isolated layer rates: one number per layer API, fixed op counts.

Each probe builds the smallest thing that exercises one layer through
its public, default-preset API, times a fixed number of operations and
returns ``{metric: rate}``. A probe whose symbols are gone (the planned
deletions) reports ``null`` with a one-line warning instead of failing
the run. Rates are best-of-``PASSES``; none has a bound.
"""

from __future__ import annotations

import random
import sys
import time
from typing import Callable, Dict, List, Optional

import metrics

PASSES = 2


def _clock(fn: Callable[[], object]) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _delays(n: int) -> List[float]:
    rng = random.Random(1)
    return [rng.random() for _ in range(n)]


# -- sim ---------------------------------------------------------------------

def event_queue(n: int) -> Dict[str, float]:
    from repro.sim import Simulator
    sim = Simulator()
    delays = _delays(n)

    def fire() -> None:
        pass

    def push_pop() -> None:
        for delay in delays:
            sim.defer(delay, fire)
        sim.run()

    return {"sim.eventq.push_pop_per_s": n / _clock(push_pop)}


def timers(n: int) -> Dict[str, float]:
    from repro.sim import Simulator
    from repro.sim.timers import timers_for
    sim = Simulator()
    wheel = timers_for(sim)
    delays = _delays(n)

    def fire() -> None:
        pass

    def arm_cancel() -> None:
        for delay in delays:
            wheel.after(delay + 0.001, fire).cancel()
        sim.run()

    return {"sim.timers.arm_cancel_per_s": n / _clock(arm_cancel)}


def spans(n: int) -> Dict[str, float]:
    from repro.sim import SpanRecorder
    recorder = SpanRecorder(clock=lambda: 0.0)

    def begin_end() -> None:
        for _ in range(n):
            recorder.end(recorder.begin("probe", node="node0"))

    return {"sim.spans.begin_end_per_s": n / _clock(begin_end)}


def _small_rounds(nodes: int, mb_per_rank: float, rounds: int,
                  **cluster_options) -> float:
    """Wall seconds of a few coordinated rounds on a small slm job."""
    from repro.apps import slm_factory
    from repro.cruz import CruzCluster
    cluster = CruzCluster(nodes, **cluster_options)
    app = cluster.launch_app_factory(
        "slm", nodes, slm_factory(
            nodes, global_rows=8 * nodes, cols=32, steps=100000,
            total_work_s=1e6, memory_mb_per_rank=mb_per_rank))
    cluster.run_for(0.5)

    def run() -> None:
        for _ in range(rounds):
            cluster.run_for(0.2)
            cluster.checkpoint_app(app)

    return _clock(run)


def span_overhead(n: int) -> Dict[str, float]:
    mb = n / 1000.0
    return {"sim.spans.overhead_ratio":
            _small_rounds(2, mb, 3, trace_enabled=True)
            / _small_rounds(2, mb, 3, trace_enabled=False)}


def sanitize_overhead(n: int) -> Dict[str, float]:
    mb = n / 1000.0
    return {"analysis.sanitize.overhead_ratio":
            _small_rounds(2, mb, 3, sanitize=True)
            / _small_rounds(2, mb, 3, sanitize=False)}


def protocol_rounds(n: int) -> Dict[str, float]:
    # 8 nodes and no workspace: the round is pure coordination.
    return {"cruz.protocol.rounds_per_s": n / _small_rounds(8, 0.0, n)}


# -- net ---------------------------------------------------------------------

def _frame(src, dst):
    from repro.net import (ETHERTYPE_IP, PROTO_UDP, EthernetFrame, IpPacket,
                           Ipv4Address, UdpDatagram)
    packet = IpPacket(src=Ipv4Address(1), dst=Ipv4Address(2),
                      protocol=PROTO_UDP,
                      payload=UdpDatagram(1, 2, b"x" * 1000))
    return EthernetFrame(src=src, dst=dst, ethertype=ETHERTYPE_IP,
                         payload=packet)


def link(n: int) -> Dict[str, float]:
    from repro.net import Link, MacAddress, Port
    from repro.sim import Simulator
    sim = Simulator()
    received = [0]

    def sink(_frame, _port) -> None:
        received[0] += 1

    a, b = Port("a", sink), Port("b", sink)
    Link(sim, a, b)
    frame = _frame(MacAddress.ordinal(1), MacAddress.ordinal(2))

    def carry() -> None:
        for _ in range(n):
            a.transmit(frame)
        sim.run()

    seconds = _clock(carry)
    if received[0] != n:
        raise RuntimeError(f"link delivered {received[0]} of {n} frames")
    return {"net.link.frames_per_s": n / seconds}


def switch(n: int) -> Dict[str, float]:
    from repro.net import Link, MacAddress, Port, Switch
    from repro.sim import Simulator
    sim = Simulator()
    fabric = Switch(sim)
    received = [0]

    def sink(_frame, _port) -> None:
        received[0] += 1

    hosts = []
    for index in range(4):
        port = Port(f"host{index}", sink)
        Link(sim, port, fabric.new_port())
        hosts.append((port, MacAddress.ordinal(index + 1)))
    for port, mac in hosts:         # teach the switch every address
        port.transmit(_frame(mac, hosts[0][1]))
    sim.run()
    received[0] = 0
    frames = [(hosts[i][0], _frame(hosts[i][1], hosts[(i + 1) % 4][1]))
              for i in range(4)]

    def forward() -> None:
        for index in range(n):
            port, frame = frames[index % 4]
            port.transmit(frame)
        sim.run()

    seconds = _clock(forward)
    if received[0] != n:
        raise RuntimeError(f"switch delivered {received[0]} of {n} frames")
    return {"net.switch.frames_per_s": n / seconds}


# -- tcp ---------------------------------------------------------------------

def _flows(n_flows: int, payload_bytes: int, window_s: float):
    """(seconds, cluster) for ``n_flows`` transfers on a 2-node cluster."""
    from repro.cluster import Cluster
    from workloads import wire_flows
    cluster = Cluster(2, trace_enabled=False)
    _flows, done = wire_flows(cluster, random.Random(1), n_flows,
                              payload_bytes, window_s)
    seconds = _clock(lambda: cluster.run_until(done, limit=600.0))
    return seconds, cluster


def tcp_bulk(n: int) -> Dict[str, float]:
    payload = n * 1024
    seconds, cluster = _flows(1, payload, 0.0)
    segments = sum(node.stack.tcp.segments_received
                   for node in cluster.nodes)
    return {"tcp.bulk_mb_per_s": payload / 1e6 / seconds,
            "tcp.segments_per_s": segments / seconds}


def tcp_setup(n: int) -> Dict[str, float]:
    # One byte a flow: handshake, one segment, close.
    seconds, _cluster = _flows(n, 1, n * 2e-4)
    return {"tcp.conn_setup_per_s": n / seconds}


# -- simos -------------------------------------------------------------------

def syscalls(n: int) -> Dict[str, float]:
    from repro import Exit, PhasedProgram
    from repro import sys as syscall
    from repro.cluster import Cluster

    class Spin(PhasedProgram):
        name = "spin"

        def __init__(self, left: int):
            super().__init__()
            self.left = left

        def phase_main(self, result):
            if self.left == 0:
                return Exit(0)
            self.left -= 1
            return syscall("gettime")

    cluster = Cluster(1, trace_enabled=False)
    process = cluster.nodes[0].spawn(Spin(n))
    seconds = _clock(lambda: cluster.run_until(
        lambda: not process.is_alive, limit=600.0))
    return {"simos.kernel.syscalls_per_s": n / seconds}


def file_ops(n: int) -> Dict[str, float]:
    from repro.simos import SharedFileSystem
    fs = SharedFileSystem()
    block = b"\x5a" * 4096

    def churn() -> None:
        for index in range(n):
            path = f"/probe/{index % 64}"
            fs.create(path)
            fs.write_at(path, 0, block)
            fs.read_at(path, 0, 4096)
            fs.size(path)
            fs.unlink(path)

    return {"simos.fs.file_ops_per_s": 5 * n / _clock(churn)}


# -- zap and the image store -------------------------------------------------

def image_path(n: int) -> Dict[str, float]:
    """One pod's image through capture, full and incremental save, load,
    verify and restore; ``n`` KiB of state, 5 % re-dirtied in between."""
    from repro.apps import ComputeBound
    from repro.cruz import CruzCluster, CruzSocketCodec
    from repro.zap import CheckpointEngine, RestartEngine, verify_image
    cluster = CruzCluster(1, trace_enabled=False)
    app = cluster.launch_app("probe", [ComputeBound(
        iterations=10 ** 6, work_s=0.01, state_bytes=n * 1024,
        touch_fraction=0.05)])
    cluster.run_for(0.1)
    pod = app.pods[0]
    node, store = pod.node, cluster.store
    codec = CruzSocketCodec()
    engine = CheckpointEngine(codec)      # no store: capture only
    megabytes = n * 1024 / 1e6
    out: Dict[str, float] = {}

    def capture(**options):
        return cluster.run_until_complete(
            cluster.sim.process(engine.checkpoint(pod, **options)))

    def rate(name: str, fn: Callable[[], object]) -> object:
        started = time.perf_counter()
        result = fn()
        out[name] = megabytes / (time.perf_counter() - started)
        return result

    full = rate("zap.checkpoint.image_mb_per_s", capture)
    rate("cruz.storage.save_full_mb_per_s",
         lambda: store.save(full, mode="full", writer=node.name))
    cluster.run_for(0.015)                # one iteration: 5 % re-dirtied
    delta = capture(incremental=True)
    rate("cruz.storage.save_incr_mb_per_s",
         lambda: store.save(delta, mode="incremental", writer=node.name))
    loaded = rate("cruz.storage.load_mb_per_s",
                  lambda: store.load(pod.name))
    report = rate("cruz.storage.verify_mb_per_s",
                  lambda: verify_image(loaded))
    if not report.ok:
        raise RuntimeError(f"probe image did not verify: {report.problems}")
    cluster.destroy_pod(pod)
    restore = RestartEngine(codec)
    rate("zap.restart.image_mb_per_s",
         lambda: cluster.run_until_complete(cluster.sim.process(
             restore.restart(loaded, node))))
    return out


def backend(n: int) -> Dict[str, float]:
    import hashlib
    from repro.cruz import CruzCluster
    chunk_backend = CruzCluster(4, trace_enabled=False).store.backend
    cids = [hashlib.sha256(b"%d" % index).hexdigest() for index in range(n)]
    payload = b"\x5a" * 4096
    out = {}
    out["cruz.backend.placement_per_s"] = n / _clock(
        lambda: [chunk_backend.placement(cid, "node0") for cid in cids])
    out["cruz.backend.put_per_s"] = n / _clock(
        lambda: [chunk_backend.put_chunk(cid, payload, writer="node0")
                 for cid in cids])
    out["cruz.backend.get_per_s"] = n / _clock(
        lambda: [chunk_backend.get_chunk(cid) for cid in cids])
    return out


# -- apps, serve, analysis ---------------------------------------------------

def slm_steps(n: int) -> Dict[str, float]:
    from repro.apps import slm_factory
    from repro.cruz import CruzCluster
    ranks = 4
    cluster = CruzCluster(ranks, trace_enabled=False)
    app = cluster.launch_app_factory(
        "slm", ranks, slm_factory(ranks, global_rows=8 * ranks, cols=32,
                                  steps=n))
    seconds = _clock(lambda: cluster.run_until(
        lambda: all(p.step_count >= n for p in cluster.app_programs(app)),
        limit=600.0))
    return {"apps.slm.steps_per_s": ranks * n / seconds}


def kv_direct(n: int) -> Dict[str, float]:
    from repro.apps import KvClient, KvServer
    from repro.cruz import CruzCluster
    cluster = CruzCluster(1, trace_enabled=False)
    pod = cluster.create_pod(0, "kv")
    pod.spawn(KvServer())
    cluster.run_for(0.05)
    requests = [{"op": "put", "key": f"k{index % 16}", "value": index}
                if index % 2 else {"op": "get", "key": f"k{index % 16}"}
                for index in range(n)]
    client = KvClient(str(pod.ip), requests)
    process = cluster.coordinator_node.spawn(client)
    seconds = _clock(lambda: cluster.run_until(
        lambda: not process.is_alive, limit=600.0))
    if process.exit_code != 0:
        raise RuntimeError(f"kv client exited with {process.exit_code}")
    return {"apps.kv.requests_per_s": n / seconds}


def kv_proxy(n: int) -> Dict[str, float]:
    from workloads import SERVE_CLIENTS, SERVE_REQUESTS_PER_SESSION, serve
    started = time.perf_counter()
    report = serve(seed=1, sessions=n, disrupt=False)
    seconds = time.perf_counter() - started
    requests = SERVE_CLIENTS * n * SERVE_REQUESTS_PER_SESSION
    if not report["ok"]:
        raise RuntimeError("undisrupted serve run not ok")
    return {"apps.kvproxy.requests_per_s": requests / seconds}


def mc_schedules(_n: int) -> Dict[str, float]:
    from repro.analysis.mc import McConfig, explore
    started = time.perf_counter()
    report = explore(McConfig(), stop_on_violation=False)
    return {"analysis.mc.schedule_runs_per_s":
            report.runs / (time.perf_counter() - started)}


#: (probe, op count): sized so a pass is 0.05-0.5 s on a 2.1 GHz core.
PROBES = [
    (event_queue, 40000), (timers, 40000), (spans, 40000),
    (span_overhead, 2000), (link, 40000), (switch, 20000),
    (tcp_bulk, 2048), (tcp_setup, 400), (syscalls, 40000),
    (file_ops, 40000), (image_path, 32768), (backend, 20000),
    (protocol_rounds, 20), (slm_steps, 200), (kv_direct, 1000),
    (kv_proxy, 3), (mc_schedules, 0), (sanitize_overhead, 2000),
]

#: A symbol the planned deletions removed surfaces as one of these.
MISSING = (ImportError, AttributeError, TypeError, KeyError)


def run_all(smoke: bool = False) -> Dict[str, Optional[float]]:
    """Every probe, best of ``PASSES`` (one pass at a quarter of the
    ops under ``--smoke``)."""
    values: Dict[str, Optional[float]] = {
        name: None for name, _unit, _better in metrics.PROBES}
    better = {name: direction for name, _unit, direction in metrics.PROBES}
    for probe, ops in PROBES:
        for _ in range(1 if smoke else PASSES):
            try:
                rates = probe(max(1, ops // 4) if smoke else ops)
            except MISSING as error:
                print(f"warning: probe {probe.__name__} unavailable: "
                      f"{error!r}", file=sys.stderr)
                break
            for name, value in rates.items():
                best = max if better[name] == "higher" else min
                values[name] = (value if values[name] is None
                                else best(values[name], value))
    return values

"""The fabric against the one it replaced, as an observer sees it.

``tests/reference_fabric.py`` is the batched-direction, draining-switch
fabric. Each scenario here runs on both, under fifo and under lifo, and
must deliver the same frames down every link direction at the same
instants (flood copies included), drop the same frames at the same
instants, and report the same results — ARP caches at quiescence, round
statistics, flow latencies, SLO windows, state hashes. No frame of a
scenario may land in the forwarding window, the one place the two
fabrics are modelled differently (``tests/fabric_harness.py``).
"""

import random
from dataclasses import asdict

import repro.cluster
from repro.analysis import mc
from repro.analysis.determinism import fingerprint, state_hash
from repro.apps.slm import slm_factory
from repro.bench.chaos import run_chaos
from repro.cluster import Cluster
from repro.cruz.cluster import CruzCluster
from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.net.capture import PacketCapture
from repro.net.link import Link, Port
from repro.net.packet import EthernetFrame
from repro.serve.harness import run_serve
from repro.sim.core import Simulator

from tests.fabric_harness import compare, frame_key


def arp_caches(cluster):
    return {node.name: sorted(node.stack.arp.cache.items())
            for node in cluster.nodes}


def test_a_16_node_tcp_mesh():
    def scenario():
        cluster = Cluster(16, seed=5, trace_enabled=False)
        rng = random.Random(5)
        nodes, ends = cluster.nodes, {}
        payload = b"\x5a" * 12000

        def start(port, src, dst):
            listener = dst.stack.tcp.listen(dst.stack.eth0.ip, port)

            def on_accept(event):
                connection, got = event.value, []

                def drain():
                    got.append(len(connection.read(1 << 20)))
                    if sum(got) == len(payload) and port not in ends:
                        ends[port] = cluster.sim.now
                        connection.close()

                connection.on_readable.append(drain)
                drain()

            listener.accept().callbacks.append(on_accept)
            connection = src.stack.tcp.connect(src.stack.eth0.ip,
                                               dst.stack.eth0.ip, port)
            connection.established_event.callbacks.append(
                lambda _ev: connection.send(payload))

        for port in range(20000, 20032):
            # Starts on a 50 µs grid, so arrivals at the switch collide.
            src, dst = rng.sample(nodes, 2)
            cluster.sim.call_at(rng.randrange(40) * 5e-5, start, port,
                                src, dst)
        cluster.run_until(lambda: len(ends) == 32, limit=10.0)
        cluster.run()
        return sorted(ends.items()), arp_caches(cluster)

    assert compare(scenario) == []


def test_a_2_node_slm_round_with_restart():
    def scenario():
        cluster = CruzCluster(2)
        app = cluster.launch_app_factory("slm", 2, slm_factory(
            2, global_rows=16, cols=32, steps=100000, total_work_s=1e6,
            memory_mb_per_rank=1.0))
        cluster.run_for(0.3)
        rounds = [asdict(cluster.checkpoint_app(app))]
        cluster.crash_app(app)
        rounds.append(asdict(cluster.restart_app(app)))
        cluster.run_for(0.2)
        return rounds, state_hash(cluster), arp_caches(cluster)

    assert compare(scenario) == []


def test_a_3_backend_serve_run_with_a_migration():
    def scenario():
        report = run_serve(backends=3, clients=2, sessions=2,
                           requests_per_session=2, rounds=1, migrate=True,
                           seed=3)
        assert report["ok"]
        return report["slo"], report["store_digest"], report["sim_time_s"]

    assert compare(scenario) == []


def test_a_cruzmc_run():
    def scenario():
        result = mc.run_once(mc.McConfig())
        return (result.state_hash, result.committed, result.violations,
                fingerprint("fifo", rounds=1))

    assert compare(scenario) == []


def test_a_chaos_run_with_a_link_flap():
    def scenario():
        result = run_chaos(seed=7, link_flap=True)
        assert result.completed and result.frames_dropped
        assert any(entry["kind"] == "link_down"
                   for entry in result.chaos_log)
        return asdict(result)

    assert compare(scenario) == []


class Note:
    """A frame payload that is only a size and a name."""

    def __init__(self, name, size):
        self.name, self.size = name, size

    def __repr__(self):
        return self.name


def test_random_traffic_through_one_switch():
    """Bursts on a 1 µs grid from eight hosts, so frames from different
    ports reach one egress at one instant in either callback order;
    unicast, unknown and broadcast destinations; a MAC that moves; an
    infinite-bandwidth link, a lossy one, an observed one; links that
    flap. Every address is taught, moved and flapped between bursts:
    inside one, the two fabrics would differ by design."""

    def scenario(seed):
        sim = Simulator()
        rng = random.Random(seed)
        # The switch a cluster builds: the reference one when it runs.
        switch = repro.cluster.Switch(sim)
        capture = PacketCapture()
        hosts, links = [], []
        for index in range(8):
            port = Port(f"h{index}", lambda frame, port: None)
            links.append(Link(
                sim, port, switch.new_port(),
                bandwidth_bps=float("inf") if index == 6 else 1e9,
                latency_s=5e-6,
                drop_fn=(lambda frame: frame.size % 3 == 0)
                if index == 5 else None))
            hosts.append(port)
        capture.attach(links[4])
        macs = [MacAddress.ordinal(index + 1) for index in range(8)]
        roaming = MacAddress.ordinal(99)
        unknown = MacAddress.ordinal(42)

        def send(index, src, dst, size, name):
            hosts[index].transmit(EthernetFrame(src, dst, 0x88b5,
                                                Note(name, size)))

        for index in range(8):
            sim.call_at(index * 1e-4, send, index, macs[index],
                        BROADCAST_MAC, 46, f"hello {index}")
        for burst in range(1, 31):
            start = burst * 1e-3
            if burst % 10 == 1:
                sim.call_at(start - 2e-4, send, burst // 10, roaming,
                            BROADCAST_MAC, 46, f"roam {burst}")
            if burst % 7 == 3:
                victim = links[rng.randrange(8)]
                sim.call_at(start - 4e-4, setattr, victim, "down", True)
                sim.call_at(start + 3e-4, setattr, victim, "down", False)
            for index in rng.sample(range(8), rng.randrange(2, 7)):
                for copy in range(rng.randrange(1, 4)):
                    dst = rng.choice([BROADCAST_MAC, unknown, roaming]
                                     + macs * 2)
                    sim.call_at(start + rng.randrange(4) * 1e-6, send,
                                index, macs[index], dst,
                                rng.choice((46, 46, 100, 1482)),
                                f"{burst}.{index}.{copy}")
        sim.run()
        return sorted((record.time, frame_key(record.frame), record.dropped)
                      for record in capture.frames)

    for seed in range(6):
        assert compare(lambda: scenario(seed)) == []

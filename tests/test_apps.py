"""Application workloads: MPI library, slm model, kv server, streaming."""

import numpy as np
import pytest

from repro.apps.kvserver import KvClient, KvServer
from repro.apps.slm import SlmRank, reference_solution, slm_factory
from repro.apps.tcpstream import stream_factory
from repro.cruz.cluster import CruzCluster

from tests.mpi_programs import CollectiveTester, PingPonger


def make_cluster(n, **kwargs):
    kwargs.setdefault("time_wait_s", 0.5)
    return CruzCluster(n, **kwargs)


def run_app(cluster, app, limit=600.0):
    cluster.run_until(
        lambda: all(not proc.is_alive
                    for pod in app.pods for proc in pod.processes()),
        limit=limit, step=0.5)


def programs(cluster, app):
    return cluster.app_programs(app)


# ---------------------------------------------------------------------------
# MPI library
# ---------------------------------------------------------------------------

def test_mpi_collectives():
    cluster = make_cluster(4)
    app = cluster.launch_app_factory(
        "coll", 4, lambda rank, ips: CollectiveTester(rank, ips))
    run_app(cluster, app)
    testers = programs(cluster, app)
    assert all(t.sum_result == 1 + 2 + 3 + 4 for t in testers)
    assert all(t.max_result == 3 for t in testers)
    assert all(t.barrier_passed for t in testers)
    assert all(t.bcast_result == "hello" for t in testers)


def test_mpi_point_to_point_fifo():
    cluster = make_cluster(3)
    app = cluster.launch_app_factory(
        "pp", 3, lambda rank, ips: PingPonger(rank, ips, rounds=8))
    run_app(cluster, app)
    root = programs(cluster, app)[0]
    # Rank 0 saw, per round, one ping from each peer, in rank order.
    pings = [m for m in root.transcript if m[0] == "ping"]
    assert len(pings) == 8 * 2
    for round_index in range(8):
        chunk = pings[round_index * 2:(round_index + 1) * 2]
        assert [m[1] for m in chunk] == [1, 2]
        assert all(m[2] == round_index for m in chunk)


def test_mpi_survives_coordinated_checkpoint_restart():
    cluster = make_cluster(3)
    app = cluster.launch_app_factory(
        "ppcr", 3,
        lambda rank, ips: PingPonger(rank, ips, rounds=60, work_s=0.005))
    cluster.run_for(0.1)  # mid-run
    cluster.checkpoint_app(app)
    cluster.run_for(0.05)
    cluster.crash_app(app)
    cluster.restart_app(app)
    run_app(cluster, app)
    root = programs(cluster, app)[0]
    pings = [m for m in root.transcript if m[0] == "ping"]
    # Rounds replay from the checkpoint but the transcript stays coherent:
    # per-peer round numbers are non-decreasing and complete through 59.
    per_peer = {1: [], 2: []}
    for _tag, src, round_index in pings:
        per_peer[src].append(round_index)
    for src, rounds in per_peer.items():
        assert rounds[-1] == 59
        assert all(b - a in (0, 1) for a, b in zip(rounds, rounds[1:]))


# ---------------------------------------------------------------------------
# slm
# ---------------------------------------------------------------------------

def assemble_field(ranks):
    ranks = sorted(ranks, key=lambda r: r.rank)
    return np.vstack([r.q for r in ranks])


def test_slm_matches_reference_solution():
    cluster = make_cluster(4)
    steps = 40
    app = cluster.launch_app_factory(
        "slm", 4, slm_factory(4, global_rows=32, cols=24, steps=steps,
                              total_work_s=0.5))
    run_app(cluster, app)
    field = assemble_field(programs(cluster, app))
    np.testing.assert_array_equal(
        field, reference_solution(32, 24, steps))


def test_slm_conserves_mass():
    cluster = make_cluster(2)
    app = cluster.launch_app_factory(
        "slm", 2, slm_factory(2, global_rows=16, cols=16, steps=30,
                              total_work_s=0.2, mass_check_every=5))
    run_app(cluster, app)
    ranks = programs(cluster, app)
    masses = ranks[0].mass_history
    assert len(masses) == 6
    assert all(abs(m - masses[0]) < 1e-9 for m in masses)


def test_slm_bit_identical_across_checkpoint_crash_restart():
    """The strongest transparency check: numerics unchanged by CR."""
    steps = 60
    cluster = make_cluster(3)
    app = cluster.launch_app_factory(
        "slm", 3, slm_factory(3, global_rows=24, cols=16, steps=steps,
                              total_work_s=3.0))
    cluster.run_for(1.0)  # mid-run
    assert any(r.step_count < steps for r in programs(cluster, app))
    cluster.checkpoint_app(app)
    cluster.run_for(0.2)
    cluster.crash_app(app)
    cluster.restart_app(app)
    run_app(cluster, app)
    field = assemble_field(programs(cluster, app))
    np.testing.assert_array_equal(
        field, reference_solution(24, 16, steps))


def test_slm_restarts_on_different_nodes_bit_identical():
    steps = 50
    cluster = make_cluster(4)
    app = cluster.launch_app_factory(
        "slm", 2, slm_factory(2, global_rows=16, cols=16, steps=steps,
                              total_work_s=3.0), node_indices=[0, 1])
    cluster.run_for(1.0)
    cluster.checkpoint_app(app)
    cluster.crash_app(app)
    cluster.restart_app(app, node_indices=[2, 3])
    run_app(cluster, app)
    field = assemble_field(programs(cluster, app))
    np.testing.assert_array_equal(
        field, reference_solution(16, 16, steps))


# ---------------------------------------------------------------------------
# kv server (external client transparency)
# ---------------------------------------------------------------------------

def test_kvserver_live_migration_under_client_load():
    cluster = make_cluster(3)
    pod = cluster.create_pod(0, "kv")
    pod.spawn(KvServer())
    requests = []
    for i in range(200):
        requests.append({"op": "put", "key": f"k{i}", "value": i * i})
    for i in range(200):
        requests.append({"op": "get", "key": f"k{i}"})
    requests.append({"op": "count"})
    # The client runs on the coordinator node: outside any pod, unmodified.
    client_node = cluster.nodes[2]
    client = client_node.spawn(
        KvClient(str(pod.ip), requests, think_time_s=0.002))
    cluster.run_for(0.15)  # part-way through the request stream
    assert 0 < client.program.index < len(requests)
    new_pod = cluster.migrate_pod(pod, target_node_index=1)
    cluster.run_until(lambda: not client.is_alive, limit=60, step=0.5)
    assert client.exit_code == 0
    responses = client.program.responses
    assert len(responses) == len(requests)
    gets = responses[200:400]
    assert all(r["ok"] and r["value"] == i * i
               for i, r in enumerate(gets))
    assert responses[-1] == {"ok": True, "value": 200}
    assert new_pod.node.name == "node1"


def test_kvserver_state_survives_crash_restart():
    cluster = make_cluster(2)
    pod = cluster.create_pod(0, "kv")
    pod.spawn(KvServer())
    app_requests = [{"op": "put", "key": "a", "value": 1},
                    {"op": "put", "key": "b", "value": 2}]
    client = cluster.nodes[1].spawn(
        KvClient(str(pod.ip), app_requests))
    cluster.run_until(lambda: not client.is_alive, limit=30, step=0.1)
    assert client.exit_code == 0

    # Checkpoint the idle server, crash it, restart it elsewhere.
    task = cluster.sim.process(
        cluster.agents[0].checkpoint_engine.checkpoint(pod, resume=True))
    cluster.sim.run_until_complete(task, limit=1e6)
    cluster.destroy_pod(pod)
    restore = cluster.sim.process(
        cluster.restore_pod(cluster.store.load("kv"), cluster.nodes[1]))
    new_pod = cluster.sim.run_until_complete(restore, limit=1e6)

    probe = cluster.nodes[1].spawn(
        KvClient(str(new_pod.ip), [{"op": "get", "key": "a"},
                                   {"op": "get", "key": "b"}]))
    cluster.run_until(lambda: not probe.is_alive, limit=60, step=0.5)
    assert probe.exit_code == 0
    assert [r["value"] for r in probe.program.responses] == [1, 2]


# ---------------------------------------------------------------------------
# streaming
# ---------------------------------------------------------------------------

def test_stream_transfers_all_bytes_and_logs_rate_events():
    cluster = make_cluster(2)
    total = 2_000_000
    app = cluster.launch_app_factory(
        "stream", 2, stream_factory(total_bytes=total))
    run_app(cluster, app)
    receiver = programs(cluster, app)[0]
    assert receiver.received == total
    logged = sum(span.attrs["nbytes"]
                 for span in cluster.spans.query("app.log", message="rx"))
    assert logged == total

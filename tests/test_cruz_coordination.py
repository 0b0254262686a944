"""Coordinated checkpoint/restart of distributed applications (§5)."""

import pytest

from repro.apps.ring import RingWorker, ring_factory, validate_ring
from repro.cruz.cluster import CruzCluster
from repro.errors import CoordinationError


def make_cluster(n_app_nodes, **kwargs):
    kwargs.setdefault("time_wait_s", 0.5)
    kwargs.setdefault("coordinator_timeout_s", 20.0)
    return CruzCluster(n_app_nodes, **kwargs)


def ring_app(cluster, n_ranks, max_token=2000, padding=256,
             work_per_hop_s=0.0005, name="ring"):
    return cluster.launch_app_factory(
        name, n_ranks,
        ring_factory(n_ranks, max_token=max_token, padding=padding,
                     work_per_hop_s=work_per_hop_s))


def workers_of(cluster, app):
    return [p for p in cluster.app_programs(app)
            if isinstance(p, RingWorker)]


def run_app_to_completion(cluster, app, limit=600.0):
    cluster.run_until(
        lambda: all(not proc.is_alive
                    for pod in app.pods for proc in pod.processes()),
        limit=limit, step=0.5)


def test_coordinated_checkpoint_commits_and_app_completes():
    cluster = make_cluster(4)
    app = ring_app(cluster, 4)
    cluster.run_for(0.3)  # ring is circulating
    stats = cluster.checkpoint_app(app)
    assert stats.committed and not stats.aborted
    assert stats.latency_s > 0
    run_app_to_completion(cluster, app)
    workers = workers_of(cluster, app)
    assert all(w.finished or w.seen for w in workers)
    validate_ring(workers)


def test_checkpoint_latency_includes_local_save():
    cluster = make_cluster(2)
    app = ring_app(cluster, 2, max_token=100000)
    # Give each pod real memory so the disk write dominates.
    for pod in app.pods:
        pod.processes()[0].memory.allocate("grid", 50 << 20)
    cluster.run_for(0.2)
    stats = cluster.checkpoint_app(app)
    # 50 MiB at 100 MB/s is ~0.5 s of local save.
    assert stats.max_local_op_s > 0.4
    assert stats.latency_s >= stats.max_local_op_s
    # Coordination adds microseconds, not milliseconds (§6).
    assert stats.coordination_overhead_s < 5e-3


def test_coordination_overhead_microseconds_scale():
    cluster = make_cluster(4)
    app = ring_app(cluster, 4)
    cluster.run_for(0.2)
    stats = cluster.checkpoint_app(app)
    assert 0 < stats.coordination_overhead_s < 2e-3


def test_message_complexity_is_linear():
    counts = {}
    for n in (2, 4, 8):
        cluster = make_cluster(n)
        app = ring_app(cluster, n)
        cluster.run_for(0.2)
        before = cluster.coordination_message_count()
        cluster.checkpoint_app(app)
        counts[n] = cluster.coordination_message_count() - before
    # Fig. 2 protocol: 4 messages per node (checkpoint, done, continue,
    # continue-done).
    assert counts[2] == 8
    assert counts[4] == 16
    assert counts[8] == 32


def test_checkpoint_then_crash_then_restart_preserves_ring_invariant():
    """The end-to-end §5 scenario: consistent global state across failure."""
    cluster = make_cluster(3)
    app = ring_app(cluster, 3, max_token=3000)
    cluster.run_for(0.3)
    stats = cluster.checkpoint_app(app)
    assert stats.committed
    cluster.run_for(0.1)  # keep running past the checkpoint
    cluster.crash_app(app)
    restart_stats = cluster.restart_app(app)
    assert restart_stats.committed
    run_app_to_completion(cluster, app)
    workers = workers_of(cluster, app)
    assert any(w.finished for w in workers)
    validate_ring(workers)


def test_restart_on_different_nodes():
    """Migration via restart: pods land on different machines (§4.2)."""
    cluster = make_cluster(4)
    app = ring_app(cluster, 2, max_token=2500)
    original_nodes = [pod.node.name for pod in app.pods]
    cluster.run_for(0.3)
    cluster.checkpoint_app(app)
    cluster.crash_app(app)
    restart_stats = cluster.restart_app(app, node_indices=[2, 3])
    assert restart_stats.committed
    new_nodes = [pod.node.name for pod in app.pods]
    assert set(new_nodes).isdisjoint(set(original_nodes))
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_restart_from_older_version():
    cluster = make_cluster(2)
    app = ring_app(cluster, 2, max_token=5000)
    cluster.run_for(0.2)
    first = cluster.checkpoint_app(app)   # v1
    v1_progress = max(len(w.seen) for w in workers_of(cluster, app))
    cluster.run_for(0.3)
    cluster.checkpoint_app(app)   # v2
    cluster.crash_app(app)
    cluster.restart_app(app, epoch=first.epoch)
    workers = workers_of(cluster, app)
    # Progress rolled back to roughly the v1 point.
    assert max(len(w.seen) for w in workers) <= v1_progress + 2
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_repeated_periodic_checkpoints():
    cluster = make_cluster(3)
    app = ring_app(cluster, 3, max_token=4000)
    rounds = []
    for _ in range(4):
        cluster.run_for(0.15)
        rounds.append(cluster.checkpoint_app(app))
    assert all(r.committed for r in rounds)
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))
    assert len(cluster.store.versions(app.pods[0].name)) == 4


def test_fig4_optimized_protocol_commits_and_shortens_blocking():
    cluster = make_cluster(3)
    app = ring_app(cluster, 3, max_token=5000)
    # Unequal state sizes: node 0's save is much slower.
    app.pods[0].processes()[0].memory.allocate("big", 80 << 20)
    cluster.run_for(0.2)
    stats = cluster.checkpoint_app(app, optimized=True)
    assert stats.committed
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_abort_on_crashed_agent():
    cluster = make_cluster(3, coordinator_timeout_s=2.0)
    app = ring_app(cluster, 3, max_token=100000)
    cluster.run_for(0.2)
    cluster.agents[1].crashed = True
    with pytest.raises(CoordinationError):
        cluster.checkpoint_app(app)
    stats = cluster.coordinator.rounds[-1]
    assert stats.aborted and not stats.committed


def test_abort_leaves_surviving_nodes_running():
    cluster = make_cluster(3, coordinator_timeout_s=2.0)
    app = ring_app(cluster, 3, max_token=4000)
    cluster.run_for(0.2)
    cluster.agents[2].crashed = True
    with pytest.raises(CoordinationError):
        cluster.checkpoint_app(app)
    cluster.run_for(0.1)  # let the in-flight <abort> messages land
    # Agents 0 and 1 received the abort: their pods resumed and their
    # filters were removed; agent 2's pod is still running too (its agent
    # crashed, not the pod), but its filter never got installed since the
    # crashed agent ignored the request entirely.
    for node in cluster.nodes[:2]:
        assert not node.stack.netfilter.rules
    for pod in app.pods:
        assert any(p.is_alive for p in pod.processes())


def test_checkpoint_with_incremental_flag():
    cluster = make_cluster(2)
    app = ring_app(cluster, 2, max_token=100000)
    app.pods[0].processes()[0].memory.allocate("grid", 40 << 20)
    cluster.run_for(0.2)
    first = cluster.checkpoint_app(app, incremental=True)
    cluster.run_for(0.05)
    second = cluster.checkpoint_app(app, incremental=True)
    # Second incremental round is much faster: only dirty pages written.
    assert second.max_local_op_s < first.max_local_op_s / 5

"""Failure injection: coordinator crashes, link flaps, torture runs."""

import pytest

from repro.apps.ring import validate_ring
from repro.apps.slm import reference_solution, slm_factory
from repro.cruz.consistency import check_global_consistency
from repro.errors import CoordinationError

from tests.test_cruz_coordination import (
    make_cluster,
    ring_app,
    run_app_to_completion,
    workers_of,
)


def test_coordinator_crash_mid_round_agents_abort_unilaterally():
    """Agents finish the local save, hear nothing, and abort: pods
    resume, filters drop, no image version is committed."""
    cluster = make_cluster(2, coordinator_timeout_s=300.0)
    for agent in cluster.agents:
        agent.continue_timeout_s = 2.0
    app = ring_app(cluster, 2, max_token=30000)
    cluster.run_for(0.2)
    versions_before = {pod.name: 0 for pod in app.pods}

    # Start a round, then kill the coordinator after <done> is sent but
    # before <continue>: silence its UDP handler.
    from repro.cruz.protocol import COORDINATOR_PORT
    task = cluster.sim.process(cluster.coordinator.checkpoint(app))
    cluster.run_for(0.001)  # <checkpoint> delivered, saves in progress
    cluster.coordinator_node.stack.udp.unbind(COORDINATOR_PORT)
    cluster.run_for(5.0)  # agents time out waiting for <continue>

    for agent in cluster.agents:
        assert agent.unilateral_aborts == 1
    # The pods resumed and their filters were removed.
    for index, pod in enumerate(app.pods):
        assert not cluster.nodes[index].stack.netfilter.rules
        assert any(p.is_alive for p in pod.processes())
    # No committed image exists for either pod.
    for pod in app.pods:
        with pytest.raises(Exception):
            cluster.store.latest_version(pod.name)
    del task, versions_before
    # The ring is still healthy.
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_link_flap_during_checkpoint_round():
    """A brief link outage delays, but does not corrupt, a round."""
    cluster = make_cluster(2, coordinator_timeout_s=60.0)
    app = ring_app(cluster, 2, max_token=4000)
    cluster.run_for(0.2)
    # Take node0's link down for the whole round: every transmission of
    # <checkpoint> (original and retries) is lost, the sender exhausts
    # its retry budget and fails the round well before the 60 s round
    # timeout. A *shorter* flap would instead be ridden out by
    # retransmission (tests/test_control_faults.py).
    cluster.links[0].down = True
    with pytest.raises(CoordinationError):
        cluster.checkpoint_app(app, limit=1e6)
    cluster.links[0].down = False
    cluster.run_for(1.0)
    stats = cluster.checkpoint_app(app)
    assert stats.committed
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_torture_random_checkpoints_and_migrations_stay_bit_identical():
    """The integration torture test: random-phase checkpoints, a crash
    + rollback, and a live migration — final slm field must still be
    bit-identical to the analytic reference."""
    import random
    rng = random.Random(20260707)
    steps = 90
    cluster = make_cluster(4)
    app = cluster.launch_app_factory(
        "slm", 2, slm_factory(2, global_rows=16, cols=24, steps=steps,
                              total_work_s=9.0), node_indices=[0, 1])
    # Several checkpoints at random instants, mixed protocols.
    for index in range(4):
        cluster.run_for(0.2 + rng.random() * 0.5)
        stats = cluster.checkpoint_app(
            app, optimized=bool(index % 2),
            early_network=bool(index % 2),
            incremental=index >= 2)
        assert stats.committed
    # Live-migrate one rank.
    cluster.migrate_pod(app.pods[0], target_node_index=2)
    cluster.run_for(0.3 + rng.random() * 0.3)
    # Crash everything and roll back to the last checkpoint.
    cluster.checkpoint_app(app)
    cluster.crash_app(app)
    cluster.restart_app(app, node_indices=[3, 1])
    run_app_to_completion(cluster, app)

    import numpy as np
    from tests.test_apps import assemble_field
    field = assemble_field(cluster.app_programs(app))
    np.testing.assert_array_equal(field,
                                  reference_solution(16, 24, steps))


def test_coordinator_crash_then_restart_recovers_via_wal():
    """A replacement coordinator re-attaches through the shared-store
    round log: it aborts the round its predecessor left in flight, never
    commits it, and resumes epoch numbering past it."""
    cluster = make_cluster(2, coordinator_timeout_s=300.0)
    for agent in cluster.agents:
        agent.continue_timeout_s = 5.0
    app = ring_app(cluster, 2, max_token=30000)
    cluster.run_for(0.2)

    task = cluster.sim.process(cluster.coordinator.checkpoint(app))
    cluster.run_for(0.001)  # <checkpoint> logged and sent, saves started
    epoch = cluster.coordinator._epoch
    assert cluster.store.rounds.outcome(epoch) is None  # in flight
    cluster.crash_coordinator()
    cluster.run_for(0.5)

    replacement = cluster.restart_coordinator()
    # Recovery decided the in-flight round: aborted, with a record.
    assert cluster.store.rounds.outcome(epoch) == "abort"
    record = cluster.store.rounds.abort_record(epoch)
    assert record["reason"] == "coordinator restart"
    cluster.run_for(2.0)
    # No half-taken checkpoint was committed.
    for pod in app.pods:
        with pytest.raises(Exception):
            cluster.store.latest_version(pod.name)
    for index, pod in enumerate(app.pods):
        assert not cluster.nodes[index].stack.netfilter.rules
        assert any(p.is_alive for p in pod.processes())
    del task
    # The replacement runs the next round under a fresh epoch.
    stats = cluster.checkpoint_app(app)
    assert stats.committed
    assert stats.epoch == epoch + 1
    assert replacement is cluster.coordinator
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_agent_unilateral_abort_is_logged_to_wal():
    """Silent-coordinator aborts leave an abort record agents of a later
    recovery (and the verified commit) can see."""
    cluster = make_cluster(2, coordinator_timeout_s=300.0)
    for agent in cluster.agents:
        agent.continue_timeout_s = 1.0
    app = ring_app(cluster, 2, max_token=30000)
    cluster.run_for(0.2)
    task = cluster.sim.process(cluster.coordinator.checkpoint(app))
    cluster.run_for(0.001)
    epoch = cluster.coordinator._epoch
    cluster.crash_coordinator()
    cluster.run_for(3.0)  # agents time out and abort unilaterally
    assert all(agent.unilateral_aborts == 1 for agent in cluster.agents)
    record = cluster.store.rounds.abort_record(epoch)
    assert record is not None
    assert record["reason"] == "coordinator silent"
    del task


def test_abort_in_early_network_mode_removes_filters_everywhere():
    """Regression: an abort after <comm-disabled> in the optimized /
    early-network flow must remove the netfilter rules on every node,
    crashed saves included."""
    cluster = make_cluster(3, coordinator_timeout_s=2.0)
    app = ring_app(cluster, 3, max_token=100000)
    cluster.run_for(0.2)
    # Agent 2 disables comms, then its save errors out: its pod's filter
    # rule must not outlive the round.
    agent = cluster.agents[2]
    original = agent.checkpoint_engine.checkpoint

    def exploding_checkpoint(pod, **kwargs):
        raise RuntimeError("disk died mid-save")
        yield  # pragma: no cover - make it a generator

    agent.checkpoint_engine.checkpoint = exploding_checkpoint
    with pytest.raises(CoordinationError):
        cluster.checkpoint_app(app, optimized=True, early_network=True)
    agent.checkpoint_engine.checkpoint = original
    cluster.run_for(1.0)  # aborts land everywhere
    for node in cluster.nodes:
        assert not node.stack.netfilter.rules
    stats = cluster.checkpoint_app(app, optimized=True,
                                   early_network=True)
    assert stats.committed
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_stale_epoch_checkpoint_does_not_recreate_round_state():
    """Regression: a control message for an epoch at or below the last
    completed round must be dropped, not re-create `_rounds` state."""
    from repro.cruz.protocol import CHECKPOINT, CONTINUE, ControlMessage
    cluster = make_cluster(2)
    app = ring_app(cluster, 2, max_token=50000)
    cluster.run_for(0.2)
    stats = cluster.checkpoint_app(app)
    assert stats.committed
    agent = cluster.agents[0]
    epoch = stats.epoch
    assert agent.last_completed_epoch >= epoch
    assert not agent._rounds
    versions_before = cluster.store.versions(app.pods[0].name)
    coord_ip = cluster.coordinator_node.stack.eth0.ip
    # A straggler retransmission from the completed round, bypassing the
    # endpoint's dedup cache (as after forget_epochs_below).
    agent._on_message(ControlMessage(
        kind=CHECKPOINT, epoch=epoch, pod_name=app.pods[0].name),
        coord_ip)
    agent._on_message(ControlMessage(kind=CONTINUE, epoch=epoch),
                      coord_ip)
    cluster.run_for(1.0)
    assert not agent._rounds  # no resurrected round state
    assert cluster.store.versions(app.pods[0].name) == versions_before
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_send_failure_surfaces_as_coordination_error_with_node():
    """Regression: transport-layer exceptions (e.g. KeyError from an
    address table) must surface as CoordinationError naming the target
    node, not escape as a bare exception."""
    cluster = make_cluster(2, coordinator_timeout_s=5.0)
    app = ring_app(cluster, 2, max_token=50000)
    cluster.run_for(0.2)

    def broken_send(*_args, **_kwargs):
        raise KeyError("no route to host")

    cluster.coordinator.endpoint.send = broken_send
    with pytest.raises(CoordinationError, match="cannot send") as info:
        cluster.checkpoint_app(app)
    assert info.value.node_name == cluster.nodes[0].name
    epoch = cluster.coordinator._epoch
    assert cluster.store.rounds.outcome(epoch) == "abort"


def test_consolidation_failover_onto_single_node():
    """Restart every pod of a 2-node app on ONE surviving node: images
    verify green, TCP sessions resume, output stays bit-exact."""
    import numpy as np
    from repro.zap.verify import verify_image
    from tests.test_apps import assemble_field

    steps = 60
    cluster = make_cluster(3)
    app = cluster.launch_app_factory(
        "slm", 2, slm_factory(2, global_rows=16, cols=24, steps=steps,
                              total_work_s=6.0), node_indices=[0, 1])
    cluster.run_for(0.8)
    stats = cluster.checkpoint_app(app)
    assert stats.committed
    images = cluster.store.rounds.images(stats.epoch)
    for pod in app.pods:
        assert verify_image(cluster.store.load(pod.name,
                                               images[pod.name])).ok

    cluster.crash_app(app)
    cluster.restart_app(app, node_indices=[2, 2], epoch=stats.epoch)
    assert all(pod.node is cluster.nodes[2] for pod in app.pods)
    assert all(pod.name in cluster.agents[2].pods for pod in app.pods)
    run_app_to_completion(cluster, app)
    field = assemble_field(cluster.app_programs(app))
    np.testing.assert_array_equal(field,
                                  reference_solution(16, 24, steps))


def test_migration_failure_rolls_back_to_source_node():
    """Regression (S1): a failed target restore must not leave the pod
    dead and ``app.pods`` dangling — it rolls back onto the source node
    and the typed error names the committed, restorable version."""
    from repro.errors import MigrationError

    cluster = make_cluster(3)
    app = ring_app(cluster, 2)
    cluster.run_for(0.2)
    victim = app.pods[0]

    def exploding_restart(image, node, resume=True):
        raise RuntimeError("target node out of memory")
        yield  # pragma: no cover - generator shape

    cluster.agents[2].restart_engine.restart = exploding_restart
    with pytest.raises(MigrationError) as info:
        cluster.migrate_pod(victim, target_node_index=2)
    error = info.value
    assert error.rolled_back
    assert error.pod_name == victim.name
    assert f"v{error.version}" in str(error)
    # The committed image the message names really is restorable.
    assert error.version in cluster.store.versions(victim.name)
    # app.pods points at the rolled-back pod, live on its source node.
    fallback = app.pods[0]
    assert fallback.name == victim.name
    assert fallback.node is cluster.nodes[0]
    assert fallback.name in cluster.agents[0].pods
    assert any(p.is_alive for p in fallback.processes())
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_restarting_a_running_app_rolls_it_back():
    """A restart with no crash first destroys the live members, then
    restores the image: the restored pods must not collide with the
    running ones and stall the round for its timeout."""
    cluster = make_cluster(2, coordinator_timeout_s=60.0)
    app = ring_app(cluster, 2, max_token=3000)
    cluster.run_for(0.2)
    assert cluster.checkpoint_app(app).committed
    cluster.run_for(0.2)
    running = list(app.pods)
    started = cluster.sim.now
    assert cluster.restart_app(app).committed
    assert cluster.sim.now - started < 1.0
    assert [pod.name for pod in app.pods] == [pod.name for pod in running]
    for index, (pod, old) in enumerate(zip(app.pods, running)):
        assert pod is not old
        assert cluster.agents[index].pods[pod.name] is pod
        assert not any(p.is_alive for p in old.processes())
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_a_member_that_cannot_load_its_image_aborts_the_restart_at_once():
    """RF=1 and the node holding rank 1's only chunk copies is dead: the
    node restoring rank 1 reports ABORT with the cause, so the round
    fails without waiting out its timeout, the member that did restore
    is destroyed, no drop rule is left and the WAL records the abort."""
    cluster = make_cluster(3, coordinator_timeout_s=60.0,
                           replication_factor=1)
    app = ring_app(cluster, 2, max_token=100000)  # ranks on nodes 0, 1
    cluster.run_for(0.2)
    assert cluster.checkpoint_app(app).committed
    cluster.crash_node(1)
    started = cluster.sim.now
    with pytest.raises(CoordinationError,
                       match="VersionUnreconstructibleError"):
        cluster.restart_app(app, node_indices=[0, 2])
    assert cluster.sim.now - started < 1.0
    assert cluster.store.rounds.outcome(cluster.coordinator._epoch) == \
        "abort"
    cluster.run_for(1.0)  # the ABORT reaches node 0's restored pod
    assert not any(agent.pods for agent in cluster.agents)
    assert not any(node.stack.netfilter.rules for node in cluster.nodes)


def test_a_member_whose_restore_fails_aborts_the_restart_at_once():
    """The restart engine raising on one agent aborts the round with
    its cause; a second restart from the same image then commits."""
    cluster = make_cluster(2, coordinator_timeout_s=60.0)
    app = ring_app(cluster, 2, max_token=3000)
    cluster.run_for(0.2)
    assert cluster.checkpoint_app(app).committed
    cluster.crash_app(app)
    agent = cluster.agents[1]
    original = agent.restart_engine.restart

    def exploding_restart(image, node, resume=True):
        raise RuntimeError("restore ran out of memory")
        yield  # pragma: no cover - generator shape

    agent.restart_engine.restart = exploding_restart
    started = cluster.sim.now
    with pytest.raises(CoordinationError, match="restore ran out of memory"):
        cluster.restart_app(app)
    assert cluster.sim.now - started < 1.0
    assert cluster.store.rounds.outcome(cluster.coordinator._epoch) == \
        "abort"
    cluster.run_for(1.0)
    assert not any(agent.pods for agent in cluster.agents)
    assert not any(node.stack.netfilter.rules for node in cluster.nodes)
    agent.restart_engine.restart = original
    assert cluster.restart_app(app).committed
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def record_restores(cluster):
    """pod name -> the image an agent's restart engine restores from
    now on (the last one, per pod)."""
    restored = {}
    for agent in cluster.agents:
        def spy(image, node, restart=agent.restart_engine.restart,
                **kwargs):
            restored[image.pod_name] = image
            return restart(image, node, **kwargs)
        agent.restart_engine.restart = spy
    return restored


def assert_one_consistent_round(cluster, restored, epoch):
    """The restored images are the round ``epoch`` saved, and every
    channel between them holds the §5.1 invariant."""
    report = check_global_consistency(list(restored.values()))
    assert report.ok and len(report.channels) == 6, report.summary()
    assert {name: image.version for name, image in restored.items()} \
        == cluster.store.rounds.images(epoch)


@pytest.mark.parametrize("live", [False, True],
                         ids=["stop_and_copy", "precopy"])
def test_a_restart_after_a_migration_restores_one_round(live):
    """A migration advances one pod's version only. A restart after it
    must still restore the round (the other members hold nothing newer):
    rank 0's migration image beside the others' round broke two channel
    directions and the ring never finished."""
    cluster = make_cluster(4)
    app = ring_app(cluster, 3, max_token=3000)
    cluster.run_for(0.2)
    stats = cluster.checkpoint_app(app)
    assert stats.committed
    cluster.migrate_pod(app.pods[0], 3, live=live)
    cluster.run_for(0.2)
    cluster.crash_app(app)
    restored = record_restores(cluster)
    assert cluster.restart_app(app).committed
    assert_one_consistent_round(cluster, restored, stats.epoch)
    run_app_to_completion(cluster, app, limit=cluster.sim.now + 60.0)
    validate_ring(workers_of(cluster, app))


@pytest.mark.parametrize("migrated", [False, True],
                         ids=["never_saved", "only_migrated"])
def test_a_restart_with_no_committed_round_leaves_the_app_running(
        migrated):
    """No committed round: the restart fails typed before it destroys
    anything. A migration image is no round, so a migrated app without
    a checkpoint has none either."""
    cluster = make_cluster(3)
    app = ring_app(cluster, 2, max_token=3000)
    cluster.run_for(0.2)
    if migrated:
        cluster.migrate_pod(app.pods[0], 2, live=False)
    running = list(app.pods)
    with pytest.raises(CoordinationError,
                       match="no committed checkpoint round"):
        cluster.restart_app(app)
    assert app.pods == running
    for pod in running:
        assert cluster._agent_for(pod.node.name).pods[pod.name] is pod
        assert any(p.is_alive for p in pod.processes())
    run_app_to_completion(cluster, app, limit=cluster.sim.now + 60.0)
    validate_ring(workers_of(cluster, app))


def test_restart_mismatch_names_missing_members():
    """Regression (S2): re-pointing an app at a partial membership must
    raise, naming the missing members, and leave ``app.pods`` alone."""
    from repro.errors import RestartMismatchError

    cluster = make_cluster(2)
    app = ring_app(cluster, 2)
    cluster.run_for(0.2)
    assert cluster.checkpoint_app(app).committed
    pods_before = list(app.pods)
    cluster.crash_app(app)                 # nothing re-registered yet
    with pytest.raises(RestartMismatchError) as info:
        cluster.repoint_app(app)
    assert set(info.value.missing) == {p.name for p in pods_before}
    assert app.pods == pods_before         # untouched, not partial


def test_checkpoint_storm_every_100ms():
    """Aggressive checkpointing must not corrupt or wedge the app."""
    cluster = make_cluster(2)
    app = ring_app(cluster, 2, max_token=1500, work_per_hop_s=0.001)
    for _ in range(10):
        cluster.run_for(0.1)
        assert cluster.checkpoint_app(app).committed
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))
    assert len(cluster.store.versions(app.pods[0].name)) == 10

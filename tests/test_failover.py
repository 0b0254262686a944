"""Self-healing failover: heartbeat detection, node crashes, automatic
pod restart on survivors, and the seeded chaos harness."""

import numpy as np
import pytest

from repro.apps.ring import validate_ring
from repro.apps.slm import reference_solution, slm_factory
from repro.cruz.cluster import CruzCluster
from repro.cruz.faults import ChaosInjector
from repro.cruz.storage import LivenessLog
from repro.cruz.supervisor import WORST_CASE_BEAT_S
from repro.errors import (
    CoordinationError,
    FailoverError,
    PodError,
    RestartMismatchError,
)

from tests.test_cruz_coordination import (
    ring_app,
    run_app_to_completion,
    workers_of,
)
from tests.test_failure_injection import (
    assert_one_consistent_round,
    record_restores,
)

RANKS, ROWS, COLS, STEPS = 2, 8, 16, 40


def make_supervised(n_app_nodes=3, **kwargs):
    kwargs.setdefault("time_wait_s", 0.5)
    kwargs.setdefault("supervise", True)
    return CruzCluster(n_app_nodes, **kwargs)


def slm_app(cluster, steps=STEPS, total_work_s=4.0, memory_mb=2.0):
    return cluster.launch_app_factory(
        "slm", RANKS,
        slm_factory(RANKS, global_rows=ROWS, cols=COLS, steps=steps,
                    total_work_s=total_work_s,
                    memory_mb_per_rank=memory_mb))


def slm_done(cluster, app, steps=STEPS):
    def predicate():
        programs = cluster.app_programs(app)
        return (len(programs) == RANKS
                and all(p.step_count >= steps for p in programs))
    return predicate


def assert_bit_exact(cluster, app, steps=STEPS):
    programs = sorted(cluster.app_programs(app), key=lambda p: p.rank)
    field = np.vstack([p.q for p in programs])
    np.testing.assert_array_equal(
        field, reference_solution(ROWS, COLS, steps))


# -- node-crash model ------------------------------------------------------


def test_crash_node_is_power_loss_not_pod_crash():
    """crash_node: link dead, agent silent, pods gone, kernel state
    (netfilter) cleared — and revive brings the node back empty."""
    cluster = make_supervised(2, supervise=False)
    app = slm_app(cluster, steps=100000, total_work_s=1e6)
    cluster.run_for(0.2)
    cluster.nodes[0].stack.netfilter.drop_all_for(app.pods[0].ip)

    cluster.crash_node(0)
    assert cluster.links[0].down
    assert cluster.agents[0].crashed
    assert not cluster.agents[0].pods          # residents died with it
    assert not cluster.nodes[0].stack.netfilter.rules
    assert 0 in cluster.dead_nodes
    cluster.crash_node(0)                      # idempotent
    # Pods on other nodes are untouched.
    assert app.pods[1].name in cluster.agents[1].pods

    with pytest.raises(PodError):
        cluster.crash_node(2)                  # the coordinator node
    with pytest.raises(PodError):
        cluster.crash_node(-1)

    cluster.revive_node(0)
    assert not cluster.links[0].down
    assert not cluster.agents[0].crashed
    assert 0 not in cluster.dead_nodes


def test_crashed_node_emits_nothing():
    """Power loss mid-conversation: no ACKs, no heartbeats, no
    retransmissions escape a dead node."""
    cluster = make_supervised(2)
    cluster.run_for(0.3)
    cluster.crash_node(0)
    agent = cluster.agents[0]
    sent_at_crash = agent.heartbeats_sent
    cluster.run_for(0.5)
    assert agent.heartbeats_sent == sent_at_crash


# -- failure detector ------------------------------------------------------


def test_heartbeats_renew_leases():
    cluster = make_supervised(2)
    cluster.run_for(0.5)
    supervisor = cluster.supervisor
    assert sorted(supervisor.leases) == [0, 1]
    for lease in supervisor.leases.values():
        assert lease.alive
        assert lease.beats >= 5
    assert supervisor.heartbeats_received >= 10
    beats = cluster.metrics.counter("supervisor.heartbeats")
    assert beats.value == supervisor.heartbeats_received


def test_death_declared_and_logged_to_liveness_wal():
    cluster = make_supervised(2)
    cluster.run_for(0.3)
    cluster.crash_node(0)
    cluster.run_for(0.5)
    supervisor = cluster.supervisor
    assert not supervisor.leases[0].alive
    assert supervisor.leases[1].alive
    assert [d["node"] for d in supervisor.deaths] == ["node0"]
    assert cluster.store.liveness.last_states()["node0"] == \
        LivenessLog.DOWN
    # The detect span was declared, and the death instant recorded.
    declared = cluster.spans.query("failover.detect", declared=True)
    assert len(declared) == 1 and declared[0].duration > 0
    assert cluster.spans.query("supervisor.death")

    # Revival: the next heartbeat renews the lease and logs UP.
    cluster.revive_node(0)
    cluster.run_for(0.3)
    assert supervisor.leases[0].alive
    transitions = cluster.store.liveness.transitions("node0")
    assert [t["state"] for t in transitions] == [LivenessLog.DOWN,
                                                LivenessLog.UP]
    assert cluster.spans.query("supervisor.rejoin")


def test_brief_silence_is_a_false_alarm_not_a_death():
    """A flap shorter than the lease is suspected, then stood down."""
    cluster = make_supervised(2)
    cluster.run_for(0.3)
    flap = 2 * WORST_CASE_BEAT_S
    chaos = ChaosInjector(cluster)
    chaos.schedule_link_flap(0, at=0.35, duration_s=flap)
    cluster.run_for(0.6)
    supervisor = cluster.supervisor
    assert supervisor.leases[0].alive
    assert not supervisor.deaths
    assert cluster.spans.query("failover.detect", declared=False)


def test_restart_supervisor_inherits_liveness_from_wal():
    """A replacement supervisor must not resurrect a declared-dead node
    (it would immediately place pods on it)."""
    cluster = make_supervised(2)
    cluster.run_for(0.3)
    cluster.crash_node(0)
    cluster.run_for(0.5)
    old = cluster.supervisor
    replacement = cluster.restart_supervisor()
    assert replacement is cluster.supervisor and replacement is not old
    assert not replacement.leases[0].alive     # inherited, not re-detected
    cluster.run_for(0.3)
    assert replacement.leases[1].beats > 0     # heartbeats re-routed


# -- automatic failover ----------------------------------------------------


def test_automatic_failover_end_to_end():
    """Crash a node between rounds: pods restart on the survivor from
    the committed version and the output stays bit-exact."""
    cluster = make_supervised(3)
    app = slm_app(cluster)
    cluster.run_for(0.5)
    assert cluster.checkpoint_app(app).committed
    cluster.run_for(0.1)
    cluster.crash_node(0)
    cluster.run_until(slm_done(cluster, app), limit=30.0)
    cluster.run_for(0.2)

    supervisor = cluster.supervisor
    assert not supervisor.failures
    assert len(supervisor.failovers) == 1
    record = supervisor.failovers[0]
    assert record.app == "slm" and record.dead_node == "node0"
    assert record.epoch == 1 and record.attempts == 1
    # Least-loaded placement with index tie-break: both pods end up on
    # the surviving home node.
    assert record.placement == {"slm-r0": "node1", "slm-r1": "node1"}
    phases = record.phases()
    assert phases["detect"] > 0 and phases["restart"] > 0
    assert record.mttr_s == pytest.approx(
        phases["detect"] + phases["verify"] + phases["place"]
        + phases["restart"])
    mttr = cluster.metrics.histogram("failover.mttr_s")
    assert mttr.values == [pytest.approx(record.mttr_s)]
    assert_bit_exact(cluster, app)


def test_mid_round_crash_aborts_round_and_restores_committed():
    """The worst case: the node dies while saving. The in-flight round
    must abort (no v2) and failover must restore v1."""
    cluster = make_supervised(3)
    app = slm_app(cluster)
    cluster.run_for(0.5)
    assert cluster.checkpoint_app(app).committed       # v1
    cluster.run_for(0.1)
    task = cluster.sim.process(cluster.coordinator.checkpoint(app))
    cluster.run_for(0.005)                             # saves in progress
    epoch = cluster.coordinator._epoch
    cluster.crash_node(0)
    with pytest.raises(CoordinationError):
        cluster.run_until_complete(task, limit=60.0)   # failed, not hung
    assert cluster.store.rounds.outcome(epoch) == "abort"
    cluster.run_until(slm_done(cluster, app), limit=30.0)
    cluster.run_for(0.2)
    record = cluster.supervisor.failovers[0]
    assert record.epoch == 1                           # not the aborted round
    for pod in app.pods:
        versions = cluster.store.versions(pod.name)
        assert 1 in versions and 2 not in versions
    assert_bit_exact(cluster, app)


def test_failover_without_committed_checkpoint_is_typed_failure():
    cluster = make_supervised(2)
    slm_app(cluster, steps=100000, total_work_s=1e6)
    cluster.run_for(0.2)
    cluster.crash_node(0)
    cluster.run_for(1.0)
    failures = cluster.supervisor.failures
    assert len(failures) == 1
    assert isinstance(failures[0], FailoverError)
    assert "no committed checkpoint version" in str(failures[0])
    assert not cluster.supervisor.failovers
    assert cluster.metrics.counter("failover.failures").value == 1


def test_failover_without_surviving_capacity_is_typed_failure():
    cluster = make_supervised(2)
    app = slm_app(cluster, steps=100000, total_work_s=1e6)
    cluster.run_for(0.3)
    assert cluster.checkpoint_app(app).committed
    cluster.crash_node(0)
    cluster.crash_node(1)
    cluster.run_for(1.5)
    failures = cluster.supervisor.failures
    assert failures and "no surviving capacity" in failures[0].reason


def test_failover_falls_back_to_newest_reconstructible_version():
    """RF=1: a round whose fresh chunks lived only on the dead node is
    committed but unreconstructible; failover must fall back to the
    newest round that survives on other shards, not fail. The migration
    image (v2) is no round, so that is the epoch-1 round (v1)."""
    cluster = make_supervised(3, replication_factor=1)
    app = cluster.launch_app_factory(
        "slm", 1,
        slm_factory(1, global_rows=4, cols=COLS, steps=100000,
                    total_work_s=200.0, memory_mb_per_rank=2.0))
    pod = app.pods[0]
    cluster.run_for(0.3)
    first = cluster.checkpoint_app(app)            # v1, writer node0
    assert first.committed
    cluster.migrate_pod(pod, 1, live=False)        # v2, written by node0
    cluster.run_for(0.1)
    assert cluster.checkpoint_app(app).committed   # v3, writer node1
    assert cluster.store.versions(pod.name) == [1, 2, 3]

    cluster.crash_node(1)                          # takes v3's chunks
    cluster.run_for(1.5)
    assert cluster.store.reconstructible_versions(pod.name) == [1, 2]
    supervisor = cluster.supervisor
    assert not supervisor.failures
    record = supervisor.failovers[0]
    assert record.epoch == first.epoch             # v1: newest usable round
    assert record.placement[pod.name] != "node1"


def test_failover_after_a_live_migration_restores_the_last_round():
    """Checkpoint, live-migrate rank 0, two more rounds, then a node
    dies. Rank 0 holds versions [1, 3, 4, 5] and the others [1, 2, 3],
    so the newest number every member has (3) is rank 0's migration
    image beside the others' second round; failover must restore the
    last round instead."""
    cluster = make_supervised(4)
    app = ring_app(cluster, 3, max_token=20000)
    cluster.run_for(0.2)
    assert cluster.checkpoint_app(app).committed
    cluster.migrate_pod(app.pods[0], 3, live=True)
    rounds = []
    for _ in range(2):
        cluster.run_for(0.1)
        rounds.append(cluster.checkpoint_app(app))
        assert rounds[-1].committed
    assert cluster.store.versions(app.pods[0].name) == [1, 3, 4, 5]
    assert cluster.store.versions(app.pods[1].name) == [1, 2, 3]
    restored = record_restores(cluster)
    cluster.crash_node(1)
    cluster.run_until(lambda: bool(cluster.supervisor.failovers)
                      or bool(cluster.supervisor.failures),
                      limit=cluster.sim.now + 10.0)
    assert not cluster.supervisor.failures
    assert_one_consistent_round(cluster, restored, rounds[-1].epoch)
    assert cluster.supervisor.failovers[0].epoch == rounds[-1].epoch
    run_app_to_completion(cluster, app, limit=cluster.sim.now + 60.0)
    validate_ring(workers_of(cluster, app))


def test_failover_with_no_reconstructible_version_is_typed_failure():
    """RF=1 and every shard holding the pod's chunks is dead: the
    failure names reconstructibility, not a generic miss."""
    cluster = make_supervised(3, replication_factor=1)
    app = slm_app(cluster, steps=100000, total_work_s=1e6)
    cluster.run_for(0.3)
    assert cluster.checkpoint_app(app).committed   # chunks on node0+node1
    cluster.crash_node(0)
    cluster.run_for(1.5)
    failures = cluster.supervisor.failures
    assert len(failures) == 1
    assert isinstance(failures[0], FailoverError)
    assert "no shared committed version is reconstructible" \
        in failures[0].reason
    assert not cluster.supervisor.failovers


def test_cascading_restart_failure_retries_with_backoff():
    cluster = make_supervised(3)
    app = slm_app(cluster)
    cluster.run_for(0.5)
    assert cluster.checkpoint_app(app).committed
    original = cluster.coordinator.restart
    calls = {"n": 0}

    def flaky_restart(members, epoch):
        calls["n"] += 1
        if calls["n"] == 1:
            def exploding():
                raise CoordinationError("restart target died mid-round")
                yield  # pragma: no cover - generator shape
            return exploding()
        return original(members, epoch)

    cluster.coordinator.restart = flaky_restart
    cluster.crash_node(0)
    cluster.run_until(slm_done(cluster, app), limit=30.0)
    cluster.run_for(0.2)
    record = cluster.supervisor.failovers[0]
    assert record.attempts == 2
    assert not cluster.supervisor.failures
    assert_bit_exact(cluster, app)


# -- data-plane chaos primitives -------------------------------------------


def test_link_flap_telemetry_reaches_metrics_and_spans():
    """S3: frames_dropped and up/down transitions are first-class
    telemetry, not just a per-link attribute."""
    cluster = CruzCluster(2, time_wait_s=0.5)
    slm_app(cluster, steps=100000, total_work_s=0.0)  # constant traffic
    cluster.run_for(0.2)
    chaos = ChaosInjector(cluster)
    chaos.schedule_link_flap(0, at=0.25, duration_s=0.05)
    cluster.run_for(0.4)
    assert not cluster.links[0].down           # flap healed
    assert cluster.metrics.gauge("link.links_down").value == 0
    dropped = cluster.metrics.counter("link.frames_dropped")
    assert dropped.value > 0
    assert dropped.by_label["node0<->switch"] == \
        cluster.links[0].frames_dropped
    assert cluster.spans.query("link.down", link="node0<->switch")
    assert cluster.spans.query("link.up", link="node0<->switch")
    assert chaos.log and chaos.log[0]["kind"] == "link_down"


def test_partition_blocks_only_cross_side_ip_traffic():
    cluster = make_supervised(3, supervise=False)
    app = slm_app(cluster, steps=100000, total_work_s=0.0)
    cluster.run_for(0.2)
    chaos = ChaosInjector(cluster)
    partition = chaos.schedule_partition([0], [1], at=0.25,
                                         duration_s=0.2)
    cluster.run_for(0.3)                       # mid-partition
    before = [p.step_count for p in cluster.app_programs(app)]
    cluster.run_for(0.1)
    after = [p.step_count for p in cluster.app_programs(app)]
    assert before == after                     # halo exchange is stuck
    cluster.run_for(0.5)                       # healed; TCP retransmits
    later = [p.step_count for p in cluster.app_programs(app)]
    assert all(l > a for l, a in zip(later, after))
    assert partition.healed


# -- the chaos harness -----------------------------------------------------


def test_chaos_run_self_heals_and_replays_bit_for_bit():
    from repro.bench.chaos import run_chaos
    result = run_chaos(seed=7)
    assert result.ok, result.render()
    assert result.rounds_aborted >= 1          # the crash hit a round
    assert result.deaths == ["node0"]
    assert result.false_alarms >= 1            # the survivor flap
    phases = result.failovers[0]["phases"]
    assert phases["detect"] > 0 and phases["restart"] > 0
    assert result.mttr_s == pytest.approx(
        phases["detect"] + phases["verify"] + phases["place"]
        + phases["restart"])
    assert result.frames_dropped > 0
    assert result.sanitizer_violations == 0

    replay = run_chaos(seed=7)
    assert replay.field_hash == result.field_hash
    assert replay.state_hash == result.state_hash
    assert replay.failovers == result.failovers
    assert replay.chaos_log == result.chaos_log


@pytest.mark.torture
def test_chaos_torture_crash_revive_second_crash():
    """Two generations of failure: node0 dies mid-round and later
    revives; then the node hosting every pod dies too. The app must
    survive both and still finish bit-exact — twice, identically."""
    def scenario(seed):
        cluster = make_supervised(3, seed=seed, sanitize=True)
        steps = 80
        app = slm_app(cluster, steps=steps, total_work_s=8.0)
        done = slm_done(cluster, app, steps=steps)

        def members_alive():
            return all(
                any(pod.name in agent.pods and not agent.crashed
                    for agent in cluster.agents)
                for pod in app.pods)

        def daemon():
            while True:
                yield cluster.sim.timeout(0.6)
                if done():
                    return
                if cluster.supervisor.failover_active(app.name) \
                        or not members_alive():
                    continue
                try:
                    yield from cluster.coordinator.checkpoint(app)
                except CoordinationError:
                    pass
        cluster.sim.process(daemon(), name="daemon")
        chaos = ChaosInjector(cluster)
        # First crash lands mid-round; node0 comes back 0.8 s later.
        chaos.schedule_node_crash_mid_round(0, after=1.2,
                                            revive_after=0.8)
        # Second crash kills node1 — by then it hosts both pods.
        chaos.schedule_node_crash(1, at=2.6, jitter_s=0.01)
        cluster.run_until(done, limit=60.0)
        cluster.run_for(0.3)
        cluster.trace.sanitizer.check_store(
            cluster.store, time=cluster.sim.now, context="final",
            deep=True)
        assert not cluster.trace.sanitizer.violations, \
            cluster.trace.sanitizer.report()
        assert len(cluster.supervisor.failovers) == 2
        assert not cluster.supervisor.failures
        assert_bit_exact(cluster, app, steps=steps)
        programs = sorted(cluster.app_programs(app),
                          key=lambda p: p.rank)
        field = np.vstack([p.q for p in programs])
        return (field.tobytes(),
                [(r.dead_node, r.epoch, tuple(sorted(
                    r.placement.items())))
                 for r in cluster.supervisor.failovers],
                [d["node"] for d in cluster.supervisor.deaths])

    first = scenario(11)
    second = scenario(11)
    assert first == second                     # bit-for-bit replay
    assert first[2] == ["node0", "node1"]

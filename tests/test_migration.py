"""Pod migration: correctness holes, rollback matrix, eviction.

Covers the migration path's regressions (unchecked source agent, dirty
bits cleared before the store commit, silent ``zip`` truncation in
``restart_app``, cross-app cleanup) and its machinery: convergence, the
shrunken pause window, intermediate-version GC, the rollback matrix in
both modes (restore failure with and without a working rollback), a
source crash mid-pre-copy and during the cutover's write, the version
an aborted move names, and the supervisor's suspect-state eviction.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.slm import reference_solution, slm_factory
from repro.cruz.migration import (
    MigrationReport,
    _fixup_app,
    owning_app,
    pod_dirty_bytes,
)
from repro.errors import CheckpointError, MigrationError, PodError
from repro.zap.checkpoint import scrub_pod_network
from repro.zap.virtualization import uninstall_pod

from tests.test_cruz_coordination import (
    make_cluster,
    ring_app,
    run_app_to_completion,
)


#: Both migration modes: stop-and-copy is the cutover with no round.
MODES = pytest.mark.parametrize("live", [False, True],
                                ids=["stop_and_copy", "precopy"])


def run_coroutine(cluster, generator, limit=1e6):
    task = cluster.sim.process(generator)
    return cluster.run_until_complete(task, limit=limit)


def slm_app(cluster, ranks=2, steps=200, total_work_s=20.0,
            memory_mb_per_rank=20.0, rows_per_rank=4, cols=16):
    return cluster.launch_app_factory(
        "slm", ranks,
        slm_factory(ranks, global_rows=rows_per_rank * ranks, cols=cols,
                    steps=steps, total_work_s=total_work_s,
                    memory_mb_per_rank=memory_mb_per_rank))


# -- preflight (S1: unchecked Optional agent) ------------------------------


def test_migrate_pod_without_source_agent_raises_typed_error():
    """Regression: a pod on an agent-less node used to surface as an
    ``AttributeError`` on ``None.unregister_pod``."""
    cluster = make_cluster(2)
    ghost = SimpleNamespace(name="ghost",
                            node=cluster.coordinator_node)
    with pytest.raises(MigrationError) as info:
        cluster.migrate_pod(ghost, target_node_index=0)
    assert "no checkpoint agent" in str(info.value)
    assert info.value.version is None
    assert not info.value.source_destroyed


def test_preflight_rejects_dead_endpoints_and_bad_index():
    cluster = make_cluster(3)
    app = ring_app(cluster, 2)
    cluster.run_for(0.2)
    pod = app.pods[0]
    with pytest.raises(PodError):
        cluster.migrate_pod(pod, target_node_index=7)
    cluster.agents[2].crashed = True
    with pytest.raises(MigrationError, match="target node .* is dead"):
        cluster.migrate_pod(pod, target_node_index=2)
    cluster.agents[2].crashed = False
    cluster.agents[0].crashed = True
    with pytest.raises(MigrationError, match="source node .* is dead"):
        cluster.migrate_pod(pod, target_node_index=2)


# -- restart_app length validation (S3) ------------------------------------


def test_restart_app_length_mismatch_names_both_counts():
    """Regression: ``zip(node_indices, app.pods)`` silently truncated a
    short placement list, restarting a partial membership."""
    cluster = make_cluster(2)
    app = ring_app(cluster, 2)
    cluster.run_for(0.2)
    assert cluster.checkpoint_app(app).committed
    with pytest.raises(ValueError, match=r"1 node index\(es\) for 2 pod"):
        cluster.restart_app(app, node_indices=[0])


# -- cleanup scoping (S4) ---------------------------------------------------


def test_fixup_rewrites_only_the_identical_member():
    """Regression: failure cleanup used to rewrite every app's pods by
    *name*; a namesake member of another app was silently re-pointed."""
    cluster = make_cluster(3)
    app = ring_app(cluster, 2)
    cluster.run_for(0.2)
    victim = app.pods[0]
    namesake = SimpleNamespace(name=victim.name, node=victim.node)
    other = SimpleNamespace(name="other", pods=[namesake])
    failure = MigrationError(victim.name, 3, "node2", "boom",
                             rolled_back=True)
    failure.pod = SimpleNamespace(name=victim.name)
    _fixup_app(other, victim, failure, None)
    assert other.pods[0] is namesake      # identity mismatch: untouched
    _fixup_app(app, victim, failure, None)
    assert app.pods[0] is failure.pod     # the owning app is re-pointed
    assert owning_app(cluster, app.pods[1]) is app


def test_failed_migration_leaves_other_apps_alone():
    cluster = make_cluster(4)
    app_a = ring_app(cluster, 2, name="ring-a")
    app_b = ring_app(cluster, 2, name="ring-b")
    cluster.run_for(0.2)
    members_b = list(app_b.pods)

    def exploding_restart(image, node, resume=True, **kwargs):
        raise RuntimeError("target out of memory")
        yield  # pragma: no cover - generator shape

    cluster.agents[3].restart_engine.restart = exploding_restart
    with pytest.raises(MigrationError) as info:
        cluster.migrate_pod(app_a.pods[0], target_node_index=3)
    assert info.value.rolled_back
    assert app_b.pods == members_b
    assert app_a.pods[0].name == "ring-a-r0"
    run_app_to_completion(cluster, app_b)


# -- dirty bits survive a failed commit (S2) --------------------------------


def test_failed_incremental_save_keeps_dirty_bits():
    """Regression: ``build_image`` cleared dirty bits before the store
    commit, so a failed save silently shrank the next delta to zero."""
    cluster = make_cluster(3, sanitize=True)
    app = slm_app(cluster, memory_mb_per_rank=4.0)
    cluster.run_for(0.5)
    pod = app.pods[0]
    engine = cluster.agents[0].checkpoint_engine
    run_coroutine(cluster, engine.checkpoint(pod, resume=True,
                                             incremental=True))
    cluster.run_for(0.3)                    # the app re-dirties its field
    dirty_before = pod_dirty_bytes(pod)
    assert dirty_before > 0

    store, original_save = cluster.store, cluster.store.save

    def failing_save(image, **kwargs):
        raise CheckpointError("injected: disk full")

    store.save = failing_save
    with pytest.raises(CheckpointError, match="disk full"):
        run_coroutine(cluster, engine.checkpoint(pod, resume=True,
                                                 incremental=True))
    store.save = original_save
    # Nothing committed, so nothing may be retired.
    assert pod_dirty_bytes(pod) == dirty_before
    # The retried incremental ships the same delta and only then retires.
    image = run_coroutine(cluster, engine.checkpoint(pod, resume=True,
                                                     incremental=True))
    assert image.version in store.versions(pod.name)
    assert pod_dirty_bytes(pod) == 0
    assert not cluster.trace.sanitizer.violations


def test_san_mem_restore_flags_diverging_memory():
    """The SAN-MEM-RESTORE check: restored address spaces must carry the
    image's exact regions and page write-versions."""
    cluster = make_cluster(2, sanitize=True)
    app = slm_app(cluster, memory_mb_per_rank=4.0)
    cluster.run_for(0.5)
    pod = app.pods[0]
    agent = cluster.agents[0]
    image = run_coroutine(
        cluster, agent.checkpoint_engine.checkpoint(pod, resume=False))
    scrub_pod_network(pod)
    pod.kill_all()
    uninstall_pod(pod)
    agent.unregister_pod(pod.name)
    restored = run_coroutine(
        cluster, cluster.agents[1].restart_engine.restart(
            image, cluster.nodes[1], resume=True))
    sanitizer = cluster.trace.sanitizer
    assert not sanitizer.violations        # clean restore passes
    # Now tamper the captured image and re-run the check by hand: a
    # page whose write clock diverges must be reported.
    memory = image.processes[0].memory
    page = next(iter(memory.page_versions))
    memory.page_versions[page] += 1
    sanitizer.check_restored_memory(image, restored,
                                    time=cluster.sim.now)
    codes = [violation.code for violation in sanitizer.violations]
    assert "SAN-MEM-RESTORE" in codes


# -- pre-copy behaviour -----------------------------------------------------


def test_precopy_converges_and_shrinks_the_pause():
    steps = 120
    pauses = {}
    for live in (False, True):
        cluster = make_cluster(3, sanitize=True)
        app = slm_app(cluster, steps=steps, total_work_s=12.0,
                      memory_mb_per_rank=20.0)
        cluster.run_for(1.0)
        pod_name = app.pods[0].name
        new_pod = cluster.migrate_pod(app.pods[0], target_node_index=2,
                                      live=live)
        report = cluster.last_migration
        pauses[live] = report.pause_window_s
        assert isinstance(report, MigrationReport)
        assert new_pod.node is cluster.nodes[2]
        assert app.pods[0] is new_pod
        if live:
            assert report.mode == "precopy"
            assert report.converged
            assert 1 <= report.precopy_rounds <= 5
            assert report.warm_bytes > 0
            # Intermediate round versions are GC'd: the store history
            # looks exactly like a single-checkpoint migration.
            assert cluster.store.versions(pod_name) == \
                [report.final_version]
        else:
            assert report.mode == "stop_and_copy"
            assert report.precopy_rounds == 0
            # A full save writes every chunk: nothing is warm, and the
            # final image is the only version.
            assert report.warm_bytes == 0
            assert cluster.store.versions(pod_name) == \
                [report.final_version]
        cluster.run_until(
            lambda: all(p.step_count >= steps
                        for p in cluster.app_programs(app)),
            limit=60.0)
        cluster.run_for(0.2)
        programs = sorted(cluster.app_programs(app),
                          key=lambda p: p.rank)
        np.testing.assert_array_equal(
            np.vstack([p.q for p in programs]),
            reference_solution(8, 16, steps))
        assert not cluster.trace.sanitizer.violations
    assert pauses[True] < 0.25 * pauses[False]


# -- rollback matrix --------------------------------------------------------


@MODES
def test_live_migration_rolls_back_on_target_restore_failure(live):
    cluster = make_cluster(3, sanitize=True)
    app = ring_app(cluster, 2)
    cluster.run_for(0.2)
    victim = app.pods[0]

    def exploding_restart(image, node, resume=True, **kwargs):
        raise RuntimeError("target out of memory")
        yield  # pragma: no cover - generator shape

    cluster.agents[2].restart_engine.restart = exploding_restart
    with pytest.raises(MigrationError) as info:
        cluster.migrate_pod(victim, target_node_index=2, live=live)
    error = info.value
    assert error.rolled_back and error.source_destroyed
    assert error.version in cluster.store.versions(victim.name)
    fallback = app.pods[0]
    assert fallback.name == victim.name
    assert fallback.node is cluster.nodes[0]
    assert fallback.name in cluster.agents[0].pods
    for node in cluster.nodes:
        assert not node.stack.netfilter.rules
    assert not cluster.trace.sanitizer.violations
    run_app_to_completion(cluster, app)


@MODES
def test_rollback_failure_reports_pod_running_nowhere(live):
    cluster = make_cluster(3, sanitize=True)
    app = ring_app(cluster, 2)
    cluster.run_for(0.2)
    victim = app.pods[0]

    def exploding_restart(image, node, resume=True, **kwargs):
        raise RuntimeError("restore always fails")
        yield  # pragma: no cover - generator shape

    # Both the target restore and the source rollback explode.
    cluster.agents[2].restart_engine.restart = exploding_restart
    cluster.agents[0].restart_engine.restart = exploding_restart
    with pytest.raises(MigrationError) as info:
        cluster.migrate_pod(victim, target_node_index=2, live=live)
    error = info.value
    assert error.source_destroyed and not error.rolled_back
    assert "NOT running anywhere" in str(error)
    assert error.rollback_error is not None
    # The committed image named by the error really is restorable...
    assert error.version in cluster.store.versions(victim.name)
    # ...and the dangling member was dropped, not left pointing at a
    # dead pod.
    assert all(member.name != victim.name for member in app.pods)
    for node in cluster.nodes:
        assert not node.stack.netfilter.rules
    assert not cluster.trace.sanitizer.violations


def test_source_crash_mid_precopy_leaves_app_untouched():
    """Chaos-injected node crash while pre-copy rounds stream: the
    migration aborts with ``source_destroyed=False``, discards its
    half-committed images, and leaves recovery to failover."""
    from repro.cruz.faults import ChaosInjector

    cluster = make_cluster(3, sanitize=True)
    app = slm_app(cluster, memory_mb_per_rank=20.0)
    cluster.run_for(0.5)
    victim = app.pods[0]
    members_before = list(app.pods)
    chaos = ChaosInjector(cluster)
    # Round 1 writes 20 MB (~200 ms simulated): crash the source square
    # in the middle of it.
    chaos.schedule_node_crash(0, at=cluster.sim.now + 0.05)
    with pytest.raises(MigrationError) as info:
        cluster.migrate_pod(victim, target_node_index=2, live=True)
    error = info.value
    assert not error.source_destroyed
    assert "died mid-pre-copy" in str(error)
    # Membership is untouched — whoever killed the node owns recovery.
    assert app.pods == members_before
    # Half-round images were discarded with the other intermediates.
    assert cluster.store.versions(victim.name) == []
    for node in cluster.nodes:
        assert not node.stack.netfilter.rules
    assert not cluster.trace.sanitizer.violations
    assert chaos.node_crashes == 1


@pytest.mark.parametrize("supervise", [False, True],
                         ids=["unsupervised", "supervised"])
@MODES
def test_source_crash_during_the_final_write(live, supervise):
    """The source node dies while the store writes the cutover image.
    That image was captured behind the drop rule, so it is the pod: the
    move completes on the target, and no failover is needed."""
    steps = 120
    cluster = make_cluster(3, sanitize=True, supervise=supervise)
    app = slm_app(cluster, steps=steps, total_work_s=12.0,
                  memory_mb_per_rank=20.0)
    cluster.run_for(1.0)
    victim = app.pods[0]
    source = victim.node
    store, save = cluster.store, cluster.store.save

    def crashing_save(image, **kwargs):
        # Only the cutover's save runs behind the drop rule.
        if source.stack.netfilter.rules:
            store.save = save
            cluster.crash_node(0)
        return save(image, **kwargs)

    store.save = crashing_save
    new_pod = cluster.migrate_pod(victim, target_node_index=2, live=live)
    assert store.save is save, "the cutover's save ran"
    assert 0 in cluster.dead_nodes
    assert new_pod.node is cluster.nodes[2]
    assert app.pods[0] is new_pod
    assert cluster.last_migration.precopy_rounds == (1 if live else 0)
    cluster.run_until(
        lambda: all(p.step_count >= steps
                    for p in cluster.app_programs(app)),
        limit=60.0)
    cluster.run_for(0.2)
    programs = sorted(cluster.app_programs(app), key=lambda p: p.rank)
    np.testing.assert_array_equal(
        np.vstack([p.q for p in programs]),
        reference_solution(8, 16, steps))
    if supervise:
        assert not cluster.supervisor.failovers
    for node in cluster.nodes:
        assert not node.stack.netfilter.rules
    assert not cluster.trace.sanitizer.violations


@pytest.mark.parametrize("checkpointed", [False, True],
                         ids=["no_checkpoint", "checkpointed"])
def test_an_aborted_move_names_a_version_the_store_holds(checkpointed):
    """The source dies just before a round's prefetch. The move aborts
    and discards its round image, so its error names the newest version
    the store still holds: the app's own checkpoint, or none."""
    cluster = make_cluster(3, sanitize=True)
    app = slm_app(cluster, memory_mb_per_rank=4.0)
    cluster.run_for(0.5)
    if checkpointed:
        assert cluster.checkpoint_app(app).committed
    victim = app.pods[0]
    held = cluster.store.versions(victim.name)
    store = cluster.store
    reconstructible = store.version_reconstructible

    def crashing_check(pod_name, version):
        store.version_reconstructible = reconstructible
        cluster.crash_node(0)
        return reconstructible(pod_name, version)

    store.version_reconstructible = crashing_check
    with pytest.raises(MigrationError) as info:
        cluster.migrate_pod(victim, target_node_index=2, live=True)
    error = info.value
    assert not error.source_destroyed
    assert store.versions(victim.name) == held
    assert error.version == (held[-1] if held else None)
    if not checkpointed:
        assert "no image was committed" in str(error)
    assert not cluster.trace.sanitizer.violations


# -- suspect-state eviction -------------------------------------------------


def test_suspect_eviction_moves_pods_before_declaration():
    from repro.bench.chaos import run_chaos

    result = run_chaos(evict_on_suspect=True)
    assert result.evict_mode
    assert result.ok, result.render()
    assert result.completed and result.output_correct
    assert result.evictions
    for entry in result.evictions:
        assert entry["ok"]
        assert entry["before_declaration"]
        assert entry["to"] != entry["from"]
        assert entry["rounds"] >= 1
        # Near-zero downtime: the pause is a sliver of the ~1.9 s a
        # stop-and-copy of this pod would take.
        assert entry["pause_window_s"] < 0.05
    assert result.sanitizer_violations == 0


def test_evict_disabled_by_default():
    cluster = make_cluster(2, supervise=True)
    assert not cluster.supervisor.evict_on_suspect
    assert not cluster.supervisor.eviction_active("anything")

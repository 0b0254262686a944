"""The §5.2 optimisations: Fig. 4 early resume, early network re-enable,
and concurrent (copy-on-write-style) checkpointing."""

import pytest

from repro.apps.compute import compute_factory
from repro.apps.ring import RingWorker, validate_ring
from repro.apps.slm import reference_solution, slm_factory
from repro.cruz.cluster import CruzCluster
from repro.errors import CoordinationError

from tests.test_cruz_coordination import (
    make_cluster,
    ring_app,
    run_app_to_completion,
    workers_of,
)


def test_early_network_requires_optimized():
    cluster = make_cluster(2)
    app = ring_app(cluster, 2)
    cluster.run_for(0.2)
    with pytest.raises(CoordinationError, match="early_network"):
        cluster.checkpoint_app(app, early_network=True, optimized=False)


def test_early_network_round_commits_and_ring_survives():
    cluster = make_cluster(3)
    app = ring_app(cluster, 3, max_token=3000)
    cluster.run_for(0.3)
    stats = cluster.checkpoint_app(app, optimized=True,
                                   early_network=True)
    assert stats.committed
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


def test_early_network_shrinks_filtered_window():
    """With a big image, the filter window shrinks from ~save-time to
    ~capture-time under the §5.2 TCP-backoff optimisation."""

    def filtered_window(early):
        cluster = make_cluster(2)
        app = ring_app(cluster, 2, max_token=100000)
        for pod in app.pods:
            pod.processes()[0].memory.allocate("big", 80 << 20)
        cluster.run_for(0.2)
        node = app.pods[0].node
        install_times = {}
        windows = []
        original_add = node.stack.netfilter.add_rule
        original_remove = node.stack.netfilter.remove_rule

        def add_rule(rule):
            install_times[rule.rule_id] = cluster.sim.now
            return original_add(rule)

        def remove_rule(rule_id):
            if rule_id in install_times:
                windows.append(cluster.sim.now - install_times[rule_id])
            return original_remove(rule_id)

        node.stack.netfilter.add_rule = add_rule
        node.stack.netfilter.remove_rule = remove_rule
        cluster.checkpoint_app(app, optimized=True, early_network=early)
        return windows[0]

    slow = filtered_window(early=False)
    fast = filtered_window(early=True)
    assert slow > 0.7          # ~80 MB at 100 MB/s
    assert fast < slow / 5     # filter off as soon as capture+continue


@pytest.mark.parametrize("optimized", [False, True],
                         ids=["blocking", "optimized"])
def test_concurrent_checkpoint_lets_pod_compute_during_save(optimized):
    def progress_during_round(concurrent):
        cluster = make_cluster(2)
        app = cluster.launch_app_factory(
            "cb", 2, compute_factory(iterations=10_000_000, work_s=0.001,
                                     state_mb_per_rank=80.0))
        cluster.run_for(0.2)
        before = [p.done for p in cluster.app_programs(app)]
        cluster.checkpoint_app(app, optimized=optimized,
                               concurrent=concurrent)
        after = [p.done for p in cluster.app_programs(app)]
        return sum(after) - sum(before)

    blocked = progress_during_round(concurrent=False)
    overlapped = progress_during_round(concurrent=True)
    # An 80 MB save takes ~0.8 s; with COW, ~1600 work units happen
    # during it, in either protocol; blocked, essentially none.
    assert blocked < 50
    assert overlapped > 500


def test_concurrent_checkpoint_image_is_point_in_time():
    import pickle
    cluster = make_cluster(2)
    app = cluster.launch_app_factory(
        "cb", 2, compute_factory(iterations=10_000_000, work_s=0.001,
                                 state_mb_per_rank=40.0))
    cluster.run_for(0.2)
    before = max(p.done for p in cluster.app_programs(app))
    cluster.checkpoint_app(app, concurrent=True)
    image = cluster.store.load(app.pods[0].name)
    saved_done = pickle.loads(image.processes[0].program_blob).done
    # The image reflects the stop instant, not post-resume progress.
    assert abs(saved_done - before) <= 2
    live_done = cluster.app_programs(app)[0].done
    assert live_done > saved_done + 100


def test_concurrent_slm_stays_bit_identical():
    steps = 60
    cluster = make_cluster(2)
    app = cluster.launch_app_factory(
        "slm", 2, slm_factory(2, global_rows=16, cols=16, steps=steps,
                              total_work_s=3.0, memory_mb_per_rank=30))
    cluster.run_for(0.8)
    cluster.checkpoint_app(app, concurrent=True)
    cluster.run_for(0.2)
    cluster.crash_app(app)
    cluster.restart_app(app)
    run_app_to_completion(cluster, app)
    import numpy as np
    from tests.test_apps import assemble_field
    field = assemble_field(cluster.app_programs(app))
    np.testing.assert_array_equal(field,
                                  reference_solution(16, 16, steps))


def test_optimized_with_all_options_composes():
    cluster = make_cluster(3)
    app = ring_app(cluster, 3, max_token=3000)
    app.pods[0].processes()[0].memory.allocate("big", 40 << 20)
    cluster.run_for(0.3)
    first = cluster.checkpoint_app(app, optimized=True,
                                   early_network=True, incremental=True,
                                   concurrent=True)
    second = cluster.checkpoint_app(app, optimized=True,
                                    early_network=True, incremental=True,
                                    concurrent=True)
    assert first.committed and second.committed
    assert second.max_local_op_s < first.max_local_op_s
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


PROTOCOLS = {"fig2": {}, "fig4": {"optimized": True},
             "fig4_early": {"optimized": True, "early_network": True}}
SECOND_ROUND = {"full": {}, "dedup": {"dedup": True},
                "incremental": {"incremental": True}}


@pytest.mark.parametrize("concurrent", [False, True],
                         ids=["stopped", "concurrent"])
@pytest.mark.parametrize("second", sorted(SECOND_ROUND))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_every_round_option_commits_in_four_messages_per_node(
        protocol, second, concurrent):
    """Every combination ``checkpoint`` accepts runs the one round:
    request, first reply, CONTINUE, last reply — four control messages
    per node in either protocol — commits, and keeps the ring whole."""
    cluster = make_cluster(2)
    app = ring_app(cluster, 2, max_token=400)
    cluster.run_for(0.1)
    options = dict(PROTOCOLS[protocol], concurrent=concurrent)
    for mode in ({}, SECOND_ROUND[second]):
        before = cluster.coordination_message_count()
        stats = cluster.checkpoint_app(app, **options, **mode)
        assert stats.committed
        assert cluster.coordination_message_count() - before == 4 * 2
        assert stats.messages_sent == stats.messages_received == 2 * 2
    # Both rounds cut a ring still in flight.
    assert all(proc.is_alive for pod in app.pods
               for proc in pod.processes())
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))

"""The §5.2 baseline: channel-flushing coordinated CR (O(N²) messages)."""

from repro.apps.slm import slm_factory
from repro.baselines.flush import (
    flush_checkpoint_app,
    install_flush_baseline,
    restart_message_estimate,
)
from repro.cruz.cluster import CruzCluster


def make_cluster(n, **kwargs):
    kwargs.setdefault("time_wait_s", 0.5)
    return CruzCluster(n, **kwargs)


def run_app(cluster, app, limit=600.0):
    cluster.run_until(
        lambda: all(not proc.is_alive
                    for pod in app.pods for proc in pod.processes()),
        limit=limit, step=0.5)


def test_flush_checkpoint_commits_and_app_completes():
    cluster = make_cluster(3)
    app = cluster.launch_app_factory(
        "slm", 3, slm_factory(3, global_rows=24, cols=16, steps=80,
                              total_work_s=2.0))
    install_flush_baseline(cluster)
    cluster.run_for(0.5)
    stats = flush_checkpoint_app(cluster, app)
    assert stats.committed
    run_app(cluster, app)
    import numpy as np
    from repro.apps.slm import reference_solution
    from tests.test_apps import assemble_field
    field = assemble_field(cluster.app_programs(app))
    np.testing.assert_array_equal(field, reference_solution(24, 16, 80))


def test_flush_message_complexity_is_quadratic():
    counts = {}
    for n in (2, 4, 8):
        cluster = make_cluster(n)
        app = cluster.launch_app_factory(
            "slm", n, slm_factory(n, global_rows=16 * n, cols=16,
                                  steps=100000, total_work_s=1e6))
        install_flush_baseline(cluster)
        cluster.run_for(0.3)
        sent = cluster.metrics.counter("control.messages")
        before = sent.labelled("flush")
        flush_checkpoint_app(cluster, app)
        counts[n] = sent.labelled("flush") - before
    # 4N protocol messages + N(N-1) markers.
    assert counts[2] == 4 * 2 + 2 * 1
    assert counts[4] == 4 * 4 + 4 * 3
    assert counts[8] == 4 * 8 + 8 * 7
    # Quadratic growth, unlike Cruz's linear 4N.
    assert counts[8] > 4 * counts[4] / 2


def test_flush_checkpoint_latency_exceeds_cruz():
    """The drain + marker rounds make flushing strictly slower."""
    def measure(flush):
        cluster = make_cluster(2)
        app = cluster.launch_app_factory(
            "slm", 2, slm_factory(2, global_rows=16, cols=2048,
                                  steps=100000, total_work_s=1e6))
        cluster.run_for(0.3)
        if flush:
            install_flush_baseline(cluster)
            return flush_checkpoint_app(cluster, app).latency_s
        return cluster.checkpoint_app(app).latency_s

    assert measure(flush=True) > measure(flush=False)


def test_flush_restart_message_estimate_quadratic():
    assert restart_message_estimate(2) == 4 + 4
    assert restart_message_estimate(8) == 28 * 4 + 16
    assert restart_message_estimate(16) >= 3.9 * restart_message_estimate(8)


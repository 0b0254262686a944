"""Property-based end-to-end CR: correctness at ARBITRARY timings.

The §5.1 proof claims consistency for any interleaving; these tests let
hypothesis pick the checkpoint/crash instants and protocol options and
assert full application-level correctness every time.
"""

from hypothesis import given, settings, strategies as st
import numpy as np

from repro.apps.ring import validate_ring
from repro.apps.slm import reference_solution, slm_factory

from tests.test_apps import assemble_field
from tests.test_cruz_coordination import (
    make_cluster,
    ring_app,
    run_app_to_completion,
    workers_of,
)


def ring_checkpoint_crash_restart(checkpoint_at, crash_after, optimized):
    cluster = make_cluster(3)
    app = ring_app(cluster, 3, max_token=2500)
    cluster.run_for(checkpoint_at)
    stats = cluster.checkpoint_app(app, optimized=optimized,
                                   early_network=optimized)
    assert stats.committed
    cluster.run_for(crash_after)
    cluster.crash_app(app)
    cluster.restart_app(app)
    run_app_to_completion(cluster, app)
    validate_ring(workers_of(cluster, app))


# Derandomized: tier-1 draws the same eight examples on every run, so it
# cannot fail on a timing hypothesis happens to find that day.
@settings(max_examples=8, deadline=None, derandomize=True)
@given(checkpoint_at=st.floats(0.05, 0.8),
       crash_after=st.floats(0.0, 0.4),
       optimized=st.booleans())
def test_ring_exactly_once_for_any_checkpoint_timing(
        checkpoint_at, crash_after, optimized):
    ring_checkpoint_crash_restart(checkpoint_at, crash_after, optimized)


def test_ring_exactly_once_when_crashed_right_after_the_checkpoint():
    """Rank 2's send of token 1124 returns while its pod is stopping: the
    image must hold that return value, or the restored rank sends the
    record again and rank 0 sees token 1125 twice."""
    ring_checkpoint_crash_restart(checkpoint_at=0.5835878918049542,
                                  crash_after=0.0, optimized=False)


@settings(max_examples=6, deadline=None)
@given(checkpoint_at=st.floats(0.1, 2.0),
       migrate_rank=st.integers(0, 1),
       incremental=st.booleans())
def test_slm_bit_identical_for_any_timing(checkpoint_at, migrate_rank,
                                          incremental):
    steps = 50
    cluster = make_cluster(4)
    # 6 s of work over 2 ranks = 3 s wall minimum: every checkpoint_at
    # in [0.1, 2.0] lands strictly mid-run.
    app = cluster.launch_app_factory(
        "slm", 2, slm_factory(2, global_rows=16, cols=16, steps=steps,
                              total_work_s=6.0), node_indices=[0, 1])
    cluster.run_for(checkpoint_at)
    assert any(r.step_count < steps for r in cluster.app_programs(app))
    cluster.checkpoint_app(app, incremental=incremental)
    cluster.migrate_pod(app.pods[migrate_rank], target_node_index=2)
    cluster.run_for(0.1)
    cluster.crash_app(app)
    cluster.restart_app(app, node_indices=[3, 1])
    run_app_to_completion(cluster, app)
    field = assemble_field(cluster.app_programs(app))
    np.testing.assert_array_equal(field,
                                  reference_solution(16, 16, steps))

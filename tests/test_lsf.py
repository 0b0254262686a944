"""LSF-style scheduler: periodic checkpoints, failure recovery, draining."""

import numpy as np
import pytest

from repro.apps.slm import reference_solution, slm_factory
from repro.cruz.cluster import CruzCluster
from repro.errors import CoordinationError
from repro.lsf import JobScheduler, JobSpec, JobState

from tests.test_apps import assemble_field


def make_sched(n_nodes):
    cluster = CruzCluster(n_nodes, time_wait_s=0.5,
                          coordinator_timeout_s=30.0)
    return cluster, JobScheduler(cluster)


def slm_spec(name, n_ranks, steps=60, work=6.0, interval=0.0):
    return JobSpec(name=name,
                   factory=slm_factory(n_ranks, global_rows=8 * n_ranks,
                                       cols=16, steps=steps,
                                       total_work_s=work),
                   n_ranks=n_ranks,
                   checkpoint_interval_s=interval)


def test_job_runs_to_completion():
    cluster, sched = make_sched(2)
    job = sched.submit(slm_spec("j1", 2, steps=40, work=1.0))
    sched.wait_for("j1")
    assert job.state == JobState.FINISHED
    field = assemble_field(cluster.app_programs(job.app))
    np.testing.assert_array_equal(field, reference_solution(16, 16, 40))


def test_periodic_checkpoints_fire():
    cluster, sched = make_sched(2)
    job = sched.submit(slm_spec("j1", 2, steps=60, work=6.0, interval=1.0))
    sched.wait_for("j1")
    assert job.state == JobState.FINISHED
    assert job.checkpoints_taken >= 3
    assert len(cluster.store.versions("j1-r0")) == job.checkpoints_taken


def test_node_failure_recovery_from_periodic_checkpoint():
    cluster, sched = make_sched(4)
    job = sched.submit(JobSpec(
        name="j1",
        factory=slm_factory(2, global_rows=16, cols=16, steps=80,
                            total_work_s=8.0),
        n_ranks=2, checkpoint_interval_s=1.0,
        node_indices=[0, 1]))
    cluster.run_for(2.5)  # at least two checkpoints committed
    assert job.checkpoints_taken >= 2
    cluster.crash_node(0)
    sched.recover_job("j1", node_indices=[2, 3])
    sched.wait_for("j1")
    assert job.state == JobState.FINISHED
    assert job.restarts == 1
    field = assemble_field(cluster.app_programs(job.app))
    np.testing.assert_array_equal(field, reference_solution(16, 16, 80))


def test_failed_node_leaves_the_store_and_recovery_reads_survivors():
    """Regression: the scheduler's old private ``fail_node`` only downed
    the link and flagged the agent, so the store kept costing restores
    as reads from the powered-off disk and never re-replicated. Node
    failure is the cluster's ``crash_node`` now."""
    cluster, sched = make_sched(4)
    job = sched.submit(JobSpec(
        name="j1",
        factory=slm_factory(2, global_rows=16, cols=16, steps=80,
                            total_work_s=8.0),
        n_ranks=2, checkpoint_interval_s=1.0,
        node_indices=[0, 1]))
    cluster.run_for(2.5)
    assert job.checkpoints_taken >= 2
    cluster.crash_node(0)
    assert "node0" not in cluster.store.backend.up_nodes
    assert not cluster.agents[0].pods
    assert not cluster.nodes[0].stack.netfilter.rules
    for pod in job.app.pods:
        sources = cluster.store.load(pod.name).chunk_sources
        assert sources
        assert all("node0" not in holders for holders, _nbytes in sources)
    sched.recover_job("j1")
    # The survivor stayed home; the dead node's rank went to the
    # lowest-index live node hosting no pod of another app.
    assert [pod.node.name for pod in job.app.pods] == ["node1", "node1"]
    sched.wait_for("j1")
    assert job.state == JobState.FINISHED
    assert not cluster.store.under_replicated()
    field = assemble_field(cluster.app_programs(job.app))
    np.testing.assert_array_equal(field, reference_solution(16, 16, 80))


def test_recover_without_checkpoint_raises():
    cluster, sched = make_sched(2)
    sched.submit(slm_spec("j1", 2, steps=400, work=60.0))
    cluster.run_for(0.5)
    with pytest.raises(CoordinationError, match="no committed checkpoint"):
        sched.recover_job("j1")


def test_drain_node_migrates_pods_live():
    cluster, sched = make_sched(3)
    job = sched.submit(JobSpec(
        name="j1",
        factory=slm_factory(2, global_rows=16, cols=16, steps=60,
                            total_work_s=6.0),
        n_ranks=2, node_indices=[0, 1]))
    cluster.run_for(1.0)
    moved = sched.drain_node(0, targets=[2])
    assert moved == ["j1-r0"]
    assert job.migrations == 1
    assert not cluster.agents[0].pods
    sched.wait_for("j1")
    assert job.state == JobState.FINISHED
    field = assemble_field(cluster.app_programs(job.app))
    np.testing.assert_array_equal(field, reference_solution(16, 16, 60))


def test_suspend_and_resume_job():
    cluster, sched = make_sched(2)
    job = sched.submit(slm_spec("j1", 2, steps=60, work=6.0))
    cluster.run_for(1.5)
    sched.suspend_job("j1")
    assert job.state == JobState.SUSPENDED
    # While suspended, no application processes exist.
    assert all(not agent.pods for agent in cluster.agents)
    cluster.run_for(5.0)
    sched.resume_job("j1")
    sched.wait_for("j1")
    assert job.state == JobState.FINISHED
    field = assemble_field(cluster.app_programs(job.app))
    np.testing.assert_array_equal(field, reference_solution(16, 16, 60))


def test_two_jobs_coexist():
    cluster, sched = make_sched(2)
    job_a = sched.submit(JobSpec(
        name="a", factory=slm_factory(2, global_rows=16, cols=16,
                                      steps=30, total_work_s=1.0,
                                      port=9700),
        n_ranks=2))
    job_b = sched.submit(JobSpec(
        name="b", factory=slm_factory(2, global_rows=16, cols=16,
                                      steps=50, total_work_s=2.0,
                                      port=9710),
        n_ranks=2))
    sched.wait_for("a")
    sched.wait_for("b")
    assert job_a.state == JobState.FINISHED
    assert job_b.state == JobState.FINISHED

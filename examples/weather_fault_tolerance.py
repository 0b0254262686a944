#!/usr/bin/env python
"""Fault tolerance for a parallel weather model (the paper's §1 use case).

The slm semi-Lagrangian model runs across 2 nodes under an LSF-style
scheduler taking coordinated checkpoints every simulated second. Mid-run,
a node "loses power"; the scheduler rolls the job back to the last
committed checkpoint on spare nodes. The final field is bit-identical to a
failure-free run — the MPI-like library is never modified and never
reconnects anything.

Run:  python examples/weather_fault_tolerance.py
"""

import numpy as np

from repro.apps.slm import reference_solution, slm_factory
from repro.cruz.cluster import CruzCluster
from repro.lsf import JobScheduler, JobSpec, JobState

ROWS, COLS, STEPS = 32, 32, 120


def main():
    cluster = CruzCluster(n_app_nodes=4)
    scheduler = JobScheduler(cluster)

    job = scheduler.submit(JobSpec(
        name="weather",
        factory=slm_factory(2, global_rows=ROWS, cols=COLS, steps=STEPS,
                            total_work_s=12.0, memory_mb_per_rank=20),
        n_ranks=2,
        checkpoint_interval_s=1.0,
        node_indices=[0, 1]))
    print("job 'weather' running on node0+node1, checkpoint every 1 s")

    cluster.run_for(3.2)
    print(f"t={cluster.sim.now:.1f}s  checkpoints so far: "
          f"{job.checkpoints_taken}")

    print("node0 fails (power loss)...")
    cluster.crash_node(0)
    scheduler.recover_job("weather", node_indices=[2, 3])
    print(f"t={cluster.sim.now:.1f}s  job rolled back to checkpoint "
          f"v{cluster.store.latest_version('weather-r0')} on node2+node3")

    scheduler.wait_for("weather")
    assert job.state == JobState.FINISHED

    ranks = sorted(cluster.app_programs(job.app), key=lambda r: r.rank)
    field = np.vstack([r.q for r in ranks])
    expected = reference_solution(ROWS, COLS, STEPS)
    np.testing.assert_array_equal(field, expected)
    print(f"t={cluster.sim.now:.1f}s  job finished; result is "
          f"bit-identical to the failure-free reference "
          f"(mass drift: {abs(field.sum() - expected.sum()):.1e})")
    for event in job.events:
        print("   ", event)


if __name__ == "__main__":
    main()

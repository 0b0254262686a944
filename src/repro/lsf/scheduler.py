"""Job scheduling on top of Cruz.

Policy only: node failure, pod teardown, restore and placement are the
cluster's (:mod:`repro.cruz.cluster`). The scheduler exercises the
paper's §1 use cases:

* **fault tolerance** — periodic coordinated checkpoints; after a node
  failure the job rolls back to its last committed image on healthy nodes;
* **planned maintenance** — draining a node live-migrates its pods away;
* **resource management** — suspend/resume a job via checkpoint + kill /
  restart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cruz.cluster import CruzCluster
from repro.errors import CoordinationError, ReproError


class JobState(enum.Enum):
    RUNNING = "RUNNING"
    SUSPENDED = "SUSPENDED"
    FINISHED = "FINISHED"
    FAILED = "FAILED"


@dataclass
class JobSpec:
    """What to run and how to protect it."""

    name: str
    factory: Callable          # factory(rank, peer_ips) -> Program
    n_ranks: int
    checkpoint_interval_s: float = 0.0   # 0 = no periodic checkpoints
    node_indices: Optional[Sequence[int]] = None


@dataclass
class Job:
    spec: JobSpec
    app: object
    state: JobState = JobState.RUNNING
    submitted_at: float = 0.0
    finished_at: Optional[float] = None
    checkpoints_taken: int = 0
    checkpoint_failures: int = 0
    restarts: int = 0
    migrations: int = 0
    events: List[str] = field(default_factory=list)


class JobScheduler:
    """Cluster-wide job manager."""

    def __init__(self, cluster: CruzCluster):
        self.cluster = cluster
        self.jobs: Dict[str, Job] = {}

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        if spec.name in self.jobs:
            raise ReproError(f"job {spec.name!r} already submitted")
        app = self.cluster.launch_app_factory(
            spec.name, spec.n_ranks, spec.factory,
            node_indices=spec.node_indices)
        job = Job(spec=spec, app=app, submitted_at=self.cluster.sim.now)
        self.jobs[spec.name] = job
        if spec.checkpoint_interval_s > 0:
            self.cluster.sim.process(
                self._checkpoint_loop(job), name=f"lsf-ckpt({spec.name})")
        self.cluster.sim.process(
            self._completion_watch(job), name=f"lsf-watch({spec.name})")
        return job

    def _is_done(self, job: Job) -> bool:
        """Finished means every process *exited cleanly* — processes that
        were killed (node failure, rollback) do not count as completion."""
        procs = [proc for pod in job.app.pods
                 for proc in pod.processes()]
        return bool(procs) and all(proc.exit_code == 0 for proc in procs)

    def _completion_watch(self, job: Job):
        sim = self.cluster.sim
        while job.state in (JobState.RUNNING, JobState.SUSPENDED):
            if job.state == JobState.RUNNING and self._is_done(job):
                job.state = JobState.FINISHED
                job.finished_at = sim.now
                job.events.append(f"finished@{sim.now:.3f}")
                return
            yield sim.timeout(0.25)

    def _checkpoint_loop(self, job: Job):
        sim = self.cluster.sim
        while True:
            yield sim.timeout(job.spec.checkpoint_interval_s)
            if job.state != JobState.RUNNING or self._is_done(job):
                return
            try:
                stats = yield sim.process(
                    self.cluster.coordinator.checkpoint(job.app))
                if stats.committed:
                    job.checkpoints_taken += 1
                    job.events.append(f"checkpoint@{sim.now:.3f}")
            except CoordinationError:
                job.checkpoint_failures += 1
                job.events.append(f"checkpoint-failed@{sim.now:.3f}")

    # -- maintenance ---------------------------------------------------------

    def drain_node(self, node_index: int,
                   targets: Optional[Sequence[int]] = None) -> List[str]:
        """Live-migrate every pod off a node (planned maintenance).

        With no explicit ``targets``, each pod goes to the least-loaded
        live node (re-evaluated per pod, so a big drain spreads out).
        """
        moved = []
        agent = self.cluster.agents[node_index]
        for slot, pod in enumerate(list(agent.pods.values())):
            if targets is None:
                placement = self.cluster.place(
                    [pod], self._node_alive, exclude={node_index})
                if placement is None:
                    raise ReproError(
                        f"drain of node{node_index}: no live target")
                target = placement[pod.name]
            else:
                target = targets[slot % len(targets)]
            new_pod = self.cluster.migrate_pod(pod, target)
            moved.append(new_pod.name)
            for job in self.jobs.values():
                if any(p.name == new_pod.name for p in job.app.pods):
                    job.migrations += 1
                    job.events.append(
                        f"migrated:{new_pod.name}->"
                        f"node{target}@{self.cluster.sim.now:.3f}")
        return moved

    # -- failure handling -------------------------------------------------------

    def _node_alive(self, node_index: int) -> bool:
        """The operator's liveness view: powered on (ground truth)."""
        return node_index not in self.cluster.dead_nodes

    def recover_job(self, name: str,
                    node_indices: Optional[Sequence[int]] = None) -> Job:
        """Roll a job back to its last committed checkpoint on healthy
        nodes (fault-tolerance path)."""
        job = self.jobs[name]
        if node_indices is None:
            placement = self.cluster.place(job.app.pods, self._node_alive)
            if placement is None:
                raise CoordinationError(
                    f"job {name!r}: no live node to recover onto")
            node_indices = [placement[pod.name] for pod in job.app.pods]
        return self._restart(job, node_indices, "recovered")

    def _restart(self, job: Job, node_indices: Optional[Sequence[int]],
                 event: str) -> Job:
        """Coordinated restart from the job's newest committed round."""
        self.cluster.restart_app(job.app, node_indices=node_indices)
        job.restarts += 1
        job.state = JobState.RUNNING
        job.events.append(f"{event}@{self.cluster.sim.now:.3f}")
        self.cluster.sim.process(
            self._completion_watch(job),
            name=f"lsf-watch({job.spec.name})")
        return job

    # -- suspend / resume --------------------------------------------------------

    def suspend_job(self, name: str) -> Job:
        """Checkpoint a job and release its resources (grid/utility use)."""
        job = self.jobs[name]
        stats = self.cluster.checkpoint_app(job.app)
        if not stats.committed:
            raise CoordinationError(f"suspend of {name!r} did not commit")
        job.checkpoints_taken += 1
        self.cluster.crash_app(job.app)
        job.state = JobState.SUSPENDED
        job.events.append(f"suspended@{self.cluster.sim.now:.3f}")
        return job

    def resume_job(self, name: str) -> Job:
        job = self.jobs[name]
        if job.state != JobState.SUSPENDED:
            raise ReproError(f"job {name!r} is not suspended")
        return self._restart(job, None, "resumed")

    def wait_for(self, name: str) -> Job:
        job = self.jobs[name]
        self.cluster.run_until(
            lambda: job.state in (JobState.FINISHED, JobState.FAILED),
            limit=1e5, step=0.25)
        return job

"""A minimal LSF-style job scheduler driving Cruz (§6: "integrated it
with LSF, a job scheduler for clusters")."""

from repro.lsf.scheduler import JobScheduler, JobSpec, JobState

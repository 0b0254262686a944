"""slm: a semi-Lagrangian atmospheric advection model (the paper's §6
parallel benchmark).

A 2-D scalar field is advected with a constant velocity on a periodic
domain, row-decomposed across ranks. Each timestep every rank:

1. does the local semi-Lagrangian update (numpy),
2. exchanges one halo row with its upstream/downstream neighbours over the
   MPI-like library (plain TCP underneath),
3. periodically allreduces the total mass as a global diagnostic.

The velocity is one grid cell per step, making the update *exact*
(``np.roll``), so tests can verify bit-identical results across any number
of checkpoints, restarts and migrations — the strongest transparency check
available. Mass is conserved exactly for the same reason.

Runtime and memory are parameterised so the paper's setup is reproducible:
per-rank grids of ~100 MB dominate checkpoint time, and per-step compute
scales as ``total_work_s / (steps * n_ranks)`` (strong scaling: 545 s on 2
nodes → ~205 s on 8 in the paper).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.mpi.api import MpiProgram
from repro.simos.syscalls import sys


def initial_field(rows: int, cols: int) -> np.ndarray:
    """A deterministic, structured initial condition."""
    y = np.arange(rows, dtype=np.float64)[:, None]
    x = np.arange(cols, dtype=np.float64)[None, :]
    return (np.sin(2 * np.pi * y / rows) * np.cos(2 * np.pi * x / cols)
            + 2.0)


def reference_solution(rows: int, cols: int, steps: int) -> np.ndarray:
    """The exact field after ``steps`` of unit-velocity advection."""
    return np.roll(np.roll(initial_field(rows, cols), steps, axis=0),
                   steps, axis=1)


class SlmRank(MpiProgram):
    """One rank of the slm model."""

    name = "slm"

    def __init__(self, rank: int, peer_ips: List[str],
                 global_rows: int = 64, cols: int = 64,
                 steps: int = 50, compute_s_per_step: float = 0.001,
                 mass_check_every: int = 10, port: int = 9700,
                 extra_state_bytes: int = 0):
        super().__init__(rank, peer_ips, port=port)
        if global_rows % self.size != 0:
            raise ValueError("global_rows must divide evenly across ranks")
        self.global_rows = global_rows
        self.cols = cols
        self.steps = steps
        self.compute_s_per_step = compute_s_per_step
        self.mass_check_every = mass_check_every
        self.extra_state_bytes = extra_state_bytes
        self.local_rows = global_rows // self.size
        self.row0 = rank * self.local_rows
        self.q: Optional[np.ndarray] = None
        self.step_count = 0
        self.mass_history: List[float] = []
        self.up = (rank - 1) % self.size     # sends us the incoming row
        self.down = (rank + 1) % self.size   # receives our outgoing row

    # -- setup ----------------------------------------------------------

    def on_mpi_ready(self, result):
        field = initial_field(self.global_rows, self.cols)
        self.q = field[self.row0:self.row0 + self.local_rows].copy()
        self.goto("slm_extra_mem")
        return sys("mmap", "q", self.q.nbytes)

    def phase_slm_extra_mem(self, result):
        self.goto("slm_step")
        if self.extra_state_bytes:
            return sys("mmap", "workspace", self.extra_state_bytes)
        return sys("gettime")

    # -- timestep loop ------------------------------------------------------

    def phase_slm_step(self, result):
        if self.step_count >= self.steps:
            return self.mpi_exit(0)
        self.goto("slm_exchange")
        return sys("compute", self.compute_s_per_step)

    def phase_slm_exchange(self, result):
        # Departure row for our first local row lives on the up neighbour.
        if self.size == 1:
            return self._advance(self.q[-1].copy())
        outgoing = self.q[-1].copy()
        return self.send_to(self.down, outgoing, then="slm_recv_halo")

    def phase_slm_recv_halo(self, result):
        return self.recv_from(self.up, then="slm_apply")

    def phase_slm_apply(self, result):
        return self._advance(result)

    def _advance(self, incoming_row: np.ndarray):
        # Shift by one row (data flows downward) and one column (periodic).
        self.q[1:] = self.q[:-1]
        self.q[0] = incoming_row
        self.q = np.roll(self.q, 1, axis=1)
        self.step_count += 1
        self.goto("slm_touch")
        return sys("mtouch", "q")

    def phase_slm_touch(self, result):
        if self.mass_check_every and \
                self.step_count % self.mass_check_every == 0:
            local_mass = float(self.q.sum())
            return self.allreduce(local_mass, op="sum",
                                  then="slm_mass_done")
        self.goto("slm_step")
        return self.phase_slm_step(None)

    def phase_slm_mass_done(self, result):
        self.mass_history.append(float(result))
        self.goto("slm_step")
        return self.phase_slm_step(None)


def slm_factory(n_ranks: int, global_rows: int = 64, cols: int = 64,
                steps: int = 50, total_work_s: float = 0.0,
                memory_mb_per_rank: float = 0.0,
                mass_check_every: int = 10, port: int = 9700):
    """Factory for :meth:`CruzCluster.launch_app_factory`.

    ``total_work_s`` is the whole-application CPU time; each of the
    ``steps`` steps on each of the ``n_ranks`` ranks computes for
    ``total_work_s / (steps * n_ranks)`` (strong scaling).
    ``memory_mb_per_rank`` adds checkpointable workspace so checkpoint
    latency matches the paper's disk-bound ~1 s.
    """
    compute_s = total_work_s / (steps * n_ranks) if total_work_s else 0.001
    extra = int(memory_mb_per_rank * (1 << 20))

    def make(rank: int, peer_ips: List[str]) -> SlmRank:
        return SlmRank(rank=rank, peer_ips=peer_ips,
                       global_rows=global_rows, cols=cols, steps=steps,
                       compute_s_per_step=compute_s,
                       mass_check_every=mass_check_every, port=port,
                       extra_state_bytes=extra)

    return make


def run_slm_rounds(cluster, n_ranks: int, memory_mb_per_rank: float,
                   rounds: int = 0, interval_s: float = 0.0,
                   **checkpoint_options):
    """The Fig. 5 workload: launch, reach steady state, checkpoint.

    The slm job is sized so it never finishes during a measurement (the
    paper measures during a long run). After 0.5 s of mesh-up it takes
    ``rounds`` checkpoints ``interval_s`` apart, ``checkpoint_options``
    going to ``cluster.checkpoint_app``; ``rounds=0`` only launches.
    Returns ``(app, [RoundStats])``.
    """
    app = cluster.launch_app_factory(
        "slm", n_ranks,
        slm_factory(n_ranks, global_rows=8 * n_ranks, cols=32,
                    steps=100000, total_work_s=1e6,
                    memory_mb_per_rank=memory_mb_per_rank))
    stats = []
    if rounds:
        cluster.run_for(0.5)
    for _ in range(rounds):
        cluster.run_for(interval_s)
        stats.append(cluster.checkpoint_app(app, **checkpoint_options))
    return app, stats

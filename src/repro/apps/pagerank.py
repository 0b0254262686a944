"""Distributed PageRank: a BSP-style workload over the MPI layer.

Rank 0 builds the (deterministic) link matrix and *scatters* row blocks;
every superstep each rank computes its slice of ``M @ x`` and the slices
are combined with an *allreduce* — the bulk-synchronous pattern of graph
and linear-algebra codes, structurally different from slm's neighbour
halos and the ring's point-to-point relay.

Determinism note: the allreduce sums contributions in rank order, so the
floating-point result is exactly reproducible — tests assert *bitwise*
equality between an uninterrupted run and one that was checkpointed,
crashed, restarted or suspended mid-iteration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.mpi.api import MpiProgram
from repro.simos.syscalls import sys

if TYPE_CHECKING:
    # numpy is imported by the code that computes with it, as in slm.
    import numpy as np

#: The PageRank damping factor.
DAMPING = 0.85


def build_link_matrix(n_vertices: int) -> np.ndarray:
    """A deterministic column-stochastic link matrix."""
    import numpy as np

    matrix = np.zeros((n_vertices, n_vertices), dtype=np.float64)
    for src in range(n_vertices):
        targets = {(src * 7 + 1) % n_vertices,
                   (src * 3 + 2) % n_vertices,
                   (src + 1) % n_vertices}
        targets.discard(src)
        for dst in targets:
            matrix[dst, src] = 1.0
    column_sums = matrix.sum(axis=0)
    column_sums[column_sums == 0] = 1.0
    return matrix / column_sums


def reference_pagerank(n_vertices: int, n_ranks: int,
                       iterations: int) -> np.ndarray:
    """The exact result of the distributed computation.

    Reproduces the distributed floating-point order: per-rank row-block
    products padded to full length and summed in rank order.
    """
    import numpy as np

    matrix = build_link_matrix(n_vertices)
    rows_per_rank = n_vertices // n_ranks
    x = np.full(n_vertices, 1.0 / n_vertices)
    for _ in range(iterations):
        total = None
        for rank in range(n_ranks):
            row0 = rank * rows_per_rank
            row1 = n_vertices if rank == n_ranks - 1 \
                else row0 + rows_per_rank
            pad = np.zeros(n_vertices)
            pad[row0:row1] = matrix[row0:row1] @ x
            total = pad if total is None else total + pad
        x = (1.0 - DAMPING) / n_vertices + DAMPING * total
    return x


class PageRankRank(MpiProgram):
    """One rank of the BSP PageRank."""

    name = "pagerank"

    def __init__(self, rank: int, peer_ips: List[str],
                 n_vertices: int = 60, iterations: int = 20,
                 work_s_per_iter: float = 0.002):
        super().__init__(rank, peer_ips)
        if n_vertices < self.size:
            raise ValueError("need at least one vertex per rank")
        self.n_vertices = n_vertices
        self.iterations = iterations
        self.damping = DAMPING
        self.work_s_per_iter = work_s_per_iter
        rows_per_rank = n_vertices // self.size
        self.row0 = rank * rows_per_rank
        self.row1 = n_vertices if rank == self.size - 1 \
            else self.row0 + rows_per_rank
        self.block: Optional[np.ndarray] = None
        self.x: Optional[np.ndarray] = None
        self.iteration = 0
        self.result: Optional[np.ndarray] = None

    def on_mpi_ready(self, result):
        blocks = None
        if self.rank == 0:
            matrix = build_link_matrix(self.n_vertices)
            rows_per_rank = self.n_vertices // self.size
            blocks = []
            for rank in range(self.size):
                row0 = rank * rows_per_rank
                row1 = self.n_vertices if rank == self.size - 1 \
                    else row0 + rows_per_rank
                blocks.append(matrix[row0:row1].copy())
        return self.scatter(blocks, then="pr_got_block")

    def phase_pr_got_block(self, result):
        import numpy as np

        self.block = result
        self.x = np.full(self.n_vertices, 1.0 / self.n_vertices)
        self.goto("pr_register_memory")
        return sys("mmap", "block", self.block.nbytes)

    def phase_pr_register_memory(self, result):
        self.goto("pr_iterate")
        return self.phase_pr_iterate(None)

    def phase_pr_iterate(self, result):
        if self.iteration >= self.iterations:
            self.result = self.x
            return self.mpi_exit()
        self.goto("pr_combine")
        return sys("compute", self.work_s_per_iter)

    def phase_pr_combine(self, result):
        import numpy as np

        pad = np.zeros(self.n_vertices)
        pad[self.row0:self.row1] = self.block @ self.x
        return self.allreduce(pad, op="sum", then="pr_apply")

    def phase_pr_apply(self, result):
        self.x = (1.0 - self.damping) / self.n_vertices + \
            self.damping * result
        self.iteration += 1
        self.goto("pr_touch")
        return sys("mtouch", "block", fraction=0.05)

    def phase_pr_touch(self, result):
        self.goto("pr_iterate")
        return self.phase_pr_iterate(None)


def pagerank_factory(n_ranks: int, n_vertices: int = 60,
                     iterations: int = 20, work_s_per_iter: float = 0.002):
    """Factory for :meth:`CruzCluster.launch_app_factory`."""

    def make(rank: int, peer_ips: List[str]) -> PageRankRank:
        return PageRankRank(rank=rank, peer_ips=peer_ips,
                            n_vertices=n_vertices, iterations=iterations,
                            work_s_per_iter=work_s_per_iter)

    return make

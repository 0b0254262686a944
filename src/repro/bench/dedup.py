"""§5.2 incremental/dedup checkpointing: bytes stored per epoch (slm).

The chunk store makes the optimisation measurable as real byte movement:
full mode rewrites every chunk each epoch, dedup mode skips chunks whose
content hash is already stored, incremental mode additionally skips even
hashing clean pages. slm touches only its grid each step, so with extra
untouched workspace well under 100% of the pages are dirty between
epochs — dedup and incremental epochs must store strictly less than
full ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.apps.slm import slm_factory
from repro.bench.harness import Figure, ShapeReport, render_table
from repro.cruz.cluster import CruzCluster
from repro.simos.memory import PAGE_SIZE

MODES = ("full", "dedup", "incremental")


@dataclass
class DedupResult:
    n_ranks: int
    #: Per-rank workspace the job allocates and never writes.
    workspace_mb: float
    #: mode -> bytes the store wrote in each checkpoint epoch.
    bytes_per_epoch: Dict[str, List[int]]


def run_dedup(n_ranks: int = 2, epochs: int = 3,
              workspace_mb: float = 8.0) -> DedupResult:
    """``epochs`` checkpoints of the same slm job under each mode."""
    bytes_per_epoch = {}
    for mode in MODES:
        cluster = CruzCluster(n_ranks)
        # Default per-step compute (1 ms) so steps — and grid touches —
        # actually happen between epochs.
        app = cluster.launch_app_factory(
            "slm", n_ranks,
            slm_factory(n_ranks, global_rows=16, cols=2048, steps=10_000,
                        memory_mb_per_rank=workspace_mb))
        cluster.run_for(0.3)
        store = cluster.store
        bytes_per_epoch[mode] = []
        for _epoch in range(epochs):
            before = store.stats["bytes_written"]
            cluster.checkpoint_app(app, incremental=(mode == "incremental"),
                                   dedup=(mode == "dedup"))
            bytes_per_epoch[mode].append(
                store.stats["bytes_written"] - before)
            # Long enough to clear the post-checkpoint TCP backoff and
            # make real forward progress before the next epoch.
            cluster.run_for(0.5)
    return DedupResult(n_ranks=n_ranks, workspace_mb=workspace_mb,
                       bytes_per_epoch=bytes_per_epoch)


def dedup_shape_report(result: DedupResult) -> ShapeReport:
    full, dedup, incremental = (result.bytes_per_epoch[mode]
                                for mode in MODES)
    steady = range(1, len(full))
    # Every rank's workspace, less a page of slack for its edges.
    workspace = result.n_ranks * (
        int(result.workspace_mb * (1 << 20)) - PAGE_SIZE)
    report = ShapeReport("§5.2 bytes-per-epoch shape")
    # Epoch 1 is a cold store: every mode writes the whole state.
    report.check("cold_store_writes_everything",
                 dedup[0] >= 0.9 * full[0], value=dedup[0] / full[0],
                 expect="dedup epoch 1 >= 90% of full")
    # Steady state: both modes store strictly less than full...
    report.check("dedup_below_full",
                 all(dedup[e] < full[e] for e in steady),
                 value=[dedup[e] / full[e] for e in steady],
                 expect="dedup < full in every later epoch")
    report.check("incremental_below_full",
                 all(incremental[e] < full[e] for e in steady),
                 value=[incremental[e] / full[e] for e in steady],
                 expect="incremental < full in every later epoch")
    # ...and at least the untouched workspace is never stored again.
    report.check("dedup_skips_the_workspace",
                 all(full[e] - dedup[e] >= workspace for e in steady),
                 value=[full[e] - dedup[e] for e in steady],
                 expect=f"stores >= {workspace} B less than full")
    report.check("incremental_skips_the_workspace",
                 all(full[e] - incremental[e] >= workspace
                     for e in steady),
                 value=[full[e] - incremental[e] for e in steady],
                 expect=f"stores >= {workspace} B less than full")
    return report


def _render(result: DedupResult) -> List[str]:
    epochs = len(result.bytes_per_epoch["full"])
    rows = [[epoch + 1] + [
        f"{result.bytes_per_epoch[mode][epoch] / (1 << 20):.2f} MB"
        for mode in MODES] for epoch in range(epochs)]
    return [render_table(
        f"Bytes stored per checkpoint epoch (slm, "
        f"{result.workspace_mb:.0f} MB untouched workspace/rank)",
        ["epoch", *MODES], rows)]


FIGURE = Figure(
    name="dedup", help="bytes stored per epoch: full/dedup/incremental",
    section="§5.2 — incremental and deduplicated checkpoints "
            "(beyond the paper's figures)",
    paper="""\
Paper, §5.2, proposed and not measured: incremental checkpoints that
save only what changed since the previous one.

Here: three checkpoint epochs of a 2-rank slm job that steps its grid
between epochs and carries 8 MB per rank of workspace it never writes,
under each store mode: `full` rewrites every chunk, `dedup` skips
chunks whose content hash is already stored, `incremental` also skips
hashing clean pages. The cells are bytes the chunk store wrote.""",
    run=lambda args: run_dedup(),
    shape=dedup_shape_report, render=_render,
    payload=lambda result: {"result": result})

"""``repro bench store``: sharded-store restore bandwidth and healing.

The distributed image store shards the content-addressed chunk space
across the application nodes (writer-affinity primary plus hash-ring
successors, ``replication_factor`` copies). This suite measures what
that buys and what it must never lose:

* **restore scaling** — checkpoint a pod at RF 1/2/4 on a 5-node
  cluster, then restart it on the coordinator node (which never holds a
  shard, so every chunk is a remote fetch). A restore streams in
  parallel from every surviving replica; the effective bandwidth must
  grow with the number of source nodes (RF=4 vs RF=1 at least
  :data:`MIN_SCALING`).
* **single-loss healing** — at RF=2, crash each application node in
  turn: every committed version must stay reconstructible from the
  surviving replicas (zero lost versions), and the background
  re-replication daemon must repair the replica deficit back to RF.
* **determinism** — the RF=2 restore run is repeated under the LIFO
  event tie-break and diffed field-for-field against FIFO.

All quantities are simulated seconds, so ``--compare`` holds every field
of the run equal to ``benchmarks/BENCH_store.json``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.harness import ShapeReport, Suite

#: Replication factors the restore-scaling sweep measures.
RFS = (1, 2, 4)
APP_NODES = 5
MEMORY_MB = 16.0
#: The single-loss healing sweep: one crash per node at this RF and size.
HEAL_RF = 2
HEAL_MEMORY_MB = 4.0
#: Required RF=4 / RF=1 restore bandwidth ratio (4 source disks vs 1).
MIN_SCALING = 3.0


def run_restore(rf: int, tiebreak: str) -> Dict[str, object]:
    """Checkpoint at ``rf``, restore on the coordinator; measurements.

    The coordinator node holds no shard, so the restore fetches every
    chunk from the application-node replicas — the clean N-source
    parallel-read case the placement map is built for.
    """
    from repro.apps.slm import run_slm_rounds
    from repro.cruz.cluster import CruzCluster

    cluster = CruzCluster(APP_NODES, replication_factor=rf,
                          tiebreak=tiebreak)
    app, _stats = run_slm_rounds(cluster, 1, MEMORY_MB)
    cluster.run_for(0.5)
    pod = app.pods[0]
    cluster.checkpoint_app(app)
    image = cluster.store.load(pod.name)
    holders = sorted({holder
                      for group, _nbytes in (image.chunk_sources or [])
                      for holder in group})
    # The restored instance must be the only one.
    cluster.destroy_pod(pod)
    started = cluster.sim.now
    task = cluster.sim.process(cluster.restore_pod(
        image, cluster.coordinator_node, resume=False))
    cluster.sim.run_until_complete(task, limit=1e6)
    restore_s = cluster.sim.now - started
    stats = cluster.store.stats
    return {
        "rf": rf,
        "tiebreak": tiebreak,
        "state_bytes": image.state_bytes,
        "source_nodes": holders,
        "restore_s": round(restore_s, 9),
        "bandwidth_mbps": round(image.state_bytes / restore_s / 1e6, 3)
        if restore_s > 0 else 0.0,
        "replica_bytes": stats["replica_bytes"],
        "bytes_written": stats["bytes_written"],
    }


def run_heal() -> Dict[str, object]:
    """Crash every application node in turn (fresh cluster each time).

    After each single-node loss every committed version must remain
    reconstructible, and once the re-replication daemon has run the
    chunk space must be back at full replication.
    """
    from repro.apps.slm import run_slm_rounds
    from repro.cruz.cluster import CruzCluster

    lost_versions = 0
    unhealed = 0
    rereplicated_chunks = 0
    for victim in range(APP_NODES):
        cluster = CruzCluster(APP_NODES, replication_factor=HEAL_RF)
        app, _stats = run_slm_rounds(cluster, 1, HEAL_MEMORY_MB)
        cluster.run_for(0.3)
        pod = app.pods[0]
        cluster.checkpoint_app(app)
        cluster.run_for(0.1)
        cluster.checkpoint_app(app)
        committed = set(cluster.store.versions(pod.name))
        cluster.crash_node(victim)
        surviving = set(cluster.store.reconstructible_versions(pod.name))
        lost_versions += len(committed - surviving)
        cluster.run_for(2.0)  # let re-replication repair
        unhealed += len(cluster.store.under_replicated())
        rereplicated_chunks += \
            cluster.store.stats["rereplicated_chunks"]
    return {
        "rf": HEAL_RF,
        "nodes_tested": APP_NODES,
        "lost_versions": lost_versions,
        "unhealed_chunks": unhealed,
        "rereplicated_chunks": rereplicated_chunks,
    }


def run_suite() -> Dict[str, object]:
    """The full sweep: scaling, healing, and the tie-break probe."""
    from repro.analysis.determinism import tiebreak_diff

    def restore_at(rf: int, tiebreak: str = "fifo") -> Dict[str, object]:
        print(f"store: restore at rf={rf} ({MEMORY_MB:.0f} MB, "
              f"{APP_NODES} app nodes, {tiebreak})...", flush=True)
        return run_restore(rf, tiebreak)

    restore: Dict[str, object] = {}
    divergences: List[str] = []
    for rf in RFS:
        if rf == 2:  # doubles as the tie-break probe
            restore["rf2"], _lifo, divergences = tiebreak_diff(
                lambda tiebreak: restore_at(2, tiebreak), "restore.rf2")
        else:
            restore[f"rf{rf}"] = restore_at(rf)
    low, high = restore[f"rf{RFS[0]}"], restore[f"rf{RFS[-1]}"]
    scaling = (high["bandwidth_mbps"] / low["bandwidth_mbps"]
               if low["bandwidth_mbps"] > 0 else float("inf"))
    print(f"store: single-loss healing at rf={HEAL_RF}...", flush=True)
    heal = run_heal()
    return {
        "suite": "store",
        "workload": {
            "app_nodes": APP_NODES, "memory_mb": MEMORY_MB,
            "rfs": list(RFS),
        },
        "restore": restore,
        "scaling": round(scaling, 4),
        "heal": heal,
        "divergences": divergences,
    }


def render(report: Dict[str, object]) -> List[str]:
    lines = []
    for key in sorted(report["restore"]):
        row = report["restore"][key]
        lines.append(
            f"{key:>4}: restore {row['restore_s'] * 1e3:8.3f}ms from "
            f"{len(row['source_nodes'])} node(s) = "
            f"{row['bandwidth_mbps']:7.1f} MB/s  "
            f"(replica bytes {row['replica_bytes'] / 1e6:.1f}MB)")
    heal = report["heal"]
    lines.append(
        f"single-loss @rf={heal['rf']}: {heal['nodes_tested']} crashes, "
        f"{heal['lost_versions']} lost version(s), "
        f"{heal['unhealed_chunks']} unhealed chunk(s), "
        f"{heal['rereplicated_chunks']} re-replicated")
    return lines


def shape(report: Dict[str, object]) -> ShapeReport:
    """Restore scaling and single-loss healing as named checks."""
    checks = ShapeReport("bench store: sharded restore and healing")
    bandwidths = [report["restore"][f"rf{rf}"]["bandwidth_mbps"]
                  for rf in RFS]
    checks.check("bandwidth_grows_with_rf",
                 all(a < b for a, b in zip(bandwidths, bandwidths[1:])),
                 bandwidths, f"strictly increasing over rf {list(RFS)}")
    checks.check("restore_scaling", report["scaling"] >= MIN_SCALING,
                 report["scaling"],
                 f">= {MIN_SCALING}x from rf={RFS[0]} to rf={RFS[-1]}")
    heal = report["heal"]
    checks.check("no_version_lost", heal["lost_versions"] == 0,
                 heal["lost_versions"],
                 f"0 after each single crash at rf={heal['rf']}")
    checks.check("every_chunk_healed", heal["unhealed_chunks"] == 0,
                 heal["unhealed_chunks"], "0 under-replicated")
    checks.check("rereplication_repaired",
                 heal["rereplicated_chunks"] > 0,
                 heal["rereplicated_chunks"], "> 0 chunks")
    checks.check("fifo_equals_lifo", not report["divergences"],
                 report["divergences"][:3], "no divergence")
    return checks


SUITE = Suite(
    name="store",
    help="sharded-restore bandwidth scaling and healing",
    run=run_suite, shape=shape, render=render,
    baseline="benchmarks/BENCH_store.json")

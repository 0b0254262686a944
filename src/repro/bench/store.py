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
  ``--min-scaling``, 3x by default).
* **single-loss healing** — at RF=2, crash each application node in
  turn: every committed version must stay reconstructible from the
  surviving replicas (zero lost versions), and the background
  re-replication daemon must repair the replica deficit back to RF.
* **determinism** — the RF=2 restore run is repeated under the LIFO
  event tie-break and diffed field-for-field against FIFO.

All quantities are simulated seconds, so they travel across machines.
``--save`` records the run to ``benchmarks/BENCH_store.json``;
``--compare`` re-runs and fails on the explicit floors or — when the
workload matches the committed baseline — on scaling drift beyond the
tolerance.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.bench.harness import Suite, workload_matches

#: Replication factors the restore-scaling sweep measures.
DEFAULT_RFS = (1, 2, 4)
DEFAULT_APP_NODES = 5
DEFAULT_MEMORY_MB = 16.0
#: Required RF=4 / RF=1 restore bandwidth ratio (4 source disks vs 1).
DEFAULT_MIN_SCALING = 3.0
#: Allowed relative drop below the committed baseline's scaling.
DEFAULT_TOLERANCE = 0.25


def run_restore(rf: int,
                app_nodes: int = DEFAULT_APP_NODES,
                memory_mb: float = DEFAULT_MEMORY_MB,
                tiebreak: str = "fifo") -> Dict[str, object]:
    """Checkpoint at ``rf``, restore on the coordinator; measurements.

    The coordinator node holds no shard, so the restore fetches every
    chunk from the application-node replicas — the clean N-source
    parallel-read case the placement map is built for.
    """
    from repro.apps.slm import run_slm_rounds
    from repro.cruz.cluster import CruzCluster

    cluster = CruzCluster(app_nodes, replication_factor=rf,
                          tiebreak=tiebreak)
    app, _stats = run_slm_rounds(cluster, 1, memory_mb)
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


def run_heal(rf: int = 2,
             app_nodes: int = DEFAULT_APP_NODES,
             memory_mb: float = 4.0) -> Dict[str, object]:
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
    for victim in range(app_nodes):
        cluster = CruzCluster(app_nodes, replication_factor=rf)
        app, _stats = run_slm_rounds(cluster, 1, memory_mb)
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
        "rf": rf,
        "nodes_tested": app_nodes,
        "lost_versions": lost_versions,
        "unhealed_chunks": unhealed,
        "rereplicated_chunks": rereplicated_chunks,
    }


def run_suite(app_nodes: int = DEFAULT_APP_NODES,
              memory_mb: float = DEFAULT_MEMORY_MB,
              rfs=DEFAULT_RFS) -> Dict[str, object]:
    """The full sweep: scaling, healing, and the tie-break probe."""
    from repro.analysis.determinism import tiebreak_diff

    rfs = tuple(sorted(set(int(rf) for rf in rfs)))
    def restore_at(rf: int, tiebreak: str = "fifo") -> Dict[str, object]:
        print(f"store: restore at rf={rf} ({memory_mb:.0f} MB, "
              f"{app_nodes} app nodes, {tiebreak})...", flush=True)
        return run_restore(rf, app_nodes=app_nodes, memory_mb=memory_mb,
                           tiebreak=tiebreak)

    restore: Dict[str, object] = {}
    divergences: List[str] = []
    for rf in rfs:
        if rf == 2:  # doubles as the tie-break probe
            restore["rf2"], _lifo, divergences = tiebreak_diff(
                lambda tiebreak: restore_at(2, tiebreak), "restore.rf2")
        else:
            restore[f"rf{rf}"] = restore_at(rf)
    low, high = restore[f"rf{rfs[0]}"], restore[f"rf{rfs[-1]}"]
    scaling = (high["bandwidth_mbps"] / low["bandwidth_mbps"]
               if low["bandwidth_mbps"] > 0 else float("inf"))
    print(f"store: single-loss healing at rf=2...", flush=True)
    heal = run_heal(rf=2, app_nodes=app_nodes)
    return {
        "suite": "store",
        "workload": {
            "app_nodes": app_nodes, "memory_mb": memory_mb,
            "rfs": list(rfs),
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
    lines.append(f"restore bandwidth scaling: {report['scaling']:.2f}x "
                 f"(floor {DEFAULT_MIN_SCALING})")
    heal = report["heal"]
    lines.append(
        f"single-loss @rf={heal['rf']}: {heal['nodes_tested']} crashes, "
        f"{heal['lost_versions']} lost version(s), "
        f"{heal['unhealed_chunks']} unhealed chunk(s), "
        f"{heal['rereplicated_chunks']} re-replicated")
    if report["divergences"]:
        lines.append(f"tie-break divergences: {report['divergences']}")
    else:
        lines.append("tie-break: fifo and lifo runs are bit-identical")
    return lines


def evaluate(report: Dict[str, object],
             baseline: Optional[Dict[str, object]],
             min_scaling: float = DEFAULT_MIN_SCALING,
             tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Pure comparison: list of failure messages (empty = pass)."""
    failures = []
    rows = [report["restore"][key]
            for key in sorted(report["restore"],
                              key=lambda k: int(k[2:]))]
    for earlier, later in zip(rows, rows[1:]):
        if later["bandwidth_mbps"] <= earlier["bandwidth_mbps"]:
            failures.append(
                f"restore bandwidth did not grow from rf={earlier['rf']} "
                f"({earlier['bandwidth_mbps']} MB/s) to "
                f"rf={later['rf']} ({later['bandwidth_mbps']} MB/s)")
    scaling = float(report["scaling"])
    if scaling < min_scaling:
        failures.append(
            f"restore scaling rf={rows[-1]['rf']} vs rf={rows[0]['rf']} "
            f"is only {scaling:.2f}x (floor {min_scaling:.1f}x)")
    heal = report["heal"]
    if heal["lost_versions"]:
        failures.append(
            f"{heal['lost_versions']} committed version(s) lost to a "
            f"single node crash at rf={heal['rf']}")
    if heal["unhealed_chunks"]:
        failures.append(
            f"{heal['unhealed_chunks']} chunk(s) still under-replicated "
            f"after the heal window")
    if not heal["rereplicated_chunks"]:
        failures.append("re-replication daemon repaired nothing")
    if report["divergences"]:
        failures.append(
            f"fifo/lifo divergence: {report['divergences'][:3]}")
    if workload_matches(report, baseline, "store"):
        recorded = float(baseline.get("scaling", 0.0))
        floor = recorded * (1.0 - tolerance)
        if recorded > 0 and scaling < floor:
            failures.append(
                f"scaling {scaling:.2f}x dropped more than "
                f"{tolerance:.0%} below the committed baseline's "
                f"{recorded:.2f}x")
    return failures


def _add_arguments(parser) -> None:
    parser.add_argument("--app-nodes", type=int,
                        default=DEFAULT_APP_NODES,
                        help="application node count (default 5)")
    parser.add_argument("--memory-mb", type=float,
                        default=DEFAULT_MEMORY_MB,
                        help="pod state size in MB (default 16)")
    parser.add_argument("--min-scaling", type=float,
                        default=DEFAULT_MIN_SCALING,
                        help="required restore bandwidth growth from "
                             "rf=1 to the largest rf (default 3.0)")


SUITE = Suite(
    name="store",
    help="sharded-restore bandwidth scaling and healing",
    baseline="benchmarks/BENCH_store.json",
    run=run_suite, evaluate=evaluate, render=render,
    add_arguments=_add_arguments,
    workload=("app_nodes", "memory_mb"),
    floors=("min_scaling",))

"""Sharded, replicated image store.

Covers the backend in isolation (ring placement, replication, repair),
the ImageStore facade (the one-disk default, layout re-attach,
reconstructibility views), and
the degraded-restore paths the redesign exists for: losing a replica at
RF=2 must not lose a committed version, losing the only copy at RF=1
must fail with a *typed* error, and failover must fall back to the
newest version still reconstructible from surviving replicas.
"""

import pytest

from repro.cruz.backend import ShardedBackend, backend_from_config
from repro.cruz.cluster import CruzCluster
from repro.cruz.storage import DEFAULT_SHARD_NODE, ImageStore, blob_chunk_id
from repro.errors import (
    ChunkMissingError,
    StoreError,
    VersionUnreconstructibleError,
)
from repro.simos.costs import DEFAULT_COSTS
from repro.simos.filesystem import SharedFileSystem
from repro.simos.memory import PAGE_SIZE
from repro.zap.image import fetch_fraction, freeze_object
from repro.zap.verify import verify_image

from tests.programs import ComputeLoop

NODES = ("node0", "node1", "node2", "node3")


def make_backend(rf=2, nodes=NODES):
    return ShardedBackend(SharedFileSystem(), nodes=nodes,
                          replication_factor=rf)


def run(cluster, generator, limit=1e6):
    task = cluster.sim.process(generator)
    return cluster.sim.run_until_complete(task, limit=limit)


def make_pod_with_grid(cluster, node_index=0, name="p0", n_pages=60):
    pod = cluster.create_pod(node_index, name)
    proc = pod.spawn(ComputeLoop(iterations=1000, work_s=0.01))
    cluster.run_for(0.05)
    proc.memory.allocate("grid", n_pages * PAGE_SIZE)
    return pod, proc


def checkpoint(cluster, pod, node_index=0, resume=True):
    engine = cluster.agents[node_index].checkpoint_engine
    return run(cluster, engine.checkpoint(pod, resume=resume))


# -- ring placement --------------------------------------------------------


def test_placement_is_deterministic_writer_first_and_distinct():
    backend = make_backend(rf=3)
    for payload in (b"alpha", b"beta", b"gamma", b"delta"):
        cid = blob_chunk_id(payload)
        dests = backend.placement(cid, writer="node2")
        assert dests[0] == "node2"              # writer affinity
        assert len(dests) == 3
        assert len(set(dests)) == 3             # distinct nodes
        # Pure function of (cid, writer, availability): a second backend
        # over a different filesystem places identically.
        assert make_backend(rf=3).placement(cid, writer="node2") == dests


def test_placement_skips_down_nodes_and_degrades():
    backend = make_backend(rf=2)
    cid = blob_chunk_id(b"payload")
    full = backend.placement(cid, writer="node0")
    replica = full[1]
    backend.mark_down(replica)
    degraded = backend.placement(cid, writer="node0")
    assert replica not in degraded
    assert degraded[0] == "node0" and len(degraded) == 2
    # Down to a single up node the write degrades to one copy.
    for node in NODES:
        if node != "node0":
            backend.mark_down(node)
    assert backend.placement(cid, writer="node0") == ("node0",)


def test_put_get_replicates_dedups_and_repairs():
    backend = make_backend(rf=2)
    cid = blob_chunk_id(b"payload")
    result = backend.put_chunk(cid, b"payload", writer="node1")
    assert result.logical_write
    assert result.replica_copies == 1
    assert backend.holders(cid) == tuple(sorted(result.dests))
    assert backend.total_copies(cid) == 2
    assert backend.get_chunk(cid) == b"payload"

    again = backend.put_chunk(cid, b"payload", writer="node1")
    assert not again.logical_write              # dedup'd
    assert again.replica_copies == 0

    # Lose one replica: the chunk is under-replicated and repairable.
    victim = backend.holders(cid)[0]
    backend.mark_down(victim)
    assert backend.available(cid)
    assert [entry[0] for entry in backend.under_replicated()] == [cid]
    ((dest, ids, nbytes),) = backend.rereplicate([cid], {cid})
    assert dest != victim and ids == [cid] and nbytes == len(b"payload")
    assert dest in backend.holders(cid)
    assert not backend.under_replicated()

    # Lose every reachable copy: typed miss naming the queried shards.
    for node in backend.live_holders(cid):
        backend.delete_on(node, cid)
    with pytest.raises(ChunkMissingError, match="missing chunk") as info:
        backend.get_chunk(cid)
    assert info.value.cid == cid
    assert info.value.queried_nodes == backend.up_nodes


def test_down_node_copies_survive_power_off():
    backend = make_backend(rf=1, nodes=("node0", "node1"))
    cid = blob_chunk_id(b"payload")
    backend.put_chunk(cid, b"payload", writer="node0")
    backend.mark_down("node0")
    assert not backend.available(cid)           # unreachable...
    assert backend.has(cid)                     # ...but not lost
    backend.mark_up("node0")
    assert backend.get_chunk(cid) == b"payload"


# -- the ImageStore facade -------------------------------------------------


def test_bare_store_is_one_disk_rf1_and_costs_what_a_single_disk_does():
    cluster = CruzCluster(1)
    pod, _proc = make_pod_with_grid(cluster)
    taken = cluster.store.load(pod.name, checkpoint(cluster, pod).version)

    fs = SharedFileSystem()
    store = ImageStore(fs)
    backend = store.backend
    assert isinstance(backend, ShardedBackend)
    assert backend.nodes == [DEFAULT_SHARD_NODE]
    assert backend.replication_factor == 1

    # One write destination per group: the schedule is the two-stage
    # (serialize -> one disk) pipeline bound in closed form.
    plan = store.plan(taken, mode="full")
    assert all(set(dests) <= {DEFAULT_SHARD_NODE}
               for dests in plan.dest_groups)
    assert plan.replica_bytes == 0
    serialized = disk_free = 0.0
    for serialize_bytes, write_bytes in plan.groups:
        serialized += serialize_bytes / DEFAULT_COSTS.serialize_bandwidth
        disk_free = max(serialized, disk_free) \
            + write_bytes / DEFAULT_COSTS.disk_write_bandwidth
    assert plan.schedule(DEFAULT_COSTS) == \
        (serialized, max(disk_free, serialized))

    version = store.save(taken, plan=plan)
    image = store.load(taken.pod_name, version)
    assert verify_image(image).ok
    assert image.state_bytes == taken.state_bytes
    assert image.processes[0].program_blob == \
        taken.processes[0].program_blob
    # A reader that is not the shard node streams from the one disk at
    # full serial cost, exactly like the single-disk layout did.
    assert fetch_fraction(image.chunk_sources, "node0") == 1.0
    assert store.stats["replica_copies"] == 0
    assert store.under_replicated() == []
    assert store.audit(deep=True) == []

    # A store built later over the same filesystem re-attaches through
    # the .store record and sees the same version.
    again = ImageStore(fs)
    assert again.backend.nodes == [DEFAULT_SHARD_NODE]
    assert again.versions(taken.pod_name) == [version]
    assert again.audit(deep=True) == []


@pytest.mark.parametrize("record", [
    {"kind": "flat", "rf": 1},
    {"rf": 2, "nodes": ["a", "b"]},
    {"kind": "sharded", "rf": 2},
    {"kind": "sharded", "rf": 2, "nodes": []},
    {"kind": "sharded", "nodes": ["a"]},
    "not-a-record",
])
def test_unusable_store_record_is_a_typed_failure(record):
    fs = SharedFileSystem()
    with pytest.raises(StoreError, match="layout record") as info:
        backend_from_config(fs, record)
    assert repr(record) in str(info.value)
    # The same record on disk fails the attach instead of silently
    # laying out an empty store over the existing images.
    fs.create("/checkpoints/.store")
    fs.write_at("/checkpoints/.store", 0, freeze_object(record))
    with pytest.raises(StoreError):
        ImageStore(fs)


def test_backend_layout_persists_across_store_instances():
    fs = SharedFileSystem()
    first = ImageStore(fs, backend=ShardedBackend(
        fs, nodes=("a", "b", "c"), replication_factor=2))
    assert first.backend.nodes == ["a", "b", "c"]
    # A coordinator restarted elsewhere re-attaches with the same
    # layout from the .store record, not the one-disk default.
    second = ImageStore(fs)
    assert second.backend.nodes == ["a", "b", "c"]
    assert second.backend.replication_factor == 2


def test_reconstructible_versions_track_replica_loss():
    cluster = CruzCluster(2, replication_factor=1)
    pod, proc = make_pod_with_grid(cluster)
    checkpoint(cluster, pod, resume=False)                      # v1
    store = cluster.store
    assert store.reconstructible_versions(pod.name) == [1]
    store.backend.mark_down("node0")            # the writer held RF=1
    assert store.versions(pod.name) == [1]      # still committed...
    assert store.reconstructible_versions(pod.name) == []  # ...unusable
    with pytest.raises(VersionUnreconstructibleError) as info:
        store.load(pod.name, 1)
    assert isinstance(info.value, StoreError)
    assert info.value.pod_name == pod.name and info.value.version == 1
    assert info.value.missing_cid
    # Power restored: nothing was lost, only unreachable.
    store.backend.mark_up("node0")
    assert store.reconstructible_versions(pod.name) == [1]
    assert store.load(pod.name, 1).version == 1


# -- degraded restore ------------------------------------------------------


def test_rf2_restore_is_bit_exact_after_losing_the_writer_replica():
    """Crash the node that wrote the checkpoint (it held the primary
    copy of every chunk): the restore must come entirely from the
    surviving ring replicas, bit-exact."""
    from repro.zap.checkpoint import scrub_pod_network
    from repro.zap.virtualization import uninstall_pod

    cluster = CruzCluster(3, replication_factor=2)
    pod, proc = make_pod_with_grid(cluster)
    image = checkpoint(cluster, pod, resume=False)              # v1
    done_at_v1 = proc.program.done
    scrub_pod_network(pod)
    pod.kill_all()
    uninstall_pod(pod)
    cluster.agents[0].unregister_pod(pod.name)
    cluster.crash_node(0)                       # the writer's shard dies

    store = cluster.store
    assert store.reconstructible_versions(pod.name) == [1]
    loaded = store.load(pod.name)
    assert loaded.version == image.version == 1
    # Every chunk group now sources from survivors only.
    assert loaded.chunk_sources
    for holders, _nbytes in loaded.chunk_sources:
        assert holders and "node0" not in holders
    restored = run(cluster, cluster.agents[1].restart_engine.restart(
        loaded, cluster.nodes[1], resume=False))
    proc2 = restored.processes()[0]
    assert proc2.program.done == done_at_v1
    assert proc2.memory.regions["grid"].page_count == 60
    assert proc2.memory.page_versions == \
        loaded.processes[0].memory.page_versions


def test_rereplication_restores_rf_after_node_loss():
    cluster = CruzCluster(3, replication_factor=2)
    pod, proc = make_pod_with_grid(cluster)
    checkpoint(cluster, pod, resume=False)
    cluster.crash_node(2)                       # replica-only node
    assert cluster.store.stats["rereplicated_chunks"] == 0
    cluster.run_for(2.0)                        # heal window
    store = cluster.store
    assert store.under_replicated() == []
    assert store.stats["rereplicated_chunks"] > 0
    assert store.reconstructible_versions(pod.name) == [1]
    # Healed means the loss of a *second* node is now survivable too.
    store.backend.mark_down("node1")
    assert store.reconstructible_versions(pod.name) == [1]


#: Events one heal pass may pop: its start, one timeout per (live
#: holders, destination) group — one below — and its end, with room.
#: The per-chunk loop popped one per chunk repaired (over 900 below).
HEAL_PASS_EVENTS = 8


def test_a_heal_pass_pops_events_per_group_not_per_chunk():
    cluster = CruzCluster(3, replication_factor=2)
    pod, _proc = make_pod_with_grid(cluster, n_pages=2000)
    checkpoint(cluster, pod, resume=False)      # stopped: no app events
    popped = cluster.sim.stats()["popped"]
    cluster.crash_node(2)                       # replica-only node
    cluster.run_until(lambda: not cluster._rereplication_active,
                      limit=cluster.sim.now + 60.0)
    popped = cluster.sim.stats()["popped"] - popped
    (heal,) = cluster.spans.query("store.rereplicate")
    assert heal.attrs["repaired"] == heal.attrs["chunks"] > 900
    assert heal.attrs["groups"] == 1            # (node0,) -> node1
    assert popped <= HEAL_PASS_EVENTS, popped
    assert cluster.store.under_replicated() == []


def test_a_chunk_with_no_readable_live_copy_is_skipped():
    """Every live copy of one chunk is torn: the pass repairs the rest
    and leaves that one short, with nothing escaping the process."""
    cluster = CruzCluster(3, replication_factor=2)
    pod, _proc = make_pod_with_grid(cluster)
    checkpoint(cluster, pod, resume=False)
    store, backend = cluster.store, cluster.store.backend
    backend.mark_down("node2")
    deficits = store.under_replicated()
    torn, live = deficits[len(deficits) // 2]
    assert live == ("node0",)
    backend.fs.unlink(backend._path("node0", torn))
    run(cluster, cluster._rereplication_proc())
    assert store.under_replicated() == [(torn, live)]
    assert store.stats["rereplicated_chunks"] == len(deficits) - 1
    assert backend.holders(torn) == ("node0", "node2")


def test_a_destination_lost_mid_pass_is_left_to_the_follow_up_pass():
    cluster = CruzCluster(4, replication_factor=2)
    pod, _proc = make_pod_with_grid(cluster, n_pages=400)
    checkpoint(cluster, pod, resume=False)
    store, backend = cluster.store, cluster.store.backend
    held = {node: len(backend.copies(node)) for node in backend.nodes}
    cluster.crash_node(0)                       # the writer's shard
    cluster.run_for(1e-6)                       # inside the first charge
    first = store.stats["rereplicated_chunks"]
    (first_dest,) = [node for node in backend.up_nodes
                     if len(backend.copies(node)) > held[node]]
    victim = next(node for node in backend.up_nodes if node != first_dest)
    victim_held = len(backend.copies(victim))
    cluster.crash_node([node.name for node in cluster.nodes].index(victim))
    cluster.run_until(lambda: not cluster._rereplication_active,
                      limit=cluster.sim.now + 60.0)
    # Nothing was written to the lost destination, and the pass that
    # its loss queued healed what the first pass had meant for it.
    assert len(backend.copies(victim)) == victim_held
    first_pass, follow_up = cluster.spans.query("store.rereplicate")
    assert first_pass.attrs["repaired"] > first
    assert follow_up.attrs["repaired"] > 0
    assert store.under_replicated() == []
    for cid in store.refcounts():
        assert len(backend.live_holders(cid)) in (0, 2)

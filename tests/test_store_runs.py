"""The run-granular page path: one pass per process through plan, put
and read, page ids memoised by write version.

The reference is :mod:`tests.reference_store` — the per-chunk loop this
path replaced; both are driven with the same seeded operations and
every counter, plan, refcount and file must stay equal.
"""

import gc
import hashlib
import random
import sys
from collections import Counter
from dataclasses import MISSING, fields

import pytest

import repro.cruz.backend as backend_module
import repro.cruz.storage as storage_module
from repro.analysis.sanitize import Sanitizer
from repro.apps.slm import slm_factory
from repro.cluster import Cluster
from repro.cruz.backend import ShardedBackend
from repro.cruz.cluster import CruzCluster
from repro.cruz.storage import (
    DEFAULT_SHARD_NODE,
    ImageStore,
    blob_chunk_id,
    iter_page_chunks,
    page_chunk_id,
    page_chunk_payload,
)
from repro.errors import (
    ChunkMissingError,
    ReplicationError,
    VersionUnreconstructibleError,
)
from repro.net.addresses import Ipv4Address, MacAddress
from repro.simos.costs import DEFAULT_COSTS
from repro.simos.filesystem import SharedFileSystem, SyntheticExtent
from repro.simos.memory import PAGE_SIZE, AddressSpace
from repro.simos.syscalls import Syscall
from repro.zap.image import (
    CheckpointImage,
    FdImage,
    PipeImage,
    ProcessImage,
    SemImage,
    ShmImage,
)
from repro.zap.verify import verify_image

from tests.programs import ComputeLoop
from tests.reference_store import (
    ReferenceBackend,
    ReferenceImageStore,
    reference_audit,
    reference_page_payload,
)

NODES = ("node0", "node1", "node2", "node3")
MODES = ("full", "dedup", "incremental")
#: pod -> vpids; both pods use vpid 1, so a memo keyed without the pod
#: would hand one pod the other's ids.
PODS = {"alpha": (1, 2), "beta": (1,)}
REGIONS = ("grid", "halo", "scratch")


def make_stores(sanitizer=None):
    fs, reference_fs = SharedFileSystem(), SharedFileSystem()
    real = ImageStore(fs, sanitizer=sanitizer,
                      backend=ShardedBackend(fs, NODES, 2))
    reference = ReferenceImageStore(
        reference_fs, backend=ReferenceBackend(reference_fs, NODES, 2))
    return real, reference


def build_image(pod_name, memories, taken_at):
    """An image of ``pod_name`` as the checkpoint engine would extract
    it: a snapshot of every process's memory plus blobs of each kind."""
    image = CheckpointImage(
        pod_name=pod_name, taken_at=taken_at,
        ip=Ipv4Address.parse("10.0.1.1"),
        mac=MacAddress.parse("02:00:00:00:01:01"),
        fake_mac=MacAddress.parse("02:00:00:00:01:02"),
        own_wire_mac=False, next_vpid=3, next_vipc=1)
    for vpid in PODS[pod_name]:
        image.processes.append(ProcessImage(
            vpid=vpid, parent_vpid=0, name=f"proc{vpid}",
            # Both alpha processes carry the *same* program blob: a
            # chunk referenced twice by one manifest.
            program_blob=f"program of {pod_name}".encode() * 9,
            memory=memories[pod_name, vpid].snapshot(),
            resume_syscall=None,
            # One fd of every kind: a file's and a pipe's detail stay in
            # the manifest, each socket's is a chunk of its own.
            fds=[FdImage(fd=0, kind="file", mode="r",
                         detail={"path": "/in", "offset": 0}),
                 FdImage(fd=1, kind="pipe", mode="w",
                         detail={"pipe_index": 0}),
                 FdImage(fd=3, kind="tcp_socket", mode="rw",
                         detail={"peer": f"{pod_name}/{vpid}",
                                 "unacked": b"x" * (100 + vpid)}),
                 FdImage(fd=4, kind="udp_socket", mode="rw",
                         detail={"port": 5000 + vpid,
                                 "queue": [b"datagram" * vpid]})]))
    image.pipes.append(PipeImage(index=0, buffer=b"in the pipe" * 7,
                                 readers=1, writers=1))
    image.shm.append(ShmImage(vid=1, app_key=7, size=64,
                              payload_blob=pod_name.encode() * 16))
    return image


def page_payloads(cids):
    """:func:`page_chunk_payload` of each of a run of page chunk ids."""
    return list(map(page_chunk_payload, cids))


def reference_ids(pod_name, vpid, memory):
    return [cid for cid, _page in iter_page_chunks(pod_name, vpid, memory)]


def listing(store):
    """Every file with its size (``store``: anything with an ``fs``)."""
    return {path: store.fs.size(path) for path in store.fs.listdir("")}


def assert_same_state(real, reference, memories, step):
    where = f"after step {step}"
    assert real.stats == reference.stats, where
    assert real.refcounts() == reference.refcounts(), where
    assert real.fs.bytes_written == reference.fs.bytes_written, where
    assert real.fs.bytes_read == reference.fs.bytes_read, where
    assert listing(real) == listing(reference), where
    assert holder_map(real) == holder_map(reference), where
    for (pod_name, vpid), memory in memories.items():
        assert real._page_ids(pod_name, vpid, memory) == \
            reference_ids(pod_name, vpid, memory), where


def holder_map(store):
    """cid -> holders, for every chunk with a copy on any disk."""
    backend = store.backend
    return {cid: backend.holders(cid) for cid in backend.scan()}


def repair_both(stores, step):
    """One heal pass in each store over the same deficits: the same
    chunks and bytes move, and nothing is left short after it."""
    deficits = [store.under_replicated() for store in stores]
    assert deficits[0] == deficits[1], step
    moved = []
    for store in stores:
        copies = list(store.rereplicate([cid for cid, _live
                                         in deficits[0]]))
        moved.append((sum(chunks for chunks, _nbytes in copies),
                      sum(nbytes for _chunks, nbytes in copies)))
        assert store.under_replicated() == [], step
    assert moved[0] == moved[1], step
    return moved[0]


def mutate_memory(rng, memory):
    name = rng.choice(REGIONS)
    if name not in memory.regions:
        memory.allocate(name, rng.randint(1, 40) * PAGE_SIZE
                        - rng.choice((0, 100)))
    elif rng.random() < 0.25:
        # Free, and half the time re-allocate under the same name at a
        # different size (other base page, fresh write versions).
        memory.free(name)
        if rng.random() < 0.5:
            memory.allocate(name, rng.randint(1, 40) * PAGE_SIZE)
    else:
        memory.touch(name, fraction=rng.choice((0.05, 0.3, 1.0)))


def save_both(stores, image, mode, writer, step):
    """Plan and save ``image`` in both stores; the plans must agree."""
    plans = [store.plan(image, mode=mode, writer=writer) for store in stores]
    for field in ("groups", "dest_groups", "replica_bytes", "total_bytes",
                  "write_bytes", "serialize_bytes", "chunks_total",
                  "chunks_new", "dedup_ratio"):
        assert getattr(plans[0], field) == getattr(plans[1], field), \
            (step, mode, field)
    assert plans[0].schedule(DEFAULT_COSTS) == \
        plans[1].schedule(DEFAULT_COSTS)
    versions = [store.save(image, mode=mode, plan=plan)
                for store, plan in zip(stores, plans)]
    assert versions[0] == versions[1]


@pytest.mark.parametrize("seed", [7, 11, 2026])
def test_runs_match_the_per_chunk_reference(seed):
    rng = random.Random(seed)
    sanitizer = Sanitizer()
    real, reference = stores = make_stores(sanitizer)
    memories = {(pod_name, vpid): AddressSpace()
                for pod_name, vpids in PODS.items() for vpid in vpids}
    for memory in memories.values():
        memory.allocate("grid", 24 * PAGE_SIZE)
    down = []
    repaired = []
    for step in range(120):
        op = rng.random()
        pod_name = rng.choice(sorted(PODS))
        image = build_image(pod_name, memories, taken_at=float(step))
        if op < 0.32:
            mutate_memory(rng, memories[pod_name,
                                        rng.choice(PODS[pod_name])])
        elif op < 0.58:
            mode = rng.choice(MODES)
            writer = rng.choice(NODES)   # possibly a node that is down
            save_both(stores, image, mode, writer, step)
            if mode == "incremental":
                for vpid, captured in zip(PODS[pod_name], image.processes):
                    memories[pod_name, vpid].clear_dirty_captured(
                        captured.memory)
        elif op < 0.64:
            # Back-to-back full saves of one image, a shard going down
            # and coming back between them: the memoised ring arcs
            # outlive every placement table.
            writer = rng.choice(NODES)
            node = rng.choice([n for n in NODES if n not in down])
            save_both(stores, image, "full", writer, step)
            for store in stores:
                store.backend.mark_down(node)
            save_both(stores, image, "full", writer, step)
            for store in stores:
                store.backend.mark_up(node)
                store.reconcile_node(node)
            save_both(stores, image, "full", writer, step)
        elif op < 0.68:
            # A forced save over a copy that holds the wrong seed: the
            # marker it writes comes from no disk, so the rewrite heals
            # the copy.
            writer = rng.choice([n for n in NODES if n not in down])
            save_both(stores, image, "full", writer, step)
            ids = [cid for proc in image.processes for cid in
                   real._page_ids(pod_name, proc.vpid, proc.memory)]
            if ids:
                cid = rng.choice(ids)
                rot = SyntheticExtent((b"rot" * 11, PAGE_SIZE))
                real.fs.write_file(real.backend._path(writer, cid), rot)
                reference.fs.write_file(
                    reference.backend._path(writer, cid), bytes(rot))
                for store in stores:
                    assert store.audit(deep=True) == [{
                        "kind": "corrupt_chunk", "cid": cid, "node": writer}]
                save_both(stores, image, "full", writer, step)
                for store in stores:
                    assert store.audit(deep=True) == []
        elif op < 0.72:
            # The memo goes with the pod's last version, and the next
            # full save builds it again.
            assert real.prune(pod_name, keep=0) == \
                reference.prune(pod_name, keep=0)
            assert pod_name not in real._page_id_memo
            save_both(stores, image, "full", rng.choice(NODES), step)
        elif op < 0.82:
            existing = real.versions(pod_name)
            assert existing == reference.versions(pod_name)
            if existing:
                version = rng.choice(existing)
                try:
                    loaded = real.load(pod_name, version)
                except VersionUnreconstructibleError as lost:
                    with pytest.raises(VersionUnreconstructibleError) \
                            as expected:
                        reference.load(pod_name, version)
                    assert lost.missing_cid == expected.value.missing_cid
                else:
                    expected = reference.load(pod_name, version)
                    assert loaded.chunk_sources == expected.chunk_sources
                    assert loaded == expected
        elif op < 0.87:
            existing = real.versions(pod_name)
            if existing:
                for store in (real, reference):
                    store.discard(pod_name, existing[-1])
        elif op < 0.92:
            keep = rng.choice((0, 1, 2))
            assert real.prune(pod_name, keep=keep) == \
                reference.prune(pod_name, keep=keep)
            if keep == 0:
                assert pod_name not in real._page_id_memo
        elif down and rng.random() < 0.6:
            node = down.pop(rng.randrange(len(down)))
            for store in (real, reference):
                store.backend.mark_up(node)
                assert store.reconcile_node(node) >= 0
        elif len(down) < 2:
            node = rng.choice([n for n in NODES if n not in down])
            down.append(node)
            for store in (real, reference):
                store.backend.mark_down(node)
            if rng.random() < 0.7:
                # The pass a lost shard schedules.
                repaired.append(repair_both(stores, step))
        assert_same_state(real, reference, memories, step)
        for name in sorted(PODS):
            assert real.reconstructible_versions(name) == \
                reference.reconstructible_versions(name)
    # Some passes found nothing to do; some moved copies.
    assert any(chunks for chunks, _nbytes in repaired), repaired
    # The sanitizer audited the real store after every save, discard
    # and prune above (the --cruz-sanitize lane's check).
    assert sanitizer.violations == []
    for store in (real, reference):
        for node in down:
            store.backend.mark_up(node)
            store.reconcile_node(node)
    assert real.audit(deep=True) == []
    # Every file, byte for byte (manifests included).
    assert {path: bytes(real.fs.read_file(path))
            for path in real.fs.paths()} == \
        {path: reference.fs.read_file(path)
         for path in reference.fs.paths()}


def test_audit_after_save_still_sees_a_refcount_skew():
    sanitizer = Sanitizer()
    store, _reference = make_stores(sanitizer)
    memories = {key: AddressSpace() for key in
                [(pod, vpid) for pod, vpids in PODS.items()
                 for vpid in vpids]}
    memories["beta", 1].allocate("grid", 8 * PAGE_SIZE)
    image = build_image("beta", memories, taken_at=0.0)
    store.save(image, mode="full", writer="node0")
    store.save(image, mode="incremental", writer="node0")
    assert sanitizer.violations == []
    page = page_chunk_id("beta", 1, "grid", 3, 1)
    store._refcounts[page] += 1
    store.save(image, mode="dedup", writer="node0")
    assert [(v.details["kind"], v.details["cid"])
            for v in sanitizer.by_code("SAN-REFCOUNT")] == \
        [("refcount_mismatch", page)]


def plant_every_fault(store, real_pages):
    """Two saved pods, then one fault of each kind the deep audit knows
    across two up shards (node0, node1) and a down one (node2): a copy
    there is unavailable, not lost, so only the up shards report."""
    memories = {key: AddressSpace() for key in
                [(pod, vpid) for pod, vpids in PODS.items()
                 for vpid in vpids]}
    for memory in memories.values():
        memory.allocate("grid", 12 * PAGE_SIZE)
    for pod_name in sorted(PODS):
        store.save(build_image(pod_name, memories, taken_at=0.0),
                   mode="full", writer="node0")
    fs, backend = store.fs, store.backend
    unused = [cid for (pod, vpid), memory in sorted(memories.items())
              for cid in store._page_ids(pod, vpid, memory)]

    def take(node):
        """A page not planted yet with a copy on ``node``."""
        cid = next(cid for cid in unused if cid in backend.copies(node))
        unused.remove(cid)
        return cid

    def plant(node, cid, content):
        if real_pages and type(content) is SyntheticExtent:
            content = bytes(content)
        fs.write_file(backend._path(node, cid), content)

    backend.mark_down("node2")
    ghost = page_chunk_id("ghost", 1, "grid", 0, 0)
    plant("node0", ghost, page_chunk_payload(ghost))
    plant("node2", ghost, page_chunk_payload(ghost))
    plant("node0", take("node0"), SyntheticExtent((b"rot" * 11, PAGE_SIZE)))
    torn = take("node1")
    plant("node1", torn, SyntheticExtent((bytes.fromhex(torn),
                                          PAGE_SIZE - 100)))
    # A page held as its real bytes is sound; other bytes are not.
    sound = take("node0")
    plant("node0", sound, bytes(page_chunk_payload(sound)))
    plant("node1", take("node1"), b"\x00" * PAGE_SIZE)
    plant("node2", take("node2"), b"rotten while off-line")
    plant("node0", blob_chunk_id(b"program of alpha" * 9), b"not a program")
    # Missing: no shard holds a copy. Held by the down shard only: not.
    for cid, nodes in ((take("node0"), NODES),
                       (take("node2"), ("node0", "node1", "node3"))):
        for node in nodes:
            if cid in backend.copies(node):
                fs.unlink(backend._path(node, cid))
    store._refcounts[take("node0")] += 1
    store._refcounts[take("node0")] = 0
    store._refcounts[page_chunk_id("ghost", 2, "grid", 0, 0)] = 2
    store._refcounts[page_chunk_id("ghost", 3, "grid", 0, 0)] = -1


@pytest.mark.parametrize("real_pages", [False, True],
                         ids=["extents", "real-bytes"])
def test_deep_audit_equals_the_per_copy_reference(real_pages):
    real, reference = make_stores()
    store = reference if real_pages else real
    plant_every_fault(store, real_pages)
    problems = store.audit(deep=True)
    assert problems == reference_audit(store, deep=True)
    kinds = Counter(problem["kind"] for problem in problems)
    assert kinds == {"refcount_mismatch": 2, "dangling_refcount": 2,
                     "nonpositive_refcount": 2, "missing_chunk": 1,
                     "orphan_chunk": 1, "corrupt_chunk": 4}
    assert {problem["node"] for problem in problems
            if "node" in problem} == {"node0", "node1"}


def test_deep_audit_lists_no_path_under_the_shards(monkeypatch):
    store, _reference = make_stores()
    plant_every_fault(store, real_pages=False)
    shards = store.backend.root + "/"
    listed, opened = [], []
    real_listdir = SharedFileSystem.listdir
    real_directory = SharedFileSystem.directory
    monkeypatch.setattr(SharedFileSystem, "listdir", lambda fs, prefix="": (
        listed.append(prefix) or real_listdir(fs, prefix)))
    monkeypatch.setattr(SharedFileSystem, "directory", lambda fs, name: (
        opened.append(name) or real_directory(fs, name)))
    assert len(list(store._manifests())) == 2
    assert not any(name.startswith(shards) for name in opened)
    store.audit(deep=True)
    monkeypatch.undo()
    # No listing can take in a shard directory: each copy is looked at
    # in place, in the sweep, never named by a path.
    assert not any(shards.startswith(prefix) or prefix.startswith(shards)
                   for prefix in listed)


# -- the image codec -------------------------------------------------------


def image_records(image):
    """The image and every record in it, in manifest order."""
    yield image
    for proc in image.processes:
        yield proc
        yield from proc.fds
    yield from image.pipes
    yield from image.shm
    yield from image.sem


def test_a_saved_image_loads_back_field_by_field():
    """Every field of every record, none at its default, comes back out
    of ``load`` as it went into ``save``: a field the manifest codec drops
    fails by name. A field added to a record fails the default check
    until this image sets it, and then the round trip covers it."""
    memories = {("alpha", 1): AddressSpace(), ("alpha", 2): AddressSpace()}
    for memory in memories.values():
        memory.allocate("grid", 3 * PAGE_SIZE)
        memory.touch("grid", fraction=1.0)
    image = build_image("alpha", memories, taken_at=2.5)
    for proc in image.processes:
        proc.resume_syscall = Syscall("recv", (3, 4096), {"flags": 0})
        proc.was_stopped_by_user = True
        proc.initial_result = ("child", 0)
    image.sem.append(SemImage(vid=2, app_key=9, value=3))
    image.own_wire_mac = True
    image.state_bytes, image.written_bytes = 40960, 20480
    image.sockets_captured = 4
    store = ImageStore(SharedFileSystem())
    plan = store.plan(image)
    # What save and load stamp: the version, the bytes the image
    # references, and which disks hold them.
    image.version = 1
    image.total_chunk_bytes = plan.total_bytes
    image.chunk_sources = [((DEFAULT_SHARD_NODE,), plan.total_bytes)]
    records = list(image_records(image))
    for record in records:
        for spec in fields(record):
            default = spec.default_factory() \
                if spec.default_factory is not MISSING else spec.default
            assert getattr(record, spec.name) != default, \
                f"{type(record).__name__}.{spec.name} is at its default"

    assert store.save(image, plan=plan) == 1
    loaded = list(image_records(store.load("alpha", 1)))
    assert list(map(type, loaded)) == list(map(type, records))
    # Innermost records first, so a dropped field fails by its own name
    # rather than as a list of records that differs.
    for record, back in reversed(list(zip(records, loaded))):
        for spec in fields(record):
            assert getattr(back, spec.name) == getattr(record, spec.name), \
                f"{type(record).__name__}.{spec.name}"


# -- the page-id memo ------------------------------------------------------


def test_untouched_full_save_hashes_only_the_blobs(monkeypatch):
    store, _reference = make_stores()
    memories = {("alpha", 1): AddressSpace(), ("alpha", 2): AddressSpace()}
    memories["alpha", 1].allocate("grid", 64 * PAGE_SIZE)
    memories["alpha", 2].allocate("halo", 16 * PAGE_SIZE)
    image = build_image("alpha", memories, taken_at=0.0)
    store.save(image, mode="full", writer="node1")

    hashed = []
    real_sha256 = hashlib.sha256

    def counting_sha256(data=b""):
        hashed.append(bytes(data))
        return real_sha256(data)

    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    store.save(image, mode="full", writer="node1")
    loaded = store.load("alpha")
    monkeypatch.undo()
    # Eight blobs (two programs, four socket details, a pipe, a shm
    # segment) and not one of the 80 pages, in the save or the load.
    assert len(hashed) == 8
    assert not any(data.startswith(b"page|") for data in hashed)
    assert sum(nbytes for _holders, nbytes in loaded.chunk_sources) == \
        80 * PAGE_SIZE + sum(len(data) for data in hashed)

    # One touched page costs one hash.
    memories["alpha", 1].touch("grid", fraction=1 / 64)
    image = build_image("alpha", memories, taken_at=1.0)
    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    del hashed[:]
    store.plan(image, mode="incremental", writer="node1")
    monkeypatch.undo()
    assert len([d for d in hashed if d.startswith(b"page|")]) == 1


def test_untouched_full_save_builds_and_bisects_nothing_per_page(
        monkeypatch):
    store, _reference = make_stores()
    memories = {("alpha", 1): AddressSpace(), ("alpha", 2): AddressSpace()}
    memories["alpha", 1].allocate("grid", 64 * PAGE_SIZE)
    memories["alpha", 2].allocate("halo", 16 * PAGE_SIZE)
    image = build_image("alpha", memories, taken_at=0.0)
    store.save(image, mode="full", writer="node1")
    pages = {cid for (pod, vpid), memory in memories.items()
             for cid in store._page_ids(pod, vpid, memory)}
    assert len(pages) == 80

    bisected, built = [], []
    real_bisect = backend_module.bisect_left
    real_extent = storage_module.SyntheticExtent

    def count_calls():
        monkeypatch.setattr(
            backend_module, "bisect_left",
            lambda keys, cid: bisected.append(cid) or real_bisect(keys, cid))
        monkeypatch.setattr(
            storage_module, "SyntheticExtent",
            lambda pair: built.append(pair) or real_extent(pair))

    count_calls()
    written = store.stats["chunks_written"]
    store.save(image, mode="full", writer="node1")
    monkeypatch.undo()
    # Every page rewritten, and only the eight blobs bisected.
    assert store.stats["chunks_written"] - written == 80 + 8
    assert pages.isdisjoint(bisected) and len(bisected) == 8
    assert built == []

    # An incremental save bisects the one page it writes, and builds no
    # extent for it either: every page copy is the one marker.
    memories["alpha", 1].touch("grid", fraction=1 / 64)
    image = build_image("alpha", memories, taken_at=1.0)
    del bisected[:]
    count_calls()
    store.save(image, mode="incremental", writer="node1")
    monkeypatch.undo()
    (touched,) = set(store._page_ids("alpha", 1, memories["alpha", 1])) \
        - pages
    assert bisected == [touched]
    assert built == []


def test_memo_follows_a_restore_onto_another_node():
    cluster = CruzCluster(3)
    app = cluster.launch_app_factory(
        "slm", 2, slm_factory(2, global_rows=16, cols=16, steps=100000,
                              total_work_s=1e6, memory_mb_per_rank=0.25))
    cluster.run_for(0.3)
    assert cluster.checkpoint_app(app).committed
    cluster.crash_app(app)
    assert cluster.restart_app(app, node_indices=[2, 0]).committed
    cluster.run_for(0.3)
    assert cluster.checkpoint_app(app).committed
    store = cluster.store
    for pod in app.pods:
        for version in store.versions(pod.name):
            image = store.load(pod.name, version)
            assert verify_image(image).ok
            for proc in image.processes:
                assert store._page_ids(pod.name, proc.vpid, proc.memory) \
                    == reference_ids(pod.name, proc.vpid, proc.memory)
    # A store attached later over the same filesystem starts with an
    # empty memo and derives the same references.
    attached = ImageStore(cluster.fs)
    assert attached.refcounts() == store.refcounts()
    assert attached.audit(deep=True) == []


def test_a_shared_memo_bisects_again_only_against_another_ring():
    """Stores that share one page memo reuse its ids, and its
    arcs only over an equal ring: a backend over other nodes bisects
    again, and each store places every page where a fresh bisect
    would."""
    memo = {}
    memories = {("beta", 1): AddressSpace()}
    memories["beta", 1].allocate("grid", 40 * PAGE_SIZE)
    image = build_image("beta", memories, taken_at=0.0)
    for nodes in (NODES, NODES, NODES[:3], NODES):
        fs = SharedFileSystem()
        store = ImageStore(fs, backend=ShardedBackend(fs, nodes, 2),
                           page_memo=memo)
        plan = store.plan(image, writer=nodes[0])
        assert list(plan.page_arcs) == list(
            store.backend.arcs(plan.page_writes))
        store.save(image, plan=plan)
        assert store.audit(deep=True) == []
    assert list(memo) == ["beta"]
    (pages,) = memo["beta"].values()
    assert pages.ring == store.backend.ring_keys


# -- one put, one read -----------------------------------------------------


def put_cases():
    """(name, prepare(backend, cid), force) for every put situation."""
    def nothing(_backend, _cid):
        pass

    def stored(backend, cid):
        backend.put_chunk(cid, b"payload", writer="node1")

    def degraded(backend, cid):
        backend.mark_down(backend.placement(cid, writer="node1")[1])

    def healed(backend, cid):
        # Written while its replica node was down, put again after.
        victim = backend.placement(cid, writer="node1")[1]
        backend.mark_down(victim)
        backend.put_chunk(cid, b"payload", writer="node1")
        backend.mark_up(victim)

    return [("new", nothing, False), ("deduplicated", stored, False),
            ("forced", stored, True), ("degraded", degraded, False),
            ("healed", healed, False), ("healed-forced", healed, True)]


@pytest.mark.parametrize("name,prepare,force", put_cases(),
                         ids=[case[0] for case in put_cases()])
def test_put_chunk_is_the_one_element_put_chunks(name, prepare, force):
    cid = blob_chunk_id(b"payload")
    results = []
    for single in (True, False):
        backend = ShardedBackend(SharedFileSystem(), NODES, 2)
        prepare(backend, cid)
        written_before = backend.fs.bytes_written
        if single:
            result = backend.put_chunk(cid, b"payload", writer="node1",
                                       force=force)
        else:
            result = backend.put_chunks([cid], [b"payload"],
                                        backend.arcs([cid]), "node1", force)
        results.append((result, backend.holders(cid),
                        backend.fs.bytes_written - written_before,
                        backend.fs.listdir("")))
    assert results[0] == results[1]
    reference = ReferenceBackend(SharedFileSystem(), NODES, 2)
    prepare(reference, cid)
    assert reference.put_chunk(cid, b"payload", writer="node1",
                               force=force) == results[0][0]


def test_put_with_no_shard_up_is_a_typed_failure():
    """Raised before any file, index entry or counter has moved — for a
    run as for one chunk, and naming the run's first chunk."""
    for single in (True, False):
        backend = ShardedBackend(SharedFileSystem(), NODES, 2)
        for node in NODES:
            backend.mark_down(node)
        cid = blob_chunk_id(b"payload")
        pages = page_run(32)
        with pytest.raises(ReplicationError,
                           match="no shard node is up") as refused:
            if single:
                backend.put_chunk(cid, b"payload", writer="node1")
            else:
                backend.put_chunks([cid] + pages, [b"payload"]
                                   + page_payloads(pages),
                                   backend.arcs([cid] + pages),
                                   "node1", False)
        assert refused.value.cid == cid
        assert not backend.has(cid)
        assert backend._holder_index == {}
        assert backend.fs.listdir("") == []
        assert backend.fs.bytes_written == 0


def test_save_with_no_shard_up_commits_nothing():
    store, _reference = make_stores()
    memories = {("beta", 1): AddressSpace()}
    memories["beta", 1].allocate("grid", 12 * PAGE_SIZE)
    image = build_image("beta", memories, taken_at=0.0)
    assert store.save(image, mode="full", writer="node0") == 1
    before = (store.stats, store.refcounts(), listing(store))
    for node in NODES:
        store.backend.mark_down(node)
    memories["beta", 1].touch("grid")
    image = build_image("beta", memories, taken_at=1.0)
    for mode in MODES:
        with pytest.raises(ReplicationError):
            store.save(image, mode=mode, writer="node0")
    assert (store.stats, store.refcounts(), listing(store)) == before
    assert store.latest_version("beta") == 1
    assert store.versions("beta") == [1]
    for node in NODES:
        store.backend.mark_up(node)
    assert store.audit(deep=True) == []
    assert store.save(image, mode="incremental", writer="node0") == 2
    assert store.reconstructible_versions("beta") == [1, 2]


def test_torn_copy_is_read_from_the_surviving_replica():
    store, _reference = make_stores()
    backend = store.backend
    memories = {("beta", 1): AddressSpace()}
    memories["beta", 1].allocate("grid", 6 * PAGE_SIZE)
    store.save(build_image("beta", memories, taken_at=0.0),
               mode="full", writer="node0")
    page = page_chunk_id("beta", 1, "grid", 2, 1)
    first, second = backend.live_holders(page)
    # The copy the holder index lists first is gone from its disk.
    backend.fs.unlink(backend._path(first, page))
    payload = backend.get_chunk(page)
    assert payload == bytes.fromhex(page) * (PAGE_SIZE // 32)
    assert backend.read_chunks([page]) == {(first, second): [payload]}
    loaded = store.load("beta")
    assert sum(nbytes for _h, nbytes in loaded.chunk_sources) == \
        loaded.total_chunk_bytes

    # The same for a blob, which load reads through get_chunk.
    program = loaded.processes[0].program_blob
    blob = blob_chunk_id(program)
    backend.fs.unlink(backend._path(backend.live_holders(blob)[0], blob))
    assert store.load("beta").processes[0].program_blob == program

    # With no copy left anywhere it is a typed miss naming the queried
    # shards, and the load names the version.
    backend.fs.unlink(backend._path(second, page))
    with pytest.raises(ChunkMissingError) as miss:
        backend.get_chunk(page)
    assert miss.value.cid == page
    assert miss.value.queried_nodes == backend.up_nodes
    with pytest.raises(ChunkMissingError):
        backend.read_chunks([page])
    with pytest.raises(VersionUnreconstructibleError) as lost:
        store.load("beta")
    assert lost.value.missing_cid == page


def test_a_torn_first_copy_is_repaired_from_the_surviving_replica():
    backend = ShardedBackend(SharedFileSystem(), NODES, 3)
    ids = page_run(32)
    backend.put_chunks(ids, page_payloads(ids), backend.arcs(ids),
                       "node0", False)
    backend.mark_down("node3")
    short = [cid for cid, _live in backend.under_replicated()]
    cid = short[0]
    first, second = backend.live_holders(cid)
    backend.fs.unlink(backend._path(first, cid))
    read_before = backend.fs.bytes_read
    ((dest, copied, nbytes),) = backend.rereplicate([cid], {cid})
    assert copied == [cid] and nbytes == PAGE_SIZE
    assert dest not in (first, second, "node3")
    # Read once, from the replica the torn copy fell through to.
    assert backend.fs.bytes_read - read_before == PAGE_SIZE
    assert backend.fs.read_file(backend._path(dest, cid)) == \
        page_chunk_payload(cid)
    assert dest in backend.live_holders(cid)


def test_a_chunk_collected_mid_pass_is_not_copied():
    store, _reference = make_stores()
    backend = store.backend
    memories = {key: AddressSpace() for key in
                [(pod, vpid) for pod, vpids in PODS.items()
                 for vpid in vpids]}
    for memory in memories.values():
        memory.allocate("grid", 40 * PAGE_SIZE)
    for pod_name in sorted(PODS):
        store.save(build_image(pod_name, memories, taken_at=0.0),
                   mode="full", writer="node0")
    backend.mark_down("node0")
    ids = [cid for cid, _live in store.under_replicated()]
    passes = store.rereplicate(ids)
    next(passes)
    # The pass is between groups when beta's only version goes.
    beta = set(store._manifest_chunk_refs(
        store._read_manifest("beta", 1))).difference(
            store._manifest_chunk_refs(store._read_manifest("alpha", 1)))
    store.discard("beta", 1)
    assert list(passes), "later groups had something left to copy"
    # No copy of a collected chunk was made after it went: the up
    # shards hold no orphan, and beta's chunks are only on node0.
    assert store.audit(deep=True) == []
    assert backend.unavailable(sorted(beta)) == sorted(beta)
    assert store.under_replicated() == []


def test_an_unreferenced_copy_is_not_repaired():
    """A shard that was down when a version went keeps its copies, and a
    store attached later over the same disks (a restarted coordinator)
    sees them live and short of RF before any reconcile. Its first
    repair copies what the manifests reference and nothing else."""
    store, _reference = make_stores()
    memories = {key: AddressSpace() for key in
                [(pod, vpid) for pod, vpids in PODS.items()
                 for vpid in vpids]}
    for memory in memories.values():
        memory.allocate("grid", 40 * PAGE_SIZE)
    for pod_name in sorted(PODS):
        store.save(build_image(pod_name, memories, taken_at=0.0),
                   mode="full", writer="node0")
    store.backend.mark_down("node1")
    store.discard("beta", 1)
    attached = ImageStore(store.fs)
    attached.backend.mark_down("node3")
    short = [cid for cid, _live in attached.under_replicated()]
    stale = [cid for cid in short
             if attached.backend.live_holders(cid) == ("node1",)]
    assert stale and len(stale) < len(short)
    moved = list(attached.rereplicate(short))
    assert sum(chunks for chunks, _nbytes in moved) == \
        len(short) - len(stale)
    assert attached.under_replicated() == [
        (cid, ("node1",)) for cid in stale]
    assert attached.reconcile_node("node1") == len(stale)
    assert attached.audit(deep=True) == []


# -- what a run must not get wrong ----------------------------------------


def page_run(count, pod_name="beta"):
    return [page_chunk_id(pod_name, 1, "grid", index, 1)
            for index in range(count)]


def test_holes_are_found_without_comparing_extents(monkeypatch):
    """``None in [extents...]`` is one ``SyntheticExtent.__eq__`` per
    page; a run is checked for holes by type."""
    backend = ShardedBackend(SharedFileSystem(), NODES, 2)
    ids = page_run(64)
    backend.put_chunks(ids, page_payloads(ids), backend.arcs(ids),
                       "node0", False)
    torn = ids[5]
    first, second = backend.live_holders(torn)
    backend.fs.unlink(backend._path(first, torn))
    compared = []
    monkeypatch.setattr(
        SyntheticExtent, "__eq__",
        lambda self, other: compared.append(other) or NotImplemented)
    read_before = backend.fs.bytes_read
    grouped = backend.read_chunks(ids)
    run_read = backend.fs.bytes_read - read_before
    from_first = backend.fs.read_run(backend._shards[first], ids)
    monkeypatch.undo()
    assert compared == []
    # The filesystem reports the hole in its place and counts nothing
    # for it; the backend filled it from the replica, in place too.
    assert from_first[5] is None
    assert [type(payload) for payload in from_first].count(
        SyntheticExtent) == 63
    assert backend.fs.bytes_read - read_before - run_read == 63 * PAGE_SIZE
    assert run_read == 64 * PAGE_SIZE
    group = [cid for cid in ids
             if backend.live_holders(cid) == (first, second)]
    assert grouped[first, second] == page_payloads(group)


@pytest.mark.parametrize("force", [False, True])
def test_an_id_listed_twice_is_put_twice(force):
    """Two equal blobs in one plan: the second put of the id sees what
    the first left (a dedup hit, or with ``force`` a rewrite)."""
    a, b, c = (blob_chunk_id(name) for name in (b"a", b"b", b"c"))
    run = [a, b, a, c, a, b]
    payloads = [b"a", b"b", b"a", b"c", b"a", b"b"]
    backend = ShardedBackend(SharedFileSystem(), NODES, 2)
    reference = ReferenceBackend(SharedFileSystem(), NODES, 2)
    whole = backend.put_chunks(run, payloads, backend.arcs(run), "node2",
                               force)
    singles = [reference.put_chunk(cid, payload, writer="node2",
                                   force=force)
               for cid, payload in zip(run, payloads)]
    assert whole.logical_write == sum(r.logical_write for r in singles) \
        == (6 if force else 3)
    for field in ("logical_bytes", "nbytes", "replica_copies",
                  "replica_bytes"):
        assert getattr(whole, field) == \
            sum(getattr(r, field) for r in singles), field
    assert set(whole.dests) == {d for r in singles for d in r.dests}
    assert backend.fs.bytes_written == reference.fs.bytes_written
    assert listing(backend) == listing(reference)
    for cid in (a, b, c):
        assert backend.holders(cid) == reference.holders(cid)


def test_a_miss_is_the_first_in_run_order_and_counts_what_came_before():
    backends = (ShardedBackend(SharedFileSystem(), NODES, 2),
                ReferenceBackend(SharedFileSystem(), NODES, 2))
    ids = page_run(48)
    real, reference = backends
    real.put_chunks(ids, page_payloads(ids), real.arcs(ids), "node0",
                    False)
    for cid in ids:
        reference.put_chunk(cid, reference_page_payload(cid),
                            writer="node0")
    # Every page is on node0 and one ring successor; with node0 and
    # node2 down the pages of that pair are lost, scattered over the
    # run, and the rest are read from their other holder — several
    # holder groups, misses in one of them.
    for backend in backends:
        backend.mark_down("node0")
        backend.mark_down("node2")
    lost = [cid for cid in ids if not real.available(cid)]
    assert 0 < len(lost) < len(ids) and ids.index(lost[0]) > 0
    outcomes = []
    for backend in backends:
        before = backend.fs.bytes_read
        with pytest.raises(ChunkMissingError) as miss:
            if backend is real:
                backend.read_chunks(ids)
            else:
                for cid in ids:
                    backend.get_chunk(cid)
        outcomes.append((miss.value.cid, miss.value.queried_nodes,
                         backend.fs.bytes_read - before))
    assert outcomes[0] == outcomes[1] == \
        (lost[0], ("node1", "node3"), ids.index(lost[0]) * PAGE_SIZE)
    # Nothing about the miss is sticky: the same run reads whole again.
    real.mark_up("node2")
    before = real.fs.bytes_read
    assert sum(map(len, real.read_chunks(ids).values())) == len(ids)
    assert real.fs.bytes_read - before == len(ids) * PAGE_SIZE


def test_an_emptied_directory_is_the_same_directory():
    fs = SharedFileSystem()
    held = fs.directory("/d/")
    assert fs.listdir("") == [] and held == {}
    fs.write_run("/d/", ["x", "y"], [b"1", b"22"])
    assert held == {"x": b"1", "y": b"22"}
    fs.unlink("/d/x"), fs.unlink("/d/y")
    assert held == {} and fs.listdir("/d") == []
    fs.write_file("/d/z", b"333")
    assert fs.directory("/d/") is held and held == {"z": b"333"}

    # The backend holds its shard directories for as long as it lives:
    # a store emptied by GC and filled again is still what it scans.
    store, _reference = make_stores()
    memories = {("beta", 1): AddressSpace()}
    memories["beta", 1].allocate("grid", 6 * PAGE_SIZE)
    image = build_image("beta", memories, taken_at=0.0)
    store.save(image, mode="full", writer="node0")
    chunks = store.backend.scan()
    assert store.prune("beta", keep=0) == 1
    assert store.backend.scan() == [] and store.fs.listdir(
        store.backend.root + "/") == []
    store.save(image, mode="full", writer="node0")
    assert store.backend.scan() == chunks
    assert store.audit(deep=True) == []
    assert ImageStore(store.fs).backend.scan() == chunks


# -- calls follow groups, not pages ----------------------------------------

#: Python-level calls a put, a forced re-put and a read of one run may
#: make between them on a 4-node RF=2 backend (3 placement groups): 98
#: today, whatever the run's length. The per-chunk loop this replaced
#: made two per page.
CALLS_PER_RUN = 120


def store_calls(function):
    """How many Python-level calls ``function()`` makes into the image
    store, the chunk backend and the filesystem. C functions do not
    count (they are the point), nor does whatever a collector pass
    happens to finalize."""
    layers = tuple(sys.modules[module.__module__].__file__
                   for module in (ImageStore, ShardedBackend,
                                  SharedFileSystem))
    calls = 0

    def on_event(frame, event, _arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename in layers:
            calls += 1

    sys.setprofile(on_event)
    try:
        function()
    finally:
        sys.setprofile(None)
    return calls


def test_calls_per_run_do_not_depend_on_its_length():
    counts = []
    for pages in (1024, 4096):
        backend = ShardedBackend(SharedFileSystem(), NODES, 2)
        ids = page_run(pages)
        payloads = page_payloads(ids)
        arcs = backend.arcs(ids)
        # The writer's placement table is built once per availability
        # change, not per run.
        assert len(backend.placements(Counter(arcs), "node0")) == 3

        def put_and_read():
            backend.put_chunks(ids, payloads, arcs, "node0", False)
            backend.put_chunks(ids, payloads, arcs, "node0", True)
            backend.read_chunks(ids)

        counts.append(store_calls(put_and_read))
        assert backend.fs.bytes_written == 2 * 2 * pages * PAGE_SIZE
        assert backend.fs.bytes_read == pages * PAGE_SIZE
    assert counts[0] == counts[1], counts
    assert counts[0] <= CALLS_PER_RUN, counts


#: Python-level calls one heal pass — find the short chunks, copy them
#: — may make into the store, the backend and the filesystem on a
#: 3-node RF=2 store that lost the writer's shard (two repair groups):
#: 72 today (the store's first attach among them), whatever the number
#: of chunks short. The per-chunk loop made 20 per chunk (20,499 for
#: 1,024 chunks).
CALLS_PER_REPAIR_PASS = 100


def test_calls_per_repair_pass_do_not_depend_on_its_length():
    counts = []
    for pages in (1024, 4096):
        fs = SharedFileSystem()
        store = ImageStore(fs, backend=ShardedBackend(fs, NODES[:3], 2))
        backend = store.backend
        ids = page_run(pages)
        backend.put_chunks(ids, page_payloads(ids), backend.arcs(ids),
                           "node0", False)
        store._refcounts.update(ids)        # as a committed save leaves
        backend.mark_down("node0")
        read, written = fs.bytes_read, fs.bytes_written
        moved = []

        def heal():
            short = store.under_replicated()
            moved.extend(store.rereplicate([cid for cid, _live in short]))

        counts.append(store_calls(heal))
        assert len(moved) == 2
        assert sum(chunks for chunks, _nbytes in moved) == pages
        assert store.under_replicated() == []
        assert fs.bytes_read - read == pages * PAGE_SIZE
        assert fs.bytes_written - written == pages * PAGE_SIZE
    assert counts[0] == counts[1], counts
    assert counts[0] <= CALLS_PER_REPAIR_PASS, counts


# -- a dropped cluster dies in one collector pass --------------------------


def live_clusters():
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Cluster))


def flush_garbage():
    while gc.collect():
        pass


def test_dropped_cluster_is_freed_by_one_collection():
    flush_garbage()
    before = live_clusters()
    # sanitize=True: an explicit sanitizer is not registered in the
    # process-wide sanitize.ACTIVE list, which would keep the cluster
    # reachable under --cruz-sanitize.
    cluster = CruzCluster(2, sanitize=True)
    app = cluster.launch_app_factory(
        "slm", 2, slm_factory(2, global_rows=16, cols=16, steps=100000,
                              total_work_s=1e6, memory_mb_per_rank=0.25))
    cluster.run_for(0.5)
    assert cluster.checkpoint_app(app).committed
    assert live_clusters() == before + 1
    del cluster, app
    gc.collect()
    # (A weakref would not tell: the collector clears weakrefs before
    # it runs the finalizers that used to resurrect the cluster.)
    assert live_clusters() == before


def test_cluster_with_a_process_parked_in_compute_is_freed_too():
    flush_garbage()
    before = live_clusters()
    cluster = CruzCluster(1, sanitize=True)
    pod = cluster.create_pod(0, "busy")
    cpu = cluster.nodes[0].cpu
    procs = [pod.spawn(ComputeLoop(iterations=10, work_s=5.0))
             for _ in range(cpu.capacity + 1)]
    cluster.run_for(1.0)
    # Every CPU is held by a process inside its compute timeout and one
    # more is queued for a grant.
    assert cpu.in_use == cpu.capacity
    assert {proc.current_syscall.name for proc in procs} == {"compute"}
    del cluster, pod, cpu, procs
    gc.collect()
    assert live_clusters() == before

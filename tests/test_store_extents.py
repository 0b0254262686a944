"""Pages are descriptors: a stored page is a ``SyntheticExtent`` — its
32-byte seed and a length — and everything that sizes, counts, places,
audits or faults it behaves as for the 4 KiB it stands for.
"""

import gc
import random
import tracemalloc

import numpy as np
import pytest

from repro.analysis.sanitize import Sanitizer
from repro.apps.slm import reference_solution, slm_factory
from repro.cruz.backend import ShardedBackend
from repro.cruz.cluster import CruzCluster
from repro.cruz.storage import (
    PAGE_MARKER,
    ImageStore,
    blob_chunk_id,
    iter_page_chunks,
    page_chunk_id,
    page_chunk_payload,
)
from repro.errors import SyscallError
from repro.simos.filesystem import SharedFileSystem, SyntheticExtent
from repro.simos.memory import PAGE_SIZE, AddressSpace

from tests.test_store_runs import MODES, NODES, build_image

# -- (a) the filesystem treats an extent as the bytes it stands for --------


def boundaries(unit, length):
    """Offsets and sizes at every edge: inside a repeat, on and across
    repeat borders, at the end and past it."""
    marks = {0, 1, unit - 1, unit, unit + 1, 2 * unit, 2 * unit + 1,
             length - 1, length, length + 5}
    return sorted(mark for mark in marks if mark >= 0)


@pytest.mark.parametrize("seed", range(6))
def test_an_extent_file_behaves_as_its_bytes(seed):
    rng = random.Random(seed)
    for _ in range(12):
        unit = rng.choice((1, 3, 32))
        pattern = rng.randbytes(unit)
        # Lengths that are and are not whole repeats of the seed.
        length = rng.choice((0, 1, unit, 4 * unit, 4 * unit + unit // 2,
                             5 * unit - 1, PAGE_SIZE))
        extent = SyntheticExtent((pattern, length))
        real = (pattern * (length // unit + 1))[:length]
        assert (extent.seed, extent.length, len(extent)) == \
            (pattern, length, length)
        assert bytes(extent) == real
        assert extent == real and real == extent
        assert extent == bytearray(real)
        assert extent != real + b"x" and real + b"x" != extent
        assert extent == SyntheticExtent((pattern, length))
        assert not extent != SyntheticExtent((pattern, length))
        assert not isinstance(extent, bytes)

        fs, twin = SharedFileSystem(), SharedFileSystem()

        def same():
            assert (fs.bytes_written, fs.bytes_read) == \
                (twin.bytes_written, twin.bytes_read)
            assert fs.listdir("") == twin.listdir("")
            assert list(fs.paths()) == list(twin.paths())
            for path in fs.listdir("/d/"):
                assert fs.exists(path) and fs.size(path) == twin.size(path)

        assert fs.write_file("/d/x", extent) == \
            twin.write_file("/d/x", real) == length
        same()
        assert fs.read_file("/d/x") is extent
        assert twin.read_file("/d/x") == real
        same()
        assert fs.scan("/d/") == [("/d/x", extent)]
        same()                      # a scan counts as no read
        for offset in boundaries(unit, length):
            for nbytes in boundaries(unit, length):
                got = fs.read_at("/d/x", offset, nbytes)
                assert type(got) is bytes
                assert got == twin.read_at("/d/x", offset, nbytes) \
                    == real[offset:offset + nbytes]
        same()

        # A run of writes keeps every extent an extent, and a name
        # listed twice is written (and counted) twice.
        names, run = ("y", "z", "y"), (extent, b"blob", extent)
        assert fs.write_run("/d/", names, run) == twin.write_run(
            "/d/", names, [bytes(data) for data in run])
        assert fs.read_file("/d/y") is extent
        assert fs.read_file("/d/z") == b"blob"
        twin.read_file("/d/y"), twin.read_file("/d/z")
        same()

        # write_at into an extent: it becomes a bytearray of the right
        # bytes (the stored extent itself is never touched).
        offset = rng.choice(boundaries(unit, length))
        for store in (fs, twin):
            assert store.write_at("/d/x", offset, b"patch") == 5
        patched = fs.read_file("/d/x")
        assert type(patched) is bytes
        assert patched == twin.read_file("/d/x") == \
            real.ljust(offset, b"\x00")[:offset] + b"patch" \
            + real[offset + 5:]
        assert bytes(extent) == real
        same()

        # write_file over it, then unlink.
        fs.write_file("/d/x", extent), twin.write_file("/d/x", real)
        fs.write_file("/d/x", b"plain"), twin.write_file("/d/x", b"plain")
        assert fs.read_file("/d/x") == twin.read_file("/d/x") == b"plain"
        same()
        for store in (fs, twin):
            store.unlink("/d/y")
        assert not fs.exists("/d/y")
        with pytest.raises(SyscallError):
            fs.size("/d/y")
        same()


# -- (b) storage faults stay expressible, and the audit names them ---------


def saved_store(sanitizer=None, pages=6):
    fs = SharedFileSystem()
    store = ImageStore(fs, sanitizer=sanitizer,
                       backend=ShardedBackend(fs, NODES, 2))
    memories = {("beta", 1): AddressSpace()}
    memories["beta", 1].allocate("grid", pages * PAGE_SIZE)
    image = build_image("beta", memories, taken_at=0.0)
    store.save(image, mode="full", writer="node0")
    return store, memories, image


def page_faults(page, other):
    return [
        ("bit-rot, real bytes", bytes(PAGE_SIZE)),
        ("bit-rot, one flipped byte",
         b"\x00" + bytes(page_chunk_payload(page))[1:]),
        ("another chunk's seed", page_chunk_payload(other)),
        ("torn one byte short",
         SyntheticExtent((bytes.fromhex(page), PAGE_SIZE - 1))),
    ]


def test_every_fault_over_one_replica_is_one_audit_row():
    sanitizer = Sanitizer()
    store, _memories, image = saved_store(sanitizer)
    backend, fs = store.backend, store.fs
    page = page_chunk_id("beta", 1, "grid", 2, 1)
    other = page_chunk_id("beta", 1, "grid", 3, 1)
    assert store.audit(deep=True) == []
    for victim in backend.holders(page):
        for name, bad in page_faults(page, other):
            fs.write_file(backend._path(victim, page), bad)
            assert store.audit(deep=True) == [
                {"kind": "corrupt_chunk", "cid": page, "node": victim}], \
                name
            # The id still says what should be there: rewrite the copy.
            fs.write_file(backend._path(victim, page),
                          page_chunk_payload(page))
            assert store.audit(deep=True) == [], name

    # A blob is real bytes; its id is their hash.
    blob = blob_chunk_id(image.processes[0].program_blob)
    victim = backend.holders(blob)[1]
    fs.write_file(backend._path(victim, blob), b"not the program")
    assert store.audit(deep=True) == [
        {"kind": "corrupt_chunk", "cid": blob, "node": victim}]

    # The sanitizer's store check is that audit.
    fs.write_file(backend._path(backend.holders(page)[0], page),
                  bytes(PAGE_SIZE))
    sanitizer.check_store(store, context="fsck", deep=True)
    assert sorted((v.details["kind"], v.details["cid"], v.node)
                  for v in sanitizer.by_code("SAN-REFCOUNT")) == sorted([
        ("corrupt_chunk", blob, victim),
        ("corrupt_chunk", page, backend.holders(page)[0])])
    # A copy on a powered-off shard is not reachable, so not audited.
    backend.mark_down(victim)
    backend.mark_down(backend.holders(page)[0])
    assert store.audit(deep=True) == []


def test_a_missing_copy_is_still_fallen_through_on_read():
    store, _memories, _image = saved_store()
    backend = store.backend
    page = page_chunk_id("beta", 1, "grid", 4, 1)
    first, second = backend.live_holders(page)
    backend.fs.unlink(backend._path(first, page))
    read_before = backend.fs.bytes_read
    (payloads,) = backend.read_chunks([page]).values()
    assert payloads == [page_chunk_payload(page)]
    assert type(payloads[0]) is SyntheticExtent
    assert backend.fs.bytes_read - read_before == PAGE_SIZE
    assert store.load("beta").total_chunk_bytes == \
        sum(nbytes for _h, nbytes in store.load("beta").chunk_sources)


def test_a_healthy_store_audits_clean_through_every_mode():
    store, memories, _image = saved_store(Sanitizer())
    memory = memories["beta", 1]
    for round_index, mode in enumerate(MODES * 2):
        memory.touch("grid", fraction=0.5)
        image = build_image("beta", memories, taken_at=1.0 + round_index)
        version = store.save(image, mode=mode, writer=NODES[round_index % 4])
        assert store.audit(deep=True) == []
        if round_index % 3 == 1:
            store.discard("beta", version)
            assert store.audit(deep=True) == []
    assert store.prune("beta", keep=2) > 0
    assert store.audit(deep=True) == []
    assert store.sanitizer.violations == []
    assert store.prune("beta", keep=0) == 2
    assert store.audit(deep=True) == []
    assert store.backend.scan() == []


# -- (c) restore → save → load through a cluster ---------------------------


def test_cluster_round_trip_stores_pages_as_extents_and_blobs_as_bytes():
    steps = 60
    cluster = CruzCluster(2)
    app = cluster.launch_app_factory(
        "slm", 2, slm_factory(2, global_rows=16, cols=16, steps=steps,
                              total_work_s=3.0, memory_mb_per_rank=0.25))
    cluster.run_for(0.8)
    assert cluster.checkpoint_app(app).committed              # full
    cluster.run_for(0.4)
    assert cluster.checkpoint_app(app, incremental=True).committed
    cluster.run_for(0.2)
    cluster.crash_app(app)
    assert cluster.restart_app(app, node_indices=[1, 0]).committed
    cluster.run_for(0.3)
    assert cluster.checkpoint_app(app, incremental=True).committed

    store, fs = cluster.store, cluster.fs
    pages = set()
    for pod in app.pods:
        assert store.versions(pod.name) == [1, 2, 3]
        for version in store.versions(pod.name):
            image = store.load(pod.name, version)
            assert sum(nbytes for _h, nbytes in image.chunk_sources) == \
                image.total_chunk_bytes
            for proc in image.processes:
                pages.update(cid for cid, _page in iter_page_chunks(
                    pod.name, proc.vpid, proc.memory))
    assert len(pages) > 128
    page_files = 0
    for path in fs.paths():
        value = fs.read_file(path)
        if path.rsplit("/", 1)[-1] in pages:
            page_files += 1
            assert not isinstance(value, bytes), path
            assert value == page_chunk_payload(path.rsplit("/", 1)[-1])
        else:
            assert isinstance(value, bytes), path   # blob, manifest, WAL
    assert page_files == 2 * len(pages)             # RF=2
    assert store.audit(deep=True) == []

    # The restored run ends where an undisturbed one does.
    cluster.run_until(
        lambda: all(p.step_count >= steps
                    for p in cluster.app_programs(app)), limit=60)
    programs = sorted(cluster.app_programs(app), key=lambda p: p.rank)
    np.testing.assert_array_equal(
        np.vstack([p.q for p in programs]),
        reference_solution(16, 16, steps))


# -- (d) the heap a stored page costs: a size, not a timing ----------------


def test_a_stored_page_costs_under_a_kilobyte_of_heap():
    pages = 4096
    fs = SharedFileSystem()
    store = ImageStore(fs, backend=ShardedBackend(fs, NODES, 2))
    memories = {("beta", 1): AddressSpace()}
    memories["beta", 1].allocate("grid", pages * PAGE_SIZE)
    image = build_image("beta", memories, taken_at=0.0)
    gc.collect()
    tracemalloc.start()
    try:
        start, _peak = tracemalloc.get_traced_memory()
        store.save(image, mode="full", writer="node0")
        gc.collect()
        first, _peak = tracemalloc.get_traced_memory()
        store.save(image, mode="full", writer="node0")
        gc.collect()
        second, _peak = tracemalloc.get_traced_memory()
        loaded = store.load("beta")
        gc.collect()
        end, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.total_chunk_bytes > pages * PAGE_SIZE
    assert len(store.backend.scan()) >= pages
    # Two copies of 4096 pages: paths, index slots, refcounts, one
    # extent per page (4.9 KB/page when a copy was 4 KiB of bytes).
    assert (end - start) / pages <= 1024
    # A forced rewrite replaces every extent and grows nothing per page
    # (what is left is the second manifest).
    assert (second - first) / pages <= 64


# -- (e) the holder index is the filesystem, as interned tuples ------------


@pytest.mark.parametrize("seed", [3, 17, 2026])
def test_holder_index_is_the_filesystem_as_interned_tuples(seed):
    rng = random.Random(seed)
    fs = SharedFileSystem()
    backend = ShardedBackend(fs, NODES, 2)
    cids = [blob_chunk_id(f"chunk {index}".encode()) for index in range(40)]
    down = set()

    def check():
        by_value = {}
        for cid in cids:
            on_disk = tuple(node for node in NODES
                            if fs.exists(backend._path(node, cid)))
            live = tuple(node for node in on_disk if node not in down)
            assert backend.holders(cid) == on_disk
            assert backend.live_holders(cid) == live
            assert backend.has(cid) is bool(on_disk)
            assert backend.available(cid) is bool(live)
            assert backend.total_copies(cid) == len(on_disk)
            for found in (backend.holders(cid), backend.live_holders(cid),
                          backend.placement(cid, "node1")):
                assert type(found) is tuple
                assert by_value.setdefault(found, found) is found
        assert backend.unavailable(cids) == [
            cid for cid in cids if not backend.live_holders(cid)]
        assert sorted(by_value) == sorted(set(by_value))

    for _step in range(300):
        op = rng.random()
        cid = rng.choice(cids)
        if op < 0.35:
            # Plain, forced and (with nodes down) degraded puts.
            try:
                backend.put_chunk(cid, b"payload", writer=rng.choice(NODES),
                                  force=rng.random() < 0.3)
            except Exception:
                assert down == set(NODES)
        elif op < 0.5:
            for _dest, ids, nbytes in backend.rereplicate([cid], {cid}):
                assert (ids, nbytes) == ([cid], len(b"payload"))
        elif op < 0.65:
            backend.delete(cid)
        elif op < 0.8:
            backend.delete_on(rng.choice(NODES), cid)
        elif op < 0.9 and len(down) < 3:
            node = rng.choice(NODES)
            down.add(node)
            backend.mark_down(node)
        elif down:
            node = rng.choice(sorted(down))
            down.discard(node)
            backend.mark_up(node)
        check()
    # A backend attached later rebuilds the same index from the disks.
    attached = ShardedBackend(fs, NODES, 2)
    for cid in cids:
        assert attached.holders(cid) == backend.holders(cid)


# -- (f) a stored page copy is the one marker, read back as its extent ------


def test_every_page_copy_is_the_one_marker_and_reads_as_its_extent():
    store, memories, first = saved_store(pages=12)
    backend, fs = store.backend, store.fs
    memories["beta", 1].touch("grid", fraction=0.5)
    second = build_image("beta", memories, taken_at=1.0)
    store.save(second, mode="incremental", writer="node1")

    def page_ids(image):
        return {cid for proc in image.processes for cid, _page
                in iter_page_chunks(image.pod_name, proc.vpid, proc.memory)}

    pages = page_ids(first) | page_ids(second)
    fresh = sorted(page_ids(second) - page_ids(first))
    assert fresh and len(pages) == 12 + len(fresh)

    def page_copies():
        return [(node, cid, value) for node in NODES
                for cid, value in backend.copies(node).items()
                if cid in pages]

    # Both saves and a heal pass store the marker itself, RF=2 of it.
    assert {value for _n, _c, value in page_copies()} == {PAGE_MARKER}
    assert len(page_copies()) == 2 * len(pages)
    backend.mark_down("node0")
    assert sum(chunks for chunks, _nbytes in store.rereplicate(
        [cid for cid, _live in store.under_replicated()])) > 0
    backend.mark_up("node0")
    assert store.reconcile_node("node0") == 0
    assert all(value is PAGE_MARKER for _n, _c, value in page_copies())
    assert len(page_copies()) > 2 * len(pages)

    # Every read that returns content sees the page's extent.
    for node, cid, _value in page_copies():
        read = fs.read_file(backend._path(node, cid))
        assert type(read) is SyntheticExtent
        assert read == page_chunk_payload(cid)
        assert fs.read_at(backend._path(node, cid), 30, 4) == \
            bytes(page_chunk_payload(cid))[30:34]
    read_before = fs.bytes_read
    grouped = backend.read_chunks(sorted(pages))
    assert fs.bytes_read - read_before == len(pages) * PAGE_SIZE
    for live, payloads in grouped.items():
        ids = [cid for cid in sorted(pages)
               if backend.live_holders(cid) == live]
        assert payloads == [page_chunk_payload(cid) for cid in ids]
        assert {type(payload) for payload in payloads} == {SyntheticExtent}
    assert store.audit(deep=True) == []

    # A rotted copy over a marker is corrupt, and a forced save heals it.
    victim = fresh[0]
    fs.write_file(backend._path("node1", victim),
                  SyntheticExtent((b"rot" * 11, PAGE_SIZE)))
    assert store.audit(deep=True) == [
        {"kind": "corrupt_chunk", "cid": victim, "node": "node1"}]
    store.save(second, mode="full", writer="node1")
    assert store.audit(deep=True) == []
    assert backend.copies("node1")[victim] is PAGE_MARKER

"""The reference image store: one chunk at a time.

The per-chunk ``plan``/``save``/``load`` loop and the per-chunk
``put_chunk``/``get_chunk`` it drove, moved out of ``repro.cruz.storage``
and ``repro.cruz.backend`` when the page path became run-granular (one
pass per process, page ids memoised by write version). The equivalence
tests drive this store and the real one with the same operations and
diff every counter, plan, refcount and file, so it stays the plain
per-page loop — ids from :func:`iter_page_chunks`, nothing memoised —
and is not to be optimised.

It shares no chunk bookkeeping and no payload with the product: the
reference backend keeps its own ``cid -> set of holders`` index (the
product's is interned tuples) and stores every page as 4 KiB of real
bytes (the product stores a ``SyntheticExtent``), so equal files,
counters and sources mean the descriptor stands for exactly those
bytes.
"""

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cruz.backend import PutResult, ShardedBackend
from repro.cruz.storage import (
    MANIFEST_FORMAT,
    ImageStore,
    SavePlan,
    blob_chunk_id,
    iter_page_chunks,
)
from repro.errors import (
    CheckpointError,
    ChunkMissingError,
    ReplicationError,
    VersionUnreconstructibleError,
)
from repro.simos.memory import PAGE_SIZE
from repro.zap.image import (
    SOCKET_FD_KINDS,
    CheckpointImage,
    FdImage,
    PipeImage,
    ProcessImage,
    SemImage,
    ShmImage,
    freeze_object,
    thaw_object,
)


def reference_page_payload(cid: str) -> bytes:
    """The PAGE_SIZE real bytes of a page chunk (seed-expanded)."""
    return bytes.fromhex(cid) * (PAGE_SIZE // 32)


class ReferenceBackend(ShardedBackend):
    """The one-chunk put and get over a set-per-chunk holder index.

    Ring placement and the up-set are the product's; everything that
    answers "who holds this chunk" is answered from ``_holders`` here.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Nothing inherited may answer from the product's index.
        del self._holder_index
        self._holders: Dict[str, Set[str]] = {}
        for node in self.nodes:
            for cid in self.scan_node(node):
                self._holders.setdefault(cid, set()).add(node)

    def put_chunk(self, cid: str, payload: bytes,
                  writer: Optional[str] = None,
                  force: bool = False) -> PutResult:
        dests = self.placement(cid, writer=writer)
        current = self._holders.get(cid)
        if current is None:
            current = self._holders[cid] = set()
        logical = force or not current
        written: List[str] = []
        replica_copies = 0
        replica_bytes = 0
        for index, node in enumerate(dests):
            existed = node in current
            if existed and not force:
                continue
            self.fs.write_file(self._path(node, cid), payload)
            current.add(node)
            written.append(node)
            is_extra_copy = (index > 0) or (not logical)
            if is_extra_copy and not existed:
                replica_copies += 1
                replica_bytes += len(payload)
        if not current:
            del self._holders[cid]
        return PutResult(logical_write=int(logical),
                         logical_bytes=len(payload) if logical else 0,
                         nbytes=len(payload),
                         replica_copies=replica_copies,
                         replica_bytes=replica_bytes,
                         dests=tuple(sorted(written)))

    def get_chunk(self, cid: str) -> bytes:
        for node in self.live_holders(cid):
            return self.fs.read_file(self._path(node, cid))
        raise ChunkMissingError(cid, self.up_nodes)

    def put_chunks(self, cids, payloads, arcs, writer, force):
        raise NotImplementedError("the reference is per chunk")

    read_chunks = put_chunks

    def has(self, cid: str) -> bool:
        return bool(self._holders.get(cid))

    def available(self, cid: str) -> bool:
        return not self._up.isdisjoint(self._holders.get(cid, ()))

    def unavailable(self, cids: Sequence[str]) -> List[str]:
        return [cid for cid in cids if not self.available(cid)]

    def holders(self, cid: str) -> Tuple[str, ...]:
        return tuple(sorted(self._holders.get(cid, ())))

    def live_holders(self, cid: str) -> Tuple[str, ...]:
        return tuple(sorted(
            self._up.intersection(self._holders.get(cid, ()))))

    def chunk_size(self, cid: str) -> int:
        for node in self.holders(cid):
            return self.fs.size(self._path(node, cid))
        return 0

    def delete(self, cid: str) -> Tuple[int, int]:
        nbytes = 0
        copies = 0
        for node in self.live_holders(cid):
            nbytes = self.delete_on(node, cid)
            copies += 1
        return nbytes, copies

    def delete_on(self, node: str, cid: str) -> int:
        current = self._holders.get(cid)
        if not current or node not in current:
            return 0
        path = self._path(node, cid)
        nbytes = self.fs.size(path)
        self.fs.unlink(path)
        current.discard(node)
        if not current:
            del self._holders[cid]
        return nbytes

    def replicate(self, cid: str, dest: str) -> int:
        live = self.live_holders(cid)
        if not live:
            raise ReplicationError(cid, self.replication_factor, live)
        payload = self.get_chunk(cid)
        self.fs.write_file(self._path(dest, cid), payload)
        self._holders.setdefault(cid, set()).add(dest)
        return len(payload)


@dataclass
class _PlannedChunk:
    cid: str
    nbytes: int
    write: bool
    force: bool
    #: Blob payload; None for pages (expanded from the cid on demand).
    payload: Optional[bytes] = None


@dataclass
class ReferencePlan(SavePlan):
    chunks: List[_PlannedChunk] = field(default_factory=list)


class ReferenceImageStore(ImageStore):
    """``ImageStore`` that plans, saves and loads chunk by chunk."""

    def _manifest_chunk_refs(self, manifest: Dict[str, Any]) -> List[str]:
        return [cid for cid, _nbytes in self._sized_chunk_refs(manifest)]

    def _sized_chunk_refs(self, manifest) -> List[Tuple[str, int]]:
        pod_name = manifest["meta"]["pod_name"]
        refs = []
        for entry in manifest["processes"]:
            refs.append((entry["program_cid"], entry["program_len"]))
            for fd_entry in entry["fds"]:
                if "detail_cid" in fd_entry:
                    refs.append((fd_entry["detail_cid"],
                                 fd_entry["detail_len"]))
            for cid, _page in iter_page_chunks(
                    pod_name, entry["vpid"], entry["memory"]):
                refs.append((cid, PAGE_SIZE))
        for entry in manifest["pipes"]:
            refs.append((entry["buffer_cid"], entry["buffer_len"]))
        for entry in manifest["shm"]:
            refs.append((entry["payload_cid"], entry["payload_len"]))
        return refs

    def plan(self, image: CheckpointImage, mode: str = "full",
             writer: Optional[str] = None) -> ReferencePlan:
        if mode not in ("full", "dedup", "incremental"):
            raise CheckpointError(f"unknown save mode {mode!r}")
        self._ensure_attached()
        plan = ReferencePlan(mode=mode, writer=writer)
        backend = self.backend
        planned: set = set()
        group_dests: Dict[str, int] = {}

        def add(cid: str, nbytes: int, payload: Optional[bytes],
                must_hash: bool) -> Tuple[bool, int]:
            """Plan one chunk; returns (written?, serialize_bytes)."""
            if mode == "full":
                write = True
            else:
                write = cid not in planned and not backend.available(cid)
            planned.add(cid)
            plan.chunks.append(_PlannedChunk(
                cid=cid, nbytes=nbytes, write=write,
                force=(mode == "full"), payload=payload))
            plan.chunks_total += 1
            plan.total_bytes += nbytes
            if write:
                plan.chunks_new += 1
                plan.write_bytes += nbytes
                dests = backend.placement(cid, writer=writer)
                for index, dest in enumerate(dests):
                    group_dests[dest] = group_dests.get(dest, 0) + nbytes
                    if index > 0:
                        plan.replica_bytes += nbytes
            serialize = nbytes if (must_hash or write) else 0
            plan.serialize_bytes += serialize
            return write, serialize

        manifest_procs = []
        for proc in image.processes:
            group_serialize = 0
            group_write = 0
            blob = proc.program_blob
            wrote, ser = add(blob_chunk_id(blob), len(blob), blob,
                             must_hash=True)
            group_serialize += ser
            group_write += len(blob) if wrote else 0

            fd_entries = []
            for fd_image in proc.fds:
                if fd_image.kind in SOCKET_FD_KINDS:
                    detail_blob = freeze_object(fd_image.detail)
                    cid = blob_chunk_id(detail_blob)
                    wrote, ser = add(cid, len(detail_blob), detail_blob,
                                     must_hash=True)
                    group_serialize += ser
                    group_write += len(detail_blob) if wrote else 0
                    fd_entries.append({
                        "fd": fd_image.fd, "kind": fd_image.kind,
                        "mode": fd_image.mode, "detail_cid": cid,
                        "detail_len": len(detail_blob)})
                else:
                    fd_entries.append({
                        "fd": fd_image.fd, "kind": fd_image.kind,
                        "mode": fd_image.mode, "detail": fd_image.detail})

            memory = proc.memory
            dirty = memory.dirty_pages
            for cid, page in iter_page_chunks(
                    image.pod_name, proc.vpid, memory):
                must_hash = mode != "incremental" or page in dirty
                wrote, ser = add(cid, PAGE_SIZE, None,
                                 must_hash=must_hash)
                group_serialize += ser
                group_write += PAGE_SIZE if wrote else 0

            plan.groups.append((group_serialize, group_write))
            plan.dest_groups.append(dict(group_dests))
            group_dests.clear()
            manifest_procs.append({
                "vpid": proc.vpid, "parent_vpid": proc.parent_vpid,
                "name": proc.name,
                "program_cid": blob_chunk_id(blob),
                "program_len": len(blob),
                "memory": memory,
                "resume_syscall": proc.resume_syscall,
                "fds": fd_entries,
                "was_stopped_by_user": proc.was_stopped_by_user,
                "initial_result": proc.initial_result,
            })

        tail_serialize = 0
        tail_write = 0
        manifest_pipes = []
        for pipe in image.pipes:
            cid = blob_chunk_id(pipe.buffer)
            wrote, ser = add(cid, len(pipe.buffer), pipe.buffer,
                             must_hash=True)
            tail_serialize += ser
            tail_write += len(pipe.buffer) if wrote else 0
            manifest_pipes.append({
                "index": pipe.index, "buffer_cid": cid,
                "buffer_len": len(pipe.buffer),
                "readers": pipe.readers, "writers": pipe.writers})
        manifest_shm = []
        for shm in image.shm:
            cid = blob_chunk_id(shm.payload_blob)
            wrote, ser = add(cid, len(shm.payload_blob), shm.payload_blob,
                             must_hash=True)
            tail_serialize += ser
            tail_write += len(shm.payload_blob) if wrote else 0
            manifest_shm.append({
                "vid": shm.vid, "app_key": shm.app_key, "size": shm.size,
                "payload_cid": cid,
                "payload_len": len(shm.payload_blob)})
        if tail_serialize or tail_write:
            plan.groups.append((tail_serialize, tail_write))
            plan.dest_groups.append(dict(group_dests))
            group_dests.clear()

        plan.manifest = {
            "format": MANIFEST_FORMAT,
            "meta": {
                "pod_name": image.pod_name, "taken_at": image.taken_at,
                "ip": image.ip, "mac": image.mac,
                "fake_mac": image.fake_mac,
                "own_wire_mac": image.own_wire_mac,
                "next_vpid": image.next_vpid,
                "next_vipc": image.next_vipc,
                "state_bytes": image.state_bytes,
                "written_bytes": image.written_bytes,
                "total_chunk_bytes": plan.total_bytes,
                "sockets_captured": image.sockets_captured,
                "version": 0,
            },
            "processes": manifest_procs,
            "pipes": manifest_pipes,
            "shm": manifest_shm,
            "sem": [(s.vid, s.app_key, s.value) for s in image.sem],
        }
        return plan

    def save(self, image: CheckpointImage, mode: str = "full",
             plan: Optional[ReferencePlan] = None,
             writer: Optional[str] = None) -> int:
        self._ensure_attached()
        if plan is None:
            plan = self.plan(image, mode=mode, writer=writer)
        if writer is None:
            writer = plan.writer
        stats = self._stats
        try:
            version = self.latest_version(image.pod_name) + 1
        except CheckpointError:
            version = 1
        for chunk in plan.chunks:
            if chunk.write:
                payload = chunk.payload if chunk.payload is not None \
                    else reference_page_payload(chunk.cid)
                result = self.backend.put_chunk(
                    chunk.cid, payload, writer=writer, force=chunk.force)
                stats["replica_copies"] += result.replica_copies
                stats["replica_bytes"] += result.replica_bytes
                if result.logical_write:
                    stats["chunks_written"] += 1
                    stats["bytes_written"] += len(payload)
                else:
                    stats["bytes_deduped"] += len(payload)
            else:
                stats["bytes_deduped"] += chunk.nbytes
            self._refcounts[chunk.cid] = \
                self._refcounts.get(chunk.cid, 0) + 1
        manifest = plan.manifest
        manifest["meta"]["version"] = version
        manifest["meta"]["written_bytes"] = image.written_bytes
        manifest["meta"]["total_chunk_bytes"] = plan.total_bytes
        self.fs.write_file(self._manifest_path(image.pod_name, version),
                           freeze_object(manifest))
        self._audit_valid = False
        self._latest[image.pod_name] = version
        return version

    def load(self, pod_name: str,
             version: Optional[int] = None) -> CheckpointImage:
        self._ensure_attached()
        if version is None:
            version = self.latest_version(pod_name)
        path = self._manifest_path(pod_name, version)
        if not self.fs.exists(path):
            raise CheckpointError(
                f"no checkpoint v{version} for pod {pod_name!r}")
        manifest = thaw_object(self.fs.read_file(path))
        meta = manifest["meta"]
        image = CheckpointImage(
            pod_name=meta["pod_name"], taken_at=meta["taken_at"],
            ip=meta["ip"], mac=meta["mac"], fake_mac=meta["fake_mac"],
            own_wire_mac=meta["own_wire_mac"],
            next_vpid=meta["next_vpid"], next_vipc=meta["next_vipc"],
            state_bytes=meta["state_bytes"],
            written_bytes=meta["written_bytes"],
            total_chunk_bytes=meta["total_chunk_bytes"],
            sockets_captured=meta["sockets_captured"],
            version=meta["version"])
        try:
            for entry in manifest["processes"]:
                fds = []
                for fd_entry in entry["fds"]:
                    if "detail_cid" in fd_entry:
                        detail = thaw_object(
                            self.backend.get_chunk(fd_entry["detail_cid"]))
                    else:
                        detail = fd_entry["detail"]
                    fds.append(FdImage(fd=fd_entry["fd"],
                                       kind=fd_entry["kind"],
                                       mode=fd_entry["mode"],
                                       detail=detail))
                memory = entry["memory"]
                for cid, _page in iter_page_chunks(
                        meta["pod_name"], entry["vpid"], memory):
                    self.backend.get_chunk(cid)
                image.processes.append(ProcessImage(
                    vpid=entry["vpid"], parent_vpid=entry["parent_vpid"],
                    name=entry["name"],
                    program_blob=self.backend.get_chunk(entry["program_cid"]),
                    memory=memory,
                    resume_syscall=entry["resume_syscall"], fds=fds,
                    was_stopped_by_user=entry["was_stopped_by_user"],
                    initial_result=entry["initial_result"]))
            for entry in manifest["pipes"]:
                image.pipes.append(PipeImage(
                    index=entry["index"],
                    buffer=self.backend.get_chunk(entry["buffer_cid"]),
                    readers=entry["readers"], writers=entry["writers"]))
            for entry in manifest["shm"]:
                image.shm.append(ShmImage(
                    vid=entry["vid"], app_key=entry["app_key"],
                    size=entry["size"],
                    payload_blob=self.backend.get_chunk(entry["payload_cid"])))
        except ChunkMissingError as exc:
            raise VersionUnreconstructibleError(
                pod_name, version, missing_cid=exc.cid,
                queried_nodes=exc.queried_nodes) from exc
        for vid, app_key, value in manifest["sem"]:
            image.sem.append(SemImage(vid=vid, app_key=app_key,
                                      value=value))
        grouped: Dict[Tuple[str, ...], int] = {}
        for cid, nbytes in self._sized_chunk_refs(manifest):
            holders = self.backend.live_holders(cid)
            grouped[holders] = grouped.get(holders, 0) + nbytes
        image.chunk_sources = sorted(grouped.items())
        return image

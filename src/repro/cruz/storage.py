"""Checkpoint image storage on the network-accessible filesystem.

Zap "relies on a network-accessible file system that is accessible from any
machine on which the application may be restarted" (§2). Images are stored
*chunked and content-addressed* so the §5.2 incremental/copy-on-write
optimisations are real byte movement, not accounting:

* Every :class:`~repro.zap.image.CheckpointImage` is split into chunks —
  one page-granular chunk per memory page, plus one blob chunk per program
  image, socket state, pipe buffer and shm segment. A chunk's address is a
  content hash; a page's logical content is fully determined by its
  ``(pod, vpid, region, page, write-version)`` identity (see
  :class:`~repro.simos.memory.AddressSpace`), so an untouched page hashes
  to the same chunk in every epoch and is stored exactly once. That
  content is the id's 32 bytes repeated (:func:`page_chunk_payload`),
  and what is stored for every page copy is one shared marker,
  :data:`PAGE_MARKER`: the filesystem reads it back as that extent by
  the copy's file name, which is the id, and every size, counter and
  copy treats it as the PAGE_SIZE bytes it stands for; blobs
  (programs, socket state, pipes, shm), manifests and WAL records are
  real bytes.
* A small pickled *manifest* per version records the image metadata and
  the chunk references; ``load`` reconstructs the image from it. One
  codec (:func:`_encode`/:func:`_decode`) writes each image record as
  its fields in declaration order, a blob field as its chunk's id and
  length (:data:`_BLOB_KEYS`), so a field added to a record in
  :mod:`repro.zap.image` is saved and loaded with no edit here.
* Chunks are refcounted: ``discard``/``prune`` decrement and a chunk is
  deleted only when no surviving version references it.
* The version index is *derived from the filesystem* (manifests are
  scanned on first use), so a coordinator restarted on a different node
  finds every version that survives in the shared filesystem.

Save modes:

``full``          rewrite every chunk (the paper's baseline: every round
                  writes the whole state).
``dedup``         hash everything, write only chunks not already stored.
``incremental``   additionally use the dirty-page bits to skip even
                  hashing clean pages (§5.2 incremental checkpointing).

The chunk format is per page; the code path is per *run*: a process's
pages go through ``plan`` → ``put_chunks`` → ``read_sources`` as one
list each, and their ids come from one walk memoised by write version
(:meth:`ImageStore._page_ids`). The memo also keeps, for a page a
``full`` save wrote, its ring arc, so an untouched page costs a full
save a lookup. :func:`iter_page_chunks` is the plain reference
enumeration that walk must agree with.
"""

from __future__ import annotations

import hashlib
from array import array
from collections import Counter, deque
from dataclasses import astuple, dataclass, field, fields
from itertools import chain, compress, repeat
from operator import is_, ne, not_
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.cruz.backend import (
    ARC_TYPECODE,
    ShardedBackend,
    backend_config,
    backend_from_config,
)
from repro.errors import (
    CheckpointError,
    ChunkMissingError,
    VersionUnreconstructibleError,
)
from repro.simos.filesystem import (
    NamedExtent,
    SharedFileSystem,
    SyntheticExtent,
)
from repro.simos.memory import PAGE_SIZE, AddressSpace
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

MANIFEST_FORMAT = 1

#: The single shard node of a bare ``ImageStore(fs)``.
DEFAULT_SHARD_NODE = "disk"

#: The image records' blob fields. A blob is stored as one chunk, and
#: its record's manifest entry holds the chunk's id and length under
#: these two keys, in the field's place. The keys are built here once:
#: pickle memoises a string by identity, so a key built per entry would
#: be pickled again in every entry and grow every manifest.
_BLOB_KEYS = {
    (ProcessImage, "program_blob"): ("program_cid", "program_len"),
    (FdImage, "detail"): ("detail_cid", "detail_len"),
    (PipeImage, "buffer"): ("buffer_cid", "buffer_len"),
    (ShmImage, "payload_blob"): ("payload_cid", "payload_len"),
}
#: The record-list fields of a record, with the type of their records.
_NESTED = {(ProcessImage, "fds"): FdImage}
#: record type -> ``(name, blob keys, nested type)`` per field, in
#: declaration order: the one table the codec and the blob walk read.
_LAYOUT = {
    cls: [(f.name, _BLOB_KEYS.get((cls, f.name)), _NESTED.get((cls, f.name)))
          for f in fields(cls)]
    for cls in (ProcessImage, FdImage, PipeImage, ShmImage)}
#: The image fields a manifest keeps as its ``meta``: all but the record
#: lists and the ``chunk_sources`` a load derives.
_META_FIELDS = [f.name for f in fields(CheckpointImage) if f.name not in (
    "processes", "pipes", "shm", "sem", "chunk_sources")]


def _encode(record, add_blob) -> Dict[str, Any]:
    """An image record's manifest entry: its fields in declaration order,
    a record list as their entries, a blob field as its chunk's id (what
    ``add_blob`` returns for the bytes) and length. A socket's detail is
    pickled into a chunk (it can be large); another fd's detail is a
    small dict and stays in the entry."""
    cls = type(record)
    entry: Dict[str, Any] = {}
    for name, keys, nested in _LAYOUT[cls]:
        value = getattr(record, name)
        if nested is not None:
            value = [_encode(item, add_blob) for item in value]
        elif keys is not None and (
                cls is not FdImage or record.kind in SOCKET_FD_KINDS):
            blob = freeze_object(value) if cls is FdImage else value
            entry[keys[0]] = add_blob(blob)
            entry[keys[1]] = len(blob)
            continue
        entry[name] = value
    return entry


def _decode(cls, entry: Dict[str, Any], get_chunk, read_pages=None):
    """The record :func:`_encode` made ``entry`` from. Chunks are read in
    the order a restore reads them: the nested records' blobs, then the
    pages (``read_pages`` of the decoded plain fields), then the record's
    own blobs."""
    values: Dict[str, Any] = {}
    for name, keys, nested in _LAYOUT[cls]:
        if nested is not None:
            values[name] = [_decode(nested, item, get_chunk)
                            for item in entry[name]]
        elif keys is None or keys[0] not in entry:
            values[name] = entry[name]
    if read_pages is not None:
        read_pages(values)
    for name, keys, _nested in _LAYOUT[cls]:
        if keys is not None and keys[0] in entry:
            blob = get_chunk(entry[keys[0]])
            values[name] = thaw_object(blob) if cls is FdImage else blob
    return cls(**values)


def _blob_refs(cls, entry: Dict[str, Any],
               refs: List[Tuple[str, int]]) -> None:
    """Append the (chunk id, size) of every blob ``entry`` references."""
    for name, keys, nested in _LAYOUT[cls]:
        if nested is not None:
            for item in entry[name]:
                _blob_refs(nested, item, refs)
        elif keys is not None and keys[0] in entry:
            refs.append((entry[keys[0]], entry[keys[1]]))


def _read_record(fs: SharedFileSystem, path: str) -> Optional[Any]:
    """The record pickled at ``path``, or ``None`` when there is none."""
    if not fs.exists(path):
        return None
    return thaw_object(fs.read_file(path))


def _write_record(fs: SharedFileSystem, path: str, record: Any) -> None:
    fs.write_file(path, freeze_object(record))


def _numbered(fs: SharedFileSystem, prefix: str, suffix: str) -> List[int]:
    """The numbers ``n`` of the files ``{prefix}{n}{suffix}``, ascending."""
    stems = [path[len(prefix):len(path) - len(suffix)]
             for path in fs.listdir(prefix) if path.endswith(suffix)]
    return sorted([int(stem) for stem in stems if stem.isdigit()])


#: The type of a sha256 hash, whose methods a page-id run maps.
_SHA256 = type(hashlib.sha256())


def blob_chunk_id(blob: bytes) -> str:
    """Content address of an opaque byte blob."""
    return hashlib.sha256(blob).hexdigest()


def page_chunk_id(pod_name: str, vpid: int, region: str,
                  page_index: int, version: int) -> str:
    """Content address of one memory page.

    The simulated address space tracks page *identity* (region, index,
    write-version) rather than byte content; the page's synthetic content
    is determined by that identity (see :func:`page_chunk_payload`), so
    hashing the identity and hashing the content are equivalent.
    """
    identity = f"page|{pod_name}|{vpid}|{region}|{page_index}|{version}"
    return hashlib.sha256(identity.encode()).hexdigest()


def page_chunk_payload(cid: str) -> SyntheticExtent:
    """A page chunk's content: PAGE_SIZE bytes that are the chunk id's
    32 bytes repeated, as the extent saying so."""
    return SyntheticExtent((bytes.fromhex(cid), PAGE_SIZE))


#: What is stored for every page chunk copy: the extent whose seed is
#: the file's name, which is the chunk's id — so, read back, exactly
#: :func:`page_chunk_payload` of it. One object for all of them.
PAGE_MARKER = NamedExtent(PAGE_SIZE)


def iter_page_chunks(pod_name: str, vpid: int,
                     memory: AddressSpace) -> Iterator[Tuple[str, int]]:
    """Yield ``(chunk_id, absolute_page)`` for every page of a process.

    Deterministic enumeration order — save, GC and index rebuild must all
    walk the identical sequence so refcounts balance.
    """
    for name in sorted(memory.regions):
        region = memory.regions[name]
        for index in range(region.page_count):
            page = region.base_page + index
            version = memory.page_versions.get(page, 0)
            yield (page_chunk_id(pod_name, vpid, name, index, version),
                   page)


def _page_id_run(pod_name: str, vpid: int, region: str,
                 indexes: Sequence[int],
                 versions: Sequence[int]) -> List[str]:
    """:func:`page_chunk_id` of one region's pages at ``indexes`` (with
    ``versions`` aligned): the identity prefix is hashed once and each
    page's hash continues a copy of it, in C-level passes."""
    prefix = hashlib.sha256(f"page|{pod_name}|{vpid}|{region}|".encode())
    digests = list(map(_SHA256.copy, repeat(prefix, len(indexes))))
    deque(map(_SHA256.update, digests,
              map(b"%d|%d".__mod__, zip(indexes, versions))), maxlen=0)
    return list(map(_SHA256.hexdigest, digests))


class _RegionPages:
    """One region's pages as :meth:`ImageStore._page_regions` last saw
    them: the write versions and the page ids hashed from them, then —
    filled by the first ``full`` save that writes them (:meth:`fill`) —
    against the ring they were bisected into (``ring``, its keys) each
    page's arc and how many pages fall into each arc. A region whose
    versions move gets a new entry, so none of it is ever stale."""

    __slots__ = ("versions", "ids", "ring", "arcs", "arc_counts")

    def __init__(self, versions: List[int], ids: List[str]):
        self.versions = versions
        self.ids = ids
        self.ring: Optional[List[str]] = None
        self.arcs: Optional[array] = None
        self.arc_counts: Optional[Counter] = None

    def fill(self, backend: ShardedBackend) -> None:
        """Bisect the region's pages once per ring: arcs are fixed for
        a ring's life, whatever goes down or up, and a backend over the
        same nodes has an equal ring."""
        if self.ring != backend.ring_keys:
            self.arcs = backend.arcs(self.ids)
            self.arc_counts = Counter(self.arcs)
            self.ring = backend.ring_keys


def _unsound_pages(copies: Dict[str, Any], cids: Iterable[str]) -> List[str]:
    """The page chunks of ``cids`` whose copy in ``copies`` is neither
    :data:`PAGE_MARKER` nor equal to :func:`page_chunk_payload` of its
    id: the markers are passed in one mapped identity pass, and only
    another copy is compared as content, one by one."""
    cids = list(cids)
    marked = map(is_, map(copies.__getitem__, cids), repeat(PAGE_MARKER))
    return [cid for cid in compress(cids, map(not_, marked))
            if copies[cid] != page_chunk_payload(cid)]


def _page_numbers(memory: AddressSpace) -> List[int]:
    """Absolute page numbers in :func:`iter_page_chunks` order."""
    return [page for _name, region in sorted(memory.regions.items())
            for page in range(region.base_page,
                              region.base_page + region.page_count)]


class RoundLog:
    """Write-ahead log of coordination rounds in the shared filesystem.

    The coordinator records ``start`` before sending the first
    ``CHECKPOINT``/``RESTART`` of an epoch and decides exactly one outcome
    (``commit`` or ``abort``) per epoch; agents record ``abort`` when they
    abort unilaterally. Records are tiny pickled files next to the image
    manifests, so a coordinator restarted on any node sees every round the
    crashed one started:

    * ``in_flight()`` rounds (started, no outcome) are aborted during
      recovery and their members re-notified;
    * ``max_epoch()`` seeds the restarted coordinator's epoch counter, so
      a recovering coordinator can never reuse — and thereby resurrect —
      an epoch an agent already aborted;
    * ``decide()`` is first-writer-wins: a coordinator about to commit
      learns about a concurrent unilateral abort and fails the round
      instead, making the two-phase-commit outcome verified rather than
      assumed;
    * a checkpoint round's commit names its images (:meth:`cuts`).
    """

    START, COMMIT, ABORT = "start", "commit", "abort"
    _OUTCOMES = (COMMIT, ABORT)

    def __init__(self, fs: SharedFileSystem):
        self.fs = fs
        self.root = "/checkpoints/.rounds"

    def _path(self, epoch: int, record: str) -> str:
        return f"{self.root}/e{epoch:08d}.{record}"

    # -- writing -----------------------------------------------------------

    def log_start(self, epoch: int, kind: str, members, at: float = 0.0,
                  coordinator: str = "") -> None:
        """Record a round's membership before any message is sent."""
        _write_record(self.fs, self._path(epoch, self.START), {
            "epoch": epoch, "kind": kind, "at": at,
            "coordinator": coordinator,
            "members": [(str(ip), pod_name) for ip, pod_name in members],
        })

    def decide(self, epoch: int, outcome: str, reason: str = "",
               source: str = "", at: float = 0.0,
               images: Optional[Dict[str, int]] = None) -> str:
        """Record ``outcome`` unless one exists; returns the winner."""
        if outcome not in self._OUTCOMES:
            raise CheckpointError(f"unknown round outcome {outcome!r}")
        existing = self.outcome(epoch)
        if existing is not None:
            return existing
        _write_record(self.fs, self._path(epoch, outcome), {
            "epoch": epoch, "reason": reason, "source": source, "at": at,
            "images": images})
        return outcome

    # -- reading -----------------------------------------------------------

    def outcome(self, epoch: int) -> Optional[str]:
        for record in self._OUTCOMES:
            if self.fs.exists(self._path(epoch, record)):
                return record
        return None

    def abort_record(self, epoch: int) -> Optional[Dict]:
        return _read_record(self.fs, self._path(epoch, self.ABORT))

    def images(self, epoch: int) -> Optional[Dict[str, int]]:
        """Pod name -> version of the images round ``epoch`` committed;
        ``None`` unless it is a committed checkpoint round."""
        record = _read_record(self.fs, self._path(epoch, self.COMMIT))
        return (record or {}).get("images")

    def cuts(self, pod_names: Iterable[str]) -> List[int]:
        """Epochs of the committed checkpoint rounds that saved exactly
        ``pod_names``, newest first: the rounds their app restarts from."""
        wanted = set(pod_names)
        return [epoch for epoch in reversed(self.epochs())
                if (images := self.images(epoch)) is not None
                and images.keys() == wanted]

    def epochs(self) -> List[int]:
        """Every epoch with a start record, ascending."""
        return _numbered(self.fs, f"{self.root}/e", f".{self.START}")

    def max_epoch(self) -> int:
        epochs = self.epochs()
        return epochs[-1] if epochs else 0

    def in_flight(self) -> List[Dict]:
        """Start records of rounds with no recorded outcome."""
        return [_read_record(self.fs, self._path(epoch, self.START))
                for epoch in self.epochs() if self.outcome(epoch) is None]


class LivenessLog:
    """Write-ahead log of node liveness transitions in the shared FS.

    The node supervisor records every death declaration and every
    rejoin (``down``/``up``) as a tiny pickled record, sequence-numbered
    so ordering survives a supervisor restart: a replacement supervisor
    constructed over the same store inherits each node's last known
    state through :meth:`last_states` instead of waiting a full lease
    period to rediscover dead nodes.
    """

    UP, DOWN = "up", "down"

    def __init__(self, fs: SharedFileSystem):
        self.fs = fs
        self.root = "/checkpoints/.liveness"
        logged = _numbered(fs, f"{self.root}/t", ".rec")
        self._next_seq = logged[-1] + 1 if logged else 1

    def _path(self, seq: int) -> str:
        return f"{self.root}/t{seq:010d}.rec"

    def log(self, node_name: str, state: str, at: float = 0.0,
            reason: str = "", source: str = "") -> Dict:
        if state not in (self.UP, self.DOWN):
            raise CheckpointError(f"unknown liveness state {state!r}")
        record = {"seq": self._next_seq, "node": node_name,
                  "state": state, "at": at, "reason": reason,
                  "source": source}
        _write_record(self.fs, self._path(self._next_seq), record)
        self._next_seq += 1
        return record

    def records(self) -> List[Dict]:
        """Every transition, in log order."""
        return [_read_record(self.fs, self._path(seq))
                for seq in _numbered(self.fs, f"{self.root}/t", ".rec")]

    def transitions(self, node_name: str) -> List[Dict]:
        return [record for record in self.records()
                if record["node"] == node_name]

    def last_states(self) -> Dict[str, str]:
        """node name -> last logged ``up``/``down`` state."""
        return {record["node"]: record["state"]
                for record in self.records()}


@dataclass
class SavePlan:
    """What one ``save`` will move, and how the write pipelines.

    ``groups`` holds one ``(serialize_bytes, write_bytes)`` pair per
    process (plus a tail group for pipes/shm): serialization of process
    *i+1* overlaps the disk write of process *i* — the §5.2 pipeline.
    ``dest_groups`` (parallel to ``groups``) splits each group's write
    bytes per destination disk: with a sharded backend the writer's
    disk takes the primary copy of every new chunk while the replica
    copies land on other nodes' disks concurrently, so the pipeline
    bound is the *busiest* destination — which writer affinity makes
    the writer itself, reproducing the single-disk timing exactly.
    """

    mode: str
    #: Every chunk id the image references, with multiplicity — what
    #: ``save`` increfs.
    refs: List[str] = field(default_factory=list)
    #: The ``(chunk id, payload, ring arc)`` blobs to write.
    blob_writes: List[Tuple[str, bytes, int]] = field(default_factory=list)
    #: The page chunk ids to write, and aligned with them their ring
    #: arcs (each is stored as :data:`PAGE_MARKER`).
    page_writes: List[str] = field(default_factory=list)
    page_arcs: array = field(default_factory=lambda: array(ARC_TYPECODE))
    groups: List[Tuple[int, int]] = field(default_factory=list)
    dest_groups: List[Dict[str, int]] = field(default_factory=list)
    total_bytes: int = 0
    write_bytes: int = 0
    serialize_bytes: int = 0
    replica_bytes: int = 0
    chunks_total: int = 0
    chunks_new: int = 0
    writer: Optional[str] = None
    manifest: Optional[Dict[str, Any]] = None

    @property
    def dedup_ratio(self) -> float:
        """Fraction of referenced bytes NOT rewritten this save."""
        if self.total_bytes <= 0:
            return 0.0
        return 1.0 - self.write_bytes / self.total_bytes

    def schedule(self, costs) -> Tuple[float, float]:
        """(serialize_window_s, pipeline_total_s) for the cost model.

        Serialization is sequential (one CPU copies the state out); each
        group's write to a given destination disk starts as soon as both
        that group is serialized and that disk is free — the two-stage
        pipeline bound, taken over every destination in parallel.
        """
        serialized = 0.0
        free: Dict[str, float] = {}
        for (serialize_bytes, _write_bytes), dests in zip(
                self.groups, self.dest_groups):
            serialized += serialize_bytes / costs.serialize_bandwidth
            for dest in sorted(dests):
                free[dest] = max(serialized, free.get(dest, 0.0)) \
                    + dests[dest] / costs.disk_write_bandwidth
        pipeline = max(free.values()) if free else 0.0
        return serialized, max(pipeline, serialized)


class ImageStore:
    """Versioned, chunk-deduplicated checkpoint images.

    A facade over the :class:`~repro.cruz.backend.ShardedBackend` that
    holds the chunk copies. The metadata plane (manifests, round WAL,
    liveness WAL) stays on the shared filesystem; the data plane (the
    bulky chunk space) is replicated shards on the app nodes.

    The shard layout is recorded in a tiny ``.store`` file so a store
    constructed later over the same filesystem (a restarted
    coordinator) re-attaches with the same layout; a bare
    ``ImageStore(fs)`` over an *empty* filesystem is the degenerate
    layout — one shard node (:data:`DEFAULT_SHARD_NODE`) at RF=1, i.e.
    one disk holding a single copy of every chunk.
    """

    def __init__(self, fs: SharedFileSystem, metrics=None, sanitizer=None,
                 backend: Optional[ShardedBackend] = None,
                 page_memo: Optional[
                     Dict[str, Dict[Tuple[int, str], _RegionPages]]] = None):
        self.fs = fs
        self.root = "/checkpoints"
        #: Where chunk copies physically live (placement, availability,
        #: replication); refcounts and byte accounting stay here.
        self.backend = backend if backend is not None \
            else self._detect_backend(fs, self.root)
        self._persist_backend_config()
        #: cid -> references from committed manifests; a chunk is
        #: unlinked when its count reaches zero.
        self._refcounts: Counter = Counter()
        # Byte-movement counters (the measured quantities the benchmarks
        # read; distinct from the simulated-time accounting). The
        # ``chunks_written``/``bytes_written`` pair counts *logical*
        # chunk writes (one per chunk, as a single-copy layout would);
        # extra replica copies are tracked separately.
        self._stats: Dict[str, int] = dict.fromkeys((
            "chunks_written", "bytes_written", "bytes_deduped",
            "chunks_removed", "bytes_removed", "replica_copies",
            "replica_bytes", "rereplicated_chunks", "rereplicated_bytes"),
            0)
        #: Optional runtime sanitizer; when set, every save/discard/prune
        #: is followed by a full refcount audit (see :meth:`audit`) and
        #: a refcount underflow is flagged where it happens.
        self.sanitizer = sanitizer
        #: Coordination-round WAL, shared (like the images) by every node.
        self.rounds = RoundLog(fs)
        #: Node-liveness WAL (supervisor death/rejoin declarations).
        self.liveness = LivenessLog(fs)
        self._latest: Dict[str, int] = {}
        self._attached = False
        #: pod -> (vpid, region) -> what :meth:`_page_regions` last saw
        #: of that region. It lives here and never on the AddressSpace,
        #: which is pickled into every manifest (so anything added to it
        #: moves manifest bytes, ring placement and every simulated
        #: number after). A caller that builds many stores over the same
        #: pods (a model-checking exploration) passes them one
        #: ``page_memo``: its entries are pure functions of the page
        #: identities, and the arcs are keyed by ring.
        self._page_id_memo = page_memo if page_memo is not None else {}
        #: Shadow refcounts for :meth:`audit`, derived from the manifests
        #: (not from the live ``_refcounts`` table) and maintained
        #: incrementally by :meth:`save` / :meth:`_drop_version` so the
        #: per-save sanitizer audit stays O(1)-ish instead of re-reading
        #: every manifest.  Saves made with no sanitizer attached skip
        #: the upkeep and invalidate the shadow; the next audit rebuilds
        #: it from disk.
        self._audit_expected: Counter = Counter()
        self._audit_valid = True
        #: Optional :class:`repro.sim.spans.MetricsRegistry` — each save
        #: mirrors the chunk byte-movement into typed counters
        #: (``store.bytes_written`` etc.) labelled by save mode.
        self.metrics = metrics

    # -- backend facade ----------------------------------------------------

    @staticmethod
    def _detect_backend(fs: SharedFileSystem, root: str) -> ShardedBackend:
        """Rebuild the backend a previous store recorded in ``.store``,
        or lay out the one-disk default over an empty filesystem."""
        record = _read_record(fs, f"{root}/.store")
        if record is None:
            return ShardedBackend(fs, nodes=(DEFAULT_SHARD_NODE,),
                                  replication_factor=1,
                                  root=f"{root}/.shards")
        return backend_from_config(fs, record)

    def _persist_backend_config(self) -> None:
        path = f"{self.root}/.store"
        if not self.fs.exists(path):
            _write_record(self.fs, path, backend_config(self.backend))

    @property
    def stats(self) -> Dict[str, int]:
        """Byte-movement counters (logical writes, dedup, replicas)."""
        return dict(self._stats)

    def refcounts(self) -> Dict[str, int]:
        """A copy of the chunk refcount table (cid -> references)."""
        self._ensure_attached()
        return dict(self._refcounts)

    def _decref(self, cid: str) -> None:
        """Drop one reference; unlink the chunk when none remain.

        Only reachable copies are unlinked — a powered-off shard's
        copies are reconciled when the node revives.
        """
        count = self._refcounts.get(cid, 0)
        if self.sanitizer is not None and count <= 0:
            self.sanitizer.check_refcount_underflow(cid, count)
        if count > 1:
            self._refcounts[cid] = count - 1
            return
        self._refcounts.pop(cid, None)
        nbytes, copies = self.backend.delete(cid)
        if copies:
            self._stats["bytes_removed"] += nbytes
            self._stats["chunks_removed"] += 1

    # -- paths and the persistent index -----------------------------------

    def _manifest_path(self, pod_name: str, version: int) -> str:
        return f"{self.root}/{pod_name}/v{version:06d}.manifest"

    def _manifests(self) -> Iterator[Dict[str, Any]]:
        """Every manifest in the filesystem, in path order. Only the
        directories that can hold one are listed: not the chunk shards,
        the round log or the liveness log."""
        logs = tuple(f"{root}/" for root in (
            self.backend.root, self.rounds.root, self.liveness.root))
        paths = [directory + name
                 for directory in self.fs.directories(f"{self.root}/")
                 if not directory.startswith(logs)
                 for name in self.fs.directory(directory)
                 if name.endswith(".manifest")]
        for path in sorted(paths):
            yield thaw_object(self.fs.read_file(path))

    def _ensure_attached(self) -> None:
        """Rebuild the version index and chunk refcounts from the FS.

        Runs once per store instance. A coordinator restarted on another
        node constructs a fresh ImageStore over the same shared
        filesystem; scanning the surviving manifests recovers everything
        the in-memory index held.
        """
        if self._attached:
            return
        self._attached = True
        for manifest in self._manifests():
            meta = manifest["meta"]
            pod_name, version = meta["pod_name"], meta["version"]
            self._latest[pod_name] = max(
                self._latest.get(pod_name, 0), version)
            refs = self._manifest_chunk_refs(manifest)
            self._refcounts.update(refs)
            self._audit_expected.update(refs)

    def versions(self, pod_name: str) -> List[int]:
        """Versions whose manifests actually exist in the filesystem."""
        self._ensure_attached()
        return _numbered(self.fs, f"{self.root}/{pod_name}/v", ".manifest")

    def latest_version(self, pod_name: str) -> int:
        self._ensure_attached()
        version = self._latest.get(pod_name)
        if version is None:
            existing = self.versions(pod_name)
            version = max(existing) if existing else 0
            self._latest[pod_name] = version
        if version == 0:
            raise CheckpointError(f"no checkpoints for pod {pod_name!r}")
        return version

    def _read_manifest(self, pod_name: str,
                       version: int) -> Optional[Dict[str, Any]]:
        return _read_record(self.fs, self._manifest_path(pod_name, version))

    def version_reconstructible(self, pod_name: str, version: int) -> bool:
        """Every chunk the version references has a live copy."""
        self._ensure_attached()
        manifest = self._read_manifest(pod_name, version)
        if manifest is None:
            return False
        return not self.backend.unavailable(
            self._manifest_chunk_refs(manifest))

    def reconstructible_versions(self, pod_name: str) -> List[int]:
        """Versions rebuildable from *surviving* replicas: each one
        :meth:`version_reconstructible`, in one availability pass."""
        refs: Dict[int, List[str]] = {}
        for version in self.versions(pod_name):
            manifest = self._read_manifest(pod_name, version)
            if manifest is not None:
                refs[version] = self._manifest_chunk_refs(manifest)
        # A pod's versions share most of their chunks: one availability
        # pass over the distinct ids answers for all of them.
        lost = set(self.backend.unavailable(list(set().union(
            *refs.values()))))
        return [version for version, ids in refs.items()
                if lost.isdisjoint(ids)]

    # -- replication repair ------------------------------------------------

    def under_replicated(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """(cid, live holders) below the backend's live RF target."""
        return self.backend.under_replicated()

    def rereplicate(self, cids: Sequence[str]) -> Iterator[Tuple[int, int]]:
        """Restore the replication of ``cids`` (see
        :meth:`ShardedBackend.rereplicate`); yields ``(chunks, bytes)``
        once per group copied.

        A chunk garbage-collected by the time its group's turn comes is
        not copied, nor is one with no spare up node to go to.
        """
        self._ensure_attached()
        for _dest, ids, nbytes in self.backend.rereplicate(
                cids, self._refcounts):
            self._stats["rereplicated_chunks"] += len(ids)
            self._stats["rereplicated_bytes"] += nbytes
            if self.metrics is not None:
                self.metrics.counter("store.rereplicated_chunks").inc(
                    len(ids))
                self.metrics.counter("store.rereplicated_bytes").inc(nbytes)
            yield len(ids), nbytes

    def reconcile_node(self, node_name: str) -> int:
        """Drop a revived shard's copies of since-deleted chunks.

        A powered-off node misses garbage collection; on revive its
        shard may hold chunk files nothing references any more. Returns
        the number of stale copies removed.
        """
        backend = self.backend
        self._ensure_attached()
        removed = 0
        for cid in backend.scan_node(node_name):
            if self._refcounts.get(cid, 0) <= 0:
                backend.delete_on(node_name, cid)
                removed += 1
        return removed

    # -- chunk planning ----------------------------------------------------

    def _page_regions(self, pod_name: str, vpid: int,
                      memory: AddressSpace) -> List[_RegionPages]:
        """A process's regions, in :func:`iter_page_chunks` order.

        The one page-id walk: plan, load, GC and audit all take their
        ids from here. A page's id is a pure function of ``(pod, vpid,
        region, index, write version)``, so each region's ids are
        memoised against its list of write versions and only the pages
        whose version moved since the last walk are hashed again. The
        memoised strings are the objects the refcount table and the
        backend's holder index key on, and the extents are the objects
        the shard directories hold, so the memo costs a few pointers
        and a two-byte arc per page.
        """
        memo = self._page_id_memo.get(pod_name)
        if memo is None:
            memo = self._page_id_memo[pod_name] = {}
        version_of = memory.page_versions.get
        regions: List[_RegionPages] = []
        for name in sorted(memory.regions):
            region = memory.regions[name]
            versions = list(map(version_of, range(
                region.base_page, region.base_page + region.page_count),
                repeat(0)))
            cached = memo.get((vpid, name))
            if cached is None or cached.versions != versions:
                # Only the pages whose version moved are hashed again.
                old = cached.versions if cached else ()
                ids = cached.ids[:len(versions)] if cached else []
                ids += repeat(None, len(versions) - len(ids))
                moved = list(compress(range(len(versions)), map(
                    ne, versions, chain(old, repeat(None)))))
                for index, cid in zip(moved, _page_id_run(
                        pod_name, vpid, name, moved,
                        list(map(versions.__getitem__, moved)))):
                    ids[index] = cid
                cached = memo[(vpid, name)] = _RegionPages(versions, ids)
            regions.append(cached)
        return regions

    def _page_ids(self, pod_name: str, vpid: int,
                  memory: AddressSpace) -> List[str]:
        """A process's page chunk ids, in :func:`iter_page_chunks` order."""
        ids: List[str] = []
        for pages in self._page_regions(pod_name, vpid, memory):
            ids.extend(pages.ids)
        return ids

    def plan(self, image: CheckpointImage, mode: str = "full",
             writer: Optional[str] = None) -> SavePlan:
        """Split the image into chunks and decide what must be written.

        ``writer`` names the node taking the checkpoint; the backend's
        placement gives it the primary copy of every new chunk (writer
        affinity) and decides where the replicas go, and the plan's
        per-destination byte split drives the pipelined cost model.
        """
        if mode not in ("full", "dedup", "incremental"):
            raise CheckpointError(f"unknown save mode {mode!r}")
        self._ensure_attached()
        plan = SavePlan(mode=mode, writer=writer)
        backend = self.backend
        full = mode == "full"
        planned: set = set()
        # The pipeline group being built: its serialize bytes, and the
        # bytes it writes per ring arc (placed when the group closes).
        group_serialize = 0
        group_arcs: Dict[int, int] = {}

        def close_group() -> None:
            """Split the group's writes per destination disk; every copy
            after a chunk's first is replica bytes."""
            nonlocal group_serialize
            group_write = 0
            group_dests: Dict[str, int] = {}
            for dests, nbytes in backend.placements(
                    group_arcs, writer).items():
                group_write += nbytes
                for index, dest in enumerate(dests):
                    group_dests[dest] = group_dests.get(dest, 0) + nbytes
                    if index > 0:
                        plan.replica_bytes += nbytes
            plan.write_bytes += group_write
            plan.groups.append((group_serialize, group_write))
            plan.dest_groups.append(group_dests)
            group_serialize = 0
            group_arcs.clear()

        def add_blob(blob: bytes) -> str:
            """Plan one blob chunk; returns its id. A blob is hashed to
            be addressed at all, so it is always serialized."""
            nonlocal group_serialize
            cid = blob_chunk_id(blob)
            nbytes = len(blob)
            # Dedup on availability, not mere existence: a save taken
            # while a replica node is down rewrites chunks whose only
            # copies are unreachable, so degraded saves self-heal.
            if full or (cid not in planned and not backend.available(cid)):
                arc = backend.arc(cid)
                plan.chunks_new += 1
                plan.blob_writes.append((cid, blob, arc))
                group_arcs[arc] = group_arcs.get(arc, 0) + nbytes
            planned.add(cid)
            plan.refs.append(cid)
            plan.chunks_total += 1
            plan.total_bytes += nbytes
            plan.serialize_bytes += nbytes
            group_serialize += nbytes
            return cid

        def add_pages(vpid: int, memory: AddressSpace) -> None:
            """Plan a process's pages as one run (same rule as blobs;
            an incremental save serializes a clean page only if it has
            to be written). A full save takes each region's arcs from
            the memo; the other modes bisect only the pages they
            write."""
            nonlocal group_serialize
            regions = self._page_regions(image.pod_name, vpid, memory)
            ids: List[str] = []
            for pages in regions:
                ids.extend(pages.ids)
            if full:
                writes = ids
                arc_counts: Counter = Counter()
                for pages in regions:
                    pages.fill(backend)
                    plan.page_arcs.extend(pages.arcs)
                    arc_counts.update(pages.arc_counts)
            else:
                fresh = ids if planned.isdisjoint(ids) else [
                    cid for cid in ids if cid not in planned]
                writes = backend.unavailable(fresh)
                planned.update(ids)
                arcs = backend.arcs(writes)
                plan.page_arcs.extend(arcs)
                arc_counts = Counter(arcs)
            for arc, count in arc_counts.items():
                group_arcs[arc] = group_arcs.get(arc, 0) + count * PAGE_SIZE
            serialized = len(ids)
            if mode == "incremental":
                dirty = memory.dirty_pages
                page_of = dict(zip(ids, _page_numbers(memory)))
                serialized = len(dirty.intersection(page_of.values())) \
                    + len([cid for cid in writes
                           if page_of[cid] not in dirty])
            plan.chunks_new += len(writes)
            plan.page_writes.extend(writes)
            plan.refs.extend(ids)
            plan.chunks_total += len(ids)
            plan.total_bytes += len(ids) * PAGE_SIZE
            plan.serialize_bytes += serialized * PAGE_SIZE
            group_serialize += serialized * PAGE_SIZE

        processes = []
        for proc in image.processes:
            processes.append(_encode(proc, add_blob))
            add_pages(proc.vpid, proc.memory)
            close_group()
        pipes = [_encode(pipe, add_blob) for pipe in image.pipes]
        shm = [_encode(segment, add_blob) for segment in image.shm]
        # (Every tail chunk is a blob, serialized whether written or not.)
        if group_serialize:
            close_group()

        # ``save`` stamps the meta's version and byte counts.
        plan.manifest = {
            "format": MANIFEST_FORMAT,
            "meta": {name: getattr(image, name) for name in _META_FIELDS},
            "processes": processes, "pipes": pipes, "shm": shm,
            "sem": [astuple(sem) for sem in image.sem]}
        return plan

    # -- save / load -------------------------------------------------------

    def save(self, image: CheckpointImage, mode: str = "full",
             plan: Optional[SavePlan] = None,
             writer: Optional[str] = None) -> int:
        """Persist an image; returns its version number.

        Writes only the plan's new chunks (all of them in ``full`` mode),
        increments every referenced chunk's refcount, then commits the
        manifest — the version exists atomically once the manifest does.
        ``writer`` (or the plan's recorded writer) anchors placement so
        the checkpointing node keeps the primary copy of every chunk.
        """
        self._ensure_attached()
        if plan is None:
            plan = self.plan(image, mode=mode, writer=writer)
        if writer is None:
            writer = plan.writer
        stats = self._stats
        before = dict(stats)
        try:
            version = self.latest_version(image.pod_name) + 1
        except CheckpointError:
            version = 1
        # Write first: a run that cannot be placed raises before any
        # counter, refcount or manifest has moved.
        force = plan.mode == "full"
        put_chunks = self.backend.put_chunks
        blob_ids, blobs, blob_arcs = zip(*plan.blob_writes) \
            if plan.blob_writes else ((), (), ())
        result = put_chunks(blob_ids, blobs, blob_arcs, writer, force) \
            + put_chunks(plan.page_writes,
                         [PAGE_MARKER] * len(plan.page_writes),
                         plan.page_arcs, writer, force)
        stats["replica_copies"] += result.replica_copies
        stats["replica_bytes"] += result.replica_bytes
        stats["chunks_written"] += result.logical_write
        stats["bytes_written"] += result.logical_bytes
        stats["bytes_deduped"] += result.nbytes - result.logical_bytes \
            + plan.total_bytes - plan.write_bytes
        self._refcounts.update(plan.refs)
        manifest = plan.manifest
        manifest["meta"].update(
            version=version, written_bytes=image.written_bytes,
            total_chunk_bytes=plan.total_bytes)
        _write_record(self.fs, self._manifest_path(image.pod_name, version),
                      manifest)
        if self.sanitizer is not None:
            # From the manifest, not from plan.refs: the audit compares
            # what was just counted with what a drop will uncount.
            self._audit_expected.update(
                self._manifest_chunk_refs(manifest))
        else:
            self._audit_valid = False
        self._latest[image.pod_name] = version
        if self.metrics is not None:
            self.metrics.counter("store.saves").inc(label=mode)
            moved = {key: stats[key] - before[key] for key in before}
            for counter, key in (("chunks_written", "chunks_written"),
                                 ("bytes_written", "bytes_written"),
                                 ("bytes_deduped", "bytes_deduped"),
                                 ("replica_bytes_written", "replica_bytes")):
                self.metrics.counter(f"store.{counter}").inc(
                    moved[key], label=mode)
            self.metrics.histogram("store.save_write_bytes").observe(
                moved["bytes_written"])
        self._sanitize_audit("save")
        return version

    def load(self, pod_name: str,
             version: Optional[int] = None) -> CheckpointImage:
        self._ensure_attached()
        if version is None:
            version = self.latest_version(pod_name)
        manifest = self._read_manifest(pod_name, version)
        if manifest is None:
            raise CheckpointError(
                f"no checkpoint v{version} for pod {pod_name!r}")
        image = CheckpointImage(**manifest["meta"])
        # Chunk bytes by surviving holder set: the restore engine turns
        # this into a parallel-fetch fraction — chunks local to the
        # restoring node cost one local disk read, remote groups stream
        # concurrently from every live replica (a single holder makes
        # that one serial stream, fraction 1.0).
        sources: Counter = Counter()
        get_chunk = self.backend.get_chunk

        def read_pages(process: Dict[str, Any]) -> None:
            # Every page chunk back from the store (the real read traffic
            # of a restore, sized and not resolved: a page's content is
            # its id); a chunk lost to GC or node failure raises.
            sources.update(self.backend.read_sources(self._page_ids(
                image.pod_name, process["vpid"], process["memory"])))

        try:
            image.processes = [
                _decode(ProcessImage, entry, get_chunk, read_pages)
                for entry in manifest["processes"]]
            image.pipes = [_decode(PipeImage, entry, get_chunk)
                           for entry in manifest["pipes"]]
            image.shm = [_decode(ShmImage, entry, get_chunk)
                         for entry in manifest["shm"]]
        except ChunkMissingError as exc:
            raise VersionUnreconstructibleError(
                pod_name, version, missing_cid=exc.cid,
                queried_nodes=exc.queried_nodes) from exc
        image.sem = [SemImage(*row) for row in manifest["sem"]]
        for cid, nbytes in self._manifest_blob_refs(manifest):
            sources[self.backend.live_holders(cid)] += nbytes
        image.chunk_sources = sorted(sources.items())
        return image

    # -- garbage collection ------------------------------------------------

    @staticmethod
    def _manifest_blob_refs(manifest: Dict[str, Any]
                            ) -> List[Tuple[str, int]]:
        """The (chunk id, size) of every blob a manifest references."""
        refs: List[Tuple[str, int]] = []
        for cls, key in ((ProcessImage, "processes"), (PipeImage, "pipes"),
                         (ShmImage, "shm")):
            for entry in manifest[key]:
                _blob_refs(cls, entry, refs)
        return refs

    def _manifest_chunk_refs(self, manifest: Dict[str, Any]) -> List[str]:
        """Every chunk id a manifest references, with multiplicity —
        exactly the references save counted."""
        pod_name = manifest["meta"]["pod_name"]
        refs = [cid for cid, _nbytes in self._manifest_blob_refs(manifest)]
        for entry in manifest["processes"]:
            refs.extend(self._page_ids(pod_name, entry["vpid"],
                                       entry["memory"]))
        return refs

    def audit(self, deep: bool = False) -> List[Dict[str, Any]]:
        """Compare the manifest-derived chunk refcounts against the
        in-memory counts (and, with ``deep=True``, the chunk files).

        The shallow form uses the incrementally maintained shadow counts
        and is cheap enough to run after every save; the deep form
        re-reads every manifest from disk (cross-checking the shadow's
        own upkeep) and additionally looks for missing, orphan and
        corrupt chunk files.  Returns a list of problems, empty when
        sound: refcount mismatches, dangling in-memory counts,
        non-positive counts, and (deep) references to missing chunk
        files, chunk files nothing references, and copies on reachable
        shards that do not hold what their id says (``corrupt_chunk``,
        naming the node: a page that is neither the marker nor its
        extent — other seed, torn short, or differing real bytes — or a
        blob whose hash is not its id).
        """
        self._ensure_attached()
        blobs: set = set()
        if deep or not self._audit_valid:
            deep = True
            rebuilt: Counter = Counter()
            for manifest in self._manifests():
                rebuilt.update(self._manifest_chunk_refs(manifest))
                blobs.update(cid for cid, _nbytes
                             in self._manifest_blob_refs(manifest))
            self._audit_expected = rebuilt
            self._audit_valid = True
        expected = self._audit_expected
        problems: List[Dict[str, Any]] = []
        # As plain tables: a Counter's own ``!=`` is a Python loop over
        # both and takes a zero count for an absent one.
        if dict.__ne__(expected, self._refcounts):
            for cid, count in sorted(expected.items()):
                actual = self._refcounts.get(cid, 0)
                if actual != count:
                    problems.append({"kind": "refcount_mismatch",
                                     "cid": cid, "expected": count,
                                     "actual": actual})
            for cid, count in sorted(self._refcounts.items()):
                if cid not in expected:
                    problems.append({"kind": "dangling_refcount",
                                     "cid": cid, "actual": count})
                if count <= 0:
                    problems.append({"kind": "nonpositive_refcount",
                                     "cid": cid, "actual": count})
        if deep:
            backend = self.backend
            # Per-shard sweep: a referenced chunk is *missing* only when
            # no shard (up or down) holds a copy — copies on a powered-
            # off node are unavailable, not lost. Orphans are audited on
            # reachable shards only; a down shard legitimately keeps
            # copies of chunks deleted while it was out.
            for cid in backend.absent(expected):
                problems.append({"kind": "missing_chunk", "cid": cid,
                                 "expected": expected[cid]})
            for node in backend.up_nodes:
                # In set passes over the shard; the problems, a copy at
                # most one each, come out in chunk id order.
                copies = backend.copies(node)
                held = copies.keys() & expected.keys()
                found = [(cid, "orphan_chunk")
                         for cid in copies.keys() - expected.keys()]
                found += [(cid, "corrupt_chunk") for cid in held & blobs
                          if blob_chunk_id(bytes(copies[cid])) != cid]
                found += [(cid, "corrupt_chunk")
                          for cid in _unsound_pages(copies, held - blobs)]
                found.sort()
                problems.extend({"kind": kind, "cid": cid, "node": node}
                                for cid, kind in found)
        return problems

    def _sanitize_audit(self, context: str) -> None:
        if self.sanitizer is not None:
            self.sanitizer.check_store(self, context=context)

    def _drop_version(self, pod_name: str, version: int) -> bool:
        """Decref a version's chunks and delete its manifest."""
        manifest = self._read_manifest(pod_name, version)
        if manifest is None:
            return False
        for cid in self._manifest_chunk_refs(manifest):
            self._decref(cid)
            if self.sanitizer is not None:
                left = self._audit_expected.get(cid, 0) - 1
                if left > 0:
                    self._audit_expected[cid] = left
                else:
                    self._audit_expected.pop(cid, None)
        if self.sanitizer is None:
            self._audit_valid = False
        self.fs.unlink(self._manifest_path(pod_name, version))
        return True

    def _versions_dropped(self, pod_name: str, context: str) -> None:
        """Re-derive a pod's newest version after a drop; its page-id
        memo goes with its last version."""
        remaining = self.versions(pod_name)
        self._latest[pod_name] = max(remaining) if remaining else 0
        if not remaining:
            self._page_id_memo.pop(pod_name, None)
        self._sanitize_audit(context)

    def discard(self, pod_name: str, version: int) -> None:
        """Drop an uncommitted image (aborted round)."""
        self._ensure_attached()
        self._drop_version(pod_name, version)
        self._versions_dropped(pod_name, "discard")

    def prune(self, pod_name: str, keep: int = 1) -> int:
        """Delete all but the newest ``keep`` versions; returns removed.

        Refcounting makes this safe for incremental chains: a chunk a
        kept version still references survives the removal of the older
        version that first wrote it.
        """
        self._ensure_attached()
        existing = self.versions(pod_name)
        doomed = existing[:-keep] if keep > 0 else existing
        removed = 0
        for version in doomed:
            if self._drop_version(pod_name, version):
                removed += 1
        self._versions_dropped(pod_name, "prune")
        return removed

"""The chunk-storage backend of the checkpoint image store.

:class:`ShardedBackend` holds the raw chunk copies: the
content-addressed chunk space sharded across the application nodes with
a configurable replication factor (RF). Placement is a deterministic
*hash ring* over node ids (virtual-node tokens,
``sha256(f"{node}|{i}")``), with **writer affinity**: the node that
takes a checkpoint always holds the primary copy (restores on the same
node stay local — the paper's fig. 5 shape), and the RF-1 replicas go
to the chunk's ring successors, so a pod's image spreads across the
cluster and a restore elsewhere can fetch from many source disks in
parallel. One shard node at RF=1 is the degenerate case — a single
disk holding one copy of every chunk — and is what a bare
``ImageStore(fs)`` builds.

Availability is explicit: :meth:`ShardedBackend.mark_down` /
:meth:`mark_up` mirror node power state. Copies on a powered-off node
survive on its disk (they are *unavailable*, not lost) and are
reconciled against the refcounts when the node revives. Who holds a
chunk is discovered from the filesystem itself (shard path existence
scanned in sorted node order) — no extra metadata plane that could
itself be lost. The in-memory mirror of that, the *holder index*, maps
a chunk id to the sorted tuple of its holders; tuples are interned (one
object per distinct holder combination, however many chunks share it)
and the live subset of each is computed once per availability change,
so a chunk costs the index one dict slot and no object of its own.

A chunk is one file per copy, and the file is the unit of placement,
refcount GC, repair, reconcile and fault injection. What the file
holds is the caller's business: blobs are real bytes, memory pages are
:class:`~repro.simos.filesystem.SyntheticExtent` descriptors (see
:func:`repro.cruz.storage.page_chunk_payload`), and this module only
ever needs a payload's size.

All enumeration is sorted and all placement is a pure function of
``(chunk id, writer, availability)``, so runs remain bit-identical
under event tie-break perturbation (CruzSan's fifo/lifo check).

The chunk API takes *runs* of ids (``put_chunks``, ``read_chunks``,
``placements``, ``unavailable``) — a process image is thousands of
page chunks, and one pass over a list costs a fraction of that many
calls; ``put_chunk`` and ``get_chunk`` are the one-element cases of
the first two, ``placement`` and ``available`` the one-chunk forms of
the others.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import Counter
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import (
    ChunkMissingError,
    ReplicationError,
    StoreError,
    SyscallError,
)
from repro.simos.filesystem import (
    Content,
    SharedFileSystem,
    SyntheticExtent,
)

#: Virtual-node tokens per physical node; smooths the ring so replica
#: load spreads evenly even with a handful of nodes.
RING_TOKENS = 16

#: File writes a ``put_chunks`` run buffers before handing them to the
#: filesystem in one call; bounds the buffered paths and the payloads a
#: forced rewrite holds beside the copies they replace.
WRITE_BATCH = 512


class _LiveHolders(dict):
    """Holder tuple -> its members on up nodes, computed on first use.

    Emptied by every availability change. Values are interned like the
    keys, so a restore groups its sources by object identity.
    """

    __slots__ = ("_up", "_interned")

    def __init__(self, up: Set[str],
                 interned: Dict[Tuple[str, ...], Tuple[str, ...]]):
        super().__init__()
        self._up = up
        self._interned = interned

    def __missing__(self, holders: Tuple[str, ...]) -> Tuple[str, ...]:
        live = tuple(node for node in holders if node in self._up)
        live = self[holders] = self._interned.setdefault(live, live)
        return live


@dataclass
class PutResult:
    """What one ``put_chunks`` run physically did, summed over its chunks.

    ``logical_write`` counts the chunks whose payload was (re)written
    as a first-class copy — the byte movement the benchmarks count —
    and ``logical_bytes`` their payload bytes; the remaining
    ``nbytes - logical_bytes`` already had a primary copy (dedup).
    ``replica_copies``/``replica_bytes`` count the *additional* copies
    created beyond the first, and ``dests`` names every node written.
    For a single chunk (:meth:`ShardedBackend.put_chunk`)
    ``logical_write`` is therefore 1 or 0.
    """

    logical_write: int = 0
    logical_bytes: int = 0
    nbytes: int = 0
    replica_copies: int = 0
    replica_bytes: int = 0
    dests: Tuple[str, ...] = ()


class ShardedBackend:
    """Replicated chunk shards on the application nodes' disks.

    ``nodes`` are the shard-hosting node names (normally the app
    nodes); ``replication_factor`` is the target copy count per chunk,
    silently capped by the number of *up* shards at write time — a
    degraded write stores what it can and relies on re-replication to
    restore RF once capacity returns.
    """

    def __init__(self, fs: SharedFileSystem, nodes: Sequence[str],
                 replication_factor: int = 2,
                 root: str = "/checkpoints/.shards"):
        if not nodes:
            raise ReplicationError(
                "*", replication_factor,
                message="ShardedBackend needs at least one shard node")
        self.fs = fs
        self.root = root
        self.nodes: List[str] = sorted(nodes)
        self.replication_factor = max(1, min(int(replication_factor),
                                             len(self.nodes)))
        self._up: Set[str] = set(self.nodes)
        # The hash ring: RING_TOKENS virtual tokens per node, sorted by
        # token hash. Placement walks clockwise from the chunk id.
        ring: List[Tuple[str, str]] = []
        for node in self.nodes:
            for index in range(RING_TOKENS):
                token = hashlib.sha256(
                    f"{node}|{index}".encode()).hexdigest()
                ring.append((token, node))
        ring.sort()
        self._ring = ring
        self._ring_keys = [token for token, _node in ring]
        # Hot-path caches. Placement is a pure function of the up-set,
        # so results are memoized until mark_down/mark_up; the holder
        # index mirrors the shard directories (every chunk mutation
        # goes through this class, and re-attaching over an existing
        # filesystem rebuilds it here). ``total_copies``, ``scan`` and
        # ``scan_node`` stay filesystem-backed so the deep store audit
        # checks ground truth rather than the index.
        self._placement_cache: Dict[Optional[str],
                                    Dict[str, Tuple[str, ...]]] = {}
        #: Every node tuple handed out (holders, live holders,
        #: placements), canonical object by value.
        self._tuples: Dict[Tuple[str, ...], Tuple[str, ...]] = {(): ()}
        #: (holders, nodes written) -> the union, sorted and interned.
        self._unions: Dict[Tuple[Tuple[str, ...], Tuple[str, ...]],
                           Tuple[str, ...]] = {}
        #: cid -> sorted holder tuple; a chunk with no copy has no entry.
        self._holder_index: Dict[str, Tuple[str, ...]] = {}
        self._live = _LiveHolders(self._up, self._tuples)
        for node in self.nodes:
            for cid in self.scan_node(node):
                self._holder_index[cid] = self._union(
                    self._holder_index.get(cid, ()), (node,))

    # -- holder tuples -----------------------------------------------------

    def _union(self, holders: Tuple[str, ...],
               added: Tuple[str, ...]) -> Tuple[str, ...]:
        """``holders`` plus ``added`` as a holder tuple."""
        union = tuple(sorted(set(holders).union(added)))
        union = self._unions[holders, added] = \
            self._tuples.setdefault(union, union)
        return union

    def _drop_holders(self, cid: str, gone: Sequence[str]) -> None:
        """Take ``gone`` out of ``cid``'s holders (the entry with the
        last of them)."""
        left = tuple(node for node in self._holder_index[cid]
                     if node not in gone)
        if left:
            self._holder_index[cid] = self._tuples.setdefault(left, left)
        else:
            del self._holder_index[cid]

    # -- ring placement ----------------------------------------------------

    def _successors(self, cid: str) -> Iterator[str]:
        """Distinct node names clockwise from ``cid`` on the ring."""
        start = bisect.bisect_left(self._ring_keys, cid)
        seen: Set[str] = set()
        for offset in range(len(self._ring)):
            _token, node = self._ring[(start + offset) % len(self._ring)]
            if node not in seen:
                seen.add(node)
                yield node

    def _writer_cache(self, writer: Optional[str]
                      ) -> Dict[str, Tuple[str, ...]]:
        """The memoized ``cid -> placement`` table of one writer."""
        cache = self._placement_cache.get(writer)
        if cache is None:
            cache = self._placement_cache[writer] = {}
        return cache

    def placement(self, cid: str,
                  writer: Optional[str] = None) -> Tuple[str, ...]:
        """The up nodes that should hold ``cid``, primary first.

        Writer affinity: a known writer always takes the primary copy,
        and the remaining RF-1 copies go to the chunk's ring successors
        (skipping the writer and any down node).
        """
        cache = self._writer_cache(writer)
        cached = cache.get(cid)
        if cached is not None:
            return cached
        dests: List[str] = []
        if writer is not None and writer in self._up:
            dests.append(writer)
        if len(dests) < self.replication_factor:
            ring = self._ring
            count = len(ring)
            start = bisect.bisect_left(self._ring_keys, cid)
            for offset in range(count):
                node = ring[(start + offset) % count][1]
                if node in self._up and node not in dests:
                    dests.append(node)
                    if len(dests) >= self.replication_factor:
                        break
        found = tuple(dests)
        result = cache[cid] = self._tuples.setdefault(found, found)
        return result

    def placements(self, cids: Sequence[str], writer: Optional[str]
                   ) -> Dict[Tuple[str, ...], int]:
        """How many of ``cids`` land on each distinct placement.

        One writer sees at most nodes^(RF-1) distinct placements, so a
        save plan splits a run of pages per destination disk by
        counting these instead of walking the ring page by page.
        """
        found = list(map(self._writer_cache(writer).get, cids))
        if None in found:
            placement = self.placement
            found = [dests if dests is not None else placement(cid, writer)
                     for cid, dests in zip(cids, found)]
        return Counter(found)

    def repair_dest(self, cid: str) -> Optional[str]:
        """The next up non-holder in ring order, for re-replication."""
        holding = self.holders(cid)
        for node in self._successors(cid):
            if node in self._up and node not in holding:
                return node
        return None

    # -- core protocol -----------------------------------------------------

    def _path(self, node: str, cid: str) -> str:
        return f"{self.root}/{node}/{cid[:2]}/{cid}"

    def put_chunks(self, cids: Sequence[str],
                   payload_of: Callable[[str], Content],
                   writer: Optional[str], force: bool) -> PutResult:
        """Store a run of chunks; returns the summed :class:`PutResult`.

        Each chunk goes to every node of its placement that does not
        hold it yet (``force`` rewrites the ones that do). A chunk
        that cannot be placed at all — no shard node is up — is a typed
        :class:`ReplicationError`: nothing would hold the bytes the
        caller is about to commit a manifest for.
        """
        index = self._holder_index
        cached = self._writer_cache(writer).get
        union_of = self._unions.get
        root = self.root
        write_files = self.fs.write_files
        files: List[Tuple[str, Content]] = []
        written: Set[str] = set()
        logical_write = logical_bytes = total_bytes = 0
        replica_copies = replica_bytes = 0
        try:
            for cid in cids:
                dests = cached(cid) or self.placement(cid, writer)
                if not dests:
                    raise ReplicationError(
                        cid, self.replication_factor,
                        message=f"cannot place chunk {cid}: "
                                f"no shard node is up")
                payload = payload_of(cid)
                # A page's size is a field of its extent; len() of one
                # would be a Python call per page.
                nbytes = payload.length \
                    if type(payload) is SyntheticExtent else len(payload)
                total_bytes += nbytes
                current = index.get(cid, ())
                # Every new copy of a chunk that already has one is a
                # replica; of a fresh (or forced) chunk, all but the
                # primary are.
                extra = bool(current) and not force
                if not extra:
                    logical_write += 1
                    logical_bytes += nbytes
                prefix = cid[:2]
                grew = False
                for node in dests:
                    existed = node in current
                    if force or not existed:
                        files.append((f"{root}/{node}/{prefix}/{cid}",
                                      payload))
                        written.add(node)
                        if not existed:
                            grew = True
                            if extra:
                                replica_copies += 1
                                replica_bytes += nbytes
                    extra = True
                if grew:
                    index[cid] = union_of((current, dests)) \
                        or self._union(current, dests)
                if len(files) >= WRITE_BATCH:
                    write_files(files)
                    files.clear()
        finally:
            # Also on the way out of a failure: the holder index above
            # and the shard directories never disagree.
            write_files(files)
        return PutResult(logical_write=logical_write,
                         logical_bytes=logical_bytes, nbytes=total_bytes,
                         replica_copies=replica_copies,
                         replica_bytes=replica_bytes,
                         dests=tuple(sorted(written)))

    def put_chunk(self, cid: str, payload: Content,
                  writer: Optional[str] = None,
                  force: bool = False) -> PutResult:
        return self.put_chunks((cid,), lambda _cid: payload, writer, force)

    def read_chunks(self, cids: Sequence[str]
                    ) -> Dict[Tuple[str, ...], List[Content]]:
        """Read a run of chunks; payloads grouped by live-holder tuple.

        One rule per chunk: try its live holders in sorted order, fall
        through a copy whose file is gone (a torn replica), and raise
        :class:`ChunkMissingError` naming the queried shards only when
        none of them can serve it. The grouping is what a restore needs
        to know about its sources: which surviving disks hold how much.
        """
        index_get = self._holder_index.get
        live_of = self._live
        root = self.root
        read_file = self.fs.read_file
        grouped: Dict[Tuple[str, ...], List[Content]] = {}
        for cid in cids:
            live = live_of[index_get(cid, ())]
            for node in live:
                try:
                    payload = read_file(f"{root}/{node}/{cid[:2]}/{cid}")
                except SyscallError:
                    continue
                break
            else:
                raise ChunkMissingError(cid, self.up_nodes)
            group = grouped.get(live)
            if group is None:
                grouped[live] = [payload]
            else:
                group.append(payload)
        return grouped

    def get_chunk(self, cid: str) -> Content:
        (payloads,) = self.read_chunks((cid,)).values()
        return payloads[0]

    def has(self, cid: str) -> bool:
        """At least one copy exists somewhere (up or down shards)."""
        return cid in self._holder_index

    def scan(self) -> List[str]:
        """Every chunk id with at least one copy, sorted."""
        found: Set[str] = set()
        for node in self.nodes:
            for path in self.fs.listdir(f"{self.root}/{node}/"):
                found.add(path.rsplit("/", 1)[-1])
        return sorted(found)

    def scan_node(self, node: str) -> List[str]:
        return [cid for cid, _stored in self.stored_on(node)]

    def stored_on(self, node: str) -> List[Tuple[str, Content]]:
        """``(chunk id, what the disk holds)`` for every copy on
        ``node``, sorted by id — looked at in place, not read
        (:meth:`SharedFileSystem.scan`)."""
        return [(path.rsplit("/", 1)[-1], stored) for path, stored
                in self.fs.scan(f"{self.root}/{node}/")]

    # -- placement / availability ------------------------------------------

    def available(self, cid: str) -> bool:
        """At least one copy is readable right now."""
        return bool(self._live[self._holder_index.get(cid, ())])

    def unavailable(self, cids: Sequence[str]) -> List[str]:
        """The chunks of ``cids`` with no readable copy right now."""
        index_get = self._holder_index.get
        live_of = self._live
        return [cid for cid in cids if not live_of[index_get(cid, ())]]

    def holders(self, cid: str) -> Tuple[str, ...]:
        """Every node with a copy, sorted; equal results are one object."""
        return self._holder_index.get(cid, ())

    def live_holders(self, cid: str) -> Tuple[str, ...]:
        """The holders that are up, sorted; equal results are one object."""
        return self._live[self._holder_index.get(cid, ())]

    def total_copies(self, cid: str) -> int:
        # Deliberately filesystem-backed: the deep store audit uses
        # this as ground truth against the in-memory holder index.
        return sum(1 for node in self.nodes
                   if self.fs.exists(self._path(node, cid)))

    def chunk_size(self, cid: str) -> int:
        for node in self.holders(cid):
            return self.fs.size(self._path(node, cid))
        return 0

    def delete(self, cid: str) -> Tuple[int, int]:
        """Unlink reachable copies; down-node copies are reconciled on
        revive (see :meth:`ImageStore.reconcile_node`)."""
        nbytes = 0
        reachable = self.live_holders(cid)
        for node in reachable:
            path = self._path(node, cid)
            nbytes = self.fs.size(path)
            self.fs.unlink(path)
        if reachable:
            self._drop_holders(cid, reachable)
        return nbytes, len(reachable)

    def delete_on(self, node: str, cid: str) -> int:
        if node not in self.holders(cid):
            return 0
        path = self._path(node, cid)
        nbytes = self.fs.size(path)
        self.fs.unlink(path)
        self._drop_holders(cid, (node,))
        return nbytes

    # -- availability / repair ---------------------------------------------

    def mark_down(self, node_name: str) -> None:
        self._up.discard(node_name)
        self._placement_cache.clear()
        self._live.clear()

    def mark_up(self, node_name: str) -> None:
        if node_name in self.nodes:
            self._up.add(node_name)
            self._placement_cache.clear()
            self._live.clear()

    @property
    def up_nodes(self) -> Tuple[str, ...]:
        return tuple(node for node in self.nodes if node in self._up)

    def under_replicated(self) -> List[Tuple[str, Tuple[str, ...]]]:
        """Chunks whose live copy count is below the live RF target.

        Chunks with *zero* live copies are excluded — they cannot be
        repaired from here (the deep store audit reports them if they
        are still referenced).
        """
        target = min(self.replication_factor, len(self.up_nodes))
        out: List[Tuple[str, Tuple[str, ...]]] = []
        for cid in self.scan():
            live = self.live_holders(cid)
            if 0 < len(live) < target:
                out.append((cid, live))
        return out

    def replicate(self, cid: str, dest: str) -> int:
        """Copy ``cid`` from a surviving replica to ``dest``."""
        live = self.live_holders(cid)
        if not live:
            raise ReplicationError(cid, self.replication_factor, live)
        payload = self.get_chunk(cid)
        nbytes = self.fs.write_file(self._path(dest, cid), payload)
        self._holder_index[cid] = self._union(self.holders(cid), (dest,))
        return nbytes


#: The ``kind`` every ``.store`` layout record carries; a record with
#: any other value was not written by this store.
LAYOUT_KIND = "sharded"


def backend_config(backend: ShardedBackend) -> Dict[str, object]:
    """The pickled ``.store`` record describing a backend layout."""
    return {"kind": LAYOUT_KIND, "rf": backend.replication_factor,
            "nodes": list(backend.nodes), "root": backend.root}


def backend_from_config(fs: SharedFileSystem,
                        record: Dict[str, object]) -> ShardedBackend:
    """Rebuild a backend from a ``.store`` record (fresh availability).

    A corrupt or foreign record must not attach an empty layout (every
    chunk would then read as missing), so anything but a complete
    sharded record is a typed failure naming the record.
    """
    if not isinstance(record, dict) or record.get("kind") != LAYOUT_KIND \
            or not record.get("nodes") or "rf" not in record:
        raise StoreError(f"unusable .store layout record {record!r}: "
                         f"expected kind {LAYOUT_KIND!r} with nodes and rf")
    return ShardedBackend(
        fs, nodes=record["nodes"],
        replication_factor=record["rf"],
        root=record.get("root", "/checkpoints/.shards"))

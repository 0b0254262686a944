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
chunk is discovered from the filesystem itself (the shard directories,
looked through in sorted node order) — no extra metadata plane that
could itself be lost. The in-memory mirror of that, the *holder index*,
maps a chunk id to the sorted tuple of its holders; tuples are interned
(one object per distinct holder combination, however many chunks share
it) and the live subset of each is computed once per availability
change, so a chunk costs the index one dict slot and no object of its
own.

A chunk is one file per copy, ``root/<node>/<cid>``, and the file is
the unit of placement, refcount GC, repair, reconcile and fault
injection. A shard is one directory and a copy is a slot in it keyed by
the chunk id — the same string object the holder index and the store's
refcount table key on, so a copy costs no path string. What the file
holds is the caller's business: blobs are real bytes, memory pages are
:class:`~repro.simos.filesystem.SyntheticExtent` descriptors (see
:func:`repro.cruz.storage.page_chunk_payload`), and this module only
ever needs a payload's size.

All enumeration is sorted and all placement is a pure function of
``(chunk id, writer, availability)``, so runs remain bit-identical
under event tie-break perturbation (CruzSan's fifo/lifo check).

The chunk API takes *runs* of ids (``put_chunks``, ``read_chunks``,
``placements``, ``unavailable``) — a process image is thousands of
page chunks. A run is partitioned into the few groups of chunks that
share a placement and a holder tuple, and each group moves as one
filesystem run per shard: the work per page is C loops over aligned
lists, the Python statements are per group. ``put_chunk`` and
``get_chunk`` are the one-element cases of the first two, ``placement``
and ``available`` the one-chunk forms of the others.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections import Counter, defaultdict, deque
from dataclasses import dataclass
from itertools import compress, count, islice, repeat
from operator import not_
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ChunkMissingError, ReplicationError, StoreError
from repro.simos.filesystem import Content, SharedFileSystem, run_bytes

#: Virtual-node tokens per physical node; smooths the ring so replica
#: load spreads evenly even with a handful of nodes.
RING_TOKENS = 16

_NONE = type(None)


def _partition(keys: Iterable[Hashable]) -> Dict[Hashable, List[int]]:
    """The positions of a run split by the key at each: key -> its
    positions in run order, keys in first-seen order. ``list.append``
    mapped over the pairs and drained, so no Python statement per
    position — and positions rather than rows, because ints are nothing
    to the cyclic collector, while a tuple per chunk held for the length
    of a put is promoted a generation and buys full collections."""
    groups: Dict[Hashable, List[int]] = defaultdict(list)
    deque(map(list.append, map(groups.__getitem__, keys), count()),
          maxlen=0)
    return groups


def _pick(run: Sequence, positions: List[int]) -> Sequence:
    """``run`` at ``positions`` (itself when that is all of it)."""
    return run if len(positions) == len(run) \
        else list(map(run.__getitem__, positions))


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

    def __add__(self, other: "PutResult") -> "PutResult":
        return PutResult(
            self.logical_write + other.logical_write,
            self.logical_bytes + other.logical_bytes,
            self.nbytes + other.nbytes,
            self.replica_copies + other.replica_copies,
            self.replica_bytes + other.replica_bytes,
            tuple(sorted(set(self.dests).union(other.dests))))


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
        #: node -> its shard directory, as the filesystem names it.
        self._shards: Dict[str, str] = {
            node: f"{root}/{node}/" for node in self.nodes}
        # Hot-path caches. Placement is a pure function of the up-set
        # and of the ring arc a chunk id falls into, so each writer has
        # one table of len(ring) + 1 placements, dropped by
        # mark_down/mark_up; the holder index mirrors the shard
        # directories (every chunk mutation goes through this class,
        # and re-attaching over an existing filesystem rebuilds it
        # here). ``total_copies``, ``absent``, ``scan`` and
        # ``scan_node`` read the directories themselves so the deep
        # store audit checks ground truth rather than the index.
        self._arc_tables: Dict[Optional[str], List[Tuple[str, ...]]] = {}
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
            for cid in self._copies(node):
                self._holder_index[cid] = self._union(
                    self._holder_index.get(cid, ()), (node,))

    # -- holder tuples -----------------------------------------------------

    def _union(self, holders: Tuple[str, ...],
               added: Tuple[str, ...]) -> Tuple[str, ...]:
        """``holders`` plus ``added`` as a holder tuple."""
        union = self._unions.get((holders, added))
        if union is None:
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
        return self._clockwise(bisect_left(self._ring_keys, cid))

    def _clockwise(self, arc: int) -> Iterator[str]:
        """Distinct node names clockwise from the ring's ``arc``-th
        token (``len(ring)`` wraps to the first)."""
        seen: Set[str] = set()
        for offset in range(len(self._ring)):
            _token, node = self._ring[(arc + offset) % len(self._ring)]
            if node not in seen:
                seen.add(node)
                yield node

    def _arc_table(self, writer: Optional[str]) -> List[Tuple[str, ...]]:
        """One writer's placement per ring arc. A chunk id bisects into
        one of ``len(ring) + 1`` arcs and its placement is a function
        of that arc alone (and the up-set: availability changes drop
        the tables)."""
        table = self._arc_tables.get(writer)
        if table is None:
            up = self._up
            first = (writer,) if writer in up else ()
            table = self._arc_tables[writer] = []
            for arc in range(len(self._ring) + 1):
                others = (node for node in self._clockwise(arc)
                          if node in up and node != writer)
                found = first + tuple(islice(
                    others, self.replication_factor - len(first)))
                table.append(self._tuples.setdefault(found, found))
        return table

    def placement(self, cid: str,
                  writer: Optional[str] = None) -> Tuple[str, ...]:
        """The up nodes that should hold ``cid``, primary first.

        Writer affinity: a known writer always takes the primary copy,
        and the remaining RF-1 copies go to the chunk's ring successors
        (skipping the writer and any down node).
        """
        return self._arc_table(writer)[bisect_left(self._ring_keys, cid)]

    def _arcs(self, cids: Sequence[str]) -> Iterator[int]:
        """The ring arc each of ``cids`` bisects into, lazily."""
        return map(bisect_left, repeat(self._ring_keys), cids)

    def placements(self, cids: Sequence[str], writer: Optional[str]
                   ) -> Dict[Tuple[str, ...], int]:
        """How many of ``cids`` land on each distinct placement.

        One writer sees at most nodes^(RF-1) distinct placements, so a
        save plan splits a run of pages per destination disk by
        counting these — the run's arcs first, then the few arcs into
        placements — instead of walking the ring page by page.
        """
        table = self._arc_table(writer)
        found: Dict[Tuple[str, ...], int] = Counter()
        for arc, count in Counter(self._arcs(cids)).items():
            found[table[arc]] += count
        return found

    def repair_dest(self, cid: str) -> Optional[str]:
        """The next up non-holder in ring order, for re-replication."""
        holding = self.holders(cid)
        for node in self._successors(cid):
            if node in self._up and node not in holding:
                return node
        return None

    # -- core protocol -----------------------------------------------------

    def _path(self, node: str, cid: str) -> str:
        return self._shards[node] + cid

    def _copies(self, node: str) -> Dict[str, Content]:
        """What ``node``'s disk holds, ``cid -> stored value``: its
        shard directory itself, looked at in place."""
        return self.fs.directory(self._shards[node])

    def put_chunks(self, cids: Sequence[str], payloads: Sequence[Content],
                   writer: Optional[str], force: bool) -> PutResult:
        """Store a run of chunks, ``payloads`` aligned with ``cids``;
        returns the summed :class:`PutResult`.

        Each chunk goes to every node of its placement that does not
        hold it yet (``force`` rewrites the ones that do). A run that
        cannot be placed at all — no shard node is up — is a typed
        :class:`ReplicationError` before anything has moved: nothing
        would hold the bytes the caller is about to commit a manifest
        for.
        """
        result = PutResult()
        if not cids:
            return result
        if not self._up:
            raise ReplicationError(
                cids[0], self.replication_factor,
                message=f"cannot place chunk {cids[0]}: "
                        f"no shard node is up")
        if len(set(cids)) < len(cids):
            # An id listed twice is put twice, the second time against
            # what the first left: later occurrences make a follow-up
            # run (which splits again if it must).
            seen: Set[str] = set()
            first: List[Tuple[str, Content]] = []
            later: List[Tuple[str, Content]] = []
            for row in zip(cids, payloads):
                (later if row[0] in seen else first).append(row)
                seen.add(row[0])
            return self.put_chunks(*zip(*first), writer, force) \
                + self.put_chunks(*zip(*later), writer, force)
        index = self._holder_index
        write_run = self.fs.write_run
        written: Set[str] = set()
        groups = _partition(zip(
            map(self._arc_table(writer).__getitem__, self._arcs(cids)),
            map(index.get, cids, repeat(()))))
        for (dests, current), positions in groups.items():
            ids = _pick(cids, positions)
            contents = _pick(payloads, positions)
            new = [node for node in dests if node not in current]
            targets = dests if force else new
            wrote = [write_run(self._shards[node], ids, contents)
                     for node in targets]
            written.update(targets)
            nbytes = wrote[0] if wrote else run_bytes(contents)
            result.nbytes += nbytes
            # Every new copy of a chunk that already has one is a
            # replica; of a fresh (or forced) chunk, all but the
            # primary are.
            replicas = len(new)
            if force or not current:
                result.logical_write += len(ids)
                result.logical_bytes += nbytes
                if dests[0] not in current:
                    replicas -= 1
            result.replica_copies += replicas * len(ids)
            result.replica_bytes += replicas * nbytes
            if new:
                index.update(zip(ids, repeat(self._union(current, dests))))
        result.dests = tuple(sorted(written))
        return result

    def put_chunk(self, cid: str, payload: Content,
                  writer: Optional[str] = None,
                  force: bool = False) -> PutResult:
        return self.put_chunks((cid,), (payload,), writer, force)

    def read_chunks(self, cids: Sequence[str]
                    ) -> Dict[Tuple[str, ...], List[Content]]:
        """Read a run of chunks; payloads grouped by live-holder tuple.

        One rule per chunk: try its live holders in sorted order, fall
        through a copy whose file is gone (a torn replica), and raise
        :class:`ChunkMissingError` naming the queried shards only when
        none of them can serve it — for the first such chunk of the
        run, with ``bytes_read`` counting the chunks before it and no
        more. The grouping is what a restore needs to know about its
        sources: which surviving disks hold how much.
        """
        read_run = self.fs.read_run
        runs = {live: _pick(cids, positions) for live, positions
                in _partition(self._live_of(cids)).items()}
        grouped: Dict[Tuple[str, ...], List[Content]] = {}
        missed = False
        for live, ids in runs.items():
            found = grouped[live] = read_run(self._shards[live[0]], ids) \
                if live else [None] * len(ids)
            fallbacks = iter(live[1:])
            # Not ``None in found``: an extent's ``__eq__`` per page.
            while _NONE in set(map(type, found)):
                node = next(fallbacks, None)
                if node is None:
                    missed = True
                    break
                holes = [position for position, payload in enumerate(found)
                         if payload is None]
                for hole, payload in zip(holes, read_run(
                        self._shards[node], [ids[hole] for hole in holes])):
                    found[hole] = payload
        if missed:
            # Rare enough to be plain about. The error is the one a
            # chunk-by-chunk read raises: the first miss in run order,
            # nothing read after it counted.
            served: Dict[str, Optional[Content]] = {}
            for live, ids in runs.items():
                served.update(zip(ids, grouped[live]))
            at = next(position for position, cid in enumerate(cids)
                      if served[cid] is None)
            self.fs.bytes_read -= run_bytes(
                [served[cid] for cid in cids[at + 1:]
                 if served[cid] is not None])
            raise ChunkMissingError(cids[at], self.up_nodes)
        return grouped

    def get_chunk(self, cid: str) -> Content:
        (payloads,) = self.read_chunks((cid,)).values()
        return payloads[0]

    def has(self, cid: str) -> bool:
        """At least one copy exists somewhere (up or down shards)."""
        return cid in self._holder_index

    def scan(self) -> List[str]:
        """Every chunk id with at least one copy, sorted."""
        return sorted(set().union(*map(self._copies, self.nodes)))

    def scan_node(self, node: str) -> List[str]:
        return sorted(self._copies(node))

    def stored_on(self, node: str) -> List[Tuple[str, Content]]:
        """``(chunk id, what the disk holds)`` for every copy on
        ``node``, sorted by id — looked at in place, not read."""
        return sorted(self._copies(node).items())

    def absent(self, cids: Iterable[str]) -> List[str]:
        """The chunks of ``cids`` that no shard, up or down, holds a
        copy of, sorted. Read from the directories, like
        :meth:`total_copies`."""
        return sorted(set(cids).difference(*map(self._copies, self.nodes)))

    # -- placement / availability ------------------------------------------

    def available(self, cid: str) -> bool:
        """At least one copy is readable right now."""
        return bool(self._live[self._holder_index.get(cid, ())])

    def unavailable(self, cids: Sequence[str]) -> List[str]:
        """The chunks of ``cids`` with no readable copy right now."""
        return list(compress(cids, map(not_, self._live_of(cids))))

    def _live_of(self, cids: Sequence[str]
                 ) -> Iterator[Tuple[str, ...]]:
        """:meth:`live_holders` of each of ``cids``, lazily."""
        return map(self._live.__getitem__,
                   map(self._holder_index.get, cids, repeat(())))

    def holders(self, cid: str) -> Tuple[str, ...]:
        """Every node with a copy, sorted; equal results are one object."""
        return self._holder_index.get(cid, ())

    def live_holders(self, cid: str) -> Tuple[str, ...]:
        """The holders that are up, sorted; equal results are one object."""
        return self._live[self._holder_index.get(cid, ())]

    def total_copies(self, cid: str) -> int:
        # Deliberately filesystem-backed: the deep store audit uses
        # this as ground truth against the in-memory holder index.
        return sum(cid in self._copies(node) for node in self.nodes)

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
        self._arc_tables.clear()
        self._live.clear()

    def mark_up(self, node_name: str) -> None:
        if node_name in self.nodes:
            self._up.add(node_name)
            self._arc_tables.clear()
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

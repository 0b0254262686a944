"""The event queue of the discrete-event kernel.

:class:`CalendarEventQueue` orders entries by ``(time, priority,
sequence)`` and supports **true cancellation**: a cancelled entry is
tombstoned in place (O(1)) and reclaimed either lazily at pop time or
eagerly by a threshold-triggered compaction, so dead timers can never
come to dominate the queue.

It is a calendar/bucketed queue: a ring of power-of-two-width time
buckets covers the near future, each bucket a small heap; events beyond
the ring land in an overflow heap and migrate into the ring as the
window advances. Near-term churn (network frames, slot timers) then
costs ``O(log bucket)`` instead of ``O(log everything)``, and far-future
timers never inflate the hot buckets.

Entries are 4-lists ``[time, priority, signed_seq, event]`` (lists, not
tuples, so cancellation can overwrite the event slot in place). The
signed sequence is unique per entry, so heap comparisons never reach the
event object, for both ``fifo`` (+seq) and ``lifo`` (-seq) policies.
The pop order is that of one monolithic binary heap over the same keys;
the reference heap the property tests diff against lives in
``tests/heap_eventq.py``.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Dict, List, Optional

#: A tombstoned entry's event slot.
_DEAD = None

#: Compaction fires when dead entries outnumber live ones *and* exceed
#: this floor (so tiny queues never bother).
COMPACT_MIN_DEAD = 64

#: Calendar geometry: power-of-two bucket width and ring size. The ring
#: spans ``width * nbuckets`` seconds of near future (~125 ms with the
#: defaults) — wide enough for the network/timer-slot hot path, while
#: RTO/keepalive/TIME-WAIT scale timers sit in the overflow heap.
DEFAULT_BUCKET_WIDTH = 2.0 ** -10
DEFAULT_NBUCKETS = 128

Entry = List[Any]  # [time, priority, signed_seq, event-or-None]


class _QueueStats:
    """The counters ``stats()`` exposes."""

    __slots__ = ("pushed", "popped", "cancelled", "dead_popped",
                 "compactions", "peak_live")

    def __init__(self) -> None:
        self.pushed = 0
        self.popped = 0
        self.cancelled = 0
        self.dead_popped = 0
        self.compactions = 0
        self.peak_live = 0


class CalendarEventQueue:
    """Calendar queue: bucket ring for the near future, heap overflow.

    The pop order is bit-identical to a monolithic binary heap for any
    push/cancel sequence — the property tests in
    ``tests/test_eventq.py`` drive both side by side and assert it.
    """

    def __init__(self, sequence_sign: int = 1,
                 bucket_width: float = DEFAULT_BUCKET_WIDTH,
                 nbuckets: int = DEFAULT_NBUCKETS):
        if bucket_width <= 0 or nbuckets < 2:
            raise ValueError("bad calendar geometry")
        self._sign = sequence_sign
        self._seq = 0
        self._width = bucket_width
        self._inv_width = 1.0 / bucket_width
        self._n = nbuckets
        self._ring: List[List[Entry]] = [[] for _ in range(nbuckets)]
        #: Absolute index of the bucket the cursor is on; the ring
        #: window is [_cur, _cur + _n) absolute buckets.
        self._cur = 0
        self._near = 0            # entries (live+dead) in the ring
        self._overflow: List[Entry] = []
        self._live = 0
        self._dead = 0
        self._stats = _QueueStats()

    def __len__(self) -> int:
        return self._live

    # -- internals -------------------------------------------------------

    def _bucket_of(self, time: float) -> int:
        index = int(time * self._inv_width)
        # Events may be scheduled for "now" after the cursor has already
        # skipped ahead over empty buckets; clamping keeps them poppable
        # (bucket heaps are ordered by the full key, so an earlier time
        # placed in the cursor bucket still pops first).
        return index if index > self._cur else self._cur

    def _migrate(self) -> None:
        """Pull overflow entries that the window now covers into it."""
        overflow = self._overflow
        horizon = (self._cur + self._n) * self._width
        while overflow and overflow[0][0] < horizon:
            entry = heappop(overflow)
            heappush(self._ring[self._bucket_of(entry[0]) % self._n],
                     entry)
            self._near += 1

    def _advance(self) -> List[Entry]:
        """Move the cursor to the next non-empty bucket (near > 0)."""
        bucket = self._ring[self._cur % self._n]
        while not bucket:
            self._cur += 1
            self._migrate()
            bucket = self._ring[self._cur % self._n]
        return bucket

    # -- queue API -------------------------------------------------------

    def push(self, time: float, priority: int, event: Any) -> Entry:
        seq = self._seq = self._seq + 1
        entry: Entry = [time, priority, self._sign * seq, event]
        # _bucket_of inlined: this is the hottest call in the simulator.
        cur = self._cur
        index = int(time * self._inv_width)
        if index <= cur:
            index = cur
        if index < cur + self._n:
            heappush(self._ring[index % self._n], entry)
            self._near += 1
        else:
            heappush(self._overflow, entry)
        live = self._live = self._live + 1
        stats = self._stats
        stats.pushed += 1
        if live > stats.peak_live:
            stats.peak_live = live
        return entry

    def cancel(self, entry: Entry) -> None:
        if entry[3] is _DEAD:
            return
        entry[3] = _DEAD
        self._live -= 1
        self._dead += 1
        self._stats.cancelled += 1
        if self._dead > COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        for index, bucket in enumerate(self._ring):
            if bucket:
                kept = [e for e in bucket if e[3] is not _DEAD]
                kept_len = len(kept)
                if kept_len != len(bucket):
                    self._near -= len(bucket) - kept_len
                    heapify(kept)
                    self._ring[index] = kept
        overflow = [e for e in self._overflow if e[3] is not _DEAD]
        heapify(overflow)
        self._overflow = overflow
        self._dead = 0
        self._stats.compactions += 1

    def pop(self) -> Entry:
        stats = self._stats
        while True:
            if self._near:
                bucket = self._advance()
                entry = heappop(bucket)
                self._near -= 1
                if entry[3] is _DEAD:
                    self._dead -= 1
                    stats.dead_popped += 1
                    continue
                self._live -= 1
                stats.popped += 1
                return entry
            if self._overflow:
                # Ring exhausted: jump the window to the overflow head.
                head_time = self._overflow[0][0]
                index = int(head_time * self._inv_width)
                if index > self._cur:
                    self._cur = index
                self._migrate()
                continue
            raise IndexError("pop from an empty event queue")

    def reinsert(self, entry: Entry) -> None:
        """Push back a just-popped live entry, key (incl. sequence) intact.

        The schedule-oracle hook pops every entry tied on
        ``(time, priority)`` to present them as a choice, then returns
        the unchosen ones. Placement mirrors :meth:`push` (ring bucket
        when the window covers the entry's time, overflow heap
        otherwise) without minting a new sequence number, so tie order
        is untouched; the pop's effect on the live/popped counters is
        undone so ``stats()`` reflects net work.
        """
        cur = self._cur
        index = int(entry[0] * self._inv_width)
        if index <= cur:
            index = cur
        if index < cur + self._n:
            heappush(self._ring[index % self._n], entry)
            self._near += 1
        else:
            heappush(self._overflow, entry)
        self._live += 1
        self._stats.popped -= 1

    def pop_due(self, limit: float) -> Optional[Entry]:
        """Pop the next live entry due at or before ``limit``, else None."""
        ring = self._ring
        n = self._n
        while True:
            if self._near:
                # _advance inlined (hot loop): walk the cursor to the
                # next non-empty bucket, migrating overflow as the
                # window slides.
                bucket = ring[self._cur % n]
                while not bucket:
                    self._cur += 1
                    self._migrate()
                    bucket = ring[self._cur % n]
                head = bucket[0]
                if head[3] is _DEAD:
                    heappop(bucket)
                    self._near -= 1
                    self._dead -= 1
                    self._stats.dead_popped += 1
                    continue
                if head[0] > limit:
                    return None
                heappop(bucket)
                self._near -= 1
                self._live -= 1
                self._stats.popped += 1
                return head
            if self._overflow:
                head_time = self._overflow[0][0]
                if head_time > limit:
                    # The overflow head has the smallest key out there; a
                    # dead head still bounds every live entry's time.
                    return None
                index = int(head_time * self._inv_width)
                if index > self._cur:
                    self._cur = index
                self._migrate()
                continue
            return None

    def peek(self) -> float:
        stats = self._stats
        while True:
            if self._near:
                bucket = self._advance()
                if bucket[0][3] is _DEAD:
                    heappop(bucket)
                    self._near -= 1
                    self._dead -= 1
                    stats.dead_popped += 1
                    continue
                return bucket[0][0]
            overflow = self._overflow
            while overflow:
                if overflow[0][3] is _DEAD:
                    heappop(overflow)
                    self._dead -= 1
                    stats.dead_popped += 1
                    continue
                return overflow[0][0]
            return math.inf

    def stats(self) -> Dict[str, int]:
        s = self._stats
        return {
            "live": self._live, "dead": self._dead,
            "near": self._near, "overflow": len(self._overflow),
            "pushed": s.pushed, "popped": s.popped,
            "cancelled": s.cancelled, "dead_popped": s.dead_popped,
            "compactions": s.compactions, "peak_live": s.peak_live,
        }

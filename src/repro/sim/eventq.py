"""The event queue of the discrete-event kernel: one binary heap.

:class:`HeapEventQueue` orders entries by ``(time, priority, sequence)``
and supports **true cancellation**: a cancelled entry is tombstoned in
place (O(1)) and reclaimed either lazily at pop time or eagerly by a
threshold-triggered compaction, so dead timers can never come to
dominate the queue.

Entries are 4-lists ``[time, priority, signed_seq, event]`` (lists, not
tuples, so cancellation can overwrite the event slot in place). The
signed sequence is unique per entry, so heap comparisons never reach the
event object, for both ``fifo`` (+seq) and ``lifo`` (-seq) policies.

The heap list is never rebound (compaction rewrites it in place), so
the simulator's drive loop holds it and pops it in line with C
``heappop``, updating :attr:`HeapEventQueue.popped` and the tombstone
counters itself; the methods here are the same pops for every other
caller.
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

Entry = List[Any]  # [time, priority, signed_seq, event-or-None]


class HeapEventQueue:
    """One binary heap over ``[time, priority, signed_seq, event]``.

    The live count is not kept: it is ``pushed - popped - cancelled``
    (a :meth:`reinsert` undoes its pop), so a pop moves one counter.
    """

    __slots__ = ("_sign", "_heap", "_dead", "pushed", "popped",
                 "cancelled", "dead_popped", "compactions", "peak_live")

    def __init__(self, sequence_sign: int = 1):
        self._sign = sequence_sign
        self._heap: List[Entry] = []
        self._dead = 0
        #: Also the sequence counter: the n-th push carries sequence n.
        self.pushed = 0
        self.popped = 0
        self.cancelled = 0
        self.dead_popped = 0
        self.compactions = 0
        self.peak_live = 0

    def __len__(self) -> int:
        return self.pushed - self.popped - self.cancelled

    def push(self, time: float, priority: int, event: Any) -> Entry:
        seq = self.pushed = self.pushed + 1
        entry: Entry = [time, priority, self._sign * seq, event]
        heappush(self._heap, entry)
        live = seq - self.popped - self.cancelled
        if live > self.peak_live:
            self.peak_live = live
        return entry

    def cancel(self, entry: Entry) -> None:
        if entry[3] is _DEAD:
            return
        entry[3] = _DEAD
        self._dead += 1
        self.cancelled += 1
        if self._dead > COMPACT_MIN_DEAD and self._dead > len(self):
            self._compact()

    def _compact(self) -> None:
        heap = self._heap
        heap[:] = [e for e in heap if e[3] is not _DEAD]
        heapify(heap)
        self._dead = 0
        self.compactions += 1

    def pop(self) -> Entry:
        """Remove and return the next live entry; IndexError if none."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[3] is _DEAD:
                self._dead -= 1
                self.dead_popped += 1
                continue
            self.popped += 1
            return entry
        raise IndexError("pop from an empty event queue")

    def reinsert(self, entry: Entry) -> None:
        """Push back a just-popped live entry, key (incl. sequence) intact.

        The schedule-oracle hook pops every entry tied on
        ``(time, priority)`` to present them as a choice, then returns
        the unchosen ones. Reinsertion preserves the original signed
        sequence — tie order is untouched — and undoes the pop's effect
        on the counters so ``stats()`` reflects net work.
        """
        heappush(self._heap, entry)
        self.popped -= 1

    def pop_due(self, limit: float) -> Optional[Entry]:
        """Pop the next live entry due at or before ``limit``, else None
        — shedding the tombstones due by then, nothing beyond it."""
        heap = self._heap
        while heap and heap[0][0] <= limit:
            head = heappop(heap)
            if head[3] is _DEAD:
                self._dead -= 1
                self.dead_popped += 1
                continue
            self.popped += 1
            return head
        return None

    def peek(self) -> float:
        """Time of the next live entry, or ``inf``."""
        heap = self._heap
        while heap:
            if heap[0][3] is _DEAD:
                heappop(heap)
                self._dead -= 1
                self.dead_popped += 1
                continue
            return heap[0][0]
        return math.inf

    def stats(self) -> Dict[str, int]:
        return {
            "live": len(self), "dead": self._dead,
            "pushed": self.pushed, "popped": self.popped,
            "cancelled": self.cancelled, "dead_popped": self.dead_popped,
            "compactions": self.compactions, "peak_live": self.peak_live,
        }

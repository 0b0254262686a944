"""The reference event queue: one monolithic binary heap.

Moved verbatim out of ``repro.sim.eventq`` when the calendar queue
became the simulator's only queue. The property tests diff the calendar
queue's pop order against this class, so it stays bit-exact and is not
to be optimised.
"""

import math
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Any

from repro.sim.eventq import COMPACT_MIN_DEAD, Entry, _DEAD, _QueueStats


class HeapEventQueue:
    """The reference monolithic heap, with tombstone cancellation."""

    KIND = "heap"

    def __init__(self, sequence_sign: int = 1):
        self._sign = sequence_sign
        self._seq = 0
        self._heap: List[Entry] = []
        self._live = 0
        self._dead = 0
        self._stats = _QueueStats()

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, priority: int, event: Any) -> Entry:
        seq = self._seq = self._seq + 1
        entry: Entry = [time, priority, self._sign * seq, event]
        heappush(self._heap, entry)
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
        self._heap = [e for e in self._heap if e[3] is not _DEAD]
        heapify(self._heap)
        self._dead = 0
        self._stats.compactions += 1

    def pop(self) -> Entry:
        """Remove and return the next live entry; IndexError if none."""
        heap = self._heap
        stats = self._stats
        while heap:
            entry = heappop(heap)
            if entry[3] is _DEAD:
                self._dead -= 1
                stats.dead_popped += 1
                continue
            self._live -= 1
            stats.popped += 1
            return entry
        raise IndexError("pop from an empty event queue")

    def reinsert(self, entry: Entry) -> None:
        """Push back a just-popped live entry, key (incl. sequence) intact.

        The schedule-oracle hook pops every entry tied on
        ``(time, priority)`` to present them as a choice, then returns
        the unchosen ones. Reinsertion preserves the original signed
        sequence — tie order is untouched — and undoes the pop's effect
        on the live/popped counters so ``stats()`` reflects net work.
        """
        heappush(self._heap, entry)
        self._live += 1
        self._stats.popped -= 1

    def pop_due(self, limit: float) -> Optional[Entry]:
        """Pop the next live entry due at or before ``limit``, else None.

        One call replaces the ``len``/``peek``/``pop`` triple in the
        simulator's hot loop.
        """
        heap = self._heap
        while heap:
            head = heap[0]
            if head[3] is _DEAD:
                heappop(heap)
                self._dead -= 1
                self._stats.dead_popped += 1
                continue
            if head[0] > limit:
                return None
            heappop(heap)
            self._live -= 1
            self._stats.popped += 1
            return head
        return None

    def peek(self) -> float:
        """Time of the next live entry, or ``inf``."""
        heap = self._heap
        stats = self._stats
        while heap:
            if heap[0][3] is _DEAD:
                heappop(heap)
                self._dead -= 1
                stats.dead_popped += 1
                continue
            return heap[0][0]
        return math.inf

    def stats(self) -> Dict[str, int]:
        s = self._stats
        return {
            "kind": self.KIND, "live": self._live, "dead": self._dead,
            "pushed": s.pushed, "popped": s.popped,
            "cancelled": s.cancelled, "dead_popped": s.dead_popped,
            "compactions": s.compactions, "peak_live": s.peak_live,
        }

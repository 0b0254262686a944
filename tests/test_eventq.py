"""Event-queue equivalence and cancellation-leak regression tests.

The calendar queue's contract is bit-identical pop order with the
reference heap for *any* interleaving of pushes and cancels, under both
tie-break policies. The seeded property test here drives both queues
side by side; the Simulator-level tests pin the cancellation fix the
refactor shipped (a cancelled timer reclaims its slot instead of
lingering until its pop time).
"""

import random

import pytest

from repro.sim.core import Simulator
from repro.sim.eventq import COMPACT_MIN_DEAD, CalendarEventQueue

from tests.heap_eventq import HeapEventQueue

QUEUES = (HeapEventQueue, CalendarEventQueue)


def _drive_both(seed, sign, ops=4000):
    """Apply one seeded op sequence to both queues; return pop streams."""
    rng = random.Random(seed)
    heap = HeapEventQueue(sequence_sign=sign)
    calendar = CalendarEventQueue(sequence_sign=sign)
    # Parallel entry handles so a cancel hits "the same" entry in both.
    # A popped entry leaves the pool (the Simulator upholds the same
    # contract by clearing _qentry when it pops an event).
    pairs = {}
    popped_heap = []
    popped_cal = []
    token = 0
    clock = 0.0
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.55 or not pairs:
            token += 1
            # Mix of near-future (in the ring), far-future (overflow),
            # and exactly-now times, with colliding priorities.
            time = clock + rng.choice(
                (0.0, rng.random() * 0.01, rng.random() * 10.0))
            priority = rng.choice((0, 0, 0, 5, 10))
            pairs[token] = (heap.push(time, priority, token),
                            calendar.push(time, priority, token))
        elif roll < 0.80:
            victim = rng.choice(sorted(pairs))
            entry_h, entry_c = pairs.pop(victim)
            heap.cancel(entry_h)
            calendar.cancel(entry_c)
        else:
            limit = clock + rng.random() * 0.05
            while True:
                got_h = heap.pop_due(limit)
                got_c = calendar.pop_due(limit)
                assert (got_h is None) == (got_c is None)
                if got_h is None:
                    break
                popped_heap.append(tuple(got_h))
                popped_cal.append(tuple(got_c))
                pairs.pop(got_h[3], None)
                clock = max(clock, got_h[0])
    # Drain whatever is left through the unbounded pop.
    while len(heap):
        popped_heap.append(tuple(heap.pop()))
    while len(calendar):
        popped_cal.append(tuple(calendar.pop()))
    return popped_heap, popped_cal


@pytest.mark.parametrize("sign", [1, -1], ids=["fifo", "lifo"])
@pytest.mark.parametrize("seed", range(8))
def test_calendar_matches_heap_pop_order(seed, sign):
    popped_heap, popped_cal = _drive_both(seed, sign)
    assert popped_heap == popped_cal
    assert popped_heap  # the sequence actually exercised pops


def test_calendar_overflow_migrates_in_order():
    calendar = CalendarEventQueue(bucket_width=2.0 ** -10, nbuckets=4)
    # Far beyond the 4-bucket window: everything lands in overflow.
    for k in range(50):
        calendar.push(1.0 + k * 0.001, 0, k)
    order = [calendar.pop()[3] for _ in range(50)]
    assert order == list(range(50))
    stats = calendar.stats()
    assert stats["popped"] == 50
    assert stats["overflow"] == 0


def test_pop_due_respects_limit_and_skips_dead():
    for queue_cls in QUEUES:
        queue = queue_cls()
        early = queue.push(1.0, 0, "early")
        queue.push(2.0, 0, "late")
        queue.cancel(early)
        assert queue.pop_due(0.5) is None
        assert queue.pop_due(1.5) is None      # only a tombstone there
        assert queue.pop_due(2.5)[3] == "late"
        assert queue.pop_due(2.5) is None


def test_cancel_is_idempotent_and_counted():
    for queue_cls in QUEUES:
        queue = queue_cls()
        entry = queue.push(1.0, 0, "x")
        queue.cancel(entry)
        queue.cancel(entry)                    # second cancel is a no-op
        stats = queue.stats()
        assert stats["cancelled"] == 1
        assert len(queue) == 0


def test_compaction_reclaims_dead_entries():
    for queue_cls in QUEUES:
        queue = queue_cls()
        entries = [queue.push(1.0 + k * 1e-4, 0, k)
                   for k in range(4 * COMPACT_MIN_DEAD)]
        survivor = queue.push(99.0, 0, "survivor")
        for entry in entries:
            queue.cancel(entry)
        stats = queue.stats()
        assert stats["compactions"] >= 1, queue_cls
        assert stats["dead"] <= COMPACT_MIN_DEAD, queue_cls
        assert queue.pop()[3] == "survivor"


# ---------------------------------------------------------------------------
# The Simulator.cancel() leak fix (ISSUE satellite): 100k armed-then-
# cancelled timers must not accumulate in the queue.
# ---------------------------------------------------------------------------

N_CHURN = 100_000


def test_simulator_cancel_keeps_queue_bounded():
    sim = Simulator()
    for k in range(N_CHURN):
        event = sim.call_later(60.0, lambda: None)
        sim.cancel(event)
    stats = sim.stats()
    assert stats["cancelled"] == N_CHURN
    # True cancellation: the compactor keeps dead entries from piling
    # up, so the queue held only a sliver of the churn at any moment.
    assert stats["live"] == 0
    assert stats["dead"] <= COMPACT_MIN_DEAD
    sim.run()
    assert sim.now == 0.0  # nothing was left to pop the clock forward


def test_defer_is_fire_and_forget_and_ordered():
    sim = Simulator()
    order = []
    sim.defer(2.0, order.append, "b")
    sim.defer(1.0, order.append, "a")
    sim.defer(1.0, order.append, "a2")         # fifo tie-break
    sim.run()
    assert order == ["a", "a2", "b"]
    assert sim.now == 2.0


def test_defer_matches_call_later_interleaving():
    """defer entries and Event entries share one total order."""
    sim = Simulator()
    order = []
    sim.call_later(1.0, order.append, "event")
    sim.defer(1.0, order.append, "callback")
    sim.defer(0.5, order.append, "early")
    sim.run()
    assert order == ["early", "event", "callback"]

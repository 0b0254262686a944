"""Event-queue ordering and cancellation-leak regression tests.

The queue's contract is that it pops live entries in ``(time, priority,
signed sequence)`` order for *any* interleaving of pushes, cancels and
bounded pops, under both tie-break policies. The seeded property test
here diffs it against a ``sorted()`` model of the live keys; the
Simulator-level tests pin the cancellation fix (a cancelled timer
reclaims its slot instead of lingering until its pop time).
"""

import random

import pytest

from repro.sim.core import Simulator
from repro.sim.eventq import COMPACT_MIN_DEAD, HeapEventQueue


def _drive(seed, sign, ops=4000):
    """Apply one seeded op sequence to the queue and to a model of its
    live keys; return both pop streams."""
    rng = random.Random(seed)
    queue = HeapEventQueue(sequence_sign=sign)
    # token -> (entry, key): the model is the set of live keys. A popped
    # entry leaves it (the Simulator upholds the same contract by
    # clearing _qentry when it pops an event).
    live = {}
    popped, expected = [], []
    token = 0
    clock = 0.0
    for _ in range(ops):
        roll = rng.random()
        if roll < 0.55 or not live:
            token += 1
            # Near-future, far-future and exactly-now times, with
            # colliding priorities: sequence numbers break the ties.
            time = clock + rng.choice(
                (0.0, rng.random() * 0.01, rng.random() * 10.0))
            priority = rng.choice((0, 0, 0, 5, 10))
            entry = queue.push(time, priority, token)
            live[token] = (entry, (time, priority, sign * token))
        elif roll < 0.80:
            entry, _key = live.pop(rng.choice(sorted(live)))
            queue.cancel(entry)
        else:
            limit = clock + rng.random() * 0.05
            due = sorted((key, tok) for tok, (_e, key) in live.items()
                         if key[0] <= limit)
            expected += [(key[0], key[1], key[2], tok) for key, tok in due]
            while True:
                got = queue.pop_due(limit)
                if got is None:
                    break
                popped.append(tuple(got))
                live.pop(got[3])
                clock = max(clock, got[0])
    expected += [(key[0], key[1], key[2], tok) for key, tok in
                 sorted((key, tok) for tok, (_e, key) in live.items())]
    while len(queue):
        popped.append(tuple(queue.pop()))
    return popped, expected


@pytest.mark.parametrize("sign", [1, -1], ids=["fifo", "lifo"])
@pytest.mark.parametrize("seed", range(8))
def test_calendar_matches_heap_pop_order(seed, sign):
    """The contract the calendar queue was held to — a monolithic heap's
    pop order — kept by the heap that replaced it, checked against the
    sorted keys."""
    popped, expected = _drive(seed, sign)
    assert popped == expected
    assert popped  # the sequence actually exercised pops


def test_pop_due_respects_limit_and_skips_dead():
    queue = HeapEventQueue()
    early = queue.push(1.0, 0, "early")
    queue.push(2.0, 0, "late")
    queue.cancel(early)
    assert queue.pop_due(0.5) is None
    assert queue.pop_due(1.5) is None      # only a tombstone there
    assert queue.pop_due(2.5)[3] == "late"
    assert queue.pop_due(2.5) is None


def test_cancel_is_idempotent_and_counted():
    queue = HeapEventQueue()
    entry = queue.push(1.0, 0, "x")
    queue.cancel(entry)
    queue.cancel(entry)                    # second cancel is a no-op
    stats = queue.stats()
    assert stats["cancelled"] == 1
    assert len(queue) == 0


def test_compaction_reclaims_dead_entries():
    queue = HeapEventQueue()
    heap = queue._heap
    entries = [queue.push(1.0 + k * 1e-4, 0, k)
               for k in range(4 * COMPACT_MIN_DEAD)]
    survivor = queue.push(99.0, 0, "survivor")
    for entry in entries:
        queue.cancel(entry)
    stats = queue.stats()
    assert stats["compactions"] >= 1
    assert stats["dead"] <= COMPACT_MIN_DEAD
    # In place: the drive loop holds this very list.
    assert queue._heap is heap and survivor in heap
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

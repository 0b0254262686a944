"""Drive-loop equivalence: ``Simulator.run_until`` against the reference.

``Simulator.run_until`` is one loop that pops once per event and finds a
timestamp batch's end by a pop limited to ``now``; the reference
(``tests/reference_run_until.py``, the pre-refactor ``Cluster.run_until``
body) re-enters ``run()`` once per timestamp. Same schedules, same
predicates: the two must agree on every fired event, every predicate
evaluation (count and clock), every return or ``TimeoutError`` instant
and the queue's counters — under both tie-breaks and with a schedule
oracle installed.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.core import Simulator

from tests.reference_run_until import reference_run_until

#: Timestamps events land on: a near grid (ring buckets, many shared
#: instants so batches hold several events) and a far one (the overflow
#: heap, beyond the ~125 ms ring).
NEAR = [k * 0.001 for k in range(1, 25)]
FAR = [0.2, 0.2, 0.35, 0.9, 1.7, 1.7, 2.5, 6.0]

COUNTERS = ("pushed", "popped", "dead_popped", "cancelled", "live", "dead")


class SeededOracle:
    """Breaks every tie by a seeded draw and records what it was asked:
    one choice consulted too often or too rarely shifts every later
    draw."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.asked = []

    def choose(self, ties, now):
        self.asked.append((now, len(ties)))
        return self.rng.randrange(len(ties))


class World:
    """One simulator, a seeded schedule on it, and what happened."""

    def __init__(self, seed, tiebreak="fifo", oracle=False, events=120):
        self.oracle = SeededOracle(seed) if oracle else None
        self.sim = Simulator(tiebreak=tiebreak, oracle=self.oracle)
        self.rng = random.Random(seed)
        self.fired = []          # (now, token)
        self.evaluations = []    # sim.now at each predicate evaluation
        self.cancellable = []    # live Event handles
        self._token = 0
        for _ in range(events):
            self.schedule(self.rng.choice(NEAR + FAR))
        # Tombstones everywhere, the far (overflow) region included.
        for _ in range(events // 4):
            self.cancel_one()

    def schedule(self, delay):
        self._token += 1
        token = self._token
        if self.rng.random() < 0.5:
            self.sim.defer(delay, self.fire, token)
        else:
            self.cancellable.append(
                self.sim.call_later(delay, self.fire, token))

    def cancel_one(self):
        pending = [e for e in self.cancellable if not e.processed]
        if pending:
            victim = self.rng.choice(pending)
            self.cancellable.remove(victim)
            self.sim.cancel(victim)

    def fire(self, token):
        self.fired.append((self.sim.now, token))
        roll = self.rng.random()
        if roll < 0.15:
            self.schedule(0.0)                      # own timestamp
        elif roll < 0.30:
            self.schedule(self.rng.choice(NEAR))
        elif roll < 0.40:
            self.schedule(self.rng.choice(FAR))
        elif roll < 0.55:
            self.cancel_one()                       # maybe the next entry

    def watching(self, predicate):
        def watched():
            self.evaluations.append(self.sim.now)
            return predicate()
        return watched

    def counters(self):
        stats = self.sim.stats()
        return {name: stats[name] for name in COUNTERS}


def drive(world, run_until):
    """A fixed script of waits; returns everything observable."""
    sim = world.sim
    rng = random.Random(1234)
    record = []

    def wait(predicate, **kwargs):
        try:
            run_until(sim, world.watching(predicate), **kwargs)
            outcome = "returned"
        except TimeoutError:
            outcome = "timeout"
        record.append((outcome, sim.now, len(world.evaluations),
                       len(world.fired), world.counters()))

    wait(lambda: True)                                   # true on entry
    for _ in range(6):
        goal = len(world.fired) + rng.randrange(1, 25)
        wait(lambda: len(world.fired) >= goal, limit=50.0)
    horizon = sim.now + 0.0105
    wait(lambda: sim.now >= horizon, limit=50.0)         # pure time
    wait(lambda: False, limit=sim.now + 0.05, step=0.02)  # gives up
    wait(lambda: False, limit=sim.now - 1.0)             # already past
    wait(lambda: sim.peek() == float("inf"), limit=50.0)  # drain
    quiet = sim.now + 0.5
    wait(lambda: sim.now >= quiet, limit=50.0, step=0.2)  # empty queue
    wait(lambda: False, limit=sim.now + 0.3, step=0.25)
    return record


@pytest.mark.parametrize("tiebreak,oracle", [
    ("fifo", False), ("lifo", False), ("fifo", True), ("lifo", True)])
@pytest.mark.parametrize("seed", range(12))
def test_run_until_matches_the_reference(seed, tiebreak, oracle):
    new = World(seed, tiebreak, oracle)
    old = World(seed, tiebreak, oracle)
    got = drive(new, Simulator.run_until)
    expected = drive(old, reference_run_until)
    assert new.fired == old.fired
    assert new.evaluations == old.evaluations
    assert got == expected
    if oracle:
        assert new.oracle.asked == old.oracle.asked
        assert new.oracle.asked, "the schedule never tied"


def both(check):
    """Run one scenario under the new loop and under the reference."""
    return [check(Simulator(), run_until)
            for run_until in (Simulator.run_until, reference_run_until)]


def test_predicate_true_on_entry_runs_nothing_and_may_nest():
    def scenario(sim, run_until):
        fired = []
        sim.defer(0.0, fired.append, "due now")

        def nested():
            # Re-entering is fine when there is nothing to wait for.
            run_until(sim, lambda: True)
            fired.append("nested ok")

        sim.defer(1.0, nested)
        run_until(sim, lambda: True)
        assert fired == [] and sim.now == 0.0
        sim.run()
        return fired

    assert both(scenario) == [["due now", "nested ok"]] * 2


def test_waiting_from_inside_a_callback_is_refused():
    def scenario(sim, run_until):
        errors = []

        def nested():
            try:
                run_until(sim, lambda: False, limit=5.0)
            except SimulationError as exc:
                errors.append(str(exc))

        sim.defer(1.0, nested)
        sim.defer(2.0, lambda: None)
        sim.run()
        return errors, sim.now, sim.stats()["popped"]

    assert both(scenario) == [(["simulator is not re-entrant"], 2.0, 2)] * 2


def test_a_callback_scheduling_into_its_own_timestamp_stays_in_the_batch():
    def scenario(sim, run_until):
        fired, evaluations = [], []

        def parent():
            fired.append("parent")
            sim.defer(0.0, fired.append, "child")

        sim.defer(1.0, parent)
        sim.defer(2.0, fired.append, "later")

        def done():
            evaluations.append((sim.now, list(fired)))
            return bool(fired)

        run_until(sim, done)
        return evaluations, sim.now, sim.stats()["popped"]

    # One evaluation on entry, one after the whole 1.0 batch — never
    # between parent and child, never with the clock already at 2.0.
    assert both(scenario) == [(
        [(0.0, []), (1.0, ["parent", "child"])], 1.0, 2)] * 2


def test_tombstones_at_a_batch_boundary_are_skipped_not_dispatched():
    def scenario(sim, run_until):
        fired = []
        sim.defer(1.0, fired.append, "a")
        doomed = [sim.call_later(delay, fired.append, "never")
                  for delay in (1.0, 1.5, 1.5, 30.0)]
        sim.defer(2.0, fired.append, "b")
        for event in doomed:
            sim.cancel(event)
        run_until(sim, lambda: "a" in fired)
        first = (list(fired), sim.now, sim.stats()["popped"])
        run_until(sim, lambda: "b" in fired)
        stats = sim.stats()
        return first, fired, sim.now, stats["popped"], \
            stats["dead_popped"], stats["dead"]

    # The three tombstones ahead of "b" are shed; the far one stays.
    assert both(scenario) == [(
        (["a"], 1.0, 1), ["a", "b"], 2.0, 2, 3, 1)] * 2


def test_events_beyond_the_limit_stay_queued():
    def scenario(sim, run_until):
        fired = []
        sim.defer(10.0, fired.append, "late")
        with pytest.raises(TimeoutError):
            run_until(sim, lambda: False, limit=1.0, step=0.25)
        stats = sim.stats()
        assert fired == [] and stats["live"] == 1 and stats["popped"] == 0
        gave_up_at = sim.now
        sim.run()
        return gave_up_at, fired, sim.now

    assert both(scenario) == [(1.25, ["late"], 10.0)] * 2


def test_an_event_between_limit_and_limit_plus_step_still_runs():
    def scenario(sim, run_until):
        fired = []
        sim.defer(1.1, fired.append, "edge")
        sim.defer(1.2, fired.append, "next")
        with pytest.raises(TimeoutError):
            run_until(sim, lambda: False, limit=1.0, step=0.15)
        return fired, sim.now, sim.stats()["popped"], sim.stats()["live"]

    assert both(scenario) == [(["edge"], 1.1, 1, 1)] * 2


def test_a_predicate_sees_the_whole_queue_and_may_schedule_into_it():
    def scenario(sim, run_until):
        fired, upcoming = [], []
        sim.defer(1.0, fired.append, "first")
        sim.defer(3.0, fired.append, "last")

        def done():
            upcoming.append(sim.peek())
            if fired == ["first"]:
                # Lands before the next queued event.
                sim.defer(0.5, fired.append, "from the predicate")
            return len(fired) == 3

        run_until(sim, done)
        return fired, upcoming, sim.now, sim.stats()["popped"]

    assert both(scenario) == [(
        ["first", "from the predicate", "last"],
        [1.0, 3.0, 3.0, float("inf")], 3.0, 3)] * 2


def test_a_predicate_that_cancels_the_next_event_is_honoured():
    def scenario(sim, run_until):
        fired = []
        sim.defer(1.0, fired.append, "first")
        victim = sim.call_later(2.0, fired.append, "cancelled")
        sim.defer(3.0, fired.append, "last")

        def done():
            if fired == ["first"]:
                sim.cancel(victim)
            return "last" in fired

        run_until(sim, done)
        stats = sim.stats()
        return fired, sim.now, stats["popped"], stats["live"], \
            stats["cancelled"], stats["dead_popped"]

    assert both(scenario) == [(["first", "last"], 3.0, 2, 0, 1, 1)] * 2


def test_a_predicate_that_raises_leaves_the_queue_whole():
    def scenario(sim, run_until):
        fired = []
        sim.defer(1.0, fired.append, "first")
        sim.defer(2.0, fired.append, "second")

        def done():
            if fired:
                raise ValueError("broken predicate")
            return False

        with pytest.raises(ValueError):
            run_until(sim, done)
        stats = sim.stats()
        after = (list(fired), sim.now, stats["popped"], stats["live"])
        sim.run()      # not left marked as running, nothing lost
        return after, fired

    assert both(scenario) == [(
        (["first"], 1.0, 1, 1), ["first", "second"])] * 2

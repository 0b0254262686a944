"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.core import Interrupt, Simulator


def test_timeout_advances_clock():
    sim = Simulator()
    fired = []
    sim.call_later(1.5, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [1.5]
    assert sim.now == 1.5


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.call_later(3.0, lambda: order.append("c"))
    sim.call_later(1.0, lambda: order.append("a"))
    sim.call_later(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_schedule_order():
    sim = Simulator()
    order = []
    for tag in "abc":
        sim.call_later(1.0, order.append, tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_limits_time():
    sim = Simulator()
    fired = []
    sim.call_later(5.0, lambda: fired.append("late"))
    sim.run(until=2.0)
    assert fired == []
    assert sim.now == 2.0
    sim.run()
    assert fired == ["late"]


def test_process_receives_timeout_value():
    sim = Simulator()

    def proc():
        value = yield sim.timeout(1.0, value=42)
        return value * 2

    result = sim.run_until_complete(sim.process(proc()))
    assert result == 84
    assert sim.now == 1.0


def test_process_waits_on_manual_event():
    sim = Simulator()
    gate = sim.event("gate")

    def opener():
        yield sim.timeout(2.0)
        gate.succeed("opened")

    def waiter():
        value = yield gate
        return value

    sim.process(opener())
    result = sim.run_until_complete(sim.process(waiter()))
    assert result == "opened"
    assert sim.now == 2.0


def test_failed_event_raises_in_process():
    sim = Simulator()
    gate = sim.event("gate")

    def proc():
        try:
            yield gate
        except ValueError as exc:
            return f"caught {exc}"

    task = sim.process(proc())
    gate.fail(ValueError("boom"))
    assert sim.run_until_complete(task) == "caught boom"


def test_process_exception_propagates_to_waiter():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise RuntimeError("inner")

    task = sim.process(bad())
    with pytest.raises(RuntimeError, match="inner"):
        sim.run_until_complete(task)


def test_interrupt_detaches_from_waited_event():
    sim = Simulator()
    gate = sim.event("gate")
    seen = []

    def proc():
        try:
            yield gate
        except Interrupt as intr:
            seen.append(intr.cause)
        yield sim.timeout(1.0)
        return "done"

    task = sim.process(proc())
    sim.call_later(0.5, task.interrupt, "wakeup")
    # The gate fires later; it must NOT resume the process a second time.
    sim.call_later(0.7, gate.succeed)
    assert sim.run_until_complete(task) == "done"
    assert seen == ["wakeup"]
    assert sim.now == 1.5


def test_any_of_returns_first():
    sim = Simulator()

    def proc():
        first = sim.timeout(1.0, value="fast")
        second = sim.timeout(5.0, value="slow")
        done = yield sim.any_of([first, second])
        return list(done.values())

    assert sim.run_until_complete(sim.process(proc())) == ["fast"]
    assert sim.now == 1.0


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        events = [sim.timeout(t, value=t) for t in (1.0, 3.0, 2.0)]
        done = yield sim.all_of(events)
        return sorted(done.values())

    assert sim.run_until_complete(sim.process(proc())) == [1.0, 2.0, 3.0]
    assert sim.now == 3.0


def test_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_cancel_strips_callbacks():
    sim = Simulator()
    fired = []
    handle = sim.call_later(1.0, lambda: fired.append(1))
    sim.cancel(handle)
    sim.run()
    assert fired == []


def test_deadlock_detection():
    sim = Simulator()

    def stuck():
        yield sim.event("never")

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_until_complete(sim.process(stuck()))


def test_run_until_complete_time_limit():
    sim = Simulator()

    def slow():
        yield sim.timeout(100.0)

    with pytest.raises(SimulationError, match="time limit"):
        sim.run_until_complete(sim.process(slow()), limit=1.0)


def test_nested_processes():
    sim = Simulator()

    def child(n):
        yield sim.timeout(n)
        return n * 10

    def parent():
        a = yield sim.process(child(1))
        b = yield sim.process(child(2))
        return a + b

    assert sim.run_until_complete(sim.process(parent())) == 30
    assert sim.now == 3.0


# -- a process may yield a plain float: sleep this long ----------------------

@pytest.mark.parametrize("tiebreak", Simulator.TIEBREAKS)
def test_float_sleep_takes_the_queue_position_of_a_timeout(tiebreak):
    """Same instants, and the same order among sleepers that tie."""
    delays = [[0.5, 0.5, 1.0], [0.5, 1.0, 0.5], [1.0, 0.5, 0.5],
              [0.25, 0.25, 0.0, 1.5], [2.0]]

    def trace(plain):
        sim = Simulator(tiebreak=tiebreak)
        log = []

        def sleeper(index, naps):
            for nap in naps:
                woke = yield (nap if plain else sim.timeout(nap))
                assert woke is None
                log.append((sim.now, index))

        for index, naps in enumerate(delays):
            sim.process(sleeper(index, naps))
        sim.call_later(1.0, log.append, "tick")     # a tie that is no sleep
        sim.run()
        return log, sim.stats()["pushed"]

    (plain_log, plain_pushed), (event_log, event_pushed) = \
        trace(True), trace(False)
    assert plain_log == event_log
    assert plain_pushed == event_pushed     # one entry per sleep either way


def test_interrupted_float_sleep_leaves_a_stale_entry_that_does_nothing():
    sim = Simulator()
    seen = []

    def proc():
        try:
            yield 1.0
        except Interrupt as intr:
            seen.append((sim.now, intr.cause))
        yield 2.0           # the stale entry (t=1.0) fires inside this
        seen.append(sim.now)
        return "done"

    task = sim.process(proc())
    sim.call_later(0.5, task.interrupt, "wakeup")
    assert sim.run_until_complete(task) == "done"
    assert seen == [(0.5, "wakeup"), 2.5]
    sim.run()
    assert sim.stats()["live"] == 0


def test_stale_sleep_entry_of_a_finished_process_does_nothing():
    sim = Simulator()

    def proc():
        try:
            yield 5.0
        except Interrupt:
            return "killed"

    task = sim.process(proc())
    sim.call_later(1.0, task.interrupt)
    assert sim.run_until_complete(task) == "killed"
    sim.run()               # the entry at t=5.0 finds the process gone
    assert sim.now == 5.0 and task.value == "killed"


def test_negative_float_sleep_rejected():
    sim = Simulator()

    def proc():
        yield -1.0

    sim.process(proc())
    with pytest.raises(SimulationError, match="negative delay"):
        sim.run()

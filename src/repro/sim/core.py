"""Deterministic discrete-event simulation kernel.

The kernel is deliberately small: an event queue ordered by ``(time, priority,
sequence)``, one-shot :class:`Event` objects with success/failure callbacks,
and generator-based :class:`SimProcess` coroutines in the style of simpy.

Everything in the reproduction — NICs, the TCP engine, OS schedulers, the
checkpoint coordinator — runs on one :class:`Simulator`. Determinism matters
because the paper's correctness argument (§5.1) is about *arbitrary*
interleavings; seeded runs let tests replay a specific interleaving.

Events are dispatched in two places only: :meth:`Simulator.step` (one
event) and :meth:`Simulator._drive`, the one loop behind both
:meth:`Simulator.run` and :meth:`Simulator.run_until`. A queue entry's
payload is either an :class:`Event` (its callbacks run) or a bare
``(fn, args)`` tuple from :meth:`Simulator.defer`/``defer_at`` or a
process's plain sleep (called in place); :attr:`Simulator.now` is a plain
attribute.
"""

from __future__ import annotations

import math
from heapq import heappop
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from repro.errors import SimulationError
from repro.sim.eventq import HeapEventQueue

#: Priority used for ordinary events.
NORMAL = 1
#: Priority for urgent events (delivered before normal events at equal time).
URGENT = 0


class Event:
    """A one-shot occurrence with an optional value or exception.

    An event starts *pending*, becomes *triggered* when scheduled for
    processing, and is *processed* once its callbacks have run.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "name",
                 "_qentry")

    _PENDING = object()

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok = True
        self._processed = False
        #: Back-pointer to this event's queue entry while scheduled, so
        #: :meth:`Simulator.cancel` can reclaim the slot in O(1).
        self._qentry = None

    @property
    def triggered(self) -> bool:
        return self._value is not Event._PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        self._value = value
        self._ok = True
        self.sim._schedule_event(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        A waiting process will see the exception raised at its ``yield``.
        """
        if self.triggered:
            raise SimulationError(f"event {self.name!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.sim._schedule_event(self, delay)
        return self

    def __repr__(self) -> str:
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<Event {self.name or hex(id(self))} {state}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # A static name: formatting f"timeout({delay})" per event was a
        # measurable tax on the call_later hot path; __repr__ still
        # shows the deadline via the queue entry when one is attached.
        super().__init__(sim, name="timeout")
        self._value = value
        self._ok = True
        sim._schedule_event(self, delay)


class AnyOf(Event):
    """Triggers when the first of ``events`` triggers.

    The value is a dict mapping the triggered events (possibly more than one
    if several fire at the same instant) to their values.
    """

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="any_of")
        self.events = list(events)
        if not self.events:
            raise SimulationError("AnyOf requires at least one event")
        for event in self.events:
            if event.callbacks is not None:
                event.callbacks.append(self._collect)
            else:
                self._collect(event)

    def _collect(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        done = {ev: ev._value for ev in self.events
                if ev.processed and ev._ok}
        done[event] = event._value
        self.succeed(done)


class AllOf(Event):
    """Triggers when every event in ``events`` has triggered successfully."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, name="all_of")
        self.events = list(events)
        self._remaining = 0
        for event in self.events:
            if event.callbacks is not None:
                self._remaining += 1
                event.callbacks.append(self._collect)
            elif not event._ok:
                self.fail(event._value)
                return
        if self._remaining == 0 and not self.triggered:
            self.succeed({ev: ev._value for ev in self.events})

    def _collect(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed({ev: ev._value for ev in self.events})


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class _Slept:
    """What a process that yielded a plain delay is resumed with: the
    two fields :meth:`SimProcess._resume` reads of an event."""

    __slots__ = ()
    _ok = True
    _value = None


_SLEPT = _Slept()


class SimProcess(Event):
    """A generator-based coroutine driven by the simulator.

    The generator yields :class:`Event` instances; the process resumes when
    the yielded event triggers, receiving its value (or exception). It may
    also yield a plain ``float`` — "sleep this long" — which costs one bare
    queue entry where ``yield sim.timeout(delay)`` costs an event: same
    time, priority and sequence position, resumed with ``None``. The
    process object is itself an event that triggers when the generator
    returns, carrying the return value.
    """

    __slots__ = ("_generator", "_waiting_on", "_sleeps")

    def __init__(self, sim: "Simulator", generator: Generator,
                 name: str = ""):
        super().__init__(sim, name=name or getattr(
            generator, "__name__", "process"))
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        #: Token of the current plain sleep. :meth:`interrupt` bumps it,
        #: so the queue entry of a sleep that was cut short finds a
        #: different number and does nothing.
        self._sleeps = 0
        init = Event(sim, name=f"init({self.name})")
        init.callbacks.append(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupt` inside the process at its current yield."""
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished {self!r}")
        poke = Event(self.sim, name=f"interrupt({self.name})")
        poke._value = Interrupt(cause)
        poke._ok = False
        # Detach from whatever we were waiting on; the stale callback is
        # removed so the original event cannot resume us twice.
        target = self._waiting_on
        if target is not None and target.callbacks is not None \
                and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._waiting_on = None
        self._sleeps += 1
        poke.callbacks.append(self._resume)
        self.sim._schedule_event(poke, 0.0, priority=URGENT)

    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            if not self.triggered:
                self.fail(exc)
                return
            raise
        if target.__class__ is float:
            if target < 0:
                raise SimulationError(f"negative delay {target}")
            sim = self.sim
            sim._queue.push(sim.now + target, NORMAL,
                            (self._sleep_over, (self._sleeps,)))
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, neither an "
                f"Event nor a float delay")
        self._waiting_on = target
        if target.callbacks is not None:
            # Pending or scheduled-but-unprocessed: wait for processing.
            target.callbacks.append(self._resume)
        else:
            # Already processed: resume on the next tick with its value.
            immediate = Event(self.sim, name="chain")
            immediate._value = target._value
            immediate._ok = target._ok
            immediate.callbacks.append(self._resume)
            self.sim._schedule_event(immediate, 0.0)

    def _sleep_over(self, token: int) -> None:
        if token == self._sleeps:
            self._resume(_SLEPT)


class Simulator:
    """The discrete-event scheduler.

    All times are floats in **seconds** of simulated time.
    """

    #: Tie-break policies for events sharing (time, priority): "fifo"
    #: pops them in scheduling order, "lifo" newest-first. Correct code
    #: must be indifferent — the determinism analyzer runs a workload
    #: under both and diffs the results (a schedule-race detector).
    TIEBREAKS = ("fifo", "lifo")

    def __init__(self, tiebreak: str = "fifo", oracle: Any = None):
        if tiebreak not in self.TIEBREAKS:
            raise SimulationError(f"unknown tiebreak {tiebreak!r}")
        #: Current simulated time. A plain attribute, not a property: it
        #: is read several times per event on every hot path. Only the
        #: drive loop and :meth:`step` write it.
        self.now = 0.0
        self._queue = HeapEventQueue(
            sequence_sign=1 if tiebreak == "fifo" else -1)
        self._running = False
        self.tiebreak = tiebreak
        #: Schedule oracle (``repro.analysis.oracle``): when set, every
        #: dispatched entry first goes through :meth:`_choose` so the
        #: oracle decides among same-``(time, priority)`` ties. ``None``
        #: (the default) leaves the queue's signed sequence as the whole
        #: tie-break policy.
        self._oracle = oracle
        #: The hashed timer wheel high-churn timers (TCP) share
        #: (``repro.sim.timers``); it attaches itself here lazily on
        #: first use.
        self.timers = None

    # -- event factory helpers -------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> SimProcess:
        return SimProcess(self, generator, name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def call_at(self, when: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} < now {self.now}")
        return self.call_later(when - self.now, fn, *args)

    def call_later(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay``. Returns a cancellable event."""
        event = Timeout(self, delay)
        event.callbacks.append(lambda ev: fn(*args))
        return event

    def defer(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` — fire-and-forget.

        The lightweight sibling of :meth:`call_later`: no Event object,
        no closure, nothing to wait on or cancel. The queue entry
        carries a bare ``(fn, args)`` tuple, which the drive loop calls
        directly.
        """
        if delay < 0:
            raise SimulationError(f"cannot defer by {delay} < 0")
        self._queue.push(self.now + delay, NORMAL, (fn, args))

    def defer_at(self, when: float, fn: Callable, *args: Any) -> None:
        """Absolute-time :meth:`defer` (see :meth:`call_at`)."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule at {when} < now {self.now}")
        self._queue.push(when, NORMAL, (fn, args))

    def cancel(self, event: Event) -> None:
        """Cancel a scheduled event: reclaim its queue slot, strip callbacks.

        The entry is tombstoned in O(1) and reclaimed lazily (or by the
        queue's threshold-triggered compaction), so a churn of
        armed-then-cancelled timers keeps the queue bounded instead of
        accumulating dead events until their pop time.
        """
        entry = event._qentry
        if entry is not None:
            self._queue.cancel(entry)
            event._qentry = None
        if not event._processed:
            event.callbacks = []

    # -- scheduling internals --------------------------------------------

    @property
    def oracle(self) -> Any:
        return self._oracle

    def _choose(self, first: Any) -> Any:
        """Oracle-mediated tie-break for the just-popped ``first``:
        collect the rest of its (time, priority) tie set, let the
        oracle pick one member, reinsert the others.

        Entries tie iff they share ``first``'s exact time and priority;
        collection stops at the first entry with a different priority
        (queue order guarantees nothing after it can still tie). The
        tie set is presented in queue order, so an oracle returning 0
        is bit-identical to no oracle at all.
        """
        queue = self._queue
        when = first[0]
        ties = [first]
        while True:
            peer = queue.pop_due(when)
            if peer is None:
                break
            if peer[1] != first[1]:
                queue.reinsert(peer)
                break
            ties.append(peer)
        if len(ties) == 1:
            return first
        chosen = ties.pop(self._oracle.choose(ties, when))
        for entry in ties:
            queue.reinsert(entry)
        return chosen

    def _schedule_event(self, event: Event, delay: float,
                        priority: int = NORMAL) -> None:
        event._qentry = self._queue.push(self.now + delay, priority, event)

    def step(self) -> None:
        """Process the single next event."""
        entry = self._queue.pop()
        if self._oracle is not None:
            entry = self._choose(entry)
        when = entry[0]
        target = entry[3]
        if when < self.now:
            raise SimulationError("event queue went backwards")
        self.now = when
        if target.__class__ is tuple:
            target[0](*target[1])
            return
        target._qentry = None
        callbacks = target.callbacks
        target.callbacks = None
        target._processed = True
        for callback in callbacks:
            callback(target)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time passes ``until``."""
        self._drive(math.inf if until is None else until)
        if until is not None and until > self.now:
            self.now = until

    def run_until(self, predicate: Callable[[], bool],
                  limit: float = 1e6, step: float = 0.01) -> None:
        """Advance time until ``predicate()`` holds.

        The predicate is evaluated on entry and then once after every
        timestamp batch (all events sharing a simulated instant), with
        the clock still at that batch's instant: the wait returns at
        the exact event time that made it true. ``step`` is only the
        fallback stride when the queue holds nothing within
        ``limit + step`` and only the passage of time can change the
        answer. Raises :class:`TimeoutError` once the predicate reads
        false with the clock past ``limit``.
        """
        if predicate():
            return
        if self.now > limit:
            raise TimeoutError("run_until limit exceeded")
        self._drive(limit + step, predicate, limit, step)

    def _drive(self, bound: float,
               predicate: Optional[Callable[[], bool]] = None,
               limit: float = math.inf, step: float = 0.0) -> None:
        """The one event-dispatch loop behind :meth:`run` and
        :meth:`run_until`: dispatch every event due at or before
        ``bound``, popping the queue's heap in line (C ``heappop``, the
        queue's counters kept here).

        With a ``predicate`` the loop works a timestamp batch at a time:
        inside a batch only entries due at ``now`` are popped, so reading
        a head due later closes the batch with the queue untouched
        beyond it, and the predicate is evaluated
        there — before the clock advances, with every later event still
        queued (a predicate may read the queue, schedule, cancel or
        raise). Only when it reads false is the next batch's first entry
        popped. Without a predicate there are no batch boundaries to
        find and every pop is limited to ``bound``.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        queue = self._queue
        heap = queue._heap
        oracle = self._oracle
        try:
            while True:
                cap = bound
                fired = False
                while heap:
                    if heap[0][0] > cap:
                        break
                    entry = heappop(heap)
                    when = entry[0]
                    target = entry[3]
                    if target is None:          # a tombstone: shed it
                        queue._dead -= 1
                        queue.dead_popped += 1
                        continue
                    queue.popped += 1
                    if predicate is not None:
                        cap = when
                    fired = True
                    if oracle is not None:
                        entry = self._choose(entry)
                        target = entry[3]
                    if when < self.now:
                        raise SimulationError("event queue went backwards")
                    self.now = when
                    if target.__class__ is tuple:
                        target[0](*target[1])
                    else:
                        target._qentry = None
                        callbacks = target.callbacks
                        target.callbacks = None
                        target._processed = True
                        for callback in callbacks:
                            callback(target)
                if predicate is None:
                    return
                if not fired:
                    # Nothing due within ``bound``: only time can change
                    # the predicate's answer. Jump by ``step`` over an
                    # empty queue, straight to ``bound`` otherwise.
                    target_time = bound if queue.peek() != math.inf \
                        else min(self.now + step, bound)
                    if target_time > self.now:
                        self.now = target_time
                if predicate():
                    return
                if self.now > limit:
                    raise TimeoutError("run_until limit exceeded")
        finally:
            self._running = False

    def run_until_complete(self, process: SimProcess,
                           limit: float = 1e9) -> Any:
        """Run until ``process`` finishes; return its value or raise."""
        while not process.triggered:
            if not len(self._queue):
                raise SimulationError(
                    f"deadlock: {process.name!r} cannot finish")
            if self._queue.peek() > limit:
                raise SimulationError(
                    f"time limit {limit} exceeded waiting for "
                    f"{process.name!r}")
            self.step()
        if not process._ok:
            raise process._value
        return process._value

    def peek(self) -> float:
        """Time of the next live event, or ``inf`` if the queue is empty."""
        return self._queue.peek()

    def stats(self) -> Dict[str, Any]:
        """Scheduler counters: queue live/dead/pushed/popped, timer wheel.

        ``popped`` counts live events actually processed — the numerator
        of every events/sec figure; ``cancelled``/``dead_popped``
        make cancellation churn visible; ``peak_live`` bounds queue
        growth (the 100k-timer cancellation regression test watches it).
        """
        stats: Dict[str, Any] = {"now": self.now,
                                 "tiebreak": self.tiebreak}
        stats.update(self._queue.stats())
        if self.timers is not None:
            stats["timers"] = self.timers.stats()
        return stats

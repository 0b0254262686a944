"""Hashed timer wheel for high-churn, cancellation-heavy timers.

TCP arms and cancels timers at a ferocious rate: every ACK re-arms the
retransmission timer, every other received segment arms (and the next
transmission cancels) a delayed-ACK timer, zero-window probes and
keepalives back off and re-arm. Modelling each arm as its own simulator
event meant the event queue filled with timers that would almost always
be cancelled before firing.

The wheel hashes each timer to a time **slot** of ``granularity``
seconds (a power of two, mirroring the kernel's jiffy wheel). All
timers in a slot share **one** simulator event, scheduled when the slot
first becomes occupied; cancellation just blanks the handle — O(1), no
queue traffic at all. Timers therefore fire at their deadline rounded
*up* to the slot boundary, i.e. at most ``granularity`` late — the same
contract as jiffy-resolution kernel timers, which every armed protocol
(RTO, delayed ACK, keepalive, TIME-WAIT) is specified to tolerate.

Firing order is deterministic: slots fire in time order through the
simulator queue, and within a slot handles run in arming order.

``timers_for(sim)`` returns the simulator's shared wheel.

Restart-heavy users (the TCP RTO) keep an armed handle and just move
their logical deadline, re-arming lazily on a stale firing — the
kernel's ``mod_timer`` discipline: O(1), no wheel traffic per restart.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List

from repro.errors import SimulationError

#: Slot width: 2**-13 s ≈ 122 µs. Coarse enough that a busy simulation
#: lands many timers per slot, fine enough that the worst-case lateness
#: is negligible against the tens-of-milliseconds timers it carries.
DEFAULT_GRANULARITY = 2.0 ** -13


class TimerHandle:
    """One armed timer. ``cancel()`` is O(1) and touches no queue."""

    __slots__ = ("deadline", "_fn", "_args")

    def __init__(self, deadline: float, fn: Callable, args: tuple):
        self.deadline = deadline
        self._fn = fn
        self._args = args

    @property
    def active(self) -> bool:
        """True while armed: neither fired nor cancelled."""
        return self._fn is not None

    def cancel(self) -> None:
        self._fn = None
        self._args = ()

    def _fire(self) -> None:
        fn, args = self._fn, self._args
        self._fn = None
        self._args = ()
        fn(*args)

    def __repr__(self) -> str:
        state = "armed" if self.active else "spent"
        return f"<TimerHandle @{self.deadline:.6f} {state}>"


class TimerWheel:
    """Hashed wheel: absolute slot index -> list of handles."""

    def __init__(self, sim):
        self.sim = sim
        self.granularity = DEFAULT_GRANULARITY
        self._inv = 1.0 / DEFAULT_GRANULARITY
        self._slots: Dict[int, List[TimerHandle]] = {}
        self.armed = 0
        self.fired = 0
        self.cancelled_fired = 0
        self.slot_events = 0

    def after(self, delay: float, fn: Callable, *args: Any) -> TimerHandle:
        """Arm ``fn(*args)`` to run ``delay`` seconds from now (rounded
        up to the slot boundary). Returns a cancellable handle."""
        if delay < 0:
            raise SimulationError(f"negative timer delay {delay}")
        sim = self.sim
        now = sim.now
        deadline = now + delay
        handle = TimerHandle(deadline, fn, args)
        slot = math.ceil(deadline * self._inv)
        slots = self._slots
        bucket = slots.get(slot)
        if bucket is None:
            slots[slot] = [handle]
            slot_time = slot * self.granularity
            if slot_time < now:
                slot_time = now
            sim.defer_at(slot_time, self._fire_slot, slot)
            self.slot_events += 1
        else:
            bucket.append(handle)
        self.armed += 1
        return handle

    def _fire_slot(self, slot: int) -> None:
        # Detach the bucket first: a firing timer may re-arm into this
        # same slot index, which then gets a fresh bucket + event.
        bucket = self._slots.pop(slot, None)
        if bucket is None:
            return
        for handle in bucket:
            if handle._fn is None:
                self.cancelled_fired += 1
                continue
            self.fired += 1
            handle._fire()

    def stats(self) -> Dict[str, Any]:
        pending = sum(len(bucket) for bucket in self._slots.values())
        return {
            "granularity": self.granularity,
            "armed": self.armed, "fired": self.fired,
            "cancelled": self.cancelled_fired,
            "slot_events": self.slot_events,
            "pending": pending, "slots": len(self._slots),
        }


def timers_for(sim) -> TimerWheel:
    """The simulator's shared timer wheel (created on first use)."""
    timers = sim.timers
    if timers is None:
        timers = sim.timers = TimerWheel(sim)
    return timers

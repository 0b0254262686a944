"""A counting resource (e.g. CPUs) for the simulation kernel."""

from __future__ import annotations

from typing import List

from repro.sim.core import Event, Simulator


class Resource:
    """A counting resource with FIFO queueing.

    ``request()`` returns an event that succeeds when a slot is granted;
    call ``release()`` exactly once per grant.
    """

    def __init__(self, sim: Simulator, capacity: int, name: str = ""):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        self._waiters: List[Event] = []

    @property
    def available(self) -> int:
        return self.capacity - self.in_use

    def request(self) -> Event:
        event = self.sim.event(f"{self.name}.request")
        if self.in_use < self.capacity:
            self.in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        if self.in_use <= 0:
            raise RuntimeError(f"resource {self.name}: release underflow")
        while self._waiters:
            waiter = self._waiters.pop(0)
            if not waiter.triggered:
                waiter.succeed()
                return
        self.in_use -= 1

    def cancel(self, grant: Event) -> None:
        """Withdraw a request (e.g. the requester was killed).

        If the grant already went through, the slot is released; otherwise
        the waiter is removed so it can never be handed a slot it will
        not use.
        """
        if grant.triggered:
            self.release()
            return
        if grant in self._waiters:
            self._waiters.remove(grant)


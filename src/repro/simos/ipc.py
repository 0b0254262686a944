"""System V IPC: shared memory segments and semaphores.

The original Zap paper lacked these; the Cruz authors "enhanced the original
implementation of Zap by adding the capability to checkpoint and restart OS
resources such as shared memory, semaphores, threads" (§2). Identifiers are
virtualised per pod by the Zap layer; the kernel only ever sees physical
ids.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import SyscallError
from repro.sim.core import Event, Simulator


class SharedMemorySegment:
    """A shared segment: a sized region plus a key/value payload.

    Real segments are raw bytes; simulated programs store structured values
    in ``payload`` while ``size`` drives checkpoint-cost accounting.
    """

    def __init__(self, shmid: int, key: int, size: int):
        self.shmid = shmid
        self.key = key
        self.size = size
        self.payload: Dict[str, Any] = {}
        self.attach_count = 0

    def snapshot(self) -> Dict[str, Any]:
        return {"key": self.key, "size": self.size,
                "payload": dict(self.payload)}


class SysVSemaphore:
    """A counting semaphore with blocking semop."""

    def __init__(self, sim: Simulator, semid: int, key: int, value: int = 0):
        self.sim = sim
        self.semid = semid
        self.key = key
        self.value = value
        self._waiters: List[Tuple[int, Event]] = []

    def op(self, delta: int) -> bool:
        """Apply semop; returns True if it completed, False if it must wait.

        Waiting callers park on :meth:`wait_event`.
        """
        if delta >= 0:
            self.value += delta
            self._wake()
            return True
        if self.value + delta >= 0:
            self.value += delta
            return True
        return False

    def wait_event(self, delta: int) -> Event:
        event = self.sim.event(f"semwait({self.semid})")
        self._waiters.append((delta, event))
        return event

    def cancel_wait(self, event: Event) -> None:
        """Withdraw a waiter (killed process) before it consumes units."""
        self._waiters = [(delta, ev) for delta, ev in self._waiters
                         if ev is not event]

    def _wake(self) -> None:
        # Wake waiters whose decrement can now succeed, FIFO.
        index = 0
        while index < len(self._waiters):
            delta, event = self._waiters[index]
            if event.triggered:
                self._waiters.pop(index)
                continue
            if self.value + delta >= 0:
                self._waiters.pop(index)
                self.value += delta
                event.succeed()
                continue
            index += 1

    def snapshot(self) -> Dict[str, Any]:
        return {"key": self.key, "value": self.value}


class IpcNamespace:
    """Physical IPC object tables for one node."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._next_id = 1
        self.shm: Dict[int, SharedMemorySegment] = {}
        self.sem: Dict[int, SysVSemaphore] = {}
        self._shm_by_key: Dict[int, int] = {}
        self._sem_by_key: Dict[int, int] = {}

    def _allocate_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def shmget(self, key: int, size: int) -> int:
        if key in self._shm_by_key:
            return self._shm_by_key[key]
        shmid = self._allocate_id()
        self.shm[shmid] = SharedMemorySegment(shmid, key, size)
        self._shm_by_key[key] = shmid
        return shmid

    def shm_lookup(self, shmid: int) -> SharedMemorySegment:
        segment = self.shm.get(shmid)
        if segment is None:
            raise SyscallError("EINVAL", f"shmid {shmid}")
        return segment

    def shm_remove(self, shmid: int) -> None:
        segment = self.shm.pop(shmid, None)
        if segment is None:
            raise SyscallError("EINVAL", f"shmid {shmid}")
        self._shm_by_key.pop(segment.key, None)

    def semget(self, key: int, initial: int = 0) -> int:
        if key in self._sem_by_key:
            return self._sem_by_key[key]
        semid = self._allocate_id()
        self.sem[semid] = SysVSemaphore(self.sim, semid, key, initial)
        self._sem_by_key[key] = semid
        return semid

    def sem_lookup(self, semid: int) -> SysVSemaphore:
        semaphore = self.sem.get(semid)
        if semaphore is None:
            raise SyscallError("EINVAL", f"semid {semid}")
        return semaphore

    def sem_remove(self, semid: int) -> None:
        semaphore = self.sem.pop(semid, None)
        if semaphore is None:
            raise SyscallError("EINVAL", f"semid {semid}")
        self._sem_by_key.pop(semaphore.key, None)

    def restore_shm(self, key: int, size: int,
                    payload: Dict[str, Any]) -> int:
        """Recreate a segment from a checkpoint image (new physical id)."""
        shmid = self.shmget(key, size)
        self.shm[shmid].payload.update(payload)
        return shmid

    def restore_sem(self, key: int, value: int) -> int:
        semid = self.semget(key, initial=value)
        self.sem[semid].value = value
        return semid

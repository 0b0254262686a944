"""File descriptors, pipes, and regular files.

Every kernel object reachable through a file descriptor implements enough
introspection for the Zap checkpoint path to serialise it: pipes expose
their buffered bytes, files their path and offset.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import SyscallError
from repro.sim.core import Event, Simulator
from repro.simos.filesystem import SharedFileSystem

PIPE_CAPACITY = 65536


class WouldBlock(Exception):
    """Internal: operation must wait; the kernel parks the process."""


class KernelObject:
    """Base for everything an fd can point at."""

    kind = "object"

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.read_waiters: List[Event] = []
        self.write_waiters: List[Event] = []

    def _wake(self, waiters: List[Event]) -> None:
        if waiters:
            woken = waiters[:]
            waiters.clear()
            for event in woken:
                if not event.triggered:
                    event.succeed()

    def wake_readers(self) -> None:
        self._wake(self.read_waiters)

    def wake_writers(self) -> None:
        self._wake(self.write_waiters)

    def poll_readable(self) -> bool:
        """``poll``'s question: would a read return at once? A kind
        that never blocks a read (POSIX: a regular file) is always
        ready; the kinds that can block override this."""
        return True

    def close_side(self, mode: str) -> None:
        """Release one reference ('r' or 'w')."""


class Pipe(KernelObject):
    """A unidirectional byte pipe with Unix blocking semantics."""

    kind = "pipe"

    def __init__(self, sim: Simulator):
        super().__init__(sim)
        self.buffer = bytearray()
        self.readers = 1
        self.writers = 1

    def read(self, nbytes: int) -> bytes:
        if self.buffer:
            chunk = bytes(self.buffer[:nbytes])
            del self.buffer[:len(chunk)]
            self.wake_writers()
            return chunk
        if self.writers == 0:
            return b""  # EOF
        raise WouldBlock

    def write(self, data: bytes) -> int:
        if self.readers == 0:
            raise SyscallError("EPIPE", "pipe has no readers")
        space = PIPE_CAPACITY - len(self.buffer)
        if space <= 0:
            raise WouldBlock
        chunk = data[:space]
        self.buffer.extend(chunk)
        self.wake_readers()
        return len(chunk)

    def poll_readable(self) -> bool:
        return bool(self.buffer) or self.writers == 0

    def close_side(self, mode: str) -> None:
        if mode == "r":
            self.readers = max(0, self.readers - 1)
            if self.readers == 0:
                self.wake_writers()
        else:
            self.writers = max(0, self.writers - 1)
            if self.writers == 0:
                self.wake_readers()  # readers see EOF


class RegularFile(KernelObject):
    """An open file on the shared filesystem."""

    kind = "file"

    def __init__(self, sim: Simulator, fs: SharedFileSystem, path: str,
                 mode: str):
        super().__init__(sim)
        self.fs = fs
        self.path = path
        self.mode = mode
        self.offset = 0
        if "w" in mode:
            fs.create(path, truncate=True)
        elif "a" in mode:
            fs.create(path, truncate=False)
            self.offset = fs.size(path)
        elif not fs.exists(path):
            raise SyscallError("ENOENT", path)

    def read(self, nbytes: int) -> bytes:
        data = self.fs.read_at(self.path, self.offset, nbytes)
        self.offset += len(data)
        return data

    def write(self, data: bytes) -> int:
        if "r" == self.mode:
            raise SyscallError("EBADF", "file not open for writing")
        written = self.fs.write_at(self.path, self.offset, data)
        self.offset += written
        return written

    def seek(self, offset: int) -> int:
        if offset < 0:
            raise SyscallError("EINVAL", "negative offset")
        self.offset = offset
        return offset


class Descriptor:
    """One fd-table slot: the object plus this descriptor's access mode."""

    def __init__(self, obj: KernelObject, mode: str = "rw"):
        self.obj = obj
        self.mode = mode

    def __repr__(self) -> str:
        return f"<Descriptor {self.obj.kind} mode={self.mode}>"


class FdTable:
    """Per-process descriptor table."""

    def __init__(self):
        self._slots: Dict[int, Descriptor] = {}
        self._next = 3  # after stdin, stdout and stderr

    def install(self, descriptor: Descriptor) -> int:
        fd = self._next
        self._next += 1
        self._slots[fd] = descriptor
        return fd

    def install_at(self, fd: int, descriptor: Descriptor) -> None:
        self._slots[fd] = descriptor
        self._next = max(self._next, fd + 1)

    def get(self, fd: int) -> Descriptor:
        descriptor = self._slots.get(fd)
        if descriptor is None:
            raise SyscallError("EBADF", f"fd {fd}")
        return descriptor

    def remove(self, fd: int) -> Descriptor:
        descriptor = self._slots.pop(fd, None)
        if descriptor is None:
            raise SyscallError("EBADF", f"fd {fd}")
        return descriptor

    def items(self):
        return sorted(self._slots.items())

    def fds(self) -> List[int]:
        return sorted(self._slots)

    def lookup(self, obj: KernelObject) -> Optional[int]:
        for fd, descriptor in self._slots.items():
            if descriptor.obj is obj:
                return fd
        return None

    def __len__(self) -> int:
        return len(self._slots)

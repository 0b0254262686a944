"""A network-accessible shared filesystem.

Zap deliberately does not checkpoint filesystem state; it assumes "a
network-accessible file system that is accessible from any machine on which
the application may be restarted" (§2). One :class:`SharedFileSystem`
instance is therefore shared by every node in a simulated cluster, and the
checkpoint image store writes into it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Tuple

from repro.errors import SyscallError


class SharedFileSystem:
    """Path → bytes, visible from every node."""

    def __init__(self):
        # Values are bytearray (mutable, via create/write_at) or bytes
        # (whole-file writes via write_file, converted lazily on the
        # first write_at) — the immutable form lets replicated chunk
        # stores share one payload object per copy.
        self._files: Dict[str, bytes] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    def exists(self, path: str) -> bool:
        return path in self._files

    def create(self, path: str, truncate: bool = True) -> None:
        if truncate or path not in self._files:
            self._files[path] = bytearray()

    def unlink(self, path: str) -> None:
        if path not in self._files:
            raise SyscallError("ENOENT", path)
        del self._files[path]

    def size(self, path: str) -> int:
        if path not in self._files:
            raise SyscallError("ENOENT", path)
        return len(self._files[path])

    def read_at(self, path: str, offset: int, nbytes: int) -> bytes:
        if path not in self._files:
            raise SyscallError("ENOENT", path)
        data = self._files[path][offset:offset + nbytes]
        if isinstance(data, bytearray):
            data = bytes(data)
        self.bytes_read += len(data)
        return data

    def read_file(self, path: str) -> bytes:
        """The whole of ``path`` (the read twin of :meth:`write_file`)."""
        data = self._files.get(path)
        if data is None:
            raise SyscallError("ENOENT", path)
        if isinstance(data, bytearray):
            data = bytes(data)
        self.bytes_read += len(data)
        return data

    def write_file(self, path: str, data: bytes) -> int:
        """Create-or-truncate ``path`` to exactly ``data``.

        One zero-copy dict store instead of create+write_at — the
        chunk-store hot path writes hundreds of thousands of whole
        small files, and a replicated store shares one payload object
        across all copies.
        """
        self._files[path] = bytes(data)
        self.bytes_written += len(data)
        return len(data)

    def write_files(self, files: Iterable[Tuple[str, bytes]]) -> int:
        """:meth:`write_file` for a run of ``(path, data)`` pairs.

        The chunk store hands over a whole run of pages at once; every
        pair counts in ``bytes_written`` exactly as its own
        ``write_file`` would (a path listed twice is written twice).
        """
        stored = self._files
        total = 0
        for path, data in files:
            stored[path] = bytes(data)
            total += len(data)
        self.bytes_written += total
        return total

    def write_at(self, path: str, offset: int, data: bytes) -> int:
        if path not in self._files:
            raise SyscallError("ENOENT", path)
        blob = self._files[path]
        if not isinstance(blob, bytearray):
            blob = self._files[path] = bytearray(blob)
        if offset > len(blob):
            blob.extend(b"\x00" * (offset - len(blob)))
        blob[offset:offset + len(data)] = data
        self.bytes_written += len(data)
        return len(data)

    def listdir(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def paths(self) -> Iterator[str]:
        return iter(sorted(self._files))

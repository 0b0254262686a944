"""A network-accessible shared filesystem.

Zap deliberately does not checkpoint filesystem state; it assumes "a
network-accessible file system that is accessible from any machine on which
the application may be restarted" (§2). One :class:`SharedFileSystem`
instance is therefore shared by every node in a simulated cluster, and the
checkpoint image store writes into it.

A file's content is real bytes — or a :class:`SyntheticExtent`, the
descriptor ``(seed, length)`` of content that is one seed repeated. The
chunk store's memory pages are extents: what the reproduction claims
about a page is its identity, size, placement and movement, never its
bytes, so a stored page costs its 32-byte seed instead of 4 KiB. Every
size and byte counter treats an extent exactly as the bytes it stands
for, and the bytes are there for whoever asks (``bytes(extent)``,
``read_at``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Tuple, Union

from repro.errors import SyscallError


class SyntheticExtent(tuple):
    """``length`` bytes that are ``seed`` repeated (the last repeat cut).

    The pair ``(seed, length)`` underneath: immutable like the ``bytes``
    it stands for, so the filesystem hands the stored object out as it
    is and every replica of a chunk shares one; and built by one C call,
    ``SyntheticExtent((seed, length))`` with a non-empty seed — there is
    no Python-level constructor on the per-page put path. Code on that
    path reads ``length``; ``len()``, ``bytes()`` and ``==`` against
    real bytes work for everyone else.
    """

    __slots__ = ()

    seed = property(itemgetter(0), doc="The repeated unit (non-empty).")
    length = property(itemgetter(1), doc="Size of the content in bytes.")

    def read(self, offset: int, nbytes: int) -> bytes:
        """The content's ``[offset, offset + nbytes)``, clipped to its end;
        only that slice is materialised."""
        seed, length = self
        start = min(max(offset, 0), length)
        end = min(max(start + nbytes, start), length)
        unit = len(seed)
        first = start // unit
        repeats = seed * (-(-end // unit) - first)
        return repeats[start - first * unit:end - first * unit]

    def __bytes__(self) -> bytes:
        return self.read(0, self[1])

    def __len__(self) -> int:
        return self[1]

    def __eq__(self, other) -> bool:
        """Content equality, with other extents and with real bytes."""
        if isinstance(other, SyntheticExtent):
            return tuple.__eq__(self, other) or bytes(self) == bytes(other)
        if isinstance(other, (bytes, bytearray)):
            return self[1] == len(other) and bytes(self) == other
        return NotImplemented

    def __ne__(self, other) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = None

    def __repr__(self) -> str:
        return f"SyntheticExtent(({self[0]!r}, {self[1]}))"


#: What a whole-file write stores and ``read_file`` returns: real bytes
#: (a chunk store's blobs) or an extent (its pages).
Content = Union[bytes, SyntheticExtent]


class SharedFileSystem:
    """Path → content, visible from every node."""

    def __init__(self):
        # Whole-file writes keep their immutable value (bytes or extent)
        # and are converted to a bytearray lazily, on the first
        # write_at.
        self._files: Dict[str, Union[bytearray, Content]] = {}
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
        data = self._files[path]
        if type(data) is SyntheticExtent:
            data = data.read(offset, nbytes)
        else:
            data = bytes(data[offset:offset + nbytes])
        self.bytes_read += len(data)
        return data

    def read_file(self, path: str) -> Content:
        """The whole of ``path`` (the read twin of :meth:`write_file`);
        an extent comes back as the extent, not expanded."""
        data = self._files.get(path)
        if data is None:
            raise SyscallError("ENOENT", path)
        if type(data) is SyntheticExtent:
            self.bytes_read += data.length
            return data
        if isinstance(data, bytearray):
            data = bytes(data)
        self.bytes_read += len(data)
        return data

    def write_file(self, path: str, data: Content) -> int:
        """Create-or-truncate ``path`` to exactly ``data``.

        One dict store instead of create+write_at — the chunk-store hot
        path writes hundreds of thousands of whole small files. An
        extent is stored as the extent.
        """
        return self.write_files(((path, data),))

    def write_files(self, files: Iterable[Tuple[str, Content]]) -> int:
        """:meth:`write_file` for a run of ``(path, data)`` pairs.

        The chunk store hands over a whole run of pages at once; every
        pair counts in ``bytes_written`` exactly as its own
        ``write_file`` would (a path listed twice is written twice).
        """
        stored = self._files
        total = 0
        for path, data in files:
            if type(data) is SyntheticExtent:
                total += data.length
            else:
                data = bytes(data)
                total += len(data)
            stored[path] = data
        self.bytes_written += total
        return total

    def write_at(self, path: str, offset: int, data: bytes) -> int:
        if path not in self._files:
            raise SyscallError("ENOENT", path)
        blob = self._files[path]
        if not isinstance(blob, bytearray):
            blob = self._files[path] = bytearray(bytes(blob))
        if offset > len(blob):
            blob.extend(b"\x00" * (offset - len(blob)))
        blob[offset:offset + len(data)] = data
        self.bytes_written += len(data)
        return len(data)

    def listdir(self, prefix: str = "") -> List[str]:
        return sorted(p for p in self._files if p.startswith(prefix))

    def paths(self) -> Iterator[str]:
        return iter(sorted(self._files))

    def scan(self, prefix: str = ""
             ) -> List[Tuple[str, Union[bytearray, Content]]]:
        """Sorted ``(path, stored value)`` under ``prefix``, as stored.

        The fsck view: it expands nothing and counts as no read, so an
        audit can compare what every disk holds without moving
        ``bytes_read``.
        """
        return sorted(item for item in self._files.items()
                      if item[0].startswith(prefix))

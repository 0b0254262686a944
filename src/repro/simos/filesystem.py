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
``read_at``). A page's seed is its chunk id, which is also its file's
name, so the store keeps one :class:`NamedExtent` for every page copy
— the extent whose seed is the file's name — and a copy costs its
directory slot and no object of its own.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

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


class NamedExtent:
    """The extent whose seed is its file's name, hex-decoded: ``length``
    bytes that are ``bytes.fromhex(name)`` repeated.

    One object, never changed, stands for that content under every name
    it is stored under, so the chunk store writes the same marker for
    every page copy (a page's id is its seed and its file's name).
    Sizes and byte counters count it as ``length`` bytes; every read
    that returns content (:meth:`SharedFileSystem.read_file`,
    ``read_run``, ``read_at``) hands out :meth:`resolve` of it instead,
    and only the views of what is stored (``directory``, ``scan``,
    ``stored_run``) show the marker itself. Stored only under hex
    names.
    """

    __slots__ = ("length",)

    def __init__(self, length: int):
        self.length = length

    def __len__(self) -> int:
        return self.length

    def resolve(self, name: str) -> SyntheticExtent:
        """The content this marker stands for under ``name``."""
        return SyntheticExtent((bytes.fromhex(name), self.length))

    def __repr__(self) -> str:
        return f"NamedExtent({self.length})"


#: What a whole-file write stores and ``read_file`` returns: real bytes
#: (a chunk store's blobs) or an extent (its pages; a write may store
#: the :class:`NamedExtent` that stands for one).
Content = Union[bytes, SyntheticExtent, NamedExtent]
#: What a directory holds under a name: that, or the bytearray a
#: ``create``/``write_at`` file is.
Stored = Union[bytearray, Content]

_length = attrgetter("length")
_path_of = itemgetter(0)
#: The types whose size is their ``length``, read with no Python call.
_EXTENTS = {SyntheticExtent, NamedExtent}


def run_bytes(contents: Sequence[Content],
              kinds: Optional[Set[type]] = None) -> int:
    """The bytes a run of contents stands for. A run of extents (a
    process's pages) is summed with no Python call per page; ``kinds``
    is ``set(map(type, contents))`` for a caller that already has it."""
    if kinds is None:
        kinds = set(map(type, contents))
    if kinds <= _EXTENTS:
        return sum(map(_length, contents))
    return sum(map(len, contents))


def _resolved(names: Sequence[str], contents: List[Optional[Content]],
              kinds: Set[type]) -> List[Optional[Content]]:
    """``contents`` with each :class:`NamedExtent` resolved under its
    name in ``names`` (aligned); ``kinds`` is their set of types. A run
    of markers alone (a process's pages) is resolved in C passes."""
    if kinds == {NamedExtent}:
        return list(map(SyntheticExtent, zip(map(bytes.fromhex, names),
                                             map(_length, contents))))
    return [data.resolve(name) if type(data) is NamedExtent else data
            for name, data in zip(names, contents)]


#: The types a whole-file value is stored as without conversion.
_IMMUTABLE = {bytes, SyntheticExtent, NamedExtent}
#: Stands in for a directory nothing was ever written under.
_NO_FILES: Dict[str, Stored] = {}


class SharedFileSystem:
    """Path → content, visible from every node.

    Held as directories. A path splits after its last ``/``: the part
    up to and including that slash names the directory (``""`` for a
    path with none), the rest is the file's name in it, and the two
    concatenate back to the path. The directory is the unit of listing
    and of the run verbs. There is no ``mkdir``: a directory exists
    from the first write under it (or the first :meth:`directory`),
    stays when its last file is unlinked, and appears in no listing —
    those name files only.
    """

    def __init__(self):
        # Whole-file writes keep their immutable value (bytes or extent)
        # and are converted to a bytearray lazily, on the first
        # write_at.
        self._dirs: Dict[str, Dict[str, Stored]] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    def directory(self, directory: str) -> Dict[str, Stored]:
        """The live ``name → stored value`` table of ``directory``, to
        look at in place (the view :meth:`scan` gives, without a path
        string per file; counts as no read). One object for the life of
        the filesystem, emptied and refilled or not."""
        files = self._dirs.get(directory)
        if files is None:
            files = self._dirs[directory] = {}
        return files

    def directories(self, prefix: str) -> List[str]:
        """The directories whose name starts with ``prefix``, sorted —
        emptied ones included, so a listing that needs only some of
        them can look into those alone."""
        return sorted(name for name in self._dirs if name.startswith(prefix))

    # Every path verb splits its path the same way, inline: these are
    # the simulated kernel's file syscalls, and a shared helper would be
    # a second Python call on each.

    def exists(self, path: str) -> bool:
        head, slash, name = path.rpartition("/")
        return name in self._dirs.get(head + slash, _NO_FILES)

    def create(self, path: str, truncate: bool = True) -> None:
        head, slash, name = path.rpartition("/")
        files = self.directory(head + slash)
        if truncate or name not in files:
            files[name] = bytearray()

    def unlink(self, path: str) -> None:
        head, slash, name = path.rpartition("/")
        try:
            del self._dirs.get(head + slash, _NO_FILES)[name]
        except KeyError:
            raise SyscallError("ENOENT", path) from None

    def size(self, path: str) -> int:
        head, slash, name = path.rpartition("/")
        try:
            return len(self._dirs.get(head + slash, _NO_FILES)[name])
        except KeyError:
            raise SyscallError("ENOENT", path) from None

    def read_at(self, path: str, offset: int, nbytes: int) -> bytes:
        head, slash, name = path.rpartition("/")
        data = self._dirs.get(head + slash, _NO_FILES).get(name)
        if data is None:
            raise SyscallError("ENOENT", path)
        if type(data) is NamedExtent:
            data = data.resolve(name)
        if type(data) is SyntheticExtent:
            data = data.read(offset, nbytes)
        else:
            data = bytes(data[offset:offset + nbytes])
        self.bytes_read += len(data)
        return data

    def read_file(self, path: str) -> Content:
        """The whole of ``path`` (the read twin of :meth:`write_file`);
        an extent comes back as the extent, not expanded, and a
        :class:`NamedExtent` as the extent it stands for here."""
        head, slash, name = path.rpartition("/")
        data = self._dirs.get(head + slash, _NO_FILES).get(name)
        if data is None:
            raise SyscallError("ENOENT", path)
        if type(data) is NamedExtent:
            data = data.resolve(name)
        if type(data) is SyntheticExtent:
            self.bytes_read += data.length
            return data
        if type(data) is bytearray:
            data = bytes(data)
        self.bytes_read += len(data)
        return data

    def write_file(self, path: str, data: Content) -> int:
        """Create-or-truncate ``path`` to exactly ``data``; an extent is
        stored as the extent (a :class:`NamedExtent` as the marker)."""
        if type(data) in _EXTENTS:
            nbytes = data.length
        else:
            data = bytes(data)
            nbytes = len(data)
        head, slash, name = path.rpartition("/")
        self.directory(head + slash)[name] = data
        self.bytes_written += nbytes
        return nbytes

    def write_run(self, directory: str, names: Sequence[str],
                  contents: Sequence[Content]) -> int:
        """:meth:`write_file` of ``directory + name`` for a run of names
        and the contents aligned with them, in C-level passes.

        The chunk store hands over a whole run of pages at once; every
        pair counts in ``bytes_written`` exactly as its own
        ``write_file`` would (a name listed twice is written twice).
        Names are single path components.
        """
        kinds = set(map(type, contents))
        if not kinds <= _IMMUTABLE:
            contents = [data if type(data) in _EXTENTS
                        else bytes(data) for data in contents]
        total = run_bytes(contents, kinds)
        self.directory(directory).update(zip(names, contents))
        self.bytes_written += total
        return total

    def read_run(self, directory: str, names: Sequence[str]
                 ) -> List[Optional[Content]]:
        """:meth:`read_file` of ``directory + name`` for a run of names;
        a file that is not there is a ``None`` in its place and counts
        for nothing."""
        got = self.stored_run(directory, names)
        kinds = set(map(type, got))
        if NamedExtent in kinds:
            got = _resolved(names, got, kinds)
        return got

    def stored_run(self, directory: str, names: Sequence[str]
                   ) -> List[Optional[Content]]:
        """:meth:`read_run` with each value as it is stored, a
        :class:`NamedExtent` unresolved, and counted as that read: what a
        copy into another directory moves."""
        got = list(map(self._dirs.get(directory, _NO_FILES).get, names))
        # Not ``None in got``: that is an extent's ``__eq__`` per page.
        kinds = set(map(type, got))
        if kinds <= _IMMUTABLE:
            self.bytes_read += run_bytes(got, kinds)
        else:
            got = [bytes(data) if type(data) is bytearray else data
                   for data in got]
            self.bytes_read += run_bytes(
                [data for data in got if data is not None])
        return got

    def write_at(self, path: str, offset: int, data: bytes) -> int:
        head, slash, name = path.rpartition("/")
        files = self._dirs.get(head + slash, _NO_FILES)
        blob = files.get(name)
        if blob is None:
            raise SyscallError("ENOENT", path)
        if type(blob) is NamedExtent:
            blob = blob.resolve(name)
        if type(blob) is not bytearray:
            blob = files[name] = bytearray(bytes(blob))
        if offset > len(blob):
            blob.extend(b"\x00" * (offset - len(blob)))
        blob[offset:offset + len(data)] = data
        self.bytes_written += len(data)
        return len(data)

    def _under(self, prefix: str) -> Iterator[Tuple[str, Iterable[str]]]:
        """``(directory, names)`` of the files whose path starts with
        ``prefix`` — a string prefix, so it may end mid-name. Only
        directories the prefix can match are looked into."""
        for directory, files in self._dirs.items():
            if directory.startswith(prefix):
                yield directory, files
            elif prefix.startswith(directory):
                stem = prefix[len(directory):]
                yield directory, [name for name in files
                                  if name.startswith(stem)]

    def listdir(self, prefix: str = "") -> List[str]:
        """Every path that starts with ``prefix``, sorted."""
        found: List[str] = []
        for directory, names in self._under(prefix):
            found.extend(map(directory.__add__, names))
        found.sort()
        return found

    def paths(self) -> Iterator[str]:
        return iter(self.listdir())

    def scan(self, prefix: str = "") -> List[Tuple[str, Stored]]:
        """Sorted ``(path, stored value)`` under ``prefix``, as stored.

        The fsck view: it expands nothing and counts as no read, so an
        audit can compare what every disk holds without moving
        ``bytes_read``.
        """
        found: List[Tuple[str, Stored]] = []
        for directory, names in self._under(prefix):
            found.extend(zip(map(directory.__add__, names),
                             map(self._dirs[directory].__getitem__, names)))
        found.sort(key=_path_of)
        return found

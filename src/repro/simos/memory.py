"""Process address spaces.

Applications in this reproduction keep their *logical* state in Python
attributes of their :class:`~repro.simos.program.Program`; the address space
tracks the *size and dirtiness* of that state, which is what determines
checkpoint cost (the paper: "most of the state consists of the non-zero
contents of the virtual memory", §6) and enables the incremental-checkpoint
optimisation discussed in §5.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.errors import SyscallError

PAGE_SIZE = 4096


@dataclass
class Region:
    """A named allocation (e.g. "grid", "halo-buffers")."""

    name: str
    nbytes: int
    base_page: int

    @property
    def page_count(self) -> int:
        return (self.nbytes + PAGE_SIZE - 1) // PAGE_SIZE


@dataclass
class AddressSpace:
    """Page-granular accounting of a process's memory.

    Besides the dirty *bit* per page (cleared after an incremental
    checkpoint), every page carries a monotonically increasing *version*:
    writing a page bumps its version, so a page's logical content is fully
    determined by ``(region, page, version)``. The content-addressed chunk
    store keys page chunks off exactly that identity — two checkpoints of
    an untouched page produce the same chunk and are stored once.
    """

    regions: Dict[str, Region] = field(default_factory=dict)
    dirty_pages: Set[int] = field(default_factory=set)
    #: page -> write version (bumped on every touch of that page).
    page_versions: Dict[int, int] = field(default_factory=dict)
    _next_page: int = 0
    _write_clock: int = 0

    @property
    def resident_bytes(self) -> int:
        return sum(region.nbytes for region in self.regions.values())

    @property
    def total_pages(self) -> int:
        return sum(region.page_count for region in self.regions.values())

    def allocate(self, name: str, nbytes: int) -> Region:
        """Map a new region; all its pages start dirty (first touch)."""
        if name in self.regions:
            raise SyscallError("EEXIST", f"region {name!r} already mapped")
        if nbytes < 0:
            raise SyscallError("EINVAL", "negative allocation")
        region = Region(name=name, nbytes=nbytes, base_page=self._next_page)
        self._next_page += region.page_count
        self.regions[name] = region
        self._write_clock += 1
        version = self._write_clock
        for page in range(region.base_page,
                          region.base_page + region.page_count):
            self.dirty_pages.add(page)
            self.page_versions[page] = version
        return region

    def free(self, name: str) -> None:
        region = self.regions.pop(name, None)
        if region is None:
            raise SyscallError("EINVAL", f"region {name!r} not mapped")
        for page in range(region.base_page,
                          region.base_page + region.page_count):
            self.dirty_pages.discard(page)
            self.page_versions.pop(page, None)

    def touch(self, name: str, fraction: float = 1.0) -> None:
        """Mark (a fraction of) a region's pages dirty."""
        region = self.regions.get(name)
        if region is None:
            raise SyscallError("EFAULT", f"region {name!r} not mapped")
        count = max(1, int(region.page_count * fraction)) \
            if region.page_count else 0
        self._write_clock += 1
        version = self._write_clock
        for page in range(region.base_page, region.base_page + count):
            self.dirty_pages.add(page)
            self.page_versions[page] = version

    def dirty_bytes(self) -> int:
        return len(self.dirty_pages) * PAGE_SIZE

    def clear_dirty(self) -> None:
        """Called after an incremental checkpoint has written dirty pages."""
        self.dirty_pages.clear()

    def clear_dirty_captured(self, captured: "AddressSpace") -> None:
        """Retire dirty bits covered by a *committed* snapshot.

        A page is cleared only when its current write version equals the
        version the ``captured`` snapshot holds — a page re-written after
        the capture (the concurrent-write window of §5.2, or any pre-copy
        round) keeps its dirty bit so the next incremental checkpoint
        ships the newer content. Callers must invoke this only after the
        store commit succeeds; an aborted save leaves every bit intact.
        """
        for page in [p for p in self.dirty_pages
                     if captured.page_versions.get(p)
                     == self.page_versions.get(p)]:
            self.dirty_pages.discard(page)

    def snapshot(self) -> "AddressSpace":
        """A deep, independent copy for a checkpoint image."""
        copy = AddressSpace()
        copy.regions = {name: Region(r.name, r.nbytes, r.base_page)
                        for name, r in self.regions.items()}
        copy.dirty_pages = set(self.dirty_pages)
        copy.page_versions = dict(self.page_versions)
        copy._next_page = self._next_page
        copy._write_clock = self._write_clock
        return copy

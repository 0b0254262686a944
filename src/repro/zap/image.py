"""Checkpoint image format.

Images are plain-data object trees, pickled for storage in the shared
filesystem. Every restore deep-copies out of the image, so one image can be
restarted any number of times (and on any node) without mutation.

These dataclasses are the stored format: the image store writes each
record as its fields in declaration order (``repro.cruz.storage``), so
a field added here is saved and loaded as it is, and reordering fields
changes the bytes of every manifest.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import CheckpointError
from repro.net.addresses import Ipv4Address, MacAddress
from repro.simos.memory import AddressSpace
from repro.simos.syscalls import Syscall


def freeze_object(obj: Any) -> bytes:
    """Serialise application state (a point-in-time copy, not a reference)."""
    try:
        return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # noqa: BLE001 - report what cannot checkpoint
        raise CheckpointError(
            f"state is not checkpointable: {exc}") from exc


def thaw_object(blob: bytes) -> Any:
    return pickle.loads(blob)


def fetch_fraction(chunk_sources, reader: str) -> float:
    """Parallel multi-source restore time as a fraction of serial time.

    ``chunk_sources`` groups the image's bytes by holder set (see
    :attr:`CheckpointImage.chunk_sources`). Chunks the ``reader`` node
    holds itself are one local disk stream; each remote group streams
    concurrently from all of its live replicas, splitting its bytes
    evenly. The restore is bound by the busiest single disk, so the
    effective fetch time is ``busiest / total`` of the serial
    single-disk time — exactly 1.0 when everything is local, when one
    disk holds every chunk, or when the image was never stored.
    """
    if not chunk_sources:
        return 1.0
    local = 0.0
    remote: Dict[str, float] = {}
    total = 0.0
    for holders, nbytes in chunk_sources:
        total += nbytes
        if reader in holders:
            local += nbytes
        elif holders:
            share = nbytes / len(holders)
            for holder in holders:
                remote[holder] = remote.get(holder, 0.0) + share
        else:
            # No surviving holder: charge it like a local read; the
            # store raises VersionUnreconstructibleError before a
            # restore with truly lost chunks gets this far.
            local += nbytes
    if total <= 0:
        return 1.0
    busiest = max([local] + [remote[node] for node in sorted(remote)])
    if busiest >= total:
        return 1.0
    return busiest / total


@dataclass
class PipeImage:
    """A pipe shared by the pod's processes, with buffered bytes."""

    index: int
    buffer: bytes
    readers: int
    writers: int


#: The kinds of descriptor an image can hold, and of those the sockets.
FD_KINDS = ("file", "pipe", "tcp_socket", "udp_socket")
SOCKET_FD_KINDS = ("tcp_socket", "udp_socket")


@dataclass
class FdImage:
    """One descriptor-table slot.

    ``kind`` is one of :data:`FD_KINDS`, and ``detail`` depends on it:

    * ``file`` — ``{"path", "offset", "file_mode"}``
    * ``pipe`` — ``{"pipe_index"}``
    * a :data:`SOCKET_FD_KINDS` kind — codec-defined socket image
    """

    fd: int
    kind: str
    mode: str
    detail: Any


@dataclass
class ProcessImage:
    """Everything needed to recreate one process."""

    vpid: int
    parent_vpid: int
    name: str
    program_blob: bytes
    memory: AddressSpace
    resume_syscall: Optional[Syscall]
    fds: List[FdImage] = field(default_factory=list)
    was_stopped_by_user: bool = False
    #: Pending first-step result (a just-forked child not yet run).
    initial_result: Optional[tuple] = None


@dataclass
class ShmImage:
    vid: int
    app_key: int
    size: int
    payload_blob: bytes


@dataclass
class SemImage:
    vid: int
    app_key: int
    value: int


@dataclass
class CheckpointImage:
    """A consistent snapshot of one pod."""

    pod_name: str
    taken_at: float
    ip: Ipv4Address
    mac: MacAddress
    fake_mac: MacAddress
    own_wire_mac: bool
    next_vpid: int
    next_vipc: int
    processes: List[ProcessImage] = field(default_factory=list)
    pipes: List[PipeImage] = field(default_factory=list)
    shm: List[ShmImage] = field(default_factory=list)
    sem: List[SemImage] = field(default_factory=list)
    #: Bytes of state written to stable storage (drives checkpoint time).
    state_bytes: int = 0
    #: Bytes actually moved to stable storage. With a chunk store behind
    #: the checkpoint this is the measured new-chunk byte count; without
    #: one it falls back to the dirty-page accounting estimate.
    written_bytes: int = 0
    #: Logical bytes the image references in the chunk store (dedup'd
    #: chunks included); 0 when saved without a chunk store.
    total_chunk_bytes: int = 0
    sockets_captured: int = 0
    #: Store version assigned when the image was committed (0 = unsaved).
    version: int = 0
    #: Populated by the image store on load: the manifest's chunk
    #: bytes grouped by surviving holder set, as
    #: ``[(holder_names, nbytes), ...]``. ``None`` for images that were
    #: never stored.
    chunk_sources: Optional[List[tuple]] = None


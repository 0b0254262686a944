"""Single-pod checkpoint.

The sequence follows §4.1:

1. SIGSTOP every process in the pod ("Zap sends SIGSTOP signals to stop the
   execution of all processes in a pod before checkpointing it").
2. Freeze the network processing for the pod's sockets (the spin-lock
   window) and capture socket state via the codec.
3. Extract user-level and kernel state (programs, memory, fds, pipes, IPC).
4. Write the image; cost is dominated by the memory state / disk bandwidth.
5. Optionally resume the processes (checkpoint is non-destructive).
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.errors import CheckpointError
from repro.simos.files import Pipe, RegularFile
from repro.simos.sockets import TcpSocket, UdpSocket
from repro.zap.image import (
    SOCKET_FD_KINDS,
    CheckpointImage,
    FdImage,
    PipeImage,
    ProcessImage,
    SemImage,
    ShmImage,
    freeze_object,
)
from repro.zap.pod import Pod
from repro.zap.socket_codec import SocketCodec

#: Estimated per-process kernel bookkeeping written to the image.
PROCESS_OVERHEAD_BYTES = 8192


class CheckpointEngine:
    """Builds :class:`CheckpointImage` objects for pods.

    With a chunk-backed ``store`` (see :mod:`repro.cruz.storage`) the
    engine plans the save up front, charges a short serialization window
    while the pod is stopped, pipelines the disk write against it, and
    commits the image itself (``image.version`` holds the result).
    Without a store the classic whole-image write cost applies and the
    caller persists the image.
    """

    def __init__(self, codec: SocketCodec, store=None):
        self.codec = codec
        self.store = store

    # -- simulation-timed entry point -------------------------------------

    def checkpoint(self, pod: Pod, resume: bool = True,
                   incremental: bool = False,
                   dedup: bool = False,
                   on_captured=None,
                   concurrent: bool = False) -> Generator:
        """A simulation coroutine; its value is the finished image.

        ``on_captured`` — invoked the moment the state has been extracted
        (before the disk write). The §5.2 "early re-enable" optimisation
        hooks here: "keeping communication disabled only for the duration
        it takes to save the communication state ... allows any recovery
        from TCP backoffs to proceed in parallel with saving the
        checkpoint state."

        ``concurrent`` — resume the processes right after extraction and
        overlap the disk write with computation. This models the §5.2
        copy-on-write optimisation; in this reproduction the extracted
        image *is* an isolated copy, so resuming early is always safe.
        """
        node = pod.node
        sim, costs = node.sim, node.costs
        spans = node.trace.spans
        procs = pod.live_processes()
        pre_stopped = {p.pid for p in procs if p.stopped}
        with spans.span("zap.stop", node=node.name, pod=pod.name):
            pod.stop_all()
            if procs:
                yield sim.timeout(costs.signal_delivery * len(procs))
        sockets = self._pod_sockets(pod)
        netstate_span = spans.begin("zap.netstate_capture",
                                    node=node.name, pod=pod.name,
                                    sockets=len(sockets))
        for sock in sockets:
            if isinstance(sock, TcpSocket) and sock.connection is not None:
                sock.connection.freeze()
        if sockets:
            # The short spin-lock window of §4.1.
            yield sim.timeout(costs.socket_capture_time * len(sockets))
        try:
            image = self.build_image(pod, pre_stopped=pre_stopped,
                                     incremental=incremental)
        finally:
            for sock in sockets:
                if isinstance(sock, TcpSocket) and \
                        sock.connection is not None:
                    sock.connection.unfreeze()
            spans.end(netstate_span)
        if self.store is not None:
            mode = "incremental" if incremental \
                else ("dedup" if dedup else "full")
            # The checkpointing node is the writer: with a placed
            # (sharded) store it keeps the primary copy of every chunk,
            # so a restore on this node stays a local disk read.
            plan = self.store.plan(image, mode=mode, writer=node.name)
            image.written_bytes = plan.write_bytes
            image.total_chunk_bytes = plan.total_bytes
            serialize_s, pipeline_s = plan.schedule(costs)
            if serialize_s:
                # Copy-out window: the pod must stay stopped only while
                # its state is serialised; the disk write of process i
                # overlaps the serialization of process i+1 (§5.2).
                with spans.span("zap.serialize", node=node.name,
                                pod=pod.name):
                    yield sim.timeout(serialize_s)
            if on_captured is not None:
                on_captured()
            if concurrent and resume:
                pod.continue_all()
            with spans.span("zap.store_write", node=node.name,
                            pod=pod.name, mode=mode,
                            write_bytes=plan.write_bytes):
                yield sim.timeout(costs.checkpoint_fixed
                                  + (pipeline_s - serialize_s))
                image.version = self.store.save(image, mode=mode,
                                                plan=plan)
            if incremental:
                self._retire_dirty(pod, image)
        else:
            if on_captured is not None:
                on_captured()
            if concurrent and resume:
                pod.continue_all()
            write_bytes = image.written_bytes
            with spans.span("zap.image_write", node=node.name,
                            pod=pod.name, write_bytes=write_bytes):
                yield sim.timeout(costs.checkpoint_fixed +
                                  write_bytes / costs.disk_write_bandwidth)
            if incremental:
                self._retire_dirty(pod, image)
        if resume and not concurrent:
            pod.continue_all()
        return image

    @staticmethod
    def _retire_dirty(pod: Pod, image: CheckpointImage) -> None:
        """After a *committed* incremental save, retire the dirty bits
        the image covers. Pages re-dirtied between capture and commit
        (the concurrent-write window) stay dirty for the next round."""
        by_vpid = {proc_image.vpid: proc_image
                   for proc_image in image.processes}
        for proc in pod.live_processes():
            captured = by_vpid.get(pod.vpid_of(proc.pid))
            if captured is not None:
                proc.memory.clear_dirty_captured(captured.memory)

    # -- state extraction (instantaneous) ------------------------------------

    def build_image(self, pod: Pod, pre_stopped=frozenset(),
                    incremental: bool = False) -> CheckpointImage:
        """Extract the pod's state. Processes must already be stopped."""
        node = pod.node
        procs = pod.live_processes()
        for proc in procs:
            if not proc.stopped:
                raise CheckpointError(
                    f"process pid={proc.pid} not stopped before checkpoint")
        image = CheckpointImage(
            pod_name=pod.name, taken_at=node.sim.now,
            ip=pod.ip, mac=pod.mac, fake_mac=pod.fake_mac,
            own_wire_mac=pod.own_wire_mac,
            next_vpid=pod._next_vpid, next_vipc=pod._next_vipc)
        # Keyed by the Pipe object itself (identity hash): same dedup as
        # id(obj) keys, but insertion-ordered by fd walk, not by address.
        pipe_indexes: Dict[Pipe, int] = {}
        state_bytes = 0
        written_bytes = 0

        for proc in procs:
            program_blob = freeze_object(proc.program)
            resume_syscall = proc.current_syscall
            fd_images: List[FdImage] = []
            for fd, descriptor in proc.fds.items():
                fd_images.append(self._capture_fd(
                    pod, image, pipe_indexes, fd, descriptor))
            parent_vpid = pod.pid_to_vpid.get(proc.ppid, 0)
            memory_snapshot = proc.memory.snapshot()
            image.processes.append(ProcessImage(
                vpid=pod.vpid_of(proc.pid), parent_vpid=parent_vpid,
                name=proc.name, program_blob=program_blob,
                memory=memory_snapshot, resume_syscall=resume_syscall,
                fds=fd_images,
                was_stopped_by_user=proc.pid in pre_stopped,
                initial_result=proc.initial_result
                if proc.syscall_count == 0 else None))
            state_bytes += (proc.memory.resident_bytes + len(program_blob)
                            + PROCESS_OVERHEAD_BYTES)
            if incremental:
                # Dirty bits are NOT retired here: the save has not
                # committed yet. ``checkpoint`` clears them (per page,
                # via the captured snapshot) only after the store commit
                # succeeds, so an aborted save never loses pages.
                written_bytes += (proc.memory.dirty_bytes()
                                  + len(program_blob)
                                  + PROCESS_OVERHEAD_BYTES)

        self._capture_ipc(pod, image)

        for pipe_image in image.pipes:
            state_bytes += len(pipe_image.buffer)
        for shm_image in image.shm:
            state_bytes += shm_image.size
        for proc_image in image.processes:
            for fd_image in proc_image.fds:
                if fd_image.kind in SOCKET_FD_KINDS:
                    state_bytes += self.codec.image_bytes(
                        fd_image.detail if isinstance(fd_image.detail, dict)
                        else {})
                    image.sockets_captured += 1
        image.state_bytes = state_bytes
        image.written_bytes = written_bytes if incremental else state_bytes
        return image

    def _capture_fd(self, pod: Pod, image: CheckpointImage,
                    pipe_indexes: Dict[Pipe, int], fd: int,
                    descriptor) -> FdImage:
        obj = descriptor.obj
        if isinstance(obj, RegularFile):
            return FdImage(fd=fd, kind="file", mode=descriptor.mode,
                           detail={"path": obj.path, "offset": obj.offset,
                                   "file_mode": obj.mode})
        if isinstance(obj, Pipe):
            index = pipe_indexes.get(obj)
            if index is None:
                index = len(image.pipes)
                pipe_indexes[obj] = index
                image.pipes.append(PipeImage(
                    index=index, buffer=bytes(obj.buffer),
                    readers=obj.readers, writers=obj.writers))
            return FdImage(fd=fd, kind="pipe", mode=descriptor.mode,
                           detail={"pipe_index": index})
        if isinstance(obj, TcpSocket):
            return FdImage(fd=fd, kind="tcp_socket", mode=descriptor.mode,
                           detail=self.codec.capture_tcp(obj))
        if isinstance(obj, UdpSocket):
            return FdImage(fd=fd, kind="udp_socket", mode=descriptor.mode,
                           detail=self.codec.capture_udp(obj))
        raise CheckpointError(f"cannot checkpoint fd kind {obj.kind!r}")

    def _capture_ipc(self, pod: Pod, image: CheckpointImage) -> None:
        node = pod.node
        for vid, physical in sorted(pod.vshm.items()):
            segment = node.ipc.shm_lookup(physical)
            image.shm.append(ShmImage(
                vid=vid, app_key=segment.key & 0xFFFFFFFF,
                size=segment.size,
                payload_blob=freeze_object(segment.payload)))
        for vid, physical in sorted(pod.vsem.items()):
            semaphore = node.ipc.sem_lookup(physical)
            image.sem.append(SemImage(
                vid=vid, app_key=semaphore.key & 0xFFFFFFFF,
                value=semaphore.value))

    @staticmethod
    def _pod_sockets(pod: Pod) -> List:
        return pod_sockets(pod)


def pod_sockets(pod: Pod) -> List:
    """All distinct socket objects reachable from the pod's processes."""
    sockets: List = []
    for proc in pod.live_processes():
        for _fd, descriptor in proc.fds.items():
            obj = descriptor.obj
            if isinstance(obj, (TcpSocket, UdpSocket)) \
                    and not any(obj is known for known in sockets):
                sockets.append(obj)
    return sockets


def scrub_pod_network(pod: Pod) -> None:
    """Silently destroy the pod's network state on its current node.

    A migrating (or checkpointed-then-killed) pod must leave no TCP state
    behind, and — critically — must not emit FIN or RST while dying: the
    peers' connections now belong to the restored instance elsewhere. Call
    this *before* killing the pod's processes.
    """
    for sock in pod_sockets(pod):
        if isinstance(sock, TcpSocket):
            if sock.listener is not None:
                for embryo in list(sock.listener.embryos):
                    embryo.destroy()
                sock.listener.embryos.clear()
                for queued in list(sock.listener.accept_queue):
                    queued.destroy()
                sock.listener.accept_queue.clear()
                sock.listener.closed = True
                sock.stack.tcp.remove_listener(sock.listener)
            if sock.connection is not None:
                sock.connection.destroy()
            sock.closed = True
        else:
            sock.close()

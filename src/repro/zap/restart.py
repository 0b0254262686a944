"""Single-pod restart from a checkpoint image.

Restart "re-creates these processes and restores their execution state,
mostly by invoking system calls. While the re-created OS resources have
different identifiers inside the operating system, Zap's virtualization
layer masks this difference" (§2) — so a pod restarts correctly even when
its old physical PIDs are taken on the target node.
"""

from __future__ import annotations

from typing import Dict, Generator

from repro.errors import CheckpointError
from repro.simos.files import Descriptor, Pipe, RegularFile
from repro.simos.kernel import Node
from repro.simos.process import SIGSTOP
from repro.zap.image import (
    CheckpointImage,
    FdImage,
    fetch_fraction,
    thaw_object,
)
from repro.zap.pod import Pod
from repro.zap.socket_codec import SocketCodec
from repro.zap.virtualization import install_pod


class RestartEngine:
    """Recreates pods from :class:`CheckpointImage` objects."""

    def __init__(self, codec: SocketCodec):
        self.codec = codec

    def restart(self, image: CheckpointImage, node: Node,
                resume: bool = True,
                warm_bytes: int = 0) -> Generator:
        """A simulation coroutine; its value is the recreated pod.

        ``warm_bytes`` — bytes of the image already staged on the target
        (a pre-copy migration prefetches chunk rounds while the source
        keeps running); only the cold remainder is charged against the
        disk read bandwidth.
        """
        sim, costs = node.sim, node.costs
        # Read the image back from storage. A placed (sharded) image
        # streams in parallel from every surviving replica; the fetch
        # fraction is the busiest source disk's share of the bytes
        # (exactly 1.0 for local or single-disk images).
        cold_bytes = max(0, image.state_bytes - warm_bytes)
        fraction = fetch_fraction(image.chunk_sources, node.name)
        yield sim.timeout(costs.restart_fixed +
                          cold_bytes * fraction / costs.disk_read_bandwidth)
        pod = self.instantiate(image, node)
        sanitizer = node.trace.sanitizer
        if sanitizer is not None:
            sanitizer.check_restored_memory(image, pod, time=sim.now)
        if image.sockets_captured:
            yield sim.timeout(
                costs.socket_capture_time * image.sockets_captured)
        node.trace.spans.instant("zap.restart", node=node.name,
                                 pod=pod.name,
                                 processes=len(image.processes))
        if resume:
            self.resume(pod, image)
        return pod

    def instantiate(self, image: CheckpointImage, node: Node) -> Pod:
        """Recreate the pod and all its processes, stopped."""
        use_own_mac = image.own_wire_mac
        if use_own_mac and not node.stack.nic.supports_multiple_macs:
            use_own_mac = False
        mac = image.mac if use_own_mac else node.stack.nic.primary_mac
        pod = Pod(node, image.pod_name, ip=image.ip, mac=mac,
                  own_wire_mac=use_own_mac, fake_mac=image.fake_mac)
        install_pod(pod)
        pod._next_vpid = image.next_vpid
        pod._next_vipc = image.next_vipc

        self._restore_ipc(pod, image)
        pipes = self._restore_pipes(image)
        vpid_to_proc = {}
        for proc_image in image.processes:
            program = thaw_object(proc_image.program_blob)
            proc = pod.spawn(program, name=proc_image.name,
                             vpid=proc_image.vpid)
            proc.current_syscall = proc_image.resume_syscall
            proc.pending_result = proc_image.initial_result
            # Keep the pod quiescent until the caller resumes it.
            proc.signal(SIGSTOP)
            proc.memory = proc_image.memory.snapshot()
            for fd_image in proc_image.fds:
                self._restore_fd(pod, proc, fd_image, pipes)
            vpid_to_proc[proc_image.vpid] = proc
        # Parent links (vPIDs are preserved; physical ppids re-derived).
        for proc_image in image.processes:
            if proc_image.parent_vpid in vpid_to_proc:
                vpid_to_proc[proc_image.vpid].ppid = \
                    vpid_to_proc[proc_image.parent_vpid].pid
        return pod

    @staticmethod
    def resume(pod: Pod, image: CheckpointImage) -> None:
        """SIGCONT everything that was not user-stopped at checkpoint."""
        user_stopped = {p.vpid for p in image.processes
                        if p.was_stopped_by_user}
        for proc in pod.live_processes():
            if pod.vpid_of(proc.pid) not in user_stopped:
                pod.node.signal_now(proc.pid, "SIGCONT")

    # -- pieces ------------------------------------------------------------

    def _restore_ipc(self, pod: Pod, image: CheckpointImage) -> None:
        node = pod.node
        for shm_image in image.shm:
            key = (pod.pod_id << 32) | shm_image.app_key
            physical = node.ipc.restore_shm(
                key, shm_image.size, thaw_object(shm_image.payload_blob))
            pod.vshm[shm_image.vid] = physical
        for sem_image in image.sem:
            key = (pod.pod_id << 32) | sem_image.app_key
            physical = node.ipc.restore_sem(key, sem_image.value)
            pod.vsem[sem_image.vid] = physical

    def _restore_pipes(self, image: CheckpointImage) -> Dict[int, Pipe]:
        pipes: Dict[int, Pipe] = {}
        for pipe_image in image.pipes:
            pipe = Pipe(sim=None)  # sim injected below
            pipes[pipe_image.index] = (pipe, pipe_image)
        return pipes

    def _restore_fd(self, pod: Pod, proc, fd_image: FdImage,
                    pipes: Dict) -> None:
        node = pod.node
        if fd_image.kind == "file":
            detail = fd_image.detail
            regular = RegularFile(node.sim, node.fs, detail["path"],
                                  detail["file_mode"])
            regular.offset = detail["offset"]
            proc.fds.install_at(fd_image.fd,
                                Descriptor(regular, fd_image.mode))
            return
        if fd_image.kind == "pipe":
            entry = pipes[fd_image.detail["pipe_index"]]
            pipe, pipe_image = entry
            if pipe.sim is None:
                pipe.sim = node.sim
                pipe.buffer = bytearray(pipe_image.buffer)
                pipe.readers = pipe_image.readers
                pipe.writers = pipe_image.writers
            proc.fds.install_at(fd_image.fd,
                                Descriptor(pipe, fd_image.mode))
            return
        if fd_image.kind == "tcp_socket":
            sock = self.codec.restore_tcp(node, pod, fd_image.detail)
            proc.fds.install_at(fd_image.fd,
                                Descriptor(sock, fd_image.mode))
            return
        if fd_image.kind == "udp_socket":
            sock = self.codec.restore_udp(node, pod, fd_image.detail)
            proc.fds.install_at(fd_image.fd,
                                Descriptor(sock, fd_image.mode))
            return
        raise CheckpointError(f"unknown fd kind {fd_image.kind!r}")

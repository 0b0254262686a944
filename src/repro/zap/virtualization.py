"""Zap's syscall interposition layer.

"The virtualization layer intercepts system calls to expose only virtual
identifiers" (§2). Per the Cruz extensions (§4.2):

* ``bind`` — the wrapper "replaces the network address argument with the IP
  address of the pod's VIF", confining listeners to the pod address;
* ``connect`` — the wrapper "invokes bind prior to the original function",
  so outgoing connections originate from the pod address;
* ``ioctl(SIOCGIFHWADDR)`` — "intercepted to return the fake MAC address",
  keeping DHCP-based leases stable across migration.

PID and SysV-IPC identifiers are translated both ways so physical ids never
leak into pod processes — the property that lets Zap restart a pod even when
its old PIDs are taken (§2).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from repro.errors import PodError, SyscallError
from repro.simos.kernel import SyscallInterposer
from repro.simos.process import ProcessControlBlock
from repro.simos.syscalls import SIOCGIFHWADDR, Syscall
from repro.zap.pod import Pod


class ZapInterposer(SyscallInterposer):
    """The per-pod wrapper around the syscall table."""

    def __init__(self, pod: Pod):
        self.pod = pod
        self.intercept_count = 0

    # -- argument rewriting ------------------------------------------------

    def rewrite(self, proc: ProcessControlBlock, call: Syscall) -> Syscall:
        self.intercept_count += 1
        handler = getattr(self, f"_rw_{call.name}", None)
        if handler is None:
            return call
        return handler(proc, call)

    def _rw_bind(self, proc, call: Syscall) -> Syscall:
        fd, _ip, port = call.args
        # Confine the socket to the pod's VIF address regardless of what
        # the application asked for (INADDR_ANY or otherwise).
        return replace(call, args=(fd, self.pod.ip, port))

    def _rw_connect(self, proc, call: Syscall) -> Syscall:
        kwargs = dict(call.kwargs)
        kwargs["bind_ip"] = self.pod.ip
        return replace(call, kwargs=kwargs)

    def _rw_sendto(self, proc, call: Syscall) -> Syscall:
        kwargs = dict(call.kwargs)
        kwargs.setdefault("src_ip", self.pod.ip)
        return replace(call, kwargs=kwargs)

    def _rw_ioctl(self, proc, call: Syscall) -> Syscall:
        request, arg = call.args
        if request == SIOCGIFHWADDR and self.pod.vif is not None:
            # Pod processes only see the pod's VIF, whatever name they use.
            return replace(call, args=(request, self.pod.vif.name))
        return call

    def _rw_kill(self, proc, call: Syscall) -> Syscall:
        vpid, sig = call.args
        try:
            return replace(call, args=(self.pod.pid_of(vpid), sig))
        except PodError:
            raise SyscallError("ESRCH", f"vpid {vpid}")

    def _rw_waitpid(self, proc, call: Syscall) -> Syscall:
        (vpid,) = call.args
        try:
            return replace(call, args=(self.pod.pid_of(vpid),))
        except PodError:
            raise SyscallError("ECHILD", f"vpid {vpid}")

    def _rw_shm_read(self, proc, call: Syscall) -> Syscall:
        vid = call.args[0]
        return replace(call, args=(self._phys(self.pod.vshm, vid),
                                   *call.args[1:]))

    def _rw_shm_write(self, proc, call: Syscall) -> Syscall:
        vid = call.args[0]
        return replace(call, args=(self._phys(self.pod.vshm, vid),
                                   *call.args[1:]))

    def _rw_semop(self, proc, call: Syscall) -> Syscall:
        vid = call.args[0]
        return replace(call, args=(self._phys(self.pod.vsem, vid),
                                   *call.args[1:]))

    def _rw_shmget(self, proc, call: Syscall) -> Syscall:
        key, size = call.args
        # Pod-private key namespace: two pods using key 5 must not collide.
        return replace(call, args=(self._namespaced_key(key), size))

    def _rw_semget(self, proc, call: Syscall) -> Syscall:
        key = call.args[0]
        rest = call.args[1:]
        return replace(call, args=(self._namespaced_key(key), *rest))

    def _namespaced_key(self, key: int) -> int:
        return (self.pod.pod_id << 32) | (key & 0xFFFFFFFF)

    @staticmethod
    def _phys(table, vid: int) -> int:
        physical = table.get(vid)
        if physical is None:
            raise SyscallError("EINVAL", f"virtual ipc id {vid}")
        return physical

    # -- result translation ---------------------------------------------------

    def translate_result(self, proc: ProcessControlBlock, call: Syscall,
                         result: Any) -> Any:
        handler = getattr(self, f"_tr_{call.name}", None)
        if handler is None:
            return result
        return handler(proc, call, result)

    def _tr_getpid(self, proc, call, result) -> int:
        return self.pod.vpid_of(result)

    def _tr_getppid(self, proc, call, result) -> int:
        if result == 0:
            return 0
        try:
            return self.pod.vpid_of(result)
        except PodError:
            return 0  # parent outside the pod appears as init

    def _tr_spawn(self, proc, call, result) -> int:
        return self.pod.vpid_of(result)

    def _tr_fork(self, proc, call, result):
        role, pid = result
        if role == "parent":
            return (role, self.pod.vpid_of(pid))
        return result

    def _tr_shmget(self, proc, call, result) -> int:
        return self.pod.virtual_ipc_id(self.pod.vshm, result)

    def _tr_semget(self, proc, call, result) -> int:
        return self.pod.virtual_ipc_id(self.pod.vsem, result)

    def _tr_ioctl(self, proc, call, result):
        request = call.args[0]
        if request == SIOCGIFHWADDR and self.pod.vif is not None:
            return self.pod.vif.identity_mac
        return result


def install_pod(pod: Pod) -> ZapInterposer:
    """Attach the pod's VIF and register its interposer with the kernel."""
    interposer = ZapInterposer(pod)
    pod.node.interposers[pod.pod_id] = interposer
    if pod.vif is None:
        pod.attach()
    return interposer


def uninstall_pod(pod: Pod) -> None:
    pod.node.interposers.pop(pod.pod_id, None)
    # Kernel-side pod-exit path: reclaims the pod's SysV IPC namespace
    # and (under CRUZ_SANITIZE) checks pause/resume pairing and leaks.
    pod.node.on_pod_exit(pod)
    pod.detach()

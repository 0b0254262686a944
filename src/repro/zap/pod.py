"""PrOcess Domains (pods).

A pod is Zap's unit of isolation and migration: "a thin virtualization
layer ... to expose only virtual identifiers (e.g., virtual process IDs)
... a private name space for each pod which isolates it from other pods and
decouples it from the OS" (§2). Cruz attaches a VIF to each pod so it owns a
network-visible IP/MAC that migrates with it (§4.2).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.errors import PodError
from repro.net.addresses import Ipv4Address, MacAddress
from repro.simos.kernel import Node
from repro.simos.netdev import Interface
from repro.simos.process import (
    ProcessControlBlock,
    SIGCONT,
    SIGKILL,
    SIGSTOP,
)
from repro.simos.program import Program

_pod_ids = itertools.count(1)


class Pod:
    """One process domain, currently resident on ``node``."""

    def __init__(self, node: Node, name: str, ip: Ipv4Address,
                 mac: MacAddress, own_wire_mac: bool = True,
                 fake_mac: Optional[MacAddress] = None):
        self.pod_id = next(_pod_ids)
        self.name = name
        self.node = node
        self.ip = ip
        self.mac = mac
        self.own_wire_mac = own_wire_mac
        #: Identity MAC reported to pod processes; survives migration even
        #: when the wire MAC cannot (§4.2 fake-MAC mechanism).
        self.fake_mac = fake_mac if fake_mac is not None else mac
        self.vif: Optional[Interface] = None

        # Virtual PID namespace.
        self._next_vpid = 1
        self.vpid_to_pid: Dict[int, int] = {}
        self.pid_to_vpid: Dict[int, int] = {}

        # Virtual SysV IPC namespaces (virtual id -> physical id).
        self._next_vipc = 1
        self.vshm: Dict[int, int] = {}
        self.vsem: Dict[int, int] = {}

        # Pause/resume bookkeeping: the runtime sanitizer checks the
        # pairing at pod exit (no live process may still be stopped).
        self.pause_count = 0
        self.resume_count = 0

    # -- lifecycle -------------------------------------------------------

    def attach(self) -> None:
        """Create this pod's VIF on the current node and announce it."""
        if self.vif is not None:
            raise PodError(f"pod {self.name} already attached")
        self.vif = self.node.stack.add_vif(
            name=f"vif-{self.name}", ip=self.ip, mac=self.mac,
            pod_id=self.pod_id, own_wire_mac=self.own_wire_mac,
            fake_mac=self.fake_mac if not self.own_wire_mac else None)
        self.node.stack.announce(self.vif)

    def detach(self) -> None:
        """Delete the VIF at the current host (migration step one)."""
        if self.vif is None:
            return
        self.node.stack.remove_vif(self.vif.name)
        self.vif = None

    # -- process membership -----------------------------------------------

    def adopt(self, proc: ProcessControlBlock,
              vpid: Optional[int] = None) -> int:
        """Bring a process into the pod's namespace, assigning a vPID."""
        if proc.pid in self.pid_to_vpid:
            return self.pid_to_vpid[proc.pid]
        if vpid is None:
            vpid = self._next_vpid
            self._next_vpid += 1
        elif vpid in self.vpid_to_pid:
            raise PodError(f"vpid {vpid} already in use in pod {self.name}")
        else:
            self._next_vpid = max(self._next_vpid, vpid + 1)
        self.vpid_to_pid[vpid] = proc.pid
        self.pid_to_vpid[proc.pid] = vpid
        proc.pod = self
        return vpid

    def spawn(self, program: Program, name: str = "",
              vpid: Optional[int] = None) -> ProcessControlBlock:
        proc = self.node.spawn(program, name=name, pod=self)
        self.adopt(proc, vpid=vpid)
        return proc

    def processes(self) -> List[ProcessControlBlock]:
        out = []
        for vpid in sorted(self.vpid_to_pid):
            pid = self.vpid_to_pid[vpid]
            proc = self.node.processes.get(pid)
            if proc is not None:
                out.append(proc)
        return out

    def live_processes(self) -> List[ProcessControlBlock]:
        return [p for p in self.processes() if p.is_alive]

    def vpid_of(self, pid: int) -> int:
        vpid = self.pid_to_vpid.get(pid)
        if vpid is None:
            raise PodError(f"pid {pid} not in pod {self.name}")
        return vpid

    def pid_of(self, vpid: int) -> int:
        pid = self.vpid_to_pid.get(vpid)
        if pid is None:
            raise PodError(f"vpid {vpid} not in pod {self.name}")
        return pid

    # -- signals ----------------------------------------------------------

    def stop_all(self) -> None:
        """SIGSTOP every process (first step of a checkpoint, §4.1)."""
        self.pause_count += 1
        for proc in self.live_processes():
            self.node.signal_now(proc.pid, SIGSTOP)

    def continue_all(self) -> None:
        self.resume_count += 1
        for proc in self.live_processes():
            self.node.signal_now(proc.pid, SIGCONT)

    def kill_all(self) -> None:
        for proc in self.live_processes():
            self.node.signal_now(proc.pid, SIGKILL)
        for pid in list(self.pid_to_vpid):
            self.node.reap(pid)

    # -- IPC virtualisation -------------------------------------------------

    def virtual_ipc_id(self, table: Dict[int, int], physical: int) -> int:
        for vid, phys in table.items():
            if phys == physical:
                return vid
        vid = self._next_vipc
        self._next_vipc += 1
        table[vid] = physical
        return vid

    def __repr__(self) -> str:
        return (f"<Pod {self.name} id={self.pod_id} node={self.node.name} "
                f"ip={self.ip} procs={len(self.pid_to_vpid)}>")

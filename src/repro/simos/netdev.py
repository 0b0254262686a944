"""Network devices: physical interfaces and per-pod virtual interfaces.

A VIF (§4.2) is "attached to each pod ... the only network interface that is
visible to processes within the pod. The VIF can be assigned a
network-visible IP address and an ethernet MAC address."

Two hardware modes are modelled, matching the paper:

* multi-MAC / promiscuous hardware — the VIF gets its own wire MAC, which
  migrates with the pod;
* shared-MAC hardware — the VIF uses the physical NIC's MAC on the wire and
  keeps a *fake* MAC for identity; migration re-points the IP via
  gratuitous ARP and DHCP sees only the fake MAC (via ioctl interposition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import NetworkError, SyscallError
from repro.net.addresses import Ipv4Address, MacAddress


@dataclass
class Interface:
    """One network interface as seen by the kernel."""

    name: str
    mac: MacAddress                      # MAC used on the wire
    ip: Optional[Ipv4Address] = None
    pod_id: Optional[int] = None         # owning pod; None = host interface
    fake_mac: Optional[MacAddress] = None  # identity MAC (shared-MAC mode)
    owns_wire_mac: bool = True           # False in shared-MAC mode

    @property
    def identity_mac(self) -> MacAddress:
        """The MAC this interface reports as its hardware address."""
        return self.fake_mac if self.fake_mac is not None else self.mac


class InterfaceTable:
    """The kernel's interface registry for one node."""

    def __init__(self):
        self._interfaces: Dict[str, Interface] = {}
        #: Bumped on add/remove (and by ``configure_eth0``); derived
        #: lookups (the owned-IP map, routes) are cached keyed on this.
        self.version = 0
        self._owned_ips: Dict[Ipv4Address, MacAddress] = {}
        self._owned_version = -1

    def add(self, interface: Interface) -> Interface:
        if interface.name in self._interfaces:
            raise NetworkError(f"interface {interface.name} exists")
        self._interfaces[interface.name] = interface
        self.version += 1
        return interface

    def remove(self, name: str) -> Interface:
        interface = self._interfaces.pop(name, None)
        if interface is None:
            raise NetworkError(f"no interface {name}")
        self.version += 1
        return interface

    def get(self, name: str) -> Interface:
        interface = self._interfaces.get(name)
        if interface is None:
            raise SyscallError("ENODEV", name)
        return interface

    def all(self) -> List[Interface]:
        return list(self._interfaces.values())

    def by_ip(self, ip: Ipv4Address) -> Optional[Interface]:
        for interface in self._interfaces.values():
            if interface.ip == ip:
                return interface
        return None

    def owned_ips(self) -> Dict[Ipv4Address, MacAddress]:
        """IP -> wire MAC of every addressed interface. Rebuilt only
        when ``version`` moved; callers must not mutate the result."""
        if self._owned_version != self.version:
            self._owned_ips = {i.ip: i.mac
                               for i in self._interfaces.values()
                               if i.ip is not None}
            self._owned_version = self.version
        return self._owned_ips

"""Network interface cards.

A NIC owns a set of unicast MAC addresses (the paper's VIF design needs
either multi-MAC hardware or promiscuous mode — both are modelled), filters
incoming frames, and hands accepted frames to the host's network stack.
"""

from __future__ import annotations

from typing import Callable, Optional, Set

from repro.errors import NetworkError
from repro.net.addresses import BROADCAST_MAC, MacAddress
from repro.net.link import Port
from repro.net.packet import EthernetFrame
from repro.sim.core import Simulator


class Nic:
    """An Ethernet adapter with multi-MAC and promiscuous-mode support."""

    def __init__(self, sim: Simulator, name: str, mac: MacAddress,
                 supports_multiple_macs: bool = True):
        self.sim = sim
        self.name = name
        self.primary_mac = mac
        self.supports_multiple_macs = supports_multiple_macs
        self.macs: Set[MacAddress] = {mac}
        self.promiscuous = False
        self.port = Port(name, self._on_frame)
        self.rx_handler: Optional[
            Callable[[EthernetFrame, "Nic"], None]] = None
        self.tx_frames = 0
        self.rx_frames = 0
        self.rx_filtered = 0

    def add_mac(self, mac: MacAddress) -> None:
        """Program an additional unicast address (for a VIF)."""
        if mac in self.macs:
            return
        if not self.supports_multiple_macs:
            raise NetworkError(
                f"NIC {self.name} cannot filter extra MAC addresses; "
                f"enable promiscuous mode or share the primary MAC")
        self.macs.add(mac)

    def remove_mac(self, mac: MacAddress) -> None:
        if mac == self.primary_mac:
            raise NetworkError("cannot remove the primary MAC")
        self.macs.discard(mac)

    def accepts(self, frame: EthernetFrame) -> bool:
        dst = frame.dst
        return dst in self.macs or dst == BROADCAST_MAC or self.promiscuous

    def send(self, frame: EthernetFrame) -> None:
        self.tx_frames += 1
        self.port.transmit(frame)

    def _on_frame(self, frame: EthernetFrame, _port: Port) -> None:
        # accepts(frame), inlined: the last step of every frame's hop.
        dst = frame.dst
        if not (dst in self.macs or dst == BROADCAST_MAC
                or self.promiscuous):
            self.rx_filtered += 1
            return
        self.rx_frames += 1
        if self.rx_handler is not None:
            self.rx_handler(frame, self)

    def __repr__(self) -> str:
        return f"<Nic {self.name} {self.primary_mac}>"

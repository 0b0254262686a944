"""Simulated Ethernet substrate: wire formats, links, NICs, switch, ARP, DHCP."""

from repro.net.addresses import Ipv4Address, MacAddress
from repro.net.link import Link, Port
from repro.net.packet import (
    ETHERTYPE_IP,
    PROTO_UDP,
    EthernetFrame,
    IpPacket,
    UdpDatagram,
)
from repro.net.switch import Switch

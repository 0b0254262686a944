"""Tests for MAC/IPv4 value types."""

import copy
import pickle

import pytest

from repro.errors import NetworkError
from repro.net.addresses import (
    ANY_IP,
    BROADCAST_MAC,
    Ipv4Address,
    MacAddress,
    Subnet,
)


def test_mac_parse_roundtrip():
    mac = MacAddress.parse("02:00:00:00:00:2a")
    assert mac.value == 0x02_00_00_00_00_2A
    assert str(mac) == "02:00:00:00:00:2a"


def test_mac_ordinal_is_unique():
    assert MacAddress.ordinal(1) != MacAddress.ordinal(2)


def test_broadcast_mac():
    assert BROADCAST_MAC.is_broadcast
    assert not MacAddress.ordinal(5).is_broadcast


def test_mac_out_of_range():
    with pytest.raises(NetworkError):
        MacAddress(1 << 48)


def test_ipv4_parse_roundtrip():
    ip = Ipv4Address.parse("192.168.1.10")
    assert str(ip) == "192.168.1.10"


def test_ipv4_bad_strings():
    for bad in ("1.2.3", "1.2.3.4.5", "256.1.1.1"):
        with pytest.raises((NetworkError, ValueError)):
            Ipv4Address.parse(bad)


def test_subnet_membership():
    subnet = Subnet(Ipv4Address.parse("10.1.0.0"), 16)
    assert Ipv4Address.parse("10.1.200.3") in subnet
    assert Ipv4Address.parse("10.2.0.1") not in subnet


def test_subnet_host_allocation():
    subnet = Subnet(Ipv4Address.parse("10.1.0.0"), 24)
    assert str(subnet.host(1)) == "10.1.0.1"
    with pytest.raises(NetworkError):
        subnet.host(255)  # broadcast address


def test_subnet_hosts_iterator():
    subnet = Subnet(Ipv4Address.parse("10.1.0.0"), 29)
    hosts = list(subnet.hosts())
    assert len(hosts) == 6
    assert str(hosts[0]) == "10.1.0.1"


def test_addresses_are_hashable_and_ordered():
    a, b = Ipv4Address(1), Ipv4Address(2)
    assert a < b
    assert len({a, b, Ipv4Address(1)}) == 2


#: The pickled form (protocol 5, as ``repro.zap.image`` writes it) of one
#: address of each kind, recorded before addresses became tuples. Images
#: carry addresses in every TCB, and the store content-addresses the
#: pickled bytes: a byte moved here moves image sizes and with them
#: simulated disk time.
PINNED_PICKLES = [
    (Ipv4Address(0x0A010001),
     b"\x80\x05\x950\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.net."
     b"addresses\x94\x8c\x0bIpv4Address\x94\x93\x94J\x01\x00\x01\n"
     b"\x85\x94R\x94."),
    (MacAddress.ordinal(5),
     b"\x80\x05\x952\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.net."
     b"addresses\x94\x8c\nMacAddress\x94\x93\x94\x8a\x06\x05\x00\x00"
     b"\x00\x00\x02\x85\x94R\x94."),
    (BROADCAST_MAC,
     b"\x80\x05\x953\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.net."
     b"addresses\x94\x8c\nMacAddress\x94\x93\x94\x8a\x07\xff\xff\xff"
     b"\xff\xff\xff\x00\x85\x94R\x94."),
    (ANY_IP,
     b"\x80\x05\x95-\x00\x00\x00\x00\x00\x00\x00\x8c\x13repro.net."
     b"addresses\x94\x8c\x0bIpv4Address\x94\x93\x94K\x00\x85\x94R"
     b"\x94."),
]


@pytest.mark.parametrize("address,pinned", PINNED_PICKLES)
def test_addresses_survive_pickle_and_deepcopy(address, pinned):
    assert pickle.dumps(address, protocol=5) == pinned
    for clone in (pickle.loads(pinned), copy.deepcopy(address)):
        assert type(clone) is type(address)
        assert clone == address and not clone != address
        assert clone.value == address.value
        assert hash(clone) == hash(address)
        assert {address: "found"}[clone] == "found"


def test_equal_values_of_different_kinds_are_different_addresses():
    ip, mac = Ipv4Address(5), MacAddress(5)
    assert ip.value == mac.value
    assert ip != mac and not ip == mac
    assert len({ip, mac}) == 2
    assert ANY_IP != MacAddress(0)

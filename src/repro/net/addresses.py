"""MAC and IPv4 address value types.

Addresses are immutable and hashable so they can key ARP caches, switch
learning tables, and connection demux maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from repro.errors import NetworkError


class _Address(tuple):
    """Shared machinery for int-valued address types.

    An address is the tuple ``(family, value)``: addresses key every
    ARP cache, switch table, route cache and TCP demux map, so hashing
    and comparison must not leave C. ``tuple`` provides both (and the
    ordering), and the integer family tag keeps an ``Ipv4Address`` and a
    ``MacAddress`` of equal value unequal. Value-based equality is
    load-bearing: addresses round-trip through pickled checkpoint images
    and must still match live ones.
    """

    __slots__ = ()

    #: Distinguishes the address families; an int, so hashes (and the
    #: iteration order of any set of addresses) repeat across processes.
    FAMILY = 0
    #: Width of the address in bits.
    BITS = 0

    def __new__(cls, value: int):
        if not 0 <= value < 1 << cls.BITS:
            raise NetworkError(
                f"{cls.__name__} out of range: {value:#x}")
        return tuple.__new__(cls, (cls.FAMILY, value))

    value = property(itemgetter(1), doc="The address as an integer.")

    def __repr__(self):
        return f"{self.__class__.__name__}(value={self.value})"

    def __reduce__(self):
        # Re-validate on unpickle/deepcopy via __new__; also keeps the
        # pickled form (class, value) independent of the tuple layout.
        return (self.__class__, (self.value,))


class MacAddress(_Address):
    """A 48-bit Ethernet address."""

    __slots__ = ()
    FAMILY = 6
    BITS = 48

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise NetworkError(f"bad MAC {text!r}")
        return cls(int("".join(parts), 16))

    @classmethod
    def ordinal(cls, index: int) -> "MacAddress":
        """Deterministically numbered locally-administered MAC."""
        return cls((0x02_00_00 << 24) | index)

    @property
    def is_broadcast(self) -> bool:
        return self.value == (1 << 48) - 1

    def __str__(self) -> str:
        raw = f"{self.value:012x}"
        return ":".join(raw[i:i + 2] for i in range(0, 12, 2))


BROADCAST_MAC = MacAddress((1 << 48) - 1)


class Ipv4Address(_Address):
    """A 32-bit IPv4 address."""

    __slots__ = ()
    FAMILY = 4
    BITS = 32

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise NetworkError(f"bad IPv4 {text!r}")
        value = 0
        for part in parts:
            octet = int(part)
            if not 0 <= octet <= 255:
                raise NetworkError(f"bad IPv4 {text!r}")
            value = (value << 8) | octet
        return cls(value)

    def in_subnet(self, network: "Ipv4Address", prefix_len: int) -> bool:
        mask = ((1 << prefix_len) - 1) << (32 - prefix_len) if prefix_len \
            else 0
        return (self.value & mask) == (network.value & mask)

    def __str__(self) -> str:
        return ".".join(str((self.value >> shift) & 0xFF)
                        for shift in (24, 16, 8, 0))


ANY_IP = Ipv4Address(0)


@dataclass(frozen=True)
class Subnet:
    """An IPv4 subnet with a deterministic host-address allocator."""

    network: Ipv4Address
    prefix_len: int

    def __contains__(self, address: Ipv4Address) -> bool:
        return address.in_subnet(self.network, self.prefix_len)

    def host(self, index: int) -> Ipv4Address:
        size = 1 << (32 - self.prefix_len)
        if not 0 < index < size - 1:
            raise NetworkError(f"host index {index} outside subnet")
        return Ipv4Address(self.network.value + index)

    def hosts(self, start: int = 1) -> Iterator[Ipv4Address]:
        size = 1 << (32 - self.prefix_len)
        for index in range(start, size - 1):
            yield self.host(index)

    def __str__(self) -> str:
        return f"{self.network}/{self.prefix_len}"

"""A simulated Linux-like OS per node: processes, syscalls, sockets, netfilter."""

from repro.simos.filesystem import SharedFileSystem

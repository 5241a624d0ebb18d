"""TLV header options.

"A few header options are currently defined.  One is a header option to
form a synchronous application-layer multicast tree for data staging ...
This path could be specified with a 'loose source route' — an
initiator-specified path through some number of session layer routers"
(Section 2).

Wire format of each option::

    +------+------+----------------+
    | kind | len  | value (len B)  |
    +------+------+----------------+
      u8     u16 (network order)

Unknown option kinds fail decoding loudly — a forwarding depot must not
silently drop semantics it does not understand.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from enum import IntEnum


class OptionKind(IntEnum):
    """Registered option kind codes."""

    PADDING = 0
    LOOSE_SOURCE_ROUTE = 1
    MULTICAST_TREE = 2
    RESUME_OFFSET = 3
    STRIPE = 4


_TL = struct.Struct("!BH")  # kind, length
_HOP = struct.Struct("!4sH")  # IPv4 + port
_NODE = struct.Struct("!h4sH")  # parent index (-1 = root), IPv4, port
_RESUME = struct.Struct("!QQ")  # offset, total payload length
_STRIPE = struct.Struct("!HHI")  # stripe index, stripe count, block size


class HeaderOption:
    """Base class for options; subclasses register themselves by kind."""

    kind: OptionKind

    def encode_value(self) -> bytes:
        """Serialise just the value field."""
        raise NotImplementedError

    @classmethod
    def decode_value(cls, data: bytes) -> "HeaderOption":
        """Parse the value field."""
        raise NotImplementedError


@dataclass(frozen=True)
class PaddingOption(HeaderOption):
    """Zero-filled padding to align or round out a header."""

    length: int = 0
    kind = OptionKind.PADDING

    def __post_init__(self) -> None:
        if not (0 <= self.length <= 0xFFFF):
            raise ValueError(f"padding length {self.length} out of range")

    def encode_value(self) -> bytes:
        return b"\x00" * self.length

    @classmethod
    def decode_value(cls, data: bytes) -> "PaddingOption":
        if any(data):
            raise ValueError("padding bytes must be zero")
        return cls(length=len(data))


@dataclass(frozen=True)
class LooseSourceRoute(HeaderOption):
    """The initiator-specified depot path, like IP's LSRR option.

    Attributes
    ----------
    hops:
        Remaining ``(ipv4, port)`` depot addresses, nearest first.  The
        final destination is *not* listed here — it lives in the fixed
        header.
    """

    hops: tuple[tuple[str, int], ...]
    kind = OptionKind.LOOSE_SOURCE_ROUTE

    def __post_init__(self) -> None:
        for addr, port in self.hops:
            ipaddress.IPv4Address(addr)  # validate
            if not (0 <= port <= 0xFFFF):
                raise ValueError(f"port {port} out of range")

    def encode_value(self) -> bytes:
        return b"".join(
            _HOP.pack(ipaddress.IPv4Address(addr).packed, port)
            for addr, port in self.hops
        )

    @classmethod
    def decode_value(cls, data: bytes) -> "LooseSourceRoute":
        if len(data) % _HOP.size:
            raise ValueError(f"LSRR value of {len(data)} bytes not a hop multiple")
        hops = []
        for off in range(0, len(data), _HOP.size):
            raw, port = _HOP.unpack_from(data, off)
            hops.append((str(ipaddress.IPv4Address(raw)), port))
        return cls(hops=tuple(hops))

    def advance(self) -> tuple[tuple[str, int] | None, "LooseSourceRoute"]:
        """Pop the next hop: returns ``(next_hop, remaining_option)``.

        ``next_hop`` is ``None`` when the route is exhausted and the depot
        should forward straight to the session destination.
        """
        if not self.hops:
            return None, self
        return self.hops[0], LooseSourceRoute(hops=self.hops[1:])


@dataclass(frozen=True)
class MulticastTreeOption(HeaderOption):
    """A staging tree for synchronous application-layer multicast.

    Encoded as a node list in preorder; each node carries the index of
    its parent (-1 for the root) plus its ``(ipv4, port)`` address.

    Attributes
    ----------
    nodes:
        ``(parent_index, ipv4, port)`` triples.
    """

    nodes: tuple[tuple[int, str, int], ...]
    kind = OptionKind.MULTICAST_TREE

    def __post_init__(self) -> None:
        for i, (parent, addr, port) in enumerate(self.nodes):
            if parent >= i:
                raise ValueError(
                    f"node {i} references parent {parent} at or after itself"
                )
            if parent < -1:
                raise ValueError(f"invalid parent index {parent}")
            if i == 0 and parent != -1:
                raise ValueError("first node must be the root (parent -1)")
            if i > 0 and parent == -1:
                raise ValueError(f"node {i} claims to be a second root")
            ipaddress.IPv4Address(addr)
            if not (0 <= port <= 0xFFFF):
                raise ValueError(f"port {port} out of range")

    def encode_value(self) -> bytes:
        return b"".join(
            _NODE.pack(parent, ipaddress.IPv4Address(addr).packed, port)
            for parent, addr, port in self.nodes
        )

    @classmethod
    def decode_value(cls, data: bytes) -> "MulticastTreeOption":
        if len(data) % _NODE.size:
            raise ValueError(
                f"multicast tree value of {len(data)} bytes not a node multiple"
            )
        nodes = []
        for off in range(0, len(data), _NODE.size):
            parent, raw, port = _NODE.unpack_from(data, off)
            nodes.append((parent, str(ipaddress.IPv4Address(raw)), port))
        return cls(nodes=tuple(nodes))

    def children_of(self, index: int) -> list[int]:
        """Indices of the direct children of node ``index``."""
        return [i for i, (parent, _, _) in enumerate(self.nodes) if parent == index]


@dataclass(frozen=True)
class ResumeOffset(HeaderOption):
    """Byte-offset resume: carried by every data session.

    A node accepting a session replies with an 8-byte acknowledgement
    point (the contiguous byte count it has durably received) and the
    sender streams payload from there, so a reconnect after a sublink
    failure retransmits only that sublink's unacknowledged bytes.
    Depots and sinks reject a data header without this option.

    Attributes
    ----------
    total:
        Total session payload length in bytes — receivers use it to
        distinguish a completed stream from a truncated one.
    offset:
        First payload byte the sender *can* supply (0 for the source and
        for depots, which stage the full session).  Advisory: the
        receiver's handshake reply governs where streaming starts.
    """

    total: int
    offset: int = 0
    kind = OptionKind.RESUME_OFFSET

    def __post_init__(self) -> None:
        for name, value in (("total", self.total), ("offset", self.offset)):
            if not (0 <= value <= 0xFFFF_FFFF_FFFF_FFFF):
                raise ValueError(f"{name}={value} out of 64-bit range")
        if self.offset > self.total:
            raise ValueError(
                f"offset {self.offset} beyond total {self.total}"
            )

    def encode_value(self) -> bytes:
        return _RESUME.pack(self.offset, self.total)

    @classmethod
    def decode_value(cls, data: bytes) -> "ResumeOffset":
        if len(data) != _RESUME.size:
            raise ValueError(
                f"resume option value of {len(data)} bytes, "
                f"expected {_RESUME.size}"
            )
        offset, total = _RESUME.unpack(data)
        return cls(total=total, offset=offset)


@dataclass(frozen=True)
class StripeOption(HeaderOption):
    """One of N parallel striped sublinks of a session (GridFTP-style).

    A striped session opens ``count`` connections per hop; the one
    carrying this option transports the interleaved payload slice whose
    ``block``-sized blocks ``j`` satisfy ``j % count == index``.  Every
    stripe connection of a session must agree on ``count`` and
    ``block`` — receivers reassemble the slices positionally through
    the session ledger, so a disagreement would corrupt the payload and
    is rejected loudly.

    Attributes
    ----------
    index:
        This connection's stripe number, ``0 <= index < count``.
    count:
        Total parallel stripes of the session.
    block:
        Interleave unit in bytes.
    """

    index: int
    count: int
    block: int = 16 << 10
    kind = OptionKind.STRIPE

    def __post_init__(self) -> None:
        if not (1 <= self.count <= 0xFFFF):
            raise ValueError(f"stripe count {self.count} out of range")
        if not (0 <= self.index < self.count):
            raise ValueError(
                f"stripe index {self.index} outside 0..{self.count - 1}"
            )
        if not (1 <= self.block <= 0xFFFF_FFFF):
            raise ValueError(f"stripe block {self.block} out of range")

    def encode_value(self) -> bytes:
        return _STRIPE.pack(self.index, self.count, self.block)

    @classmethod
    def decode_value(cls, data: bytes) -> "StripeOption":
        if len(data) != _STRIPE.size:
            raise ValueError(
                f"stripe option value of {len(data)} bytes, "
                f"expected {_STRIPE.size}"
            )
        index, count, block = _STRIPE.unpack(data)
        return cls(index=index, count=count, block=block)


_REGISTRY: dict[int, type[HeaderOption]] = {
    int(OptionKind.PADDING): PaddingOption,
    int(OptionKind.LOOSE_SOURCE_ROUTE): LooseSourceRoute,
    int(OptionKind.MULTICAST_TREE): MulticastTreeOption,
    int(OptionKind.RESUME_OFFSET): ResumeOffset,
    int(OptionKind.STRIPE): StripeOption,
}


def encode_options(options) -> bytes:
    """Serialise a sequence of options to TLV wire bytes."""
    out = bytearray()
    for opt in options:
        value = opt.encode_value()
        if len(value) > 0xFFFF:
            raise ValueError(f"option value of {len(value)} bytes too large")
        out += _TL.pack(int(opt.kind), len(value))
        out += value
    return bytes(out)


def decode_options(data: bytes) -> list[HeaderOption]:
    """Parse TLV wire bytes into option objects.

    Raises
    ------
    ValueError
        On truncation or an unknown option kind.
    """
    options: list[HeaderOption] = []
    off = 0
    while off < len(data):
        if len(data) - off < _TL.size:
            raise ValueError("truncated option header")
        kind, length = _TL.unpack_from(data, off)
        off += _TL.size
        if len(data) - off < length:
            raise ValueError("truncated option value")
        klass = _REGISTRY.get(kind)
        if klass is None:
            raise ValueError(f"unknown option kind {kind}")
        options.append(klass.decode_value(data[off : off + length]))
        off += length
    return options

"""Packets exchanged by the simulated transports."""

from __future__ import annotations

import enum


class PacketKind(enum.IntEnum):
    """Packet roles. SYN/DATA/PROBE/TERM travel sender->receiver; the ACK
    variants travel receiver->sender."""

    SYN = 0
    SYN_ACK = 1
    DATA = 2
    ACK = 3
    PROBE = 4
    TERM = 5
    TERM_ACK = 6


#: kinds that travel on the forward (sender -> receiver) path; the rest
#: travel back on the reverse path
FORWARD_KINDS = frozenset(
    {PacketKind.SYN, PacketKind.DATA, PacketKind.PROBE, PacketKind.TERM}
)


class Packet:
    """A simulated packet.

    ``size`` is the wire size in bytes (headers included); ``payload`` is the
    number of application bytes carried (0 for control packets). ``seq`` is
    the byte offset of the first payload byte for DATA, or the byte range
    being acknowledged for ACK (``seq``/``ack_seq`` follow the transport's
    convention). ``path`` is the pinned sequence of links this packet
    follows; ``hop`` indexes the next link to take.
    """

    __slots__ = (
        "fid",
        "src",
        "dst",
        "kind",
        "seq",
        "payload",
        "size",
        "sched",
        "ack_seq",
        "ack_range",
        "echo_time",
        "path",
        "hop",
        "sent_time",
    )

    def __init__(
        self,
        fid: int,
        src: int,
        dst: int,
        kind: PacketKind,
        size: int,
        seq: int = 0,
        payload: int = 0,
        sched: object | None = None,
        ack_seq: int = 0,
        ack_range: tuple[int, int] | None = None,
        echo_time: float = -1.0,
        path: tuple = (),
    ):
        if size <= 0:
            raise ValueError(f"packet size must be positive, got {size}")
        if payload < 0 or payload > size:
            raise ValueError(f"payload {payload} outside [0, {size}]")
        self.fid = fid
        self.src = src
        self.dst = dst
        self.kind = kind
        self.seq = seq
        self.payload = payload
        self.size = size
        self.sched = sched
        self.ack_seq = ack_seq
        self.ack_range = ack_range
        self.echo_time = echo_time
        self.path = path
        self.hop = 0
        self.sent_time = -1.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Packet {self.kind.name} fid={self.fid} seq={self.seq} "
            f"payload={self.payload} size={self.size} hop={self.hop}>"
        )

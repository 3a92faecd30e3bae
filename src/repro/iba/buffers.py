"""Per-VL input buffering for switch and HCA ports.

Each input port has one FIFO per data VL (see
:data:`~repro.iba.types.NUM_DATA_VLS`): the port models all of its VLs, but
only the lanes traffic uses hold state.  A packet physically occupies
a slot from the moment the upstream transmitter consumed the credit until
the packet has fully left this buffer downstream — the accounting that makes
credit-based flow control exact.

Packets become *ready* (eligible for output arbitration) only after the
switch's routing/enforcement pipeline has processed them, so the FIFO keeps
two regions: arrived-but-processing, and ready-with-assigned-output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.iba.packet import DataPacket
from repro.iba.types import data_lanes


class ReadyEntry:
    """A routed packet in its input FIFO, with its assigned output port."""

    __slots__ = ("packet", "out_port")

    def __init__(self, packet: DataPacket, out_port: int) -> None:
        self.packet = packet
        self.out_port = out_port


@dataclass
class VLFifo:
    """One VL's FIFO at one input port."""

    capacity: int
    ready: deque[ReadyEntry] = field(default_factory=deque)
    #: packets that arrived but are still in the routing/enforcement stage.
    processing: int = 0

    @property
    def occupancy(self) -> int:
        return len(self.ready) + self.processing

    def head(self) -> ReadyEntry | None:
        return self.ready[0] if self.ready else None


class InputBuffer:
    """All data-VL FIFOs of one input port with *num_vls* VLs."""

    __slots__ = ("fifos",)

    def __init__(self, num_vls: int, capacity_per_vl: int) -> None:
        self.fifos = [VLFifo(capacity_per_vl) for _ in range(data_lanes(num_vls))]

    def begin_processing(self, vl: int) -> None:
        """A packet has physically arrived and entered the pipeline."""
        fifo = self.fifos[vl]
        if fifo.occupancy >= fifo.capacity:
            raise RuntimeError(
                f"VL{vl} buffer overflow — credit accounting violated "
                f"(occupancy {fifo.occupancy} >= capacity {fifo.capacity})"
            )
        fifo.processing += 1

    def make_ready(self, packet: DataPacket, out_port: int) -> None:
        """Routing finished: packet may now compete for its output port."""
        fifo = self.fifos[packet.lrh.vl]
        if fifo.processing <= 0:
            raise RuntimeError("make_ready without begin_processing")
        fifo.processing -= 1
        fifo.ready.append(ReadyEntry(packet, out_port))

    def drop_processing(self, vl: int) -> None:
        """Packet was filtered/dropped during the pipeline stage."""
        fifo = self.fifos[vl]
        if fifo.processing <= 0:
            raise RuntimeError("drop_processing without begin_processing")
        fifo.processing -= 1

    def pop_head(self, vl: int) -> ReadyEntry:
        return self.fifos[vl].ready.popleft()

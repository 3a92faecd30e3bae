"""Unidirectional physical link with credit-based flow control.

IBA flow control is credit-based per VL: a transmitter may only start a
packet when the receiver's input buffer for that VL has advertised space.
This is why the paper measures *queuing time at the HCA* rather than
in-network loss — "the IBA network accepts a new packet only when there is
available buffer", so congestion (and DoS pressure) backs up all the way to
the source instead of dropping packets mid-fabric.

A :class:`Link` owns:

* the serialization resource (one packet on the wire at a time, timed from
  ``wire_length`` bytes at the configured byte time);
* the per-VL credit counters mirroring the receiver's buffer space;
* callbacks the owning sender registers to be re-armed when the link frees
  or a credit comes back.
"""

from __future__ import annotations

from typing import Callable, Protocol

from repro.iba.packet import DataPacket
from repro.iba.types import data_lanes
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine, PS_PER_NS
from repro.sim.trace import Tracer


class Receiver(Protocol):
    """Anything a link can terminate at (switch or HCA)."""

    def receive(self, packet: DataPacket, in_port: int) -> None: ...


class Link:
    """One direction of a physical IBA link.

    ``credits[vl]`` mirrors free packet slots in the receiver's VL buffer at
    the far end, one entry per data VL of the link's *num_vls*.  ``send``
    consumes one credit and occupies the wire; the receiver calls
    :meth:`return_credit` when it drains the slot.
    """

    __slots__ = (
        "engine",
        "name",
        "byte_time_ps",
        "wire_delay_ps",
        "dst",
        "dst_port",
        "credits",
        "busy",
        "on_free",
        "on_credit",
        "packets_sent",
        "bytes_sent",
        "failed",
        "tap",
        "registry",
        "tracer",
        "_trace",
        "_in_transit",
        "_pending_credit",
    )

    def __init__(
        self,
        engine: Engine,
        name: str,
        byte_time_ps: int,
        dst: Receiver,
        dst_port: int,
        num_vls: int,
        credits_per_vl: int,
        wire_delay_ns: float = 10.0,
        registry: CounterRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.engine = engine
        self.name = name
        self.byte_time_ps = byte_time_ps
        self.wire_delay_ps = round(wire_delay_ns * PS_PER_NS)
        self.dst = dst
        self.dst_port = dst_port
        self.credits = [credits_per_vl] * data_lanes(num_vls)
        self.busy = False
        #: sender callback: wire became free.
        self.on_free: Callable[[], None] | None = None
        #: sender callback: a credit for some VL returned (called with it).
        self.on_credit: Callable[[int], None] | None = None
        self.registry = registry if registry is not None else CounterRegistry()
        self.tracer = tracer
        # Bound once here; None when untraced (call sites test for it).
        self._trace = tracer.record if tracer is not None else None
        self.packets_sent = self.registry.counter(f"link.{name}.packets_sent")
        self.bytes_sent = self.registry.counter(f"link.{name}.bytes_sent")
        #: a failed link accepts no new packets (fault injection).
        self.failed = False
        #: passive eavesdropper hook: called with each packet at send time
        #: ("a packet can be captured on the link" — paper Section 4.1).
        self.tap: Callable[[DataPacket], None] | None = None
        # packets currently on this link (serializing or in wire flight);
        # mechanism state like credits, exposed read-only via in_transit.
        self._in_transit = 0
        # back-to-back same-instant credit returns coalesce into one flush
        # event (see schedule_credit).
        self._pending_credit: list | None = None

    @property
    def in_transit(self) -> int:
        """Packets currently on this link (serializing or in wire flight) —
        part of the fabric-wide in-flight accounting the fuzz subsystem's
        packet-conservation oracle sums over (see Fabric.in_flight_count)."""
        return self._in_transit

    def can_send(self, vl: int) -> bool:
        return not self.failed and not self.busy and self.credits[vl] > 0

    def fail(self) -> None:
        """Take the link down.  The frame currently on the wire completes
        (it has already left the transmitter); everything behind it waits
        until :meth:`restore`."""
        self.failed = True
        if self._trace is not None:
            self._trace(self.engine.now, "link_down", self.name)

    def restore(self) -> None:
        self.failed = False
        if self._trace is not None:
            self._trace(self.engine.now, "link_up", self.name)
        if self.on_credit is not None:
            self.on_credit(0)  # re-arm the sender's scheduler
        if self.on_free is not None and not self.busy:
            self.on_free()

    def send(self, packet: DataPacket) -> None:
        """Begin transmitting *packet*.  Caller must have checked can_send."""
        vl = packet.lrh.vl
        if self.failed:
            raise RuntimeError(f"link {self.name} is down")
        if self.busy:
            raise RuntimeError(f"link {self.name} busy")
        if self.credits[vl] <= 0:
            raise RuntimeError(f"link {self.name} has no VL{vl} credit")
        if self.tap is not None:
            self.tap(packet)
        self.credits[vl] -= 1
        self.busy = True
        self._in_transit += 1
        self.packets_sent.inc()
        self.bytes_sent.inc(packet.wire_length)
        self.engine.schedule_pooled(
            packet.wire_length * self.byte_time_ps, self._complete, packet
        )

    def _complete(self, packet: DataPacket) -> None:
        self.busy = False
        # Store-and-forward: the packet is fully at the far end now (+wire).
        self.engine.schedule_pooled(self.wire_delay_ps, self._arrive, packet)
        if self.on_free is not None:
            self.on_free()

    def _arrive(self, packet: DataPacket) -> None:
        """Hand the packet to the receiver; it is no longer on the link."""
        self._in_transit -= 1
        self.dst.receive(packet, self.dst_port)

    def return_credit(self, vl: int) -> None:
        """Receiver drained one VL slot; re-arm the sender."""
        self.credits[vl] += 1
        if self.on_credit is not None:
            self.on_credit(vl)

    def schedule_credit(self, delay: int, vl: int) -> None:
        """Schedule ``return_credit(vl)`` *delay* picoseconds from now.

        Credits for the same instant scheduled back-to-back — with **zero**
        intervening schedule calls anywhere in the engine, proven by an
        unchanged :attr:`Engine.seq_mark` — coalesce into one pooled flush
        event that replays ``return_credit`` per credit in the original
        order.  Because the folded events would have held
        consecutive sequence numbers at the same timestamp, no other event
        can sort between them, so the replay is bit-identical to an
        event-per-credit schedule.
        """
        engine = self.engine
        pending = self._pending_credit
        due = engine.now + delay
        if (
            pending is not None
            and pending[0] == due
            and pending[2] == engine.seq_mark
        ):
            pending[1].append(vl)
            return
        pending = [due, [vl], 0]
        self._pending_credit = pending
        engine.schedule_pooled(delay, self._flush_credits, pending)
        pending[2] = engine.seq_mark

    def _flush_credits(self, pending: list) -> None:
        if self._pending_credit is pending:
            self._pending_credit = None
        for vl in pending[1]:
            self.return_credit(vl)

"""Basic InfiniBand identifier types and enums.

LIDs (Local Identifiers) address ports within a subnet; QPNs number queue
pairs within a channel adapter.  We keep them as ``NewType`` ints so type
checkers catch LID/QPN mix-ups without any runtime cost in the simulator's
hot path.
"""

from __future__ import annotations

import enum
from typing import NewType

#: Local Identifier — 16-bit port address assigned by the Subnet Manager.
LID = NewType("LID", int)
#: Queue Pair Number — 24-bit QP index within a channel adapter.
QPN = NewType("QPN", int)

#: Highest LID value (16 bits, 0xFFFF is the permissive LID).
MAX_LID = 0xFFFE
#: QPN space is 24 bits; QP0/QP1 are management QPs.
MAX_QPN = 0xFFFFFF


class ServiceType(enum.Enum):
    """IBA transport service classes used in this reproduction."""

    RELIABLE_CONNECTION = "RC"  #: connected; packets carry P_Key only (no Q_Key).
    UNRELIABLE_DATAGRAM = "UD"  #: datagram; packets carry P_Key and Q_Key.


class TrafficClass(enum.Enum):
    """The paper's two workload classes, mapped onto disjoint VLs."""

    REALTIME = "realtime"
    BEST_EFFORT = "best_effort"

    @property
    def vl(self) -> int:
        return VL_REALTIME if self is TrafficClass.REALTIME else VL_BEST_EFFORT


#: VL used by realtime traffic (arbitrated with strict priority).
VL_REALTIME = 1
#: VL used by best-effort traffic.
VL_BEST_EFFORT = 0
#: VL15 is the management VL — subnet management packets bypass data VLs.
VL_MANAGEMENT = 15
#: Data VLs the two traffic classes use: VL 0 and VL 1.  A link models
#: Table 1's ``num_vls`` VLs, but per-VL state (input FIFOs, send queues,
#: credit vectors, arbiter pointers) exists only for these lanes, indexed
#: by VL number — no packet can enter any other lane.
NUM_DATA_VLS = 2


def data_lanes(num_vls: int) -> int:
    """Per-VL state slots of a port or link with *num_vls* VLs: its data VLs."""
    return min(num_vls, NUM_DATA_VLS)


def class_for_vl(vl: int) -> TrafficClass:
    """Inverse of :attr:`TrafficClass.vl` for the two data VLs we use."""
    if vl == VL_REALTIME:
        return TrafficClass.REALTIME
    if vl == VL_BEST_EFFORT:
        return TrafficClass.BEST_EFFORT
    raise ValueError(f"VL {vl} carries no modelled traffic class")

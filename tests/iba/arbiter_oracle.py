"""The scanning VL arbiter: the test oracle for the bitmask arbiter.

:meth:`repro.iba.arbiter.VLArbiter.pick` finds its round-robin winner in
the switch's ready-head bitmasks.  The oracle below is the arbiter as it
was before the index existed: it walks every input port from the VL's
round-robin pointer and looks at each FIFO head.  :func:`scan_pick`
updates the arbiter's pointer and streak state exactly as ``pick`` must,
so tests can run both on copies of one arbiter and compare results and
state.  :func:`head_masks` recounts the index from the FIFOs.
"""

from __future__ import annotations

from typing import Sequence

from repro.iba.arbiter import PRIORITY_VLS, VLArbiter
from repro.iba.buffers import InputBuffer, ReadyEntry


def head_masks(inputs: Sequence[InputBuffer], out_port: int) -> list[int]:
    """Per VL, the mask of input ports whose ready head is bound for
    *out_port* — the ready-head index recounted from scratch."""
    lanes = len(inputs[0].fifos) if inputs else 0
    masks = [0] * lanes
    for in_port, buf in enumerate(inputs):
        for vl, fifo in enumerate(buf.fifos):
            if fifo.ready and fifo.ready[0].out_port == out_port:
                masks[vl] |= 1 << in_port
    return masks


def scan(
    arbiter: VLArbiter, vl: int, out_port: int, inputs: Sequence[InputBuffer]
) -> tuple[int, ReadyEntry] | None:
    """First input at or after the VL's round-robin pointer (wrapping)
    whose head is ready for *out_port*."""
    n = len(inputs)
    start = arbiter._rr_pointer[vl]
    for i in range(n):
        in_port = (start + i) % n
        head = inputs[in_port].fifos[vl].head()
        if head is not None and head.out_port == out_port:
            return in_port, head
    return None


def scan_pick(
    arbiter: VLArbiter,
    out_port: int,
    inputs: Sequence[InputBuffer],
    credits: Sequence[int],
) -> tuple[int, ReadyEntry] | None:
    """``VLArbiter.pick`` by scanning, with the same state updates."""
    order = PRIORITY_VLS
    if arbiter.high_limit is not None:
        if arbiter._high_streak.get(out_port, 0) >= arbiter.high_limit:
            order = tuple(reversed(PRIORITY_VLS))
    for vl in order:
        if credits[vl] <= 0:
            continue
        choice = scan(arbiter, vl, out_port, inputs)
        if choice is None:
            continue
        in_port, head = choice
        arbiter._rr_pointer[vl] = (in_port + 1) % len(inputs)
        if arbiter.high_limit is not None:
            if vl == PRIORITY_VLS[0]:
                arbiter._high_streak[out_port] = (
                    arbiter._high_streak.get(out_port, 0) + 1
                )
            else:
                arbiter._high_streak[out_port] = 0
        return in_port, head
    return None


def pick(
    arbiter: VLArbiter,
    out_port: int,
    inputs: Sequence[InputBuffer],
    credits: Sequence[int],
) -> tuple[int, ReadyEntry] | None:
    """The production ``pick`` with the index recounted from *inputs*."""
    return arbiter.pick(out_port, inputs, credits, head_masks(inputs, out_port))

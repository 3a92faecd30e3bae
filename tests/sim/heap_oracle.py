"""The binary-heap event queue: the test oracle for the calendar queue.

:class:`HeapScheduler` keeps every pending ``(time, priority, seq, event)``
entry in one ``heapq`` heap, so its pop order is the engine's total order
by construction.  It speaks the scheduler protocol of
:class:`repro.sim.scheduler.WheelScheduler` (``push``/``peek``/
``pop_head``/``drain``), so tests can run an :class:`~repro.sim.engine.Engine`
on it with :func:`make_engine` and compare firing logs against the wheel.
"""

from __future__ import annotations

import heapq

from repro.sim.engine import Engine
from repro.sim.scheduler import Entry


class HeapScheduler:
    """The oracle: one binary heap of entries."""

    __slots__ = ("_q",)

    def __init__(self) -> None:
        self._q: list[Entry] = []

    def __len__(self) -> int:
        return len(self._q)

    def push(self, entry: Entry) -> None:
        heapq.heappush(self._q, entry)

    def peek(self) -> Entry | None:
        """Next live entry without consuming it (cancelled entries are
        discarded as they surface).  ``pop_head`` consumes it in O(log n)."""
        q = self._q
        while q:
            entry = q[0]
            if entry[3].cancelled:
                heapq.heappop(q)
                continue
            return entry
        return None

    def pop_head(self) -> None:
        """Consume the entry the immediately preceding :meth:`peek` returned."""
        heapq.heappop(self._q)

    def drain(self, engine, until: int | None, max_events: int | None) -> bool:
        """Fire events in order until the queue empties, *until* passes, or
        *max_events* have run.  Returns True when the budget cut the drain
        short with a live entry still queued.

        One inline heap pop per event; pooled events are not recycled (the
        engine simply allocates fresh ones), which changes nothing
        observable.
        """
        q = self._q
        heappop = heapq.heappop
        count = 0
        budget = -1 if max_events is None else max_events
        while q:
            entry = q[0]
            ev = entry[3]
            if ev.cancelled:
                heappop(q)
                continue
            if count == budget:
                return True
            t = entry[0]
            if until is not None and t > until:
                return False
            heappop(q)
            engine.now = t
            ev.fn(*ev.args)
            engine._processed += 1
            count += 1
        return False


#: Queue families engine-level tests run on: the production calendar queue
#: and the heap oracle.
QUEUES = ("wheel", "heap")


def make_engine(queue: str = "wheel") -> Engine:
    """A production engine, or (``queue="heap"``) one on the heap oracle."""
    engine = Engine()
    if queue == "heap":
        engine._sched = HeapScheduler()
        engine._push = engine._sched.push
    return engine

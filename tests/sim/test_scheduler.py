"""The calendar queue against the binary-heap oracle.

The calendar queue must pop in the identical ``(time, priority, seq)``
order as a binary heap — including same-instant ties, cancellations
inside the bucket being drained, pushes into that bucket, far-future
events that span many slots, and events landing exactly on slot
boundaries.  The property test drives :class:`WheelScheduler` and a plain
``heapq`` through the same random operations; the engine-level tests run
on both the production queue and the heap oracle of ``heap_oracle.py``.
"""

import heapq
import random

import pytest

from repro.sim.scheduler import SLOT_BITS, WheelScheduler
from tests.sim.heap_oracle import QUEUES, make_engine

SLOT_PS = 1 << SLOT_BITS

#: Delay mix exercising every wheel path: same-instant (current-bucket
#: insort), sub-slot, exact slot boundary, a few slots out, and far
#: enough to guarantee distinct heap entries in the slot heap.
DELAYS = (0, 0, 1, 7, SLOT_PS - 1, SLOT_PS, SLOT_PS + 1,
          5 * SLOT_PS, 40_000, 1 << 20, (1 << 22) + 17)


class _Ev:
    """The one event attribute a queue reads."""

    __slots__ = ("cancelled",)

    def __init__(self) -> None:
        self.cancelled = False


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 1234])
def test_wheel_matches_heap_chaos(seed):
    """Property: the same random pushes, cancels and pops through the wheel
    and through ``heapq`` pop the same entries in the same order.

    After every pop, new entries land at the popped instant (same-instant
    ties and pushes into the bucket being drained, at either priority)
    and later; pending entries are cancelled now and then, some of them
    already sorted into the bucket being drained."""
    rng = random.Random(seed)
    wheel = WheelScheduler()
    oracle: list = []
    cancellable: list[_Ev] = []
    seq = 0

    def push(time: int) -> None:
        nonlocal seq
        ev = _Ev()
        entry = (time, rng.choice((0, 0, 0, 1)), seq, ev)
        seq += 1
        wheel.push(entry)
        heapq.heappush(oracle, entry)
        cancellable.append(ev)

    for _ in range(40):
        push(rng.choice(DELAYS))
    budget = 600
    popped = []
    while True:
        head = wheel.peek()
        while oracle and oracle[0][3].cancelled:
            heapq.heappop(oracle)
        assert head is (oracle[0] if oracle else None)
        if head is None:
            break
        wheel.pop_head()
        heapq.heappop(oracle)
        popped.append(head[:3])
        now = head[0]
        for _ in range(rng.randrange(0, 3)):
            if budget <= 0:
                break
            budget -= 1
            push(now + rng.choice(DELAYS))
        if cancellable and rng.random() < 0.3:
            cancellable.pop(rng.randrange(len(cancellable))).cancelled = True
    assert len(popped) > 100, "workload must actually pop entries"
    assert popped == sorted(popped, key=lambda e: e[0])
    assert len(wheel) == 0


@pytest.mark.parametrize("seed", [3, 99])
def test_wheel_matches_heap_under_chunked_runs(seed):
    """Alternating run(until=...) and run(max_events=...) slices of an
    engine on the wheel fire the same events at the same times as the same
    slices on the heap oracle."""
    def chunked(queue):
        rng = random.Random(seed)
        eng = make_engine(queue)
        log = []

        def fire(tag):
            log.append((eng.now, tag))
            if len(log) < 400:
                eng.schedule_pooled(rng.choice(DELAYS), fire, f"c{len(log)}")

        for i in range(20):
            eng.schedule(rng.choice(DELAYS), fire, f"s{i}")
        horizon = 0
        while eng.pending_count:
            if rng.random() < 0.5:
                horizon = max(horizon, eng.now) + rng.choice(DELAYS) + 1
                eng.run(until=horizon)
            else:
                eng.run(max_events=rng.randrange(1, 17))
        return log, eng.events_processed

    wheel = chunked("wheel")
    heap = chunked("heap")
    assert wheel == heap


class TestOrdering:
    @pytest.mark.parametrize("mode", QUEUES)
    def test_same_instant_ties_fire_in_schedule_order(self, mode):
        eng = make_engine(mode)
        log = []
        for i in range(10):
            eng.schedule(100, log.append, i)
        eng.run()
        assert log == list(range(10))

    @pytest.mark.parametrize("mode", QUEUES)
    def test_priority_breaks_same_time_ties(self, mode):
        eng = make_engine(mode)
        log = []
        eng.schedule(100, log.append, "late", priority=1)
        eng.schedule(100, log.append, "early", priority=0)
        eng.run()
        assert log == ["early", "late"]

    @pytest.mark.parametrize("mode", QUEUES)
    def test_far_future_slots_pop_in_time_order(self, mode):
        eng = make_engine(mode)
        log = []
        times = [9 * SLOT_PS, 2 * SLOT_PS, 123, 7 * SLOT_PS + 5, 0]
        for t in times:
            eng.schedule_at(t, log.append, t)
        eng.run()
        assert log == sorted(times)

    @pytest.mark.parametrize("mode", QUEUES)
    def test_callback_push_into_current_instant(self, mode):
        """An event scheduled at delay 0 from inside a callback lands in
        the bucket being drained and must fire before later times."""
        eng = make_engine(mode)
        log = []

        def outer():
            log.append("outer")
            eng.schedule(0, log.append, "inner")

        eng.schedule(50, outer)
        eng.schedule(51, log.append, "later")
        eng.run()
        assert log == ["outer", "inner", "later"]


class TestCancellation:
    @pytest.mark.parametrize("mode", QUEUES)
    def test_cancelled_mid_bucket_is_skipped(self, mode):
        """Cancel a same-slot event from an earlier callback: the wheel has
        already sorted the victim into the bucket being drained."""
        eng = make_engine(mode)
        log = []
        victim = eng.schedule(100, log.append, "victim")
        eng.schedule(99, lambda: victim.cancel())
        eng.schedule(101, log.append, "after")
        eng.run()
        assert log == ["after"]

    @pytest.mark.parametrize("mode", QUEUES)
    def test_cancelled_does_not_consume_budget(self, mode):
        eng = make_engine(mode)
        log = []
        eng.schedule(10, log.append, "a")
        dead = eng.schedule(20, log.append, "dead")
        eng.schedule(30, log.append, "b")
        dead.cancel()
        eng.run(max_events=2)
        assert log == ["a", "b"]

    @pytest.mark.parametrize("mode", QUEUES)
    def test_cancelled_not_counted_in_events_processed(self, mode):
        eng = make_engine(mode)
        dead = eng.schedule(10, lambda: None)
        dead.cancel()
        eng.schedule(20, lambda: None)
        eng.run()
        assert eng.events_processed == 1


class TestDrainEdges:
    @pytest.mark.parametrize("mode", QUEUES)
    def test_budget_stops_mid_bucket(self, mode):
        eng = make_engine(mode)
        log = []
        for i in range(5):
            eng.schedule(100, log.append, i)  # all one bucket
        eng.run(max_events=2)
        assert log == [0, 1]
        assert eng.pending_count == 3
        eng.run()
        assert log == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("mode", QUEUES)
    def test_until_cuts_mid_bucket(self, mode):
        eng = make_engine(mode)
        log = []
        eng.schedule(10, log.append, "early")   # same slot as `late`
        eng.schedule(20, log.append, "late")
        eng.run(until=15)
        assert log == ["early"]
        assert eng.now == 15
        eng.run()
        assert log == ["early", "late"]

    @pytest.mark.parametrize("mode", QUEUES)
    def test_until_is_inclusive(self, mode):
        eng = make_engine(mode)
        log = []
        eng.schedule(100, log.append, "edge")
        eng.run(until=100)
        assert log == ["edge"]

    @pytest.mark.parametrize("mode", QUEUES)
    def test_budget_hit_before_until_holds_clock(self, mode):
        """When max_events cuts the run with work still pending at or
        before `until`, the clock must stay at the last processed event
        so a resumed run does not jump the unprocessed timestamps."""
        eng = make_engine(mode)
        log = []
        for t in (10, 20, 30):
            eng.schedule_at(t, log.append, t)
        eng.run(until=100, max_events=2)
        assert log == [10, 20]
        assert eng.now == 20
        eng.run(until=100)
        assert log == [10, 20, 30]
        assert eng.now == 100

    @pytest.mark.parametrize("mode", QUEUES)
    def test_run_on_empty_queue_advances_to_until(self, mode):
        eng = make_engine(mode)
        eng.run(until=500)
        assert eng.now == 500
        assert eng.events_processed == 0


class TestEventPooling:
    def test_wheel_recycles_pooled_events(self):
        eng = make_engine()
        eng.schedule_pooled(10, lambda: None)
        eng.run()
        assert len(eng._pool) == 1
        recycled = eng._pool[0]
        assert recycled.pooled and recycled.fn is None and recycled.args == ()
        eng.schedule_pooled(10, lambda: None)
        assert not eng._pool, "free list entry must be reused"
        eng.run()
        assert eng._pool[0] is recycled

    def test_pooled_ordering_matches_schedule(self):
        """schedule_pooled consumes a seq like schedule — interleaving the
        two must preserve FIFO among same-instant events."""
        for mode in QUEUES:
            eng = make_engine(mode)
            log = []
            eng.schedule(100, log.append, 0)
            eng.schedule_pooled(100, log.append, 1)
            eng.schedule(100, log.append, 2)
            eng.schedule_pooled(100, log.append, 3)
            eng.run()
            assert log == [0, 1, 2, 3], mode

    def test_step_recycles_pooled_events_too(self):
        eng = make_engine()
        eng.schedule_pooled(10, lambda: None)
        assert eng.step() is True
        assert len(eng._pool) == 1

"""Input buffers (occupancy accounting) and VL arbitration (realtime
priority, round-robin fairness), with the bitmask arbiter checked against
the scanning oracle."""

import copy
import random

import pytest

from repro.iba.arbiter import PRIORITY_VLS, VLArbiter
from repro.iba.buffers import InputBuffer
from repro.iba.types import VL_BEST_EFFORT, VL_REALTIME

from tests.conftest import make_packet
from tests.iba.arbiter_oracle import pick, scan_pick


class TestInputBuffer:
    def test_processing_then_ready(self):
        buf = InputBuffer(num_vls=2, capacity_per_vl=2)
        buf.begin_processing(0)
        assert buf.fifos[0].occupancy == 1
        p = make_packet(vl=0)
        buf.make_ready(p, out_port=3)
        assert buf.fifos[0].occupancy == 1
        head = buf.fifos[0].head()
        assert head.packet is p and head.out_port == 3

    def test_overflow_raises(self):
        buf = InputBuffer(num_vls=1, capacity_per_vl=1)
        buf.begin_processing(0)
        with pytest.raises(RuntimeError):
            buf.begin_processing(0)

    def test_drop_frees_slot(self):
        buf = InputBuffer(num_vls=1, capacity_per_vl=1)
        buf.begin_processing(0)
        buf.drop_processing(0)
        buf.begin_processing(0)  # no overflow now

    def test_make_ready_requires_processing(self):
        buf = InputBuffer(num_vls=1, capacity_per_vl=4)
        with pytest.raises(RuntimeError):
            buf.make_ready(make_packet(vl=0), 0)

    def test_pop_head_fifo_order(self):
        buf = InputBuffer(num_vls=1, capacity_per_vl=4)
        p1, p2 = make_packet(vl=0), make_packet(vl=0)
        buf.begin_processing(0)
        buf.make_ready(p1, 1)
        buf.begin_processing(0)
        buf.make_ready(p2, 1)
        assert buf.pop_head(0).packet is p1
        assert buf.pop_head(0).packet is p2

    def test_vl_isolation(self):
        buf = InputBuffer(num_vls=2, capacity_per_vl=1)
        buf.begin_processing(0)
        buf.begin_processing(1)  # separate VL has its own capacity
        assert buf.fifos[0].occupancy == 1
        assert buf.fifos[1].occupancy == 1


def _buffer_with(packets):
    """InputBuffer holding given ready (packet, out_port) entries."""
    vls = max((p.vl for p, _ in packets), default=0) + 1
    buf = InputBuffer(num_vls=max(2, vls), capacity_per_vl=8)
    for p, out in packets:
        buf.begin_processing(p.vl)
        buf.make_ready(p, out)
    return buf


class TestArbiter:
    def test_priority_order_constant(self):
        assert PRIORITY_VLS == (VL_REALTIME, VL_BEST_EFFORT)

    def test_realtime_wins(self):
        rt = make_packet(vl=VL_REALTIME)
        be = make_packet(vl=VL_BEST_EFFORT)
        inputs = [_buffer_with([(be, 0)]), _buffer_with([(rt, 0)])]
        arb = VLArbiter(num_vls=2)
        port, entry = pick(arb, 0, inputs, [1, 1])
        assert entry.packet is rt and port == 1

    def test_best_effort_when_no_realtime(self):
        be = make_packet(vl=VL_BEST_EFFORT)
        inputs = [_buffer_with([(be, 0)]), _buffer_with([])]
        arb = VLArbiter(num_vls=2)
        port, entry = pick(arb, 0, inputs, [1, 1])
        assert entry.packet is be

    def test_credit_gate(self):
        rt = make_packet(vl=VL_REALTIME)
        be = make_packet(vl=VL_BEST_EFFORT)
        inputs = [_buffer_with([(rt, 0), (be, 0)])]
        arb = VLArbiter(num_vls=2)
        # no realtime credit: best-effort goes instead
        credits = [0, 0]
        credits[VL_BEST_EFFORT] = 1
        port, entry = pick(arb, 0, inputs, credits)
        assert entry.packet is be

    def test_wrong_out_port_ignored(self):
        p = make_packet(vl=0)
        inputs = [_buffer_with([(p, 3)])]
        arb = VLArbiter(num_vls=2)
        assert pick(arb, 0, inputs, [1, 1]) is None

    def test_none_when_empty(self):
        arb = VLArbiter(num_vls=2)
        assert pick(arb, 0, [_buffer_with([])], [1, 1]) is None

    def test_round_robin_across_inputs(self):
        a = make_packet(vl=0)
        b = make_packet(vl=0)
        inputs = [_buffer_with([(a, 0)]), _buffer_with([(b, 0)])]
        arb = VLArbiter(num_vls=2)
        first_port, first = pick(arb, 0, inputs, [1, 1])
        inputs[first_port].pop_head(0)
        second_port, second = pick(arb, 0, inputs, [1, 1])
        assert {first.packet, second.packet} == {a, b}
        assert first_port != second_port

    def test_rr_pointer_rotates_under_contention(self):
        """With both inputs always loaded, grants must alternate."""
        arb = VLArbiter(num_vls=2)
        inputs = [
            _buffer_with([(make_packet(vl=0), 0) for _ in range(4)]),
            _buffer_with([(make_packet(vl=0), 0) for _ in range(4)]),
        ]
        order = []
        for _ in range(6):
            port, entry = pick(arb, 0, inputs, [1, 1])
            inputs[port].pop_head(0)
            order.append(port)
        assert order[:4] in ([0, 1, 0, 1], [1, 0, 1, 0])


class TestBitmaskMatchesScan:
    """``VLArbiter.pick`` over the ready-head bitmasks must choose what the
    scanning oracle chooses — same input port, same entry object — and
    leave the same round-robin pointers and high-priority streaks, over
    random FIFO heads, credits, pointers and ``high_limit``."""

    @pytest.mark.parametrize("seed", range(20))
    def test_random_arbitration_sequences(self, seed):
        rng = random.Random(seed)
        num_ports = rng.randint(1, 12)
        high_limit = rng.choice([None, 1, 2, 3])
        inputs = [InputBuffer(num_vls=16, capacity_per_vl=64)
                  for _ in range(num_ports)]
        for buf in inputs:
            for vl in (VL_BEST_EFFORT, VL_REALTIME):
                for _ in range(rng.randint(0, 6)):
                    buf.begin_processing(vl)
                    buf.make_ready(make_packet(vl=vl),
                                   rng.randrange(num_ports))
        arb = VLArbiter(num_vls=16, high_limit=high_limit)
        arb._rr_pointer = [rng.randrange(num_ports) for _ in arb._rr_pointer]
        if high_limit is not None:
            arb._high_streak = {p: rng.randint(0, high_limit)
                                for p in range(num_ports) if rng.random() < 0.5}
        oracle = copy.deepcopy(arb)
        grants = 0
        for _ in range(200):
            out_port = rng.randrange(num_ports)
            credits = [rng.choice([0, 1, 3]) for _ in range(2)]
            got = pick(arb, out_port, inputs, credits)
            want = scan_pick(oracle, out_port, inputs, credits)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert got[0] == want[0] and got[1] is want[1]
                inputs[got[0]].pop_head(got[1].packet.vl)
                grants += 1
            assert arb._rr_pointer == oracle._rr_pointer
            assert arb._high_streak == oracle._high_streak
        assert grants > 0

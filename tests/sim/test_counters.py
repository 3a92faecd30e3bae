"""Counter registry: int emulation, namespacing, globbing, snapshots."""

import pickle

import pytest

from repro.sim.counters import Counter, CounterRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c == 0 and not c
        c.inc()
        c.inc(3)
        assert c == 4

    def test_add_alias_and_floats(self):
        c = Counter("stalls")
        c.add(2.5)
        c.add(0.5)
        assert c == 3.0
        assert float(c) == 3.0

    def test_reset(self):
        c = Counter("x")
        c.inc(7)
        c.reset()
        assert c == 0

    def test_int_emulation_read_sites(self):
        """The exact read idioms the migrated call sites rely on."""
        a, b = Counter("a", 2), Counter("b", 3)
        assert sum([a, b]) == 5  # sum(sw.forwarded for ...)
        assert a < b and b > a and a <= 2 and b >= 3
        assert a != b and a == Counter("other", 2)
        assert int(b) == 3 and bool(a) and a + 1 == 3 and 1 + a == 3
        assert b - a == 1 and 10 - b == 7
        assert a * 2 == 4 and b / 2 == 1.5
        assert f"{a}" == "2" and f"{b:04d}" == "0003"
        assert list(range(a)) == [0, 1]  # __index__

    def test_identity_hash_despite_value_equality(self):
        a, b = Counter("a", 1), Counter("b", 1)
        assert a == b and hash(a) != hash(b)

    def test_repr_names_the_counter(self):
        assert "hca.1.delivered" in repr(Counter("hca.1.delivered", 9))


class TestCounterRegistry:
    def test_counter_is_create_or_fetch(self):
        reg = CounterRegistry()
        a = reg.counter("x.y")
        a.inc(5)
        assert reg.counter("x.y") is a
        assert reg.counter("x.y") == 5

    def test_gauge_alias(self):
        reg = CounterRegistry()
        assert reg.gauge("g") is reg.counter("g")

    def test_get_missing_is_zero(self):
        assert CounterRegistry().get("no.such") == 0

    def test_contains_len_names(self):
        reg = CounterRegistry()
        reg.counter("b")
        reg.counter("a")
        assert "a" in reg and "z" not in reg
        assert len(reg) == 2
        assert reg.names() == ["a", "b"]

    def test_total_globs(self):
        reg = CounterRegistry()
        reg.counter("switch.sw(0,0).forwarded").inc(2)
        reg.counter("switch.sw(1,0).forwarded").inc(3)
        reg.counter("switch.sw(0,0).filtered_drops").inc(9)
        assert reg.total("switch.*.forwarded") == 5
        assert reg.total("switch.sw(0,0).*") == 11
        assert reg.total("hca.*") == 0

    def test_snapshot_is_plain_and_picklable(self):
        reg = CounterRegistry()
        reg.counter("hca.1.delivered").inc(4)
        reg.gauge("switch.s.lookup_stalls_ns").add(1.5)
        snap = reg.snapshot()
        assert snap == {"hca.1.delivered": 4, "switch.s.lookup_stalls_ns": 1.5}
        assert all(type(v) in (int, float) for v in snap.values())
        assert pickle.loads(pickle.dumps(snap)) == snap
        # later mutation must not retroactively change the snapshot
        reg.counter("hca.1.delivered").inc()
        assert snap["hca.1.delivered"] == 4

    def test_snapshot_pattern(self):
        reg = CounterRegistry()
        reg.counter("a.x").inc()
        reg.counter("b.x").inc()
        assert set(reg.snapshot("a.*")) == {"a.x"}

    def test_mutation_must_use_inc_not_augmented_assign(self):
        """+= on the value works, but += on an attribute holding the
        Counter would rebind it — documented by Counter.__add__ returning
        a plain number, not a Counter."""
        reg = CounterRegistry()
        c = reg.counter("x")
        rebound = c + 1
        assert not isinstance(rebound, Counter)


class TestStateCounter:
    """State counters model hardware state the simulation reads (the SIF
    violation counter); they live in the one namespace like any other."""

    def test_state_counter_is_ordinary(self):
        from repro.sim.counters import CounterRegistry

        reg = CounterRegistry()
        c = reg.state_counter("filter.sif.violation_counter")
        assert reg.counter("filter.sif.violation_counter") is c
        c.inc()
        assert reg.snapshot() == {"filter.sif.violation_counter": 1}


class TestMergeAndSnapshot:
    """Cross-shard merge contract: order-stable, kind-checked, summing."""

    def test_merge_empty_is_noop(self):
        a = CounterRegistry()
        a.counter("x").inc(5)
        a.merge(CounterRegistry())
        assert a.snapshot() == {"x": 5}

    def test_merge_into_empty_preserves_order(self):
        # registration order survives the merge (kinds() iterates it);
        # the exported names()/snapshot() views stay name-sorted
        a = CounterRegistry()
        b = CounterRegistry()
        for name in ("z.late", "a.early", "m.mid"):
            b.counter(name).inc()
        a.merge(b)
        assert list(a.kinds()) == ["z.late", "a.early", "m.mid"]
        assert a.names() == ["a.early", "m.mid", "z.late"]

    def test_disjoint_names_append_after_existing(self):
        a = CounterRegistry()
        a.counter("mine").inc(1)
        b = CounterRegistry()
        b.counter("theirs").inc(2)
        a.merge(b)
        assert list(a.kinds()) == ["mine", "theirs"]
        assert a.get("theirs") == 2

    def test_same_name_sums(self):
        a, b = CounterRegistry(), CounterRegistry()
        a.counter("drops").inc(3)
        b.counter("drops").inc(4)
        b.counter("drops").inc(0.5)
        a.merge(b)
        assert a.get("drops") == 7.5

    def test_kind_mismatch_raises(self):
        a, b = CounterRegistry(), CounterRegistry()
        a.counter("filter.sif.violation_counter")
        b.state_counter("filter.sif.violation_counter")
        with pytest.raises(ValueError, match="kind"):
            a.merge(b)

    def test_state_counters_merge_with_state(self):
        a, b = CounterRegistry(), CounterRegistry()
        a.state_counter("vc").inc(2)
        b.state_counter("vc").inc(3)
        a.merge(b)
        assert a.get("vc") == 5
        assert a.kinds() == {"vc": "state"}

    def test_from_snapshot_round_trip(self):
        src = CounterRegistry()
        src.counter("pk.drops").inc(7)
        src.state_counter("vc").inc(2)
        rebuilt = CounterRegistry.from_snapshot(src.snapshot(), src.kinds())
        assert rebuilt.snapshot() == src.snapshot()
        assert rebuilt.kinds() == src.kinds()
        assert rebuilt.names() == src.names()

    def test_repeated_merge_matches_single_registry(self):
        # snapshot -> from_snapshot -> merge equals incrementing in place
        direct = CounterRegistry()
        acc = CounterRegistry()
        for val in (3, 4):
            direct.counter("drops").inc(val)
            part = CounterRegistry()
            part.counter("drops").inc(val)
            acc.merge(
                CounterRegistry.from_snapshot(part.snapshot(), part.kinds())
            )
        assert acc.snapshot() == direct.snapshot()

    def test_from_snapshot_defaults_to_plain_kind(self):
        rebuilt = CounterRegistry.from_snapshot({"x": 1})
        assert rebuilt.kinds() == {"x": "counter"}

    def test_repeated_merge_is_deterministic(self):
        # shard results folded in shard order twice produce identical
        # registries — the invariant the report writer depends on
        def build():
            acc = CounterRegistry()
            for shard, val in ((0, 1), (1, 10), (2, 100)):
                part = CounterRegistry()
                part.counter("shared").inc(val)
                part.counter(f"only.{shard}").inc(shard)
                acc.merge(part)
            return acc

        one, two = build(), build()
        assert one.snapshot() == two.snapshot()
        assert list(one.kinds()) == list(two.kinds())
        assert one.get("shared") == 111

"""Counter registry — the fabric's single source of runtime statistics.

Every stat producer in the data path (switches, HCAs, links, the SM, the
three port-filter policies, auth services, attackers) registers named
:class:`Counter` objects into one :class:`CounterRegistry` instead of
keeping bespoke ``self.<stat> = 0`` integers.  That buys three things:

* **one namespace** — ``registry.snapshot()`` is the complete statistical
  state of a run, with hierarchical dotted names
  (``switch.s1x0.filtered_drops``, ``filter.s1x0.p0.activations``,
  ``hca.3.delivered``, ``sm.traps_processed``);
* **survivability** — the snapshot is a plain ``dict[str, int | float]``
  that pickles into :class:`~repro.sim.runner.SimReport` and therefore
  crosses the parallel-sweep process boundary and lands in the
  ``.sweep_cache/`` unchanged;
* **aggregation** — report builders sum over glob patterns
  (:meth:`CounterRegistry.total`) instead of walking object graphs.

A :class:`Counter` emulates an integer (comparisons, arithmetic,
``sum()``, formatting), so call sites that *read* statistics —
``sum(sw.forwarded for ...)``, ``assert filt.drops > 0`` — keep working
verbatim; only the *producers* change, from ``self.x += 1`` to
``self.x.inc()``.  ``tools/check_bare_counters.py`` enforces that no new
bare-integer stat sneaks back into ``iba/`` or ``core/``.
"""

from __future__ import annotations

from fnmatch import fnmatchcase


class Counter:
    """A named, mutable, int-emulating statistic.

    Mutation goes through :meth:`inc` / :meth:`add` (never ``+=`` on the
    attribute — that would rebind the attribute to a plain number and
    detach it from the registry).  Reads behave like the underlying
    number: ``int(c)``, ``c > 0``, ``c == 5``, ``sum([...])``, ``f"{c}"``
    all work.
    """

    __slots__ = ("name", "value", "kind")

    def __init__(
        self, name: str, value: int | float = 0, kind: str = "counter"
    ) -> None:
        self.name = name
        self.value = value
        #: ``"counter"`` for plain statistics, ``"state"`` for counters the
        #: simulation *reads* (see :meth:`CounterRegistry.state_counter`).
        #: Cross-shard merges refuse to fold counters of different kinds.
        self.kind = kind

    # -- mutation ----------------------------------------------------------

    def inc(self, n: int | float = 1) -> None:
        self.value += n

    add = inc  #: alias — reads better for non-unit increments.

    def reset(self) -> None:
        self.value = 0

    # -- number emulation --------------------------------------------------

    @staticmethod
    def _val(other):
        return other.value if isinstance(other, Counter) else other

    def __int__(self) -> int:
        return int(self.value)

    __index__ = __int__

    def __float__(self) -> float:
        return float(self.value)

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other) -> bool:
        return self.value == self._val(other)

    def __ne__(self, other) -> bool:
        return self.value != self._val(other)

    def __lt__(self, other) -> bool:
        return self.value < self._val(other)

    def __le__(self, other) -> bool:
        return self.value <= self._val(other)

    def __gt__(self, other) -> bool:
        return self.value > self._val(other)

    def __ge__(self, other) -> bool:
        return self.value >= self._val(other)

    def __add__(self, other):
        return self.value + self._val(other)

    __radd__ = __add__

    def __sub__(self, other):
        return self.value - self._val(other)

    def __rsub__(self, other):
        return self._val(other) - self.value

    def __mul__(self, other):
        return self.value * self._val(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self.value / self._val(other)

    def __rtruediv__(self, other):
        return self._val(other) / self.value

    def __neg__(self):
        return -self.value

    # Counters are mutable: identity hash (like any plain object), even
    # though equality compares values.  They are never used as dict keys
    # for value lookup.
    def __hash__(self) -> int:
        return id(self)

    def __format__(self, spec: str) -> str:
        return format(self.value, spec)

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value!r})"


class CounterRegistry:
    """Flat, ordered namespace of :class:`Counter` objects.

    Names are dotted paths: ``<component>.<instance>.<stat>``.  Requesting
    an existing name returns the same object, so a component constructed
    twice against the same registry shares (and keeps accumulating into)
    its counters — components therefore use unique instance scopes.
    """

    __slots__ = ("_counters",)

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}

    def counter(self, name: str, initial: int | float = 0) -> Counter:
        """Create (or fetch) the counter called *name*."""
        c = self._counters.get(name)
        if c is None:
            c = Counter(name, initial)
            self._counters[name] = c
        return c

    #: Gauges are counters whose value is *set* rather than accumulated;
    #: the registry does not distinguish — the alias documents intent.
    gauge = counter

    def state_counter(self, name: str, initial: int | float = 0) -> Counter:
        """Create (or fetch) a counter that models **hardware state** the
        simulation reads to make decisions (e.g. the SIF Invalid P_Key
        violation counter).  It is an ordinary registry counter of kind
        ``"state"``, which cross-shard merges refuse to sum into a plain
        statistic."""
        c = self._counters.get(name)
        if c is None:
            c = Counter(name, initial, kind="state")
            self._counters[name] = c
        return c

    def get(self, name: str) -> int | float:
        """Current value of *name* (0 when never registered)."""
        c = self._counters.get(name)
        return c.value if c is not None else 0

    def names(self) -> list[str]:
        return sorted(self._counters)

    def __contains__(self, name: str) -> bool:
        return name in self._counters

    def __len__(self) -> int:
        return len(self._counters)

    def total(self, pattern: str) -> int | float:
        """Sum of every counter whose name matches the glob *pattern*
        (e.g. ``switch.*.filtered_drops``)."""
        return sum(
            c.value for name, c in self._counters.items()
            if fnmatchcase(name, pattern)
        )

    def snapshot(self, pattern: str | None = None) -> dict[str, int | float]:
        """Plain, picklable ``{name: value}`` dict (sorted by name);
        *pattern* optionally restricts to matching names."""
        return {
            name: self._counters[name].value
            for name in sorted(self._counters)
            if pattern is None or fnmatchcase(name, pattern)
        }

    def kinds(self) -> dict[str, str]:
        """``{name: kind}`` for every registered counter — the sharded
        engine ships this alongside :meth:`snapshot` so merges can enforce
        kind agreement across process boundaries."""
        return {name: c.kind for name, c in self._counters.items()}

    @classmethod
    def from_snapshot(
        cls,
        snapshot: dict[str, int | float],
        kinds: dict[str, str] | None = None,
    ) -> "CounterRegistry":
        """Rebuild a registry from a :meth:`snapshot` dict (and an
        optional :meth:`kinds` map), preserving the dict's iteration order.
        This is how per-shard counter state is rehydrated for a cross-shard
        :meth:`merge`."""
        registry = cls()
        kinds = kinds or {}
        for name, value in snapshot.items():
            registry._counters[name] = Counter(
                name, value, kind=kinds.get(name, "counter")
            )
        return registry

    def merge(self, other: "CounterRegistry") -> None:
        """Fold *other*'s counters into this registry, in place.

        Same-name counters sum; names only *other* has are appended in
        *other*'s order after this registry's existing names, so repeated
        merges preserve a stable, deterministic counter ordering.  A
        same-name pair whose kinds disagree (plain ``"counter"`` vs
        ``"state"``) raises ``ValueError`` — summing hardware state into a
        statistic (or vice versa) is always a wiring bug.  Merging an empty
        registry is a no-op, so shards that processed nothing cost
        nothing."""
        for name, theirs in other._counters.items():
            mine = self._counters.get(name)
            if mine is None:
                self._counters[name] = Counter(name, theirs.value, theirs.kind)
            elif mine.kind != theirs.kind:
                raise ValueError(
                    f"cannot merge counter {name!r}: kind {mine.kind!r} "
                    f"!= {theirs.kind!r}"
                )
            else:
                mine.value += theirs.value

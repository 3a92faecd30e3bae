"""Switch-level partition enforcement: DPT, IF, SIF (paper Section 3.3),
and the Bloom-filter fourth design.

All four designs share the same goal — invalid-P_Key packets must die at
(or near) the edge instead of crossing the fabric — and differ in *where the
partition state lives* and *what it costs*:

* :class:`DPTPortFilter` (Duplicate Partition Table): every input port of
  every switch holds the whole subnet's partition table and checks every
  packet.  Memory n·p per switch, one f(n·p) lookup per packet per hop.
* :class:`IngressPortFilter` (IF): only the HCA-facing port of the ingress
  switch filters, with just the attached node's p entries.  One f(p) lookup
  per packet — still paid by every legitimate packet forever.
* :class:`SIFPortFilter` (Stateful Ingress Filtering — the proposal):
  normally *disabled, zero cost*.  A destination HCA's P_Key-violation trap
  makes the SM register the bad P_Key here and switch filtering on; an
  Ingress P_Key Violation Counter ages it back off when the attack stops.
  When the attacker sprays so many distinct P_Keys that the
  Invalid_P_Key_Table would outgrow the partition table, the filter flips
  from blacklist to whitelist mode ("the Invalid_P_Key_Table should be used
  as long as the number of entries is smaller than the partition table").
* :class:`BloomPortFilter` (the fourth design — ROADMAP's "in-packet Bloom
  filters", after arXiv 0908.3574 / 1901.00955): trap-activated like SIF,
  but the invalid-key state is a **fixed-size Bloom filter** — constant
  memory no matter how wide the spray — at the price of a tunable
  false-positive rate.  Its contract, checked by the fuzz oracle: it may
  *over*-filter (false positives, counted separately) but never
  *under*-filters relative to SIF on the same packet stream.  An optional
  capability variant verifies an **in-packet membership tag** stamped by
  the sender's salt-holding HCA (the verifiable-filter shape).

Every filter lets subnet-management packets (default P_Key 0xFFFF) through:
partition enforcement never gates the management plane.
"""

from __future__ import annotations

from repro.core.bloom import BloomFilter
from repro.iba.keys import PKey
from repro.iba.packet import DataPacket
from repro.sim.counters import CounterRegistry
from repro.sim.engine import Engine, PS_PER_US
from repro.sim.trace import Tracer


def _is_management(pkey: PKey) -> bool:
    return pkey.value == PKey.DEFAULT


class DPTPortFilter:
    """Always-on filter holding the full subnet partition table."""

    def __init__(
        self,
        subnet_pkey_indices: set[int],
        lookup_ns: float,
        registry: CounterRegistry | None = None,
        scope: str = "filter.dpt",
    ) -> None:
        self.table = set(subnet_pkey_indices)
        self.lookup_ns = lookup_ns
        self.registry = registry if registry is not None else CounterRegistry()
        self.lookups = self.registry.counter(f"{scope}.lookups")
        self.drops = self.registry.counter(f"{scope}.drops")

    def process(self, packet: DataPacket, now_ps: int) -> tuple[bool, float]:
        self.lookups.inc()
        if _is_management(packet.pkey) or packet.pkey.index in self.table:
            return True, self.lookup_ns
        self.drops.inc()
        return False, self.lookup_ns


class IngressPortFilter:
    """Always-on ingress filter holding only the attached node's partitions."""

    def __init__(
        self,
        node_pkey_indices: set[int],
        lookup_ns: float,
        registry: CounterRegistry | None = None,
        scope: str = "filter.if",
    ) -> None:
        self.table = set(node_pkey_indices)
        self.lookup_ns = lookup_ns
        self.registry = registry if registry is not None else CounterRegistry()
        self.lookups = self.registry.counter(f"{scope}.lookups")
        self.drops = self.registry.counter(f"{scope}.drops")

    def process(self, packet: DataPacket, now_ps: int) -> tuple[bool, float]:
        self.lookups.inc()
        if _is_management(packet.pkey) or packet.pkey.index in self.table:
            return True, self.lookup_ns
        self.drops.inc()
        return False, self.lookup_ns


class SIFPortFilter:
    """Trap-activated, self-disabling ingress filter — the paper's design."""

    def __init__(
        self,
        engine: Engine,
        node_pkey_indices: set[int],
        lookup_ns: float,
        idle_timeout_us: float,
        registry: CounterRegistry | None = None,
        scope: str = "filter.sif",
        tracer: Tracer | None = None,
    ) -> None:
        self.engine = engine
        self.partition_table = set(node_pkey_indices)
        self.lookup_ns = lookup_ns
        self.idle_timeout_ps = round(idle_timeout_us * PS_PER_US)
        self.enabled = False
        self.scope = scope
        self.tracer = tracer
        #: Invalid_P_Key_Table — P_Key indices the SM registered.
        self.invalid_table: set[int] = set()
        self._counter_at_last_check = 0
        self._timer_armed = False
        #: Same-instant race guard: a registration that lands between two
        #: idle checks is attack-activity evidence even when it produced no
        #: drop yet, so the next check must not deactivate on its stale
        #: counter snapshot (it would silently discard the registered key).
        self._registered_since_check = False
        # statistics (registry-owned; see repro.sim.counters)
        self.registry = registry if registry is not None else CounterRegistry()
        #: Ingress P_Key Violation Counter (paper Section 3.3) — modeled
        #: hardware state the idle-timeout check *reads*.
        self.violation_counter = self.registry.state_counter(
            f"{scope}.violation_counter"
        )
        self.lookups = self.registry.counter(f"{scope}.lookups")
        self.drops = self.registry.counter(f"{scope}.drops")
        self.activations = self.registry.counter(f"{scope}.activations")
        self.deactivations = self.registry.counter(f"{scope}.deactivations")
        self.rejected_registrations = self.registry.counter(
            f"{scope}.rejected_registrations"
        )

    # -- data path ----------------------------------------------------------

    @property
    def whitelist_mode(self) -> bool:
        """True once the invalid table is no longer *smaller than* the
        partition table — the paper's flip threshold, verbatim.

        A zero-partition port (a node the SM put in no partition) never
        flips: its "whitelist" would be empty and would silently drop every
        non-management packet, far beyond the trap-driven design.  Such a
        port stays a blacklist whose table is capped at one entry (see
        :meth:`register_invalid`)."""
        return bool(self.partition_table) and len(self.invalid_table) >= len(
            self.partition_table
        )

    @property
    def _table_full(self) -> bool:
        """No further Invalid_P_Key_Table growth is allowed.

        With partitions, that is exactly :attr:`whitelist_mode`; a
        zero-partition port caps the blacklist at a single entry — the
        partition-table-parity rationale gives it no more room than that."""
        if not self.partition_table:
            return len(self.invalid_table) >= 1
        return self.whitelist_mode

    def process(self, packet: DataPacket, now_ps: int) -> tuple[bool, float]:
        if not self.enabled:
            return True, 0.0  # SIF idle: no lookup, no stall
        self.lookups.inc()
        if _is_management(packet.pkey):
            return True, self.lookup_ns
        idx = packet.pkey.index
        if self.whitelist_mode:
            ok = idx in self.partition_table
        else:
            ok = idx not in self.invalid_table
        if not ok:
            self.drops.inc()
            self.violation_counter.inc()
            return False, self.lookup_ns
        return True, self.lookup_ns

    # -- SM-facing control --------------------------------------------------

    def register_invalid(self, pkey: PKey, now_ps: int) -> None:
        """SM registers a trapped P_Key and enables filtering (Section 3.3).

        The Invalid_P_Key_Table is bounded by the partition table: "the
        Invalid_P_Key_Table should be used as long as the number of entries
        is smaller than the partition table".  Once :attr:`whitelist_mode`
        is reached, further registrations are redundant — the whitelist
        already rejects every invalid P_Key — and are *not* inserted, so a
        wide P_Key spray cannot grow the table without bound.
        """
        if self._table_full:
            self.rejected_registrations.inc()
        else:
            self.invalid_table.add(pkey.index)
            if self.tracer is not None:
                self.tracer.record(
                    self.engine.now, "sif_registered", self.scope,
                    detail=f"pkey=0x{pkey.value:04x} entries={len(self.invalid_table)}",
                )
        if not self.enabled:
            self.enabled = True
            self.activations.inc()
            if self.tracer is not None:
                self.tracer.record(
                    self.engine.now, "sif_activated", self.scope,
                    detail=f"pkey=0x{pkey.value:04x}",
                )
        if self._timer_armed:
            self._registered_since_check = True
        else:
            self._timer_armed = True
            self._registered_since_check = False
            self._counter_at_last_check = int(self.violation_counter)
            self.engine.schedule(self.idle_timeout_ps, self._idle_check)

    def _idle_check(self) -> None:
        if not self.enabled:
            self._timer_armed = False
            return
        idle = (
            self.violation_counter == self._counter_at_last_check
            and not self._registered_since_check
        )
        self._registered_since_check = False
        if idle:
            # "If this counter does not increase for some time, the switch
            # disables ingress filtering by itself."
            self.enabled = False
            self.invalid_table.clear()
            self.deactivations.inc()
            self._timer_armed = False
            if self.tracer is not None:
                self.tracer.record(
                    self.engine.now, "sif_deactivated", self.scope,
                    detail=f"idle>{self.idle_timeout_ps}ps",
                )
            return
        self._counter_at_last_check = int(self.violation_counter)
        self.engine.schedule(self.idle_timeout_ps, self._idle_check)


class BloomPortFilter:
    """Trap-activated ingress filter with constant-memory Bloom state.

    The control plane is SIF's, unchanged: disabled (zero cost) until the
    SM registers a trapped P_Key, self-disabling when the violation counter
    goes quiet.  The data plane replaces the exact Invalid_P_Key_Table with
    an ``m``-bit, ``k``-hash Bloom filter, giving fixed ingress memory at a
    swept false-positive rate.

    **Never-under-filters contract** (the fuzz oracle's invariant), held by
    construction against a SIF filter fed the identical registration and
    packet stream:

    * every registration is inserted — a Bloom filter never needs to reject
      for growth, so its member set is always a superset of SIF's table;
    * Bloom filters have no false negatives, so every blacklist drop SIF
      makes, this filter makes;
    * the whitelist flip counts *raw* accepted registrations (a Bloom
      filter cannot count distinct keys in constant memory) — raw ≥
      distinct, so it flips **no later** than SIF — and whitelist mode
      additionally keeps dropping everything the Bloom contains;
    * its violation counter advances a superset of SIF's instants, so the
      idle timeout can only outlive SIF's, never fire earlier.

    False positives are over-filtering and are counted in a dedicated
    ``false_positive_drops`` counter, classified against ``_exact_registered``
    — a simulator-side *telemetry* shadow of the exact registered set that
    plays no part in any drop decision (modeled hardware state is the bit
    array alone).

    With ``inpacket_tag=True`` the filter is the capability variant of
    arXiv 1901.00955: while active it also requires each non-management
    packet to carry the in-packet Bloom membership tag its P_Key hashes to
    under the port's secret salt.  Salt-holding HCAs stamp tags only for
    P_Keys in their own partition table, so a sprayed or forged key cannot
    present a verifiable tag and dies at ingress immediately — strictly
    more filtering, never less.
    """

    def __init__(
        self,
        engine: Engine,
        node_pkey_indices: set[int],
        lookup_ns: float,
        idle_timeout_us: float,
        bloom_bits: int,
        bloom_hashes: int,
        salt: bytes = b"",
        inpacket_tag: bool = False,
        registry: CounterRegistry | None = None,
        scope: str = "filter.bloom",
        tracer: Tracer | None = None,
    ) -> None:
        self.engine = engine
        self.partition_table = set(node_pkey_indices)
        self.lookup_ns = lookup_ns
        self.idle_timeout_ps = round(idle_timeout_us * PS_PER_US)
        self.enabled = False
        self.scope = scope
        self.tracer = tracer
        self.inpacket_tag = inpacket_tag
        #: The constant-memory invalid-key state (replaces Invalid_P_Key_Table).
        self.bloom = BloomFilter(bloom_bits, bloom_hashes, salt)
        # raw accepted registrations — the whitelist-flip clock (see class
        # doc); mechanism state, not a statistic, hence not registry-owned
        self._registered_count = 0
        #: Telemetry-only exact shadow of the registered set, used solely to
        #: classify drops as true vs false positive.  Never consulted by
        #: :meth:`process` for the accept/drop decision.
        self._exact_registered: set[int] = set()
        self._counter_at_last_check = 0
        self._timer_armed = False
        self._registered_since_check = False  # same race guard as SIF
        # statistics (registry-owned; see repro.sim.counters)
        self.registry = registry if registry is not None else CounterRegistry()
        #: Ingress P_Key Violation Counter — modeled hardware state the
        #: idle-timeout check reads (same contract as SIF's).
        self.violation_counter = self.registry.state_counter(
            f"{scope}.violation_counter"
        )
        self.lookups = self.registry.counter(f"{scope}.lookups")
        self.drops = self.registry.counter(f"{scope}.drops")
        self.false_positive_drops = self.registry.counter(
            f"{scope}.false_positive_drops"
        )
        self.tag_failures = self.registry.counter(f"{scope}.tag_failures")
        self.activations = self.registry.counter(f"{scope}.activations")
        self.deactivations = self.registry.counter(f"{scope}.deactivations")
        self.registrations = self.registry.counter(f"{scope}.registrations")

    # -- data path ----------------------------------------------------------

    @property
    def whitelist_mode(self) -> bool:
        """Flips on *raw* accepted registrations reaching partition-table
        parity — never later than SIF's distinct-count flip (raw ≥ distinct).
        A zero-partition port never flips, mirroring SIF's defined case."""
        return bool(self.partition_table) and self._registered_count >= len(
            self.partition_table
        )

    @property
    def registered_count(self) -> int:
        """Raw accepted registrations since the last deactivation."""
        return self._registered_count

    def process(self, packet: DataPacket, now_ps: int) -> tuple[bool, float]:
        if not self.enabled:
            return True, 0.0  # idle: no lookup, no stall — SIF's best property
        self.lookups.inc()
        if _is_management(packet.pkey):
            return True, self.lookup_ns
        idx = packet.pkey.index
        if self.inpacket_tag and not self.bloom.verify_tag(
            idx, packet.bloom_tag
        ):
            self.tag_failures.inc()
            return self._drop(exact_drop=idx not in self.partition_table)
        contained = idx in self.bloom
        if self.whitelist_mode:
            # Whitelist still honours the Bloom: a key registered after the
            # flip must keep dying here even if it is partition-valid.
            ok = idx in self.partition_table and not contained
            exact_drop = idx not in self.partition_table or idx in self._exact_registered
        else:
            ok = not contained
            exact_drop = idx in self._exact_registered
        if not ok:
            return self._drop(exact_drop=exact_drop)
        return True, self.lookup_ns

    def _drop(self, exact_drop: bool) -> tuple[bool, float]:
        if not exact_drop:
            self.false_positive_drops.inc()
        self.drops.inc()
        self.violation_counter.inc()
        return False, self.lookup_ns

    # -- in-packet capability ------------------------------------------------

    def stamp_tag(self, packet: DataPacket) -> None:
        """Stamp the membership tag a salt-holding sender may claim.

        The prover only vouches for P_Keys the node legitimately holds:
        an invalid (sprayed) key gets no tag, which is exactly what the
        verifier rejects.  Wired into :meth:`repro.iba.hca.HCA.submit` by
        :func:`install_enforcement` when ``bloom_inpacket_tag`` is on."""
        idx = packet.pkey.index
        if not _is_management(packet.pkey) and idx in self.partition_table:
            packet.bloom_tag = self.bloom.tag(idx)

    # -- SM-facing control --------------------------------------------------

    def register_invalid(self, pkey: PKey, now_ps: int) -> None:
        """SM registers a trapped P_Key and enables filtering.

        Unlike SIF there is no growth to bound — insertion is always
        accepted (constant memory), which is one leg of the
        never-under-filters argument."""
        self.bloom.add(pkey.index)
        self._exact_registered.add(pkey.index)
        self._registered_count += 1
        self.registrations.inc()
        if self.tracer is not None:
            self.tracer.record(
                self.engine.now, "bloom_registered", self.scope,
                detail=(
                    f"pkey=0x{pkey.value:04x} raw={self._registered_count}"
                    f" bits={self.bloom.bits_set}/{self.bloom.num_bits}"
                ),
            )
        if not self.enabled:
            self.enabled = True
            self.activations.inc()
            if self.tracer is not None:
                self.tracer.record(
                    self.engine.now, "bloom_activated", self.scope,
                    detail=f"pkey=0x{pkey.value:04x}",
                )
        if self._timer_armed:
            self._registered_since_check = True
        else:
            self._timer_armed = True
            self._registered_since_check = False
            self._counter_at_last_check = int(self.violation_counter)
            self.engine.schedule(self.idle_timeout_ps, self._idle_check)

    def _idle_check(self) -> None:
        if not self.enabled:
            self._timer_armed = False
            return
        idle = (
            self.violation_counter == self._counter_at_last_check
            and not self._registered_since_check
        )
        self._registered_since_check = False
        if idle:
            self.enabled = False
            self.bloom.clear()
            self._exact_registered.clear()
            self._registered_count = 0
            self.deactivations.inc()
            self._timer_armed = False
            if self.tracer is not None:
                self.tracer.record(
                    self.engine.now, "bloom_deactivated", self.scope,
                    detail=f"idle>{self.idle_timeout_ps}ps",
                )
            return
        self._counter_at_last_check = int(self.violation_counter)
        self.engine.schedule(self.idle_timeout_ps, self._idle_check)


def bloom_port_salt(scope: str) -> bytes:
    """Deterministic per-port secret salt for the in-packet tag.

    Domain-separated KDF over the port scope so every run (and every
    differential leg of the same run) derives identical salts without
    consuming any simulation randomness."""
    from repro.crypto.kdf import derive_key

    return derive_key(b"repro.bloom.port-salt", scope.encode("utf-8"), 16)


def install_enforcement(fabric, mode) -> None:
    """Wire the chosen enforcement mode into *fabric*'s switches.

    Requires fabric.sm to exist with partitions already created.  For SIF
    and Bloom the SM's registration hooks are pointed at each node's
    ingress filter.

    Installing twice on one fabric is a hard error: a second pass would
    re-register every filter counter under colliding scopes and silently
    overwrite ``sm.registration_hooks`` (leaking the first install's
    filters as orphaned engine-timer targets).  Build a fresh fabric — or
    re-request the mode already installed, which is a no-op.
    """
    from repro.iba.switch import HCA_PORT
    from repro.sim.config import EnforcementMode

    cfg = fabric.config
    sm = fabric.sm
    if sm is None:
        raise RuntimeError("fabric has no subnet manager")
    installed = getattr(fabric, "enforcement_installed", None)
    if installed is not None:
        if installed is mode:
            return  # idempotent: same mode already wired
        raise RuntimeError(
            f"enforcement already installed on this fabric ({installed.value});"
            f" cannot re-install {mode.value} — build a fresh fabric"
        )
    subnet_indices = sm.valid_pkey_indices()
    registry = getattr(fabric, "registry", None)
    tracer = getattr(fabric, "tracer", None)

    if mode is EnforcementMode.NONE:
        fabric.enforcement_installed = mode
        return
    if mode is EnforcementMode.DPT:
        for sw in fabric.all_switches():
            for port in range(sw.num_ports):
                sw.set_port_filter(
                    port,
                    DPTPortFilter(
                        subnet_indices, cfg.pkey_lookup_ns,
                        registry=registry, scope=f"filter.{sw.name}.p{port}",
                    ),
                )
        fabric.enforcement_installed = mode
        return
    # IF, SIF, and Bloom filter only at the HCA-facing ingress port (HCA_PORT
    # on the mesh; fat-tree edge switches host one HCA per low-numbered port).
    for lid in fabric.lids:
        sw = fabric.ingress_switch(lid)
        port = fabric.ingress_port(lid) if hasattr(fabric, "ingress_port") else HCA_PORT
        node_indices = sm.partitions_of(lid)
        scope = f"filter.{sw.name}.p{port}"
        if mode is EnforcementMode.IF:
            sw.set_port_filter(
                port,
                IngressPortFilter(
                    node_indices, cfg.pkey_lookup_ns,
                    registry=registry, scope=scope,
                ),
            )
        elif mode is EnforcementMode.SIF:
            filt = SIFPortFilter(
                fabric.engine,
                node_indices,
                cfg.pkey_lookup_ns,
                cfg.sif_idle_timeout_us,
                registry=registry,
                scope=scope,
                tracer=tracer,
            )
            sw.set_port_filter(port, filt)
            sm.registration_hooks[int(lid)] = filt.register_invalid
        elif mode is EnforcementMode.BLOOM:
            bloom_filt = BloomPortFilter(
                fabric.engine,
                node_indices,
                cfg.pkey_lookup_ns,
                cfg.sif_idle_timeout_us,
                bloom_bits=cfg.bloom_bits,
                bloom_hashes=cfg.bloom_hashes,
                salt=bloom_port_salt(scope),
                inpacket_tag=cfg.bloom_inpacket_tag,
                registry=registry,
                scope=scope,
                tracer=tracer,
            )
            sw.set_port_filter(port, bloom_filt)
            sm.registration_hooks[int(lid)] = bloom_filt.register_invalid
            if cfg.bloom_inpacket_tag:
                fabric.hca(lid).bloom_stamper = bloom_filt.stamp_tag
        else:
            raise ValueError(f"unknown enforcement mode {mode}")
    fabric.enforcement_installed = mode

"""Per-VL state exists only for the data VLs the traffic classes use.

Table 1 gives every link 16 VLs, but only VL 0 (best-effort) and VL 1
(realtime) ever carry a packet.  These tests pin the consequences:

* a fabric holds exactly ``len(PRIORITY_VLS)`` lanes in every switch input
  buffer, HCA send queue, HCA rx counter and link credit vector, whatever
  ``num_vls`` is;
* the modelled VL count does not change a run — ``num_vls`` 2, 4 and 16
  give identical reports;
* a packet on a VL no arbiter serves is refused with a ``ValueError`` at
  the HCA instead of sitting in a send queue forever;
* the experiment build stays small: one shared ``Peer`` per destination,
  payload prefixes computed on first use.
"""

import gc
import tracemalloc

import pytest

from repro.core.attacks import inject_raw
from repro.iba.arbiter import PRIORITY_VLS
from repro.iba.types import NUM_DATA_VLS, VL_BEST_EFFORT, VL_REALTIME
from repro.sim.config import EnforcementMode, SimConfig
from repro.sim.runner import build_experiment, run_simulation
from repro.sim.traffic import BestEffortSource, RealtimeSource

from tests.conftest import make_packet
from tests.fuzz.test_golden_fattree import CONFIG as K8_SIF_DOS

MESH_SIF_DOS = SimConfig(
    enforcement=EnforcementMode.SIF,
    num_attackers=2,
    best_effort_load=0.4,
    sim_time_us=120.0,
    warmup_us=10.0,
    sif_idle_timeout_us=30.0,
    seed=11,
)
FATTREE_K4_SIF_DOS = SimConfig(
    topology="fat_tree",
    fat_tree_k=4,
    enforcement=EnforcementMode.SIF,
    num_attackers=2,
    best_effort_load=0.5,
    num_partitions=2,
    partition_layout="pod",
    sim_time_us=120.0,
    warmup_us=10.0,
    seed=12,
)
CONFIGS = {"mesh": MESH_SIF_DOS, "fattree-k4": FATTREE_K4_SIF_DOS}


def test_data_vls_are_the_priority_vls():
    assert sorted(PRIORITY_VLS) == list(range(NUM_DATA_VLS))
    assert {VL_REALTIME, VL_BEST_EFFORT} == set(PRIORITY_VLS)


@pytest.mark.parametrize("num_vls", [2, 4, 16])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_lane_vector_holds_the_data_vls_only(name, num_vls):
    _, fabric, *_ = build_experiment(CONFIGS[name].replace(num_vls=num_vls))
    lanes = len(PRIORITY_VLS)
    for sw in fabric.switches.values():
        assert sw.num_vls == num_vls
        assert all(len(buf.fifos) == lanes for buf in sw.inputs), sw.name
        assert all(len(row) == lanes for row in sw._head_ready), sw.name
        assert len(sw.arbiter._rr_pointer) == lanes
    for hca in fabric.hcas.values():
        assert len(hca.send_queues) == lanes
        assert len(hca._rx_occupancy) == lanes
    for link in fabric.all_links():
        assert len(link.credits) == lanes, link.name


def _observable(report) -> dict:
    return {
        "counters": report.counters,
        "drops": report.drops,
        "stats": report.stats,
        "delivered": report.delivered,
        "events_processed": report.events_processed,
        "senders": report.senders,
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_num_vls_does_not_change_the_run(name):
    reports = {
        n: _observable(run_simulation(CONFIGS[name].replace(num_vls=n)))
        for n in (2, 4, 16)
    }
    assert reports[16]["drops"].get("pkey", 0) > 0  # the flood really ran
    assert reports[2] == reports[16]
    assert reports[4] == reports[16]


class TestUnservedVLRefused:
    """A packet on a VL outside PRIORITY_VLS used to be counted ``submitted``
    and then wait in its send queue forever, with no error."""

    @pytest.fixture
    def hca(self):
        _, fabric, *_ = build_experiment(
            SimConfig(enable_realtime=False, enable_best_effort=False, seed=3)
        )
        return fabric.hca(1)

    def _assert_refused(self, call, hca):
        with pytest.raises(ValueError, match=r"VL 5.*\[1, 0\]"):
            call(make_packet(src=1, dst=2, vl=5))
        assert hca.submitted == 0
        assert hca.queued_tx_count() == 0

    def test_submit(self, hca):
        self._assert_refused(hca.submit, hca)

    def test_inject_raw(self, hca):
        self._assert_refused(lambda p: inject_raw(hca, p), hca)

    def test_data_vls_still_accepted(self, hca):
        for vl in PRIORITY_VLS:
            hca.submit(make_packet(src=1, dst=2, vl=vl))
        assert hca.submitted == len(PRIORITY_VLS)


class TestBuildFootprint:
    def test_k8_sif_dos_build_stays_small(self):
        build_experiment(K8_SIF_DOS)  # import and warm every code path first
        gc.collect()
        tracemalloc.start()
        try:
            built = build_experiment(K8_SIF_DOS)
            traced, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del built
        # 16-lane state and eager per-peer source state traced about 14 MiB.
        assert traced < 8 * 2**20, f"{traced / 2**20:.1f} MiB"

    def test_sources_share_peer_objects(self):
        _, fabric, sources, *_ = build_experiment(K8_SIF_DOS)
        by_lid = {}
        for src in sources:
            assert isinstance(src, (BestEffortSource, RealtimeSource))
            for peer in src.peers:
                assert by_lid.setdefault(peer.lid, peer) is peer
        # Every honest node of a partition is a destination of the others.
        assert len(by_lid) == len({int(src.hca.lid) for src in sources})

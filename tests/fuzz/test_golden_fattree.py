"""Golden fat-tree SIF DoS run: a k=8 fat tree with pod partitions, SIF
enforcement and random-P_Key flooders at Table 1's 16 VLs reproduces a
recorded fingerprint bit for bit.

The mesh goldens (``golden_production_runs.json``) never run SIF on a fat
tree, and the shard differentials cap attackers at one, so this is the
fixture that pins multi-flooder congestion, SIF activation on a big switch
radix and the drop path of a fabric-scale run.  ``golden_fattree_sif.json``
holds the run's full counter snapshot, drop taxonomy, per-class stats,
delivered count and ``events_processed``.

Regenerate (only for an intended change of simulated behavior) with::

    PYTHONPATH=src python -m tests.fuzz.test_golden_fattree --write

Select with ``pytest -m tier2_fuzz``; also runs in the tier-1 suite."""

import json
import sys
from pathlib import Path

import pytest

from repro.sim.config import EnforcementMode, SimConfig
from repro.sim.runner import SimReport, run_simulation
from repro.sim.trace import Tracer

pytestmark = pytest.mark.tier2_fuzz

FIXTURE = Path(__file__).with_name("golden_fattree_sif.json")

#: k=8 (128 HCAs) SIF DoS: 8 spraying flooders with random P_Keys, active
#: in 25 µs windows half the time, against four pod-aligned partitions;
#: num_vls stays at the Table 1 default.
CONFIG = SimConfig(
    topology="fat_tree",
    fat_tree_k=8,
    enforcement=EnforcementMode.SIF,
    num_attackers=8,
    best_effort_load=0.5,
    num_partitions=4,
    partition_layout="pod",
    sim_time_us=150.0,
    attack_duty_cycle=0.5,
    attack_window_us=25.0,
    warmup_us=5.0,
    vl_buffer_packets=8,
    sif_idle_timeout_us=20.0,
    seed=20050404,
)


def fingerprint(report: SimReport) -> dict:
    """Everything the golden pins, as JSON-exact values."""
    return {
        "counters": dict(sorted(report.counters.items())),
        "drops": dict(sorted(report.drops.items())),
        "stats": {
            name: [s.queuing_us, s.network_us, s.queuing_std_us,
                   s.network_std_us, s.count]
            for name, s in sorted(report.stats.items())
        },
        "delivered": report.delivered,
        "events_processed": report.events_processed,
    }


def record(tracer: Tracer | None = None) -> dict:
    return fingerprint(run_simulation(CONFIG, tracer=tracer))


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(FIXTURE.read_text())


def assert_matches(actual: dict, expected: dict) -> None:
    actual = json.loads(json.dumps(actual))  # JSON-normalize floats
    for key in ("drops", "stats", "delivered", "events_processed"):
        assert actual[key] == expected[key], key
    diff = sorted(
        k for k in expected["counters"].keys() | actual["counters"].keys()
        if expected["counters"].get(k) != actual["counters"].get(k)
    )
    assert not diff, [
        (k, expected["counters"].get(k), actual["counters"].get(k))
        for k in diff[:5]
    ]


def test_config_is_a_table1_fattree_sif_dos():
    assert CONFIG.num_vls == SimConfig().num_vls == 16
    assert CONFIG.num_attackers >= 8 and not CONFIG.attack_valid_pkey
    assert CONFIG.partition_layout == "pod"


def test_fattree_sif_dos_matches_golden(expected):
    assert_matches(record(), expected)
    # The run must exercise what it pins: SIF fired and flood traffic died.
    assert expected["drops"].get("pkey", 0) > 0
    assert sum(v for k, v in expected["counters"].items()
               if k.endswith(".activations")) > 0


def test_traced_run_matches_untraced_golden(expected):
    """Tracing observes and never steers: the same run with a Tracer
    attached schedules the same events and counts the same things."""
    tracer = Tracer()
    assert_matches(record(tracer), expected)
    kinds = {e.kind for e in tracer.events}
    assert {"created", "injected", "switch_rx", "forwarded",
            "delivered", "dropped", "sif_activated"} <= kinds


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.fuzz.test_golden_fattree --write")
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")

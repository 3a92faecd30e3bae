"""Golden production runs: the 10 tier2_fuzz seeds reproduce a recorded
fingerprint bit for bit.

``golden_production_runs.json`` holds, for scenarios ``generate_scenario(0,
i)`` with ``i`` in 0..9, each run's full counter snapshot, drop taxonomy,
per-class stats, delivered and event counts, and a SHA-256 of the
normalized trace (packet ids relative to the run's base).  It was recorded
while the simulator still carried its selectable reference datapath, heap
scheduler and observability-off modes, whose differential fuzz legs proved
all of them bit-identical to the production path; the fixture keeps that
guarantee for the one path that remains.

Regenerate (only for an intended change of simulated behavior) with::

    PYTHONPATH=src python -m tests.fuzz.test_golden_runs --write

Select with ``pytest -m tier2_fuzz``; also runs in the tier-1 suite."""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro.fuzz.oracles
from repro.fuzz.generators import generate_scenario
from repro.fuzz.oracles import FuzzRun, execute_scenario

pytestmark = pytest.mark.tier2_fuzz

FIXTURE = Path(__file__).with_name("golden_production_runs.json")
MASTER_SEED = 0
SEEDS = range(10)


def fingerprint(run: FuzzRun) -> dict:
    """Everything observable about one run, as JSON-exact values."""
    r = run.report
    trace = [
        (e.time_ps, e.kind, e.where, run.rel(e.packet_id), e.detail)
        for e in run.tracer.events
    ]
    digest = hashlib.sha256("\n".join(repr(t) for t in trace).encode())
    return {
        "counters": dict(sorted(r.counters.items())),
        "drops": dict(sorted(r.drops.items())),
        "stats": {
            name: [s.queuing_us, s.network_us, s.queuing_std_us,
                   s.network_std_us, s.count]
            for name, s in sorted(r.stats.items())
        },
        "delivered": r.delivered,
        "events_processed": r.events_processed,
        "trace_events": len(trace),
        "trace_sha256": digest.hexdigest(),
    }


def record(index: int) -> dict:
    run = execute_scenario(generate_scenario(MASTER_SEED, index))
    return {"master_seed": MASTER_SEED, "index": index, **fingerprint(run)}


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_smoke_seeds(golden):
    assert [(g["master_seed"], g["index"]) for g in golden] == [
        (MASTER_SEED, i) for i in SEEDS
    ]


@pytest.mark.parametrize("index", SEEDS)
def test_production_run_matches_golden(golden, index):
    expected = golden[index]
    actual = json.loads(json.dumps(record(index)))  # JSON-normalize floats
    for key in ("drops", "stats", "delivered", "events_processed",
                "trace_events", "trace_sha256"):
        assert actual[key] == expected[key], key
    diff = sorted(
        k for k in expected["counters"].keys() | actual["counters"].keys()
        if expected["counters"].get(k) != actual["counters"].get(k)
    )
    assert not diff, [
        (k, expected["counters"].get(k), actual["counters"].get(k))
        for k in diff[:5]
    ]


#: Golden seed with link faults, a switch crash, tampers, forged
#: injections, Bloom enforcement and two attackers.
UNTRACED_SEED = 7


def test_untraced_run_matches_traced_golden(golden, monkeypatch):
    """Tracing observes and never steers: the golden runs were recorded
    with a Tracer attached, and the same scenario run with no tracer wired
    in must schedule the same events and count the same things."""
    run_simulation = repro.fuzz.oracles.run_simulation

    def untraced(config, tracer, setup):
        return run_simulation(config, setup=setup)

    monkeypatch.setattr(repro.fuzz.oracles, "run_simulation", untraced)
    run = execute_scenario(generate_scenario(MASTER_SEED, UNTRACED_SEED))
    assert not run.tracer.events
    actual = json.loads(json.dumps(fingerprint(run)))
    expected = golden[UNTRACED_SEED]
    for key in ("counters", "drops", "stats", "delivered", "events_processed"):
        assert actual[key] == expected[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.fuzz.test_golden_runs --write")
    FIXTURE.write_text(json.dumps([record(i) for i in SEEDS], indent=1) + "\n")

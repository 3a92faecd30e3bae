"""Sharded-engine scaling benchmark: the k=16 fat-tree DoS leg.

Measures how the space-partitioned engine (:mod:`repro.sim.shard`) scales
the paper's core scenario — a SIF-enforced fat tree under P_Key flooding —
across 1/2/4/8 shards on a k=16 fabric (1024 HCAs).

Two caveats make the honest headline **critical-path speedup** rather than
raw wall clock:

* this container is small (often a single CPU), so the inline transport
  runs every shard interleaved on one core — wall clock cannot show the
  parallel win.  Per-shard *busy* time (wall clock spent inside that
  shard's ``engine.run``) is measured instead: with one engine per core,
  the run phase completes in ``max(busy_i)`` plus synchronization, so
  ``T1_run / max(busy_i)`` is the speedup the partitioning itself buys.
  The document records the machine's core count and raw walls so nobody
  mistakes the model for a measurement of this box;
* a 32-flooder DoS run saturates boundary links and is therefore outside
  the shard-safe *exactness* envelope (DESIGN.md §3j): same-picosecond
  arbitration ties resolve in scheduling order, so sharded counters drift
  slightly from the single-process oracle here.  Delivered/filtered counts
  are recorded per leg to show the drift is marginal; exactness is gated
  separately — the ``validation`` row runs a shard-safe k=4 scenario over
  the **process** transport and must match the single-process run
  bit-for-bit.

Every leg runs in its own subprocess (GC isolation).  Results land in
``BENCH_shard.json`` (schema ``repro.bench_shard/1``); run via
``repro-sim bench-shard``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

BENCH_SCHEMA = "repro.bench_shard/1"

#: Acceptance floor: critical-path speedup at 8 shards on the k=16 leg.
SHARD_SPEEDUP_TARGET = 3.0

SHARD_COUNTS = (1, 2, 4, 8)

_REQUIRED_ROW_KEYS = {
    "shards", "run_wall_s", "busy_s", "max_busy_s", "rounds", "messages",
    "events", "delivered", "switch_filtered", "critical_path_speedup",
}


def _dos_config_dict(k: int, sim_time_us: float) -> dict:
    num_hcas = k * k * k // 4
    return {
        "topology": "fat_tree",
        "fat_tree_k": k,
        "enforcement": "sif",
        "num_attackers": max(2, num_hcas // 32),
        "best_effort_load": 0.5,
        "num_partitions": min(8, k),
        "partition_layout": "pod",
        "sim_time_us": sim_time_us,
        "warmup_us": 10.0,
        "vl_buffer_packets": 32,
        "keep_samples": False,
    }


def _build_config(d: dict):
    from repro.sim.config import EnforcementMode, SimConfig

    d = dict(d)
    d["enforcement"] = EnforcementMode(d["enforcement"])
    cfg = SimConfig(**d)
    cfg.validate()
    return cfg


# -- worker side (one leg per subprocess) -------------------------------------


def _worker_single(job: dict) -> dict:
    """Single-process oracle leg: timed run phase only."""
    import gc

    from repro.sim.runner import build_experiment

    cfg = _build_config(job["config"])
    engine, fabric, *_ = build_experiment(cfg)
    gc.collect()
    t0 = time.perf_counter()
    engine.run(until=cfg.sim_time_ps)
    wall = time.perf_counter() - t0
    registry = fabric.registry
    return {
        "run_wall_s": wall,
        "busy": [wall],
        "rounds": 0,
        "messages": 0,
        "events": engine.events_processed,
        "delivered": fabric.metrics.delivered,
        "switch_filtered": int(registry.total("switch.*.filtered_drops")),
    }


def _worker_sharded(job: dict) -> dict:
    """Inline sharded leg: build all shard replicas, then time the
    synchronized run phase (per-shard busy time carries the headline)."""
    import gc

    from repro.sim.shard import _InlineDriver, _merge_results, _run_rounds

    cfg = _build_config(job["config"])
    cfg.shards = job["shards"]
    cfg.validate()
    drivers = [_InlineDriver(cfg, s) for s in range(cfg.shards)]
    gc.collect()
    t0 = time.perf_counter()
    rounds = _run_rounds(drivers, cfg.sim_time_ps)
    results = [d.result() for d in drivers]
    wall = time.perf_counter() - t0
    for d in drivers:
        d.close()
    report = _merge_results(cfg, results, wall, rounds)
    return {
        "run_wall_s": wall,
        "busy": [r.busy_seconds for r in results],
        "rounds": rounds,
        "messages": int(sum(
            v for k, v in report.counters.items()
            if k.startswith("shard.") and k.endswith(".messages_out")
        )),
        "events": report.events_processed,
        "delivered": report.delivered,
        "switch_filtered": report.switch_filtered,
    }


def _worker_validate(job: dict) -> dict:
    """Shard-safe k=4 scenario over the process transport vs the
    single-process oracle — must be bit-identical."""
    from repro.fuzz.generators import generate_shard_scenario
    from repro.fuzz.oracles import check_shard_differential, execute_sharded

    scenario = generate_shard_scenario(job["master_seed"], job["index"])
    single, sharded = execute_sharded(scenario, transport="process")
    violations = check_shard_differential(single, sharded)
    return {
        "scenario": scenario.name,
        "transport": "process",
        "identical": not violations,
        "violations": [str(v) for v in violations],
        "delivered": sharded.delivered,
    }


_WORKERS = {
    "single": _worker_single,
    "sharded": _worker_sharded,
    "validate": _worker_validate,
}


def _worker_main(job_json: str) -> int:
    job = json.loads(job_json)
    result = _WORKERS[job["stage"]](job)
    print(json.dumps(result))
    return 0


# -- driver side --------------------------------------------------------------


def _run_leg(job: dict) -> dict:
    import repro

    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments.bench_shard",
         "--worker", json.dumps(job)],
        capture_output=True, text=True, env=env, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"bench worker failed ({job['stage']}): "
            f"{proc.stderr.strip()[-500:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_bench_shard(smoke: bool = False, sim_time_us: float = 200.0) -> dict:
    """Run the scaling sweep plus the process-transport validation row.

    *smoke* collapses to k=4 at 1/2 shards on a short horizon — enough to
    prove the harness and schema; its speedups are meaningless.
    """
    if smoke:
        k, sim_time_us, shard_counts = 4, 30.0, (1, 2)
    else:
        k, shard_counts = 16, SHARD_COUNTS
    config = _dos_config_dict(k, sim_time_us)

    single = _run_leg({"stage": "single", "config": config})
    t1 = single["run_wall_s"]
    rows = []
    for n in shard_counts:
        if n == 1:
            leg = single
        else:
            leg = _run_leg({"stage": "sharded", "config": config, "shards": n})
        max_busy = max(leg["busy"])
        rows.append({
            "shards": n,
            "run_wall_s": leg["run_wall_s"],
            "busy_s": leg["busy"],
            "max_busy_s": max_busy,
            "rounds": leg["rounds"],
            "messages": leg["messages"],
            "events": leg["events"],
            "delivered": leg["delivered"],
            "switch_filtered": leg["switch_filtered"],
            "critical_path_speedup": t1 / max_busy if max_busy > 0 else float("inf"),
        })

    validation = _run_leg({"stage": "validate", "master_seed": 2026, "index": 5})

    top = rows[-1]
    return {
        "schema": BENCH_SCHEMA,
        "generated_by": "repro-sim bench-shard",
        "created_unix": time.time(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "smoke": smoke,
        "config": config,
        "num_hcas": k * k * k // 4,
        "speedup_metric": (
            "critical_path: single-process run wall divided by the largest "
            "per-shard engine-busy wall — the run-phase scaling with one "
            "core per shard; raw walls are interleaved on this machine's "
            "cores and recorded unadjusted"
        ),
        "rows": rows,
        "validation": validation,
        "headline": {
            "shards": top["shards"],
            "critical_path_speedup": top["critical_path_speedup"],
        },
        "targets": {
            "shard_speedup_min": SHARD_SPEEDUP_TARGET,
            "met": bool(
                not smoke
                and top["critical_path_speedup"] >= SHARD_SPEEDUP_TARGET
                and validation["identical"]
            ),
        },
    }


def validate_bench_shard_doc(doc: dict) -> list[str]:
    """Schema check for a bench document; returns problems (empty = valid)."""
    problems = []
    if doc.get("schema") != BENCH_SCHEMA:
        problems.append(f"schema must be {BENCH_SCHEMA!r}, got {doc.get('schema')!r}")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        rows = []
    for row in rows:
        missing = _REQUIRED_ROW_KEYS - set(row)
        if missing:
            problems.append(f"row missing keys {sorted(missing)}")
    validation = doc.get("validation")
    if not isinstance(validation, dict) or "identical" not in validation:
        problems.append("validation row is required")
    elif not validation["identical"]:
        problems.append(
            "process-transport validation diverged from single-process: "
            + "; ".join(validation.get("violations", []))
        )
    targets = doc.get("targets")
    if not isinstance(targets, dict) or "met" not in targets:
        problems.append("targets.met is required")
    elif not doc.get("smoke") and not targets["met"]:
        problems.append(
            f"speedup target >= {targets.get('shard_speedup_min')}x not met"
        )
    return problems


def format_bench_shard(doc: dict) -> str:
    """Human-readable summary of a bench document."""
    lines = [
        f"Sharded-engine benchmark — k={doc['config']['fat_tree_k']} fat tree "
        f"({doc['num_hcas']} HCAs), SIF DoS, "
        f"{doc['config']['sim_time_us']:g} us horizon",
        f"machine: {doc['cpu_count']} core(s) — speedup is critical-path "
        "(T1_run / max shard busy), walls recorded raw",
        "",
        f"  {'shards':>6} {'run wall':>9} {'max busy':>9} {'rounds':>7}"
        f" {'messages':>9} {'events':>9} {'delivered':>9} {'speedup':>8}",
    ]
    for row in doc["rows"]:
        lines.append(
            f"  {row['shards']:>6} {row['run_wall_s']:>8.2f}s"
            f" {row['max_busy_s']:>8.2f}s {row['rounds']:>7,}"
            f" {row['messages']:>9,} {row['events']:>9,}"
            f" {row['delivered']:>9,} {row['critical_path_speedup']:>7.2f}x"
        )
    validation = doc["validation"]
    lines.append(
        f"validation ({validation['scenario']}, {validation['transport']} "
        f"transport): "
        + ("bit-identical to single-process" if validation["identical"]
           else "DIVERGED: " + "; ".join(validation["violations"]))
    )
    targets = doc["targets"]
    lines.append(
        f"target >={targets['shard_speedup_min']:.0f}x critical-path at "
        f"{doc['rows'][-1]['shards']} shards: "
        + ("met" if targets["met"]
           else ("n/a (smoke)" if doc.get("smoke") else "NOT MET"))
    )
    return "\n".join(lines)


def write_bench_shard_json(doc: dict, path: str = "BENCH_shard.json") -> str:
    """Write *doc* to *path* (pretty-printed, trailing newline)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--worker":
        sys.exit(_worker_main(sys.argv[2]))
    print("usage: python -m repro.experiments.bench_shard --worker JOB_JSON\n"
          "(use `repro-sim bench-shard` to run the full benchmark)",
          file=sys.stderr)
    sys.exit(2)

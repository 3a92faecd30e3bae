"""Simulation workloads: each job is a fresh process calling ``run_simulation``.

A job runs every config of the workload once.  The ``setup=`` hook of
``run_simulation`` marks the end of set-up, so a job splits into set-up
(config -> ready fabric) and run (hook -> ``SimReport``).  Set-up is also
sampled on its own, by processes that abort from the hook, which keeps
``setup_s`` a median over several builds even when a job is long.

Every job runs in a new interpreter, as a command-line run or a fresh sweep
worker would.  The program keeps per-key MAC instances for the life of the
process, so a second job in one process would skip the key set-up a user
pays for every new seed, and the kept instances slow every later job.  A
fresh process also gives each job the same heap, so the jobs of a run are
executions of one seed under equal conditions and their counter snapshots
must be identical.

Job processes run two at a time, one per core, as a sweep with two workers
runs them.  On a shared 2-core box the speed of one core drifts by about
10 % over periods of several seconds, partly independently of the other
core, so two job streams give a run twice the samples of one and a
steadier median; two concurrent mesh jobs take as long as one alone.

Run as a script, this module is that job process: it reads a pickled task
on standard input and writes one JSON result line.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import os
import pickle
import pstats
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import repro
from repro.iba.topology import build_fabric
from repro.sim.config import AuthMode, EnforcementMode, KeyMgmtMode, SimConfig
from repro.sim.engine import Engine
from repro.sim.metrics import MetricsCollector
from repro.sim.runner import SimReport, run_simulation

import layers
from measure import median, peak_rss_mb, percentile, stop_children

#: Job processes run at once, as a sweep with two workers runs them on a
#: 2-core box.  Each worker runs at least one full job, so a run always has
#: two executions of one seed to compare.
WORKERS = 2
#: A job process that takes longer than this has hung.
JOB_TIMEOUT_S = 170.0

SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)
HERE = str(Path(__file__).resolve().parent)


class _SetupDone(Exception):
    """Raised from the set-up hook to stop after the build."""


@dataclass(frozen=True)
class SimWorkload:
    name: str
    configs: Callable[[int], list[SimConfig]]  #: run seed -> configs of a job
    check: Callable[[SimReport], list[str]]
    setup_only: int  #: set-up-only processes per run
    shard_leg: bool = False  #: traced run also times a 2-shard execution


def _config_seed(*parts) -> int:
    return random.Random(":".join(map(str, parts))).randrange(1, 2**31)


#: Figure 6 input loads; best-effort load is the input load scaled by 0.75.
FIG6_INPUT_LOADS = (0.40, 0.50, 0.60, 0.70)


def mesh_umac_qp_configs(seed: int) -> list[SimConfig]:
    """The 4x4 mesh with Table 1 defaults, UMAC tags under QP-level keys,
    one run per Figure 6 load, no attackers.  Each load has its own
    simulation seed, so the job averages over four traffic draws."""
    return [
        SimConfig(
            sim_time_us=300.0,
            seed=_config_seed("mesh-umac-qp", seed, load),
            num_attackers=0,
            vl_buffer_packets=4,
            realtime_load=0.10,
            best_effort_load=load * 0.75,
            auth=AuthMode.UMAC,
            keymgmt=KeyMgmtMode.QP,
            keep_samples=True,
        )
        for load in FIG6_INPUT_LOADS
    ]


def fattree_k16_sif_dos_configs(seed: int) -> list[SimConfig]:
    """k=16 fat tree (1024 HCAs) under SIF with 32 random-P_Key flooders."""
    return [
        SimConfig(
            topology="fat_tree",
            fat_tree_k=16,
            enforcement=EnforcementMode.SIF,
            num_attackers=32,
            best_effort_load=0.5,
            num_partitions=8,
            partition_layout="pod",
            sim_time_us=200.0,
            warmup_us=10.0,
            vl_buffer_packets=32,
            keep_samples=False,
            seed=_config_seed("fattree-k16-sif-dos", seed),
        )
    ]


def check_mesh_umac(report: SimReport) -> list[str]:
    rejected = report.counter("auth.tags_rejected")
    verified = report.counter("auth.tags_verified")
    delivered = report.counter_total("hca.*.delivered")
    failures = []
    if rejected != 0:
        failures.append(f"auth.tags_rejected={rejected}, expected 0")
    if verified != delivered or verified <= 0:
        failures.append(
            f"auth.tags_verified={verified} != hca delivered={delivered}"
        )
    return failures


def check_fattree_sif(report: SimReport) -> list[str]:
    failures = []
    if report.counter_total("switch.*.filtered_drops") <= 0:
        failures.append("switch filtered_drops is 0")
    if report.counter("sm.registrations") <= 0:
        failures.append("sm.registrations is 0")
    if report.delivered <= 0:
        failures.append("no legitimate packet delivered")
    return failures


WORKLOADS = {
    "mesh-umac-qp": SimWorkload(
        "mesh-umac-qp", mesh_umac_qp_configs, check_mesh_umac, setup_only=0
    ),
    "fattree-k16-sif-dos": SimWorkload(
        "fattree-k16-sif-dos",
        fattree_k16_sif_dos_configs,
        check_fattree_sif,
        setup_only=3,
        shard_leg=True,
    ),
}


def report_digest(reports: list[SimReport]) -> str:
    """Digest of the simulated outputs (counters, deliveries, latencies)."""
    h = hashlib.sha256()
    for r in reports:
        stats = {
            k: [s.count, s.queuing_us, s.network_us]
            for k, s in sorted(r.stats.items())
        }
        h.update(json.dumps(
            [sorted(r.counters.items()), r.delivered, stats], default=repr
        ).encode())
    return h.hexdigest()


def counters_digest(reports: list[SimReport]) -> str:
    return hashlib.sha256(
        json.dumps([sorted(r.counters.items()) for r in reports]).encode()
    ).hexdigest()


@dataclass
class _Job:
    setup_s: float
    run_s: float
    reports: list[SimReport]


def _run_job(configs: list[SimConfig], profiler=None) -> _Job:
    """Execute every config once; the profiler (if any) covers only the
    phase from the set-up hook to the returned report."""
    setup = run = 0.0
    reports = []
    for cfg in configs:
        marks = []

        def hook(_engine, _fabric):
            marks.append(time.perf_counter())
            if profiler is not None:
                profiler.enable()

        t0 = time.perf_counter()
        try:
            report = run_simulation(cfg, setup=hook)
        finally:
            if profiler is not None:
                profiler.disable()
        t1 = time.perf_counter()
        setup += marks[0] - t0
        run += t1 - marks[0]
        reports.append(report)
    return _Job(setup, run, reports)


def _setup_only(configs: list[SimConfig]) -> float:
    def hook(_engine, _fabric):
        raise _SetupDone

    total = 0.0
    for cfg in configs:
        t0 = time.perf_counter()
        try:
            run_simulation(cfg, setup=hook)
        except _SetupDone:
            pass
        total += time.perf_counter() - t0
    return total


def execute(task: dict) -> dict:
    """One job process's work (see the module docstring)."""
    configs = task["configs"]
    if task["mode"] == "setup":
        return {"setup_s": _setup_only(configs)}
    job = _run_job(configs)
    return {
        "setup_s": job.setup_s,
        "run_s": job.run_s,
        "failures": [f for r in job.reports for f in task["check"](r)],
        "counters": counters_digest(job.reports),
        "digest": report_digest(job.reports),
    }


def spawn(task: dict) -> dict:
    """Run *task* in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, SRC_ROOT]))
    proc = subprocess.run(
        [sys.executable, __file__], input=pickle.dumps(task),
        capture_output=True, env=env, timeout=JOB_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip()[-2000:]
        raise RuntimeError(f"job process failed ({proc.returncode}): {tail}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


class _Outcome:
    """Counts of attempted and failed jobs with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.errors.extend(failures)

    def fields(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}


def _pool(configs: list[SimConfig], check, setups: int, deadline: float
          ) -> tuple[list[float], list[dict]]:
    """Run the set-up-only processes, then full jobs, on WORKERS threads
    that each drive one job process at a time.  A worker starts another
    job only when its last one would still end by *deadline*.  Returns
    the set-up-only times and the job results."""
    pending = [{"mode": "setup", "configs": configs}] * setups
    job = {"mode": "job", "configs": configs, "check": check}
    setup_s: list[float] = []
    results: list[dict] = []
    errors: list[BaseException] = []
    lock = threading.Lock()

    def work() -> None:
        try:
            while True:
                with lock:
                    task = pending.pop() if pending and not errors else None
                if task is None:
                    break
                took = spawn(task)["setup_s"]
                with lock:
                    setup_s.append(took)
            last = 0.0
            while not errors and (not last or time.perf_counter() + last <= deadline):
                t0 = time.perf_counter()
                res = spawn(job)
                last = time.perf_counter() - t0
                with lock:
                    results.append(res)
        except BaseException as exc:  # re-raised by the caller
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(WORKERS)]
    for t in threads:
        t.start()
    try:
        for t in threads:
            t.join()
    except BaseException as exc:  # SIGTERM or ^C: workers start no more jobs
        with lock:
            errors.append(exc)
        raise
    if errors:
        raise errors[0]
    return setup_s, results


def measure(workload: SimWorkload, seed: int, seconds: float) -> dict:
    """Untraced run: end-to-end metrics plus outcome."""
    configs = workload.configs(seed)
    outcome = _Outcome()
    setups, results = _pool(configs, workload.check, workload.setup_only,
                            time.perf_counter() + seconds)
    runs, fresh = [], []
    first = results[0]
    for res in results:
        failures = res["failures"]
        if res["counters"] != first["counters"]:
            failures.append("counter snapshot differs between executions of one seed")
        outcome.record(failures)
        setups.append(res["setup_s"])
        runs.append(res["run_s"])
        fresh.append(res["setup_s"] + res["run_s"])
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "run_s": (median(runs), "s", len(runs)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
        "jobs_per_s": (len(fresh) / sum(fresh), "1/s", len(fresh)),
        "fresh_job_p50_ms": (median(fresh) * 1e3, "ms", len(fresh)),
    }
    extra = {"fresh_job_p95_ms": (percentile(fresh, 95) * 1e3, "ms", len(fresh))}
    return {"metrics": metrics, "extra": extra, "digest": first["digest"],
            **outcome.fields()}


#: Per-layer counts, each summed over the snapshot counters matching a glob.
COUNT_GLOBS = {
    "iba.switch.forwarded": "switch.*.forwarded",
    "iba.link.packets_sent": "link.*.packets_sent",
    "sim.traffic.attack_generated": "attacker.*.generated",
    "core.enforcement.lookups": "filter.*.lookups",
    "core.enforcement.drops": "filter.*.drops",
    "core.enforcement.activations": "filter.*.activations",
    "core.enforcement.traps_received": "sm.traps_received",
    "core.enforcement.registrations": "sm.registrations",
    "core.auth.tags_generated": "auth.tags_generated",
    "core.auth.tags_verified": "auth.tags_verified",
    "core.auth.tags_rejected": "auth.tags_rejected",
    "core.keymgmt.exchanges": "keymgmt.exchanges",
    "iba.hca.submitted": "hca.*.submitted",
    "iba.hca.delivered": "hca.*.delivered",
    "iba.hca.pkey_violations": "hca.*.pkey_violations",
}


def _shard_leg(config: SimConfig) -> dict[str, float]:
    """One 2-shard, process-transport execution of *config* at 50 us."""
    cfg = config.replace(shards=2, shard_transport="process", sim_time_us=50.0)
    t0 = time.perf_counter()
    try:
        report = run_simulation(cfg)
    finally:
        stop_children()
    wall = time.perf_counter() - t0
    max_busy = max(
        v for k, v in report.counters.items()
        if k.startswith("shard.") and k.endswith(".busy_seconds")
    )
    return {
        "sim.shard.run_s": wall,
        "sim.shard.rounds": report.counter("shard.rounds"),
        "sim.shard.messages": report.counter_total("shard.*.messages_out"),
        "sim.shard.max_busy_s": max_busy,
        "sim.shard.sync_s": wall - max_busy,
    }


def trace(workload: SimWorkload, seed: int) -> dict:
    """Traced run: a profiled job (the first in this process, so as cold as
    a job process), a plain job process for the profiler's overhead and the
    determinism check, a bare fabric build and (fat tree) a 2-shard
    execution.  Returns the per-layer metrics."""
    configs = workload.configs(seed)
    outcome = _Outcome()
    profiler = cProfile.Profile()
    profiled = _run_job(configs, profiler)
    outcome.record([f for r in profiled.reports for f in workload.check(r)])
    plain = spawn({"mode": "job", "configs": configs, "check": workload.check})
    failures = plain["failures"]
    if plain["counters"] != counters_digest(profiled.reports):
        failures.append("counter snapshot differs between executions of one seed")
    outcome.record(failures)
    stats = pstats.Stats(profiler)
    self_s = layers.attribute(stats, SRC_ROOT)
    engine_s = layers.cumulative(stats, "repro/sim/engine.py", "run")

    build_s = 0.0
    for cfg in configs:
        gc.collect()
        t0 = time.perf_counter()
        build_fabric(Engine(), cfg, MetricsCollector(keep_samples=cfg.keep_samples))
        build_s += time.perf_counter() - t0

    out: dict[str, float] = {f"{layer}.self_s": v for layer, v in self_s.items()}
    out["profile.run_s"] = sum(self_s.values())
    out["profile.other_frac"] = (
        self_s[layers.OTHER] / out["profile.run_s"] if out["profile.run_s"] else 0.0
    )
    for name, pattern in COUNT_GLOBS.items():
        out[name] = sum(r.counter_total(pattern) for r in profiled.reports)
    lookups = out["core.enforcement.lookups"]
    out["core.enforcement.drop_ratio"] = (
        out["core.enforcement.drops"] / lookups if lookups else 0.0
    )
    out["sim.scheduler.events"] = sum(r.events_processed for r in profiled.reports)
    out["sim.runner.setup_s"] = plain["setup_s"]
    out["sim.runner.engine_s"] = engine_s
    out["sim.runner.summarize_s"] = max(0.0, profiled.run_s - engine_s)
    out["iba.topology.build_s"] = build_s
    out["trace.overhead_frac"] = profiled.run_s / plain["run_s"] - 1
    if workload.shard_leg:
        out.update(_shard_leg(configs[0]))
    return {"metrics": out, "digest": plain["digest"], **outcome.fields()}


if __name__ == "__main__":
    result = execute(pickle.load(sys.stdin.buffer))
    sys.stdout.write(json.dumps(result) + "\n")

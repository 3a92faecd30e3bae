"""The repository's benchmark: one command for the simulator and the job
service, with per-layer attribution.

Run one workload (the form every measurement uses)::

    python3 perfbench/run.py --workload mesh-umac-qp --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
execution that reports the per-layer metrics (cProfile self time bucketed
by module into layers, counter snapshots, phase spans and, for the
service, spans around its public calls).  ``--workload all`` runs every
workload in turn.  ``--out FILE`` appends a run record (result, seed,
environment and an output digest) to a JSON-lines run set, and
``--compare PARENT CHANGE`` compares two such run sets.

End-to-end metrics (medians over the run's samples):

* ``setup_s``: config -> ready fabric, up to the ``setup=`` hook; for the
  service, start -> first warm-up job answered;
* ``run_s``: hook -> ``SimReport``; for the service, one closed-loop round;
* ``peak_rss_mb``: peak RSS of the benchmark process plus its children;
* ``jobs_per_s``: simulation jobs per second of job time; for the service,
  jobs answered per second of the loop;
* ``fresh_job_p50_ms``: a job that must simulate, config (or POST) -> report.

The table also shows, ungated, ``fresh_job_p95_ms`` (a simulation run has
too few jobs for ten samples beyond p95), the service's
``repeat_job_p50_ms`` (a re-submission answered from the result cache) and
``error_rate``, which the result line carries as ``failed`` over
``attempted``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed output
check makes ``correct`` false and the exit code 1.  The benchmark refuses
to run (exit code 2) when a ``REPRO_*`` environment variable would select
a non-default mode, or when the program's sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

import compare
import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Raw outcome of one workload run (see simload/svcload)."""
    if name == "service-mixed":
        import svcload

        return (svcload.trace if trace else svcload.measure)(seed, seconds, workdir)
    import simload

    workload = simload.WORKLOADS[name]
    return simload.trace(workload, seed) if trace else simload.measure(workload, seed, seconds)


def result_line(raw: dict, bench: dict, trace: bool) -> dict:
    """The final JSON object: every end-to-end (or per-layer) metric."""
    metrics = {}
    if trace:
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": raw["metrics"].get(m["name"], 0.0), "unit": m["unit"]}
    else:
        for m in bench["end_to_end"]:
            value, _unit, _n = raw["metrics"][m["name"]]
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = max(1, raw["attempted"])
    return {
        "correct": raw["failed"] == 0,
        "attempted": attempted,
        "failed": raw["failed"],
        "metrics": metrics,
    }


def print_table(name: str, seed: int, raw: dict, bench: dict, trace: bool) -> None:
    print(f"== {name} seed={seed} trace={int(trace)}")
    if trace:
        for m in bench["per_layer"]:
            value = raw["metrics"].get(m["name"], 0.0)
            print(f"  {m['name']:<34} {value:>14.6g} {m['unit']}")
    else:
        for metric, (value, unit, n) in raw["metrics"].items():
            print(f"  {metric:<20} {value:>12.6g} {unit:<6} n={n}")
        # Tail percentiles are shown, not gated: the simulation workloads
        # have too few jobs for ten samples beyond p95.
        for metric, (value, unit, n) in raw.get("extra", {}).items():
            tail = measure.tail_percentile(n)
            note = "" if tail == 95 else f", under 10 beyond; highest with 10: {tail and f'p{tail}'}"
            print(f"  {metric:<20} {value:>12.6g} {unit:<6} n={n} (not gated{note})")
        print(f"  {'error_rate':<20} {raw['failed'] / max(1, raw['attempted']):>12.6g}"
              f" {'ratio':<6} n={raw['attempted']}")
    for error in raw["errors"][:10]:
        print(f"  CHECK FAILED: {error}")


def run_one(name: str, seed: int, seconds: float, trace: bool, out: str | None,
            bench: dict) -> dict:
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    try:
        raw = _run_workload(name, seed, seconds, trace, workdir)
    finally:
        measure.stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print_table(name, seed, raw, bench, trace)
    result = result_line(raw, bench, trace)
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "wall_s": time.perf_counter() - t0,
        "digest": raw.get("digest"),
        "env": measure.environment(),
    }
    print("# info " + json.dumps(info, sort_keys=True))
    if out:
        with open(out, "a") as f:
            f.write(json.dumps({**info, "result": result}, sort_keys=True) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="append run records to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)

    if not (ROOT / "BENCHMARK.json").is_file():
        return _fail(f"no BENCHMARK.json in {ROOT}")
    bench = load_benchmark()
    if args.compare:
        rows = compare.compare(compare.load_runs(args.compare[0]),
                               compare.load_runs(args.compare[1]), bench)
        for row in rows:
            print(row.format())
        return 0

    modes = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if modes:
        return _fail(f"refusing to run with mode variables set: {', '.join(modes)}")
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"program sources not found under {SRC}")
    sys.path.insert(1, str(SRC))

    # A terminated run still stops its services and job processes.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        return _fail(f"unknown workload {args.workload!r}; choose from {names}")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    trace = bool(args.trace)

    if args.workload != "all":
        result = run_one(args.workload, args.seed, seconds, trace, args.out, bench)
    else:
        results = {n: run_one(n, args.seed, seconds, trace, args.out, bench)
                   for n in names}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

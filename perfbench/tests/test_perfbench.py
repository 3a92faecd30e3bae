"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH_DIR), str(SRC)]

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SUITE = json.loads((BENCH_DIR / "suite.json").read_text())
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def _modules() -> set[str]:
    base = SRC / "repro"
    return {
        "repro." + ".".join(p.relative_to(base).with_suffix("").parts)
        for p in base.rglob("*.py")
    }


# -- layer map ----------------------------------------------------------------


def test_layer_map_covers_every_module():
    missing = sorted(_modules() - set(layers.MODULE_LAYERS))
    assert not missing, f"modules without a layer: {missing}"


def test_layer_map_has_no_stale_modules_or_unknown_layers():
    assert not set(layers.MODULE_LAYERS) - _modules()
    assert set(layers.MODULE_LAYERS.values()) <= set(layers.LAYERS)


def test_every_layer_reports_self_time():
    for layer in (*layers.LAYERS, layers.OTHER):
        assert f"{layer}.self_s" in PER_LAYER


def test_attribution_charges_builtins_to_the_caller_layer():
    import cProfile
    import pstats

    from repro.crypto.sha1 import sha1

    prof = cProfile.Profile()
    prof.enable()
    for _ in range(50):
        sha1(b"x" * 512)
    prof.disable()
    by_layer = layers.attribute(pstats.Stats(prof), str(SRC))
    total = sum(by_layer.values())
    assert by_layer["crypto"] > 0.8 * total


# -- metric names -------------------------------------------------------------


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_every_per_layer_metric_has_a_prediction():
    predicted = {p["metric"] for p in SUITE["predictions"]}
    assert predicted == PER_LAYER
    for p in SUITE["predictions"]:
        assert set(p["moves"]) <= END_TO_END
        assert set(p["workloads"]) <= {w["name"] for w in BENCH["workloads"]}


def test_held_out_seed_is_recorded():
    assert isinstance(SUITE["held_out_seed"], int)


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


# -- compare mode -------------------------------------------------------------


def _v(parent, change, direction="lower", bound=0.1):
    pairs = list(zip(parent, change))
    return compare.verdict(parent, change, pairs, direction, bound)[0]


def test_verdict_improved_needs_nine_tenths_of_ten_pairs():
    parent = [10.0, 10.1, 9.9, 10.2, 10.0, 9.8, 10.1, 10.0, 9.9, 10.0]
    change = [9.0, 9.1, 8.9, 9.2, 9.0, 8.8, 9.1, 9.0, 8.9, 9.0]
    assert _v(parent, change) == "improved"
    assert _v(parent[:9], change[:9]) == "within bound"  # too few pairs
    assert _v(change, parent, direction="higher") == "improved"


def test_verdict_improved_needs_a_gap_beyond_the_parent_spread():
    parent = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 11.0, 9.0, 10.5, 9.5]
    change = [p - 0.1 for p in parent]  # wins every pair, tiny gap
    assert _v(parent, change, bound=0.25) == "within bound"


def test_verdict_worse_and_within_bound():
    parent = [10.0, 10.1, 9.9, 10.0, 10.0]
    assert _v(parent, [11.5, 11.6, 11.4, 11.5, 11.5]) == "worse"
    assert _v(parent, [10.5, 10.6, 10.4, 10.5, 10.5]) == "within bound"
    assert _v(parent, [8.5, 8.6, 8.4, 8.5, 8.5], direction="higher") == "worse"


def test_verdict_unresolved_when_spread_exceeds_bound():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0]
    change = [8.5, 12.5, 9.5, 11.5, 10.5]
    assert _v(parent, change) == "unresolved"
    # every change run better than every parent run: not unresolved
    assert _v(parent, [5.0, 5.5, 6.0, 6.5, 7.0], bound=0.1) == "within bound"


def test_pairs_match_seeds_before_order():
    pairs = compare.pair_up([(1, 10.0), (2, 20.0), (3, 30.0)],
                            [(2, 21.0), (1, 11.0), (9, 99.0)])
    assert sorted(pairs) == [(10.0, 11.0), (20.0, 21.0), (30.0, 99.0)]


def test_compare_rows_name_their_base():
    def record(seed, value):
        metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in BENCH["end_to_end"]}
        return {"workload": "mesh-umac-qp", "seed": seed, "trace": 0,
                "result": {"metrics": metrics}}

    rows = compare.compare([record(s, 10.0 + s / 100) for s in range(10)],
                           [record(s, 8.0 + s / 100) for s in range(10)], BENCH)
    assert len(rows) == len(BENCH["end_to_end"])
    text = rows[0].format()
    assert "base: parent median" in text and "wins 10/10" in text


def test_tail_percentile_keeps_ten_samples_beyond():
    assert measure.tail_percentile(9) is None
    assert measure.tail_percentile(40) == 75
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(200) == 95


# -- smoke runs ---------------------------------------------------------------


def _fattree_k4():
    import simload
    from repro.sim.config import EnforcementMode, SimConfig

    def configs(seed):
        return [SimConfig(
            topology="fat_tree", fat_tree_k=4, enforcement=EnforcementMode.SIF,
            num_attackers=2, best_effort_load=0.5, num_partitions=4,
            partition_layout="pod", sim_time_us=150.0, warmup_us=10.0,
            vl_buffer_packets=32, keep_samples=False, seed=seed,
        )]

    return simload.SimWorkload("fattree-k4", configs, simload.check_fattree_sif,
                               setup_only=1, shard_leg=True)


def _mesh_small():
    import simload

    def configs(seed):
        return [c.replace(sim_time_us=120.0, warmup_us=20.0)
                for c in simload.mesh_umac_qp_configs(seed)[:1]]

    return simload.SimWorkload("mesh-small", configs, simload.check_mesh_umac,
                               setup_only=0)


@pytest.mark.parametrize("make", [_fattree_k4, _mesh_small])
def test_sim_smoke(make):
    import simload

    workload = make()
    raw = simload.measure(workload, 3, 0.0)
    assert raw["failed"] == 0, raw["errors"]
    assert raw["attempted"] == simload.WORKERS  # one job per worker
    assert set(raw["metrics"]) == END_TO_END
    assert all(v > 0 for v, _unit, _n in raw["metrics"].values())
    traced = simload.trace(workload, 3)
    assert traced["failed"] == 0, traced["errors"]
    assert set(traced["metrics"]) <= PER_LAYER
    m = traced["metrics"]
    assert m["profile.other_frac"] < 0.05
    if workload.name == "mesh-small":
        assert m["core.enforcement.lookups"] == 0
        assert m["crypto.self_s"] == max(m[f"{l}.self_s"] for l in layers.LAYERS)
    else:
        assert m["core.enforcement.lookups"] > 0
        assert m["sim.shard.rounds"] > 0
        assert m["crypto.self_s"] < 0.01 * m["profile.run_s"]


def test_service_smoke(tmp_path):
    import svcload

    raw = svcload.measure(5, 0.5, tmp_path)
    assert raw["failed"] == 0, raw["errors"]
    assert set(raw["metrics"]) == END_TO_END
    traced = svcload.trace(5, 0.5, tmp_path / "traced")
    assert traced["failed"] == 0, traced["errors"]
    assert set(traced["metrics"]) <= PER_LAYER
    assert traced["metrics"]["service.cache_hit_ratio"] > 0
    assert traced["metrics"]["service.exec_ms"] > 0
    assert not measure.multiprocessing.active_children()


def test_traced_metrics_cover_every_per_layer_name(tmp_path):
    import simload
    import svcload

    names = set(simload.trace(_fattree_k4(), 3)["metrics"])
    names |= set(svcload.trace(5, 0.5, tmp_path)["metrics"])
    assert names == PER_LAYER


# -- the command line ---------------------------------------------------------


def _run(args, cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170,
    )


def test_command_prints_the_result_line():
    proc = _run(["--workload", "service-mixed", "--seed", "2", "--seconds", "1",
                 "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END


def test_refuses_mode_variables():
    env = dict(os.environ, REPRO_SCHEDULER="heap")
    proc = _run(["--workload", "mesh-umac-qp", "--seconds", "1"], ROOT, env)
    assert proc.returncode == 2 and not proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "mesh-umac-qp", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], tmp_path)
    assert proc.returncode not in (0, None) and not proc.stdout

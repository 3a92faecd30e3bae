"""Compare two run sets (parent and change) per workload and metric.

A run set is a JSON-lines file of run records, as ``run.py --out`` appends
them.  For each workload x end-to-end metric the comparison reports both
medians and quartiles, pair wins, and a verdict:

* ``improved``: at least ten pairs, the change wins at least nine tenths of
  all pairs (ties count for neither side), and the medians differ in the
  better direction by more than the parent's own quartile spread;
* ``unresolved``: the run-to-run spread is wider than the metric's bound,
  unless every change run reads better than every parent run (then
  ``within bound``) or every one reads worse by more than the bound (then
  ``worse``);
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``within bound``: otherwise.

Pairs match runs of the same seed; runs without a same-seed partner pair
in file order.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass

MIN_PAIRS = 10
WIN_SHARE = 0.9


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    parent: list[float]
    change: list[float]
    wins: int
    pairs: int
    verdict: str

    def format(self) -> str:
        pm, cm = statistics.median(self.parent), statistics.median(self.change)
        ratio = f"{cm / pm:.3f}x (base: parent median {pm:.6g} {self.unit})" if pm else "n/a"
        return (
            f"{self.workload:<22} {self.metric:<18} "
            f"parent {_quart(self.parent)} | change {_quart(self.change)} | "
            f"change/parent {ratio} | wins {self.wins}/{self.pairs} | {self.verdict}"
        )


def _quart(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def _better(a: float, b: float, direction: str) -> bool:
    """True when *a* reads strictly better than *b*."""
    return a < b if direction == "lower" else a > b


def pair_up(parent: list[tuple], change: list[tuple]) -> list[tuple[float, float]]:
    """Pairs of (parent, change) values from (seed, value) lists."""
    by_seed = {}
    for seed, value in parent:
        by_seed.setdefault(seed, []).append(value)
    pairs, rest_change = [], []
    for seed, value in change:
        if by_seed.get(seed):
            pairs.append((by_seed[seed].pop(0), value))
        else:
            rest_change.append(value)
    rest_parent = [v for values in by_seed.values() for v in values]
    pairs.extend(zip(rest_parent, rest_change))
    return pairs


def verdict(
    parent: list[float],
    change: list[float],
    pairs: list[tuple[float, float]],
    direction: str,
    bound: float,
) -> tuple[str, int]:
    """(verdict, change wins) for one workload x metric."""
    wins = sum(1 for p, c in pairs if _better(c, p, direction))
    pm, cm = statistics.median(parent), statistics.median(change)
    sign = 1.0 if direction == "lower" else -1.0
    parent_iqr = 0.0
    if len(parent) >= 2:
        q1, _, q3 = statistics.quantiles(parent, n=4)
        parent_iqr = q3 - q1
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and sign * (pm - cm) > parent_iqr
    ):
        return "improved", wins
    worse_by = sign * (cm - pm) / pm if pm else 0.0
    spread = max(_rel_spread(parent), _rel_spread(change))
    if spread > bound:
        if all(_better(c, p, direction) for c in change for p in parent):
            return "within bound", wins
        if worse_by > bound and all(
            _better(p, c, direction) for c in change for p in parent
        ):
            return "worse", wins
        return "unresolved", wins
    return ("worse" if worse_by > bound else "within bound"), wins


def _rel_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def load_runs(path: str) -> list[dict]:
    """Untraced run records of a run set."""
    with open(path) as f:
        records = [json.loads(line) for line in f if line.strip()]
    return [r for r in records if not r.get("trace")]


def compare(parent_runs: list[dict], change_runs: list[dict], bench: dict) -> list[Row]:
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        ps = [r for r in parent_runs if r["workload"] == workload]
        cs = [r for r in change_runs if r["workload"] == workload]
        if not ps or not cs:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            p = [(r["seed"], r["result"]["metrics"][name]["value"]) for r in ps]
            c = [(r["seed"], r["result"]["metrics"][name]["value"]) for r in cs]
            pairs = pair_up(p, c)
            v, wins = verdict(
                [v for _, v in p], [v for _, v in c], pairs,
                metric["better"], metric["bound"],
            )
            rows.append(Row(workload, name, metric["unit"], [v for _, v in p],
                            [v for _, v in c], wins, len(pairs), v))
    return rows

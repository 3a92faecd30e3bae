"""Module -> layer map and cProfile attribution for the traced run.

Every module under ``src/repro`` is assigned to exactly one layer here; a
module missing from :data:`MODULE_LAYERS` fails the benchmark's own tests,
so a new module has to be placed before the benchmark accepts it.

Self time of a profiled function is charged to the layer of the module that
defines it.  Functions defined outside ``repro`` (C builtins and the
standard library) are charged to the layer of their callers, split by the
share of time each caller spent in them.  What cannot be placed — the
benchmark's own frames and call cycles among foreign functions — lands in
``other``.
"""

from __future__ import annotations

import os
import pstats

#: The layers, in report order.  Names follow the modules they cover.
LAYERS = (
    "sim.scheduler",      # engine and scheduler
    "iba.switch",         # switch, arbiter and buffers
    "iba.link",
    "iba.hca",            # hca, qp, keys and connection manager
    "iba.packet",         # packet, crc and crypto/crc32
    "crypto",             # the rest of crypto
    "core.auth",
    "core.keymgmt",
    "core.enforcement",   # enforcement, bloom, subnet_manager and mad
    "sim.traffic",        # traffic, attacks and rng
    "sim.observability",  # counters, metrics, trace and stats
    "iba.topology",
    "sim.runner",
    "sim.shard",
    "service",            # service, sweep cache and metrics_server
    "offline",            # analysis, experiments, fuzz and CLI: not on a run path
)

OTHER = "other"

MODULE_LAYERS = {
    "repro.__init__": "sim.runner",
    "repro.analysis.__init__": "offline",
    "repro.analysis.charts": "offline",
    "repro.analysis.forgery": "offline",
    "repro.analysis.performance": "offline",
    "repro.analysis.queueing": "offline",
    "repro.analysis.secproc": "offline",
    "repro.analysis.sram": "offline",
    "repro.cli": "offline",
    "repro.core.__init__": "core.auth",
    "repro.core.attacks": "sim.traffic",
    "repro.core.auth": "core.auth",
    "repro.core.bloom": "core.enforcement",
    "repro.core.enforcement": "core.enforcement",
    "repro.core.fastmac": "core.auth",
    "repro.core.keymgmt": "core.keymgmt",
    "repro.core.overhead": "offline",
    "repro.core.replay": "core.auth",
    "repro.core.threats": "offline",
    "repro.crypto.__init__": "crypto",
    "repro.crypto.aes": "crypto",
    "repro.crypto.cmac": "crypto",
    "repro.crypto.crc32": "iba.packet",
    "repro.crypto.hmac": "crypto",
    "repro.crypto.kdf": "crypto",
    "repro.crypto.md5": "crypto",
    "repro.crypto.pmac": "crypto",
    "repro.crypto.rsa": "crypto",
    "repro.crypto.sha1": "crypto",
    "repro.crypto.stream": "crypto",
    "repro.crypto.umac": "crypto",
    "repro.crypto.xtea": "crypto",
    "repro.datapath": "sim.runner",
    "repro.experiments.__init__": "offline",
    "repro.experiments.bakeoff4": "offline",
    "repro.experiments.bench_datapath": "offline",
    "repro.experiments.bench_engine": "offline",
    "repro.experiments.bench_shard": "offline",
    "repro.experiments.fig1_dos": "offline",
    "repro.experiments.fig5_enforcement": "offline",
    "repro.experiments.fig6_auth": "offline",
    "repro.experiments.soak_service": "offline",
    "repro.experiments.table2_overhead": "offline",
    "repro.experiments.table4_macs": "offline",
    "repro.fuzz.__init__": "offline",
    "repro.fuzz.corpus": "offline",
    "repro.fuzz.generators": "service",
    "repro.fuzz.oracles": "service",
    "repro.fuzz.shrink": "offline",
    "repro.iba.__init__": "iba.hca",
    "repro.iba.arbiter": "iba.switch",
    "repro.iba.buffers": "iba.switch",
    "repro.iba.cm": "iba.hca",
    "repro.iba.crc": "iba.packet",
    "repro.iba.hca": "iba.hca",
    "repro.iba.keys": "iba.hca",
    "repro.iba.link": "iba.link",
    "repro.iba.mad": "core.enforcement",
    "repro.iba.packet": "iba.packet",
    "repro.iba.qp": "iba.hca",
    "repro.iba.subnet_manager": "core.enforcement",
    "repro.iba.switch": "iba.switch",
    "repro.iba.topology": "iba.topology",
    "repro.iba.types": "iba.packet",
    "repro.observability": "sim.observability",
    "repro.service.__init__": "service",
    "repro.service.api": "service",
    "repro.service.badinput": "service",
    "repro.service.jobqueue": "service",
    "repro.service.jobstore": "service",
    "repro.service.ratelimit": "service",
    "repro.service.workers": "service",
    "repro.sim.__init__": "sim.runner",
    "repro.sim.config": "sim.runner",
    "repro.sim.counters": "sim.observability",
    "repro.sim.engine": "sim.scheduler",
    "repro.sim.faults": "sim.runner",
    "repro.sim.metrics": "sim.observability",
    "repro.sim.metrics_server": "service",
    "repro.sim.partition": "sim.shard",
    "repro.sim.rng": "sim.traffic",
    "repro.sim.runner": "sim.runner",
    "repro.sim.scheduler": "sim.scheduler",
    "repro.sim.shard": "sim.shard",
    "repro.sim.stats": "sim.observability",
    "repro.sim.sweep": "service",
    "repro.sim.trace": "sim.observability",
    "repro.sim.traffic": "sim.traffic",
}


def module_of(path: str, src_root: str) -> str | None:
    """Dotted module name of *path* if it lies under ``src_root/repro``."""
    rel = os.path.relpath(os.path.abspath(path), src_root)
    if rel.startswith("..") or not rel.endswith(".py"):
        return None
    parts = rel[:-3].split(os.sep)
    return ".".join(parts) if parts[0] == "repro" else None


def attribute(stats: pstats.Stats, src_root: str) -> dict[str, float]:
    """Self seconds per layer (plus ``other``) from a profile."""
    table = stats.stats  # func -> (cc, nc, tottime, cumtime, callers)
    own: dict[tuple, str | None] = {}
    for func in table:
        module = module_of(func[0], src_root)
        own[func] = MODULE_LAYERS.get(module, OTHER) if module else None

    memo: dict[tuple, dict[str, float]] = {}

    def shares(func: tuple, visiting: frozenset) -> dict[str, float]:
        """Fraction of *func*'s self time owed to each layer."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        entry = table.get(func)
        callers = entry[4] if entry else {}
        weights = {c: v[2] for c, v in callers.items() if v[2] > 0}
        total = sum(weights.values())
        if func in visiting or total <= 0:
            return {OTHER: 1.0}
        out: dict[str, float] = {}
        for caller, w in weights.items():
            for lay, frac in shares(caller, visiting | {func}).items():
                out[lay] = out.get(lay, 0.0) + frac * w / total
        memo[func] = out
        return out

    result = {layer: 0.0 for layer in LAYERS}
    result[OTHER] = 0.0
    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        for layer, frac in shares(func, frozenset()).items():
            result[layer] = result.get(layer, 0.0) + tottime * frac
    return result


def cumulative(stats: pstats.Stats, module_suffix: str, name: str) -> float:
    """Cumulative seconds of function *name* defined in a file ending with
    *module_suffix* (0.0 when it was never called)."""
    for (path, _line, func), entry in stats.stats.items():
        if func == name and path.replace(os.sep, "/").endswith(module_suffix):
            return entry[3]
    return 0.0

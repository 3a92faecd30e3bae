"""The observability lint: the repo must stay clean, and the checker must
actually catch unguarded trace calls and calls that bypass the bindings."""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
CHECKER = REPO / "tools" / "check_observability.py"


def run_checker(*args):
    return subprocess.run(
        [sys.executable, str(CHECKER), *map(str, args)],
        capture_output=True, text=True,
    )


class TestRepoIsClean:
    def test_hot_path_modules_have_no_swap_bypasses(self):
        proc = run_checker()
        assert proc.returncode == 0, proc.stderr


class TestCheckerCatchesRegressions:
    def test_direct_tracer_record_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "class Switch:\n"
            "    def _pump(self, now):\n"
            "        if self.tracer is not None:\n"
            "            self.tracer.record(now, 'hop', self.name, 0, '')\n"
        )
        proc = run_checker(bad)
        assert proc.returncode == 1
        assert ".tracer.record()" in proc.stderr
        assert "self._trace" in proc.stderr

    def test_module_level_tracer_record_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("ctx.tracer.record(0, 'boot', 'fabric', 0, '')\n")
        assert run_checker(bad).returncode == 1

    def test_registry_lookup_outside_init_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "class Link:\n"
            "    def transmit(self, pkt):\n"
            "        self.registry.counter('link.tx').inc()\n"
        )
        proc = run_checker(bad)
        assert proc.returncode == 1
        assert ".counter()" in proc.stderr
        assert "__init__" in proc.stderr

    def test_gauge_lookup_outside_init_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def pump(registry, depth):\n"
            "    registry.gauge('queue.depth').set(depth)\n"
        )
        assert run_checker(bad).returncode == 1

    def test_bound_trace_call_allowed(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "class Switch:\n"
            "    def __init__(self, tracer):\n"
            "        self._trace = tracer.record if tracer else None\n"
            "    def _pump(self, now):\n"
            "        if self._trace is not None:\n"
            "            self._trace(now, 'hop', self.name, 0, '')\n"
            "    def _drop(self, now, packet):\n"
            "        if packet is not None and self._trace is not None:\n"
            "            for _ in range(2):\n"
            "                self._trace(now, 'drop', self.name, 0, '')\n"
        )
        assert run_checker(ok).returncode == 0, run_checker(ok).stderr

    def test_unguarded_trace_call_fails(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "class Switch:\n"
            "    def _pump(self, now):\n"
            "        self._trace(now, 'hop', self.name, 0, '')\n"
        )
        proc = run_checker(bad)
        assert proc.returncode == 1
        assert "._trace()" in proc.stderr

    @pytest.mark.parametrize("test", [
        "self._trace is None",          # the inverted test
        "self.tracer is not None",      # a different binding
        "self._trace is not None or x",  # not a proof
        "other._trace is not None",     # another object's binding
    ])
    def test_wrong_guard_fails(self, tmp_path, test):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "class Switch:\n"
            "    def _pump(self, now, other, x):\n"
            f"        if {test}:\n"
            "            self._trace(now, 'hop', self.name, 0, '')\n"
        )
        assert run_checker(bad).returncode == 1

    def test_else_branch_is_not_guarded(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "class Switch:\n"
            "    def _pump(self, now):\n"
            "        if self._trace is not None:\n"
            "            pass\n"
            "        else:\n"
            "            self._trace(now, 'hop', self.name, 0, '')\n"
        )
        assert run_checker(bad).returncode == 1

    def test_registry_lookup_in_init_allowed(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "class Link:\n"
            "    def __init__(self, registry):\n"
            "        self.tx = registry.counter('link.tx')\n"
            "        self.depth = registry.gauge('link.depth')\n"
            "    def transmit(self, pkt):\n"
            "        self.tx.inc()\n"
        )
        assert run_checker(ok).returncode == 0, run_checker(ok).stderr

    def test_cold_functions_allowed(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "class Filter:\n"
            "    def register_invalid(self, pkey):\n"
            "        if self.tracer is not None:\n"
            "            self.tracer.record(0, 'sif_registered', self.scope)\n"
            "    def _idle_check(self):\n"
            "        if self.tracer is not None:\n"
            "            self.tracer.record(0, 'sif_deactivated', self.scope)\n"
            "class HCA:\n"
            "    def _maybe_trap(self, packet):\n"
            "        if self.tracer is not None:\n"
            "            self.tracer.record(0, 'trap_raised', self.name)\n"
        )
        assert run_checker(ok).returncode == 0, run_checker(ok).stderr

#!/usr/bin/env python
"""Lint: observability calls in hot modules must stay cheap when off.

Tracing is bound once at construction time, to the recorder or to
``None``, and every emission site tests the binding::

    self._trace = tracer.record if tracer is not None else None
    ...
    if self._trace is not None:
        self._trace(self.engine.now, "forwarded", self.name, pid, detail)

so an untraced run pays one attribute test per site and never builds the
call's arguments.  Counters are resolved to registry-owned objects in
``__init__`` so per-packet code only calls ``counter.inc()``.  Three
patterns defeat this:

* a ``self._trace(...)`` call outside an ``if self._trace is not None:``
  block — calls ``None`` (a crash) when tracing is off;
* ``self.tracer.record(...)`` on the hot path — an attribute chain plus a
  None-check where the bound ``self._trace`` is one attribute read;
* ``registry.counter(...)`` / ``registry.gauge(...)`` outside
  ``__init__`` — a dict lookup plus possible allocation per event
  instead of a pre-bound handle.

This checker fails CI when any of them sneaks into a hot-path module.

Allowed and therefore ignored:

* registry lookups inside ``__init__`` (construction-time binding is the
  point);
* ``.tracer.record`` inside the known *cold* functions listed in
  ``COLD_FUNCTIONS`` — rate-limited trap emission and SIF
  activation/deactivation transitions, which fire a handful of times per
  run and keep the explicit ``if self.tracer is not None`` branch.

Usage::

    python tools/check_observability.py            # checks hot-path modules
    python tools/check_observability.py PATH...    # explicit files
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: Modules whose code runs per-packet / per-event on the datapath.
DEFAULT_FILES = (
    "src/repro/iba/switch.py",
    "src/repro/iba/link.py",
    "src/repro/iba/hca.py",
    "src/repro/iba/arbiter.py",
    "src/repro/core/enforcement.py",
    "src/repro/core/auth.py",
    "src/repro/core/attacks.py",
    "src/repro/sim/engine.py",
    "src/repro/sim/scheduler.py",
    "src/repro/sim/shard.py",
)

#: Registry lookup methods that must only run at construction time.
REGISTRY_LOOKUPS = {"counter", "gauge"}

#: Enclosing functions that are allowed construction-time registry lookups.
SETUP_FUNCTIONS = {"__init__"}

#: Known cold functions where the explicit ``if self.tracer is not None``
#: branch (and thus a direct ``.record()`` call) is the sanctioned idiom:
#: they run O(1) times per simulation, not per packet.
COLD_FUNCTIONS = {
    "_maybe_trap",        # hca.py: rate-limited P_Key trap to the SM
    "register_invalid",   # enforcement.py: SM registration / activation
    "_idle_check",        # enforcement.py: idle-timeout deactivation
}


def _trace_owner(node: ast.expr) -> str | None:
    """``ast.dump`` of X for an ``X._trace`` attribute, else None."""
    if isinstance(node, ast.Attribute) and node.attr == "_trace":
        return ast.dump(node.value)
    return None


def _guarded_owners(test: ast.expr) -> set[str]:
    """Owners X that an ``if`` test proves have ``X._trace is not None``:
    the comparison itself, or one operand of an ``and`` chain."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return set().union(*(_guarded_owners(v) for v in test.values))
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        owner = _trace_owner(test.left)
        if owner is not None:
            return {owner}
    return set()


def _is_tracer_record(func: ast.expr) -> bool:
    """True for ``<anything>.tracer.record`` attribute chains."""
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "record"
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "tracer"
    )


class _ObservabilityVisitor(ast.NodeVisitor):
    """Collects unguarded or binding-bypassing tracer/counter calls."""

    def __init__(self) -> None:
        self.hits: list[tuple[int, str]] = []
        self._func_stack: list[str] = []
        #: owners whose ``_trace`` the enclosing ``if`` blocks test.
        self._guards: list[set[str]] = []

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        self._guards.append(_guarded_owners(node.test))
        for stmt in node.body:
            self.visit(stmt)
        self._guards.pop()
        for stmt in node.orelse:
            self.visit(stmt)

    def _guarded(self, owner: str) -> bool:
        return any(owner in guard for guard in self._guards)

    def _visit_func(self, node) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_FunctionDef = _visit_func
    visit_AsyncFunctionDef = _visit_func

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        enclosing = self._func_stack[-1] if self._func_stack else ""
        owner = _trace_owner(func)
        if owner is not None and not self._guarded(owner):
            self.hits.append(
                (
                    node.lineno,
                    "'._trace()' call outside an 'if ._trace is not None:' "
                    "block — the binding is None when tracing is off",
                )
            )
        elif _is_tracer_record(func) and enclosing not in COLD_FUNCTIONS:
            self.hits.append(
                (
                    node.lineno,
                    "direct '.tracer.record()' call bypasses the bound "
                    "'self._trace' — bind the callable in __init__ and "
                    "guard the call, or add the enclosing function to "
                    "COLD_FUNCTIONS if it is provably cold",
                )
            )
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in REGISTRY_LOOKUPS
            and enclosing not in SETUP_FUNCTIONS
        ):
            self.hits.append(
                (
                    node.lineno,
                    f"registry '.{func.attr}()' lookup outside __init__ — "
                    "resolve counters once at construction and call "
                    "'.inc()' on the bound object",
                )
            )
        self.generic_visit(node)


def find_bypasses(path: Path) -> list[tuple[int, str]]:
    """Return (line, message) for every offending call in *path*."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    visitor = _ObservabilityVisitor()
    visitor.visit(tree)
    return visitor.hits


def check(files: list[Path]) -> int:
    failures = 0
    for f in files:
        for line, message in find_bypasses(f):
            failures += 1
            print(f"{f}:{line}: {message}", file=sys.stderr)
    return failures


def main(argv: list[str]) -> int:
    if argv:
        files = [Path(a) for a in argv]
    else:
        root = Path(__file__).resolve().parent.parent
        files = [root / rel for rel in DEFAULT_FILES]
    failures = check(files)
    if failures:
        print(
            f"\n{failures} unguarded or binding-bypassing observability "
            "call(s) found",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Span tracing of the uavsense layers from outside the package.

The tracer replaces each traced function with a wrapper wherever a module
of the package has bound it (``from .trajectory import optimize_leg`` in
itsso binds its own name, so patching only the defining module would miss
that caller).  Spans are aggregated in memory by (name, parent name): a
crowded instance makes about a million channel calls, too many to keep one
record each.  Self time is a span's duration minus the time of the spans it
caused.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# span name -> (defining module, function name)
FUNCTIONS = {
    "channel.rate_at": ("uavsense.channel", "rate_at"),
    "trajectory.optimize_leg": ("uavsense.trajectory", "optimize_leg"),
    "trajectory.drain_leg": ("uavsense.trajectory", "drain_leg"),
    "trajectory.initial_leg": ("uavsense.trajectory", "initial_leg"),
    "placement": ("uavsense.placement", "optimize_sensing_locations"),
    "scheduler.estimates": ("uavsense.scheduler", "update_completion_estimates"),
    "simulator.run": ("uavsense.simulator", "run"),
    "itsso.run_itsso": ("uavsense.itsso", "run_itsso"),
    "itsso.initial_solution": ("uavsense.itsso", "initial_solution"),
    "audit": ("uavsense.audit", "audit_trace"),
}

# span name -> (defining module, classes, method name)
METHODS = {
    "scheduler.grant": ("uavsense.scheduler", ("GreedyScheduler", "RandomScheduler"), "grant"),
}

ROOT_SPAN = "instance"


class Tracer:
    """Aggregated span tree plus the patches that feed it.

    ``stats[(name, parent)]`` is ``[calls, total_s, child_s, raised,
    raised_s]``; ``raised`` counts calls that ended in an exception.
    ``wrapped`` names the spans that were installed; a function the package
    no longer has is missing from it, so its metrics read as absent.
    """

    def __init__(self, on_result: dict[str, Callable] | None = None):
        self.stats: dict[tuple[str, str], list] = {}
        self.wrapped: set[str] = set()
        self._on_result = on_result or {}
        self._stack: list[list] = [["", 0.0]]  # frames: [name, child time]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        stats = self.stats
        perf = time.perf_counter
        on_result = self._on_result.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            raised = True
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                dt = perf() - t0
                stack.pop()
                parent[1] += dt
                key = (name, parent[0])
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0, 0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                if raised:
                    rec[3] += 1
                    rec[4] += dt
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of the traced functions in loaded uavsense modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "uavsense" or n.startswith("uavsense."))]
        for name, (modname, attr) in FUNCTIONS.items():
            fn = getattr(sys.modules.get(modname), attr, None)
            if fn is None:
                continue
            wrapper = self.wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)
            self.wrapped.add(name)
        for name, (modname, classes, attr) in METHODS.items():
            for clsname in classes:
                cls = getattr(sys.modules.get(modname), clsname, None)
                fn = None if cls is None else cls.__dict__.get(attr)
                if fn is not None:
                    self._patch(cls, attr, self.wrap(name, fn))
                    self.wrapped.add(name)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run(self, fn: Callable):
        """Call ``fn`` traced, inside a root span for the benchmark's instance."""
        self.install()
        try:
            return self.wrap(ROOT_SPAN, fn)()
        finally:
            self.uninstall()

    # -- aggregates --------------------------------------------------------
    def _records(self, name: str, parent: str | None):
        return [rec for (n, p), rec in self.stats.items()
                if n == name and (parent is None or p == parent)]

    def calls(self, name: str, parent: str | None = None) -> int:
        return sum(rec[0] for rec in self._records(name, parent))

    def cum_s(self, name: str, parent: str | None = None) -> float:
        return sum(rec[1] for rec in self._records(name, parent))

    def self_s(self, name: str) -> float:
        return sum(rec[1] - rec[2] for rec in self._records(name, None))

    def raised(self, name: str) -> tuple[int, float]:
        recs = self._records(name, None)
        return sum(rec[3] for rec in recs), sum(rec[4] for rec in recs)

"""Benchmark of the scenario -> ITSSO -> trace -> audit pipeline.

    python3 perfbench/run.py --workload table --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, and the run fails without a result when it
is missing.  One process, no worker pool.

Set-up imports the package and generates the workload's scenarios; it is
repeated a few times and ``setup_s`` is its median.  The program then gets
only those scenarios.  Each instance is timed from outside as
``bench.run_scheme(..., record_trace=True)`` plus ``bench.audit_solution``,
one after another in a closed loop.  The fixed instance set is cycled until
``--seconds`` have passed and at least one full pass is done, so every run
of a seed sees the same inputs; repeated instances must reproduce their
``t_max``.  Outside the timer every first-pass instance is checked: no
exception, a clean audit, a strictly decreasing ITSSO history, and a
``solution_to_json`` -> ``solution_from_json`` -> ``replay`` round trip that
reproduces ``t_max`` and the grant schedule.

All reported times are wall times scaled to a fixed speed of a reference
loop timed between calls (see ``clock.py``); the raw figures are printed
too.

``--trace 1`` runs the same instance set once under the span tracer (see
``tracing.py``) and prints per-layer metrics per instance instead of the
end-to-end ones.  Its first quarter of instances is also run untraced, which
gives ``trace_overhead_ratio``.  Both modes print the same ``t_max_digest``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from clock import Clock
from tracing import ROOT_SPAN, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Instance i of a run with --seed s uses scenario seed
# SEED_BASE + s * SEED_STRIDE + i; seeds therefore never share an instance.
SEED_BASE = 7_000_000
SEED_STRIDE = 1000
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    overrides: dict  # ScenarioConfig fields patched onto the Table defaults
    instances: int  # scenarios per run; sized so the run-to-run spread stays small


# table and fixed use the Table geometry M=20, N=20, q=4, 20 Mbit per task.
# crowded halves it to M=10, N=10 (same q, per-UAV load and payload) at K=2:
# crowded instance times spread widely (ITSSO runs 2 to 8 iterations), so a
# steady median needs about a hundred instances a run, and at M=20 a K=2
# instance takes ~4 s.  Why each workload was chosen is in BENCHMARK.json.
WORKLOADS = {
    "table": Workload({}, 170),
    "crowded": Workload({"m": 10, "n": 10, "k": 2}, 110),
    "fixed": Workload({"scheme": "fsl"}, 320),
}

END_TO_END = {
    "instance_s.p50": "s",
    "instances_per_s": "1/s",
    "t_max_mean_slots": "slots",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# metric -> (unit, the span it needs); a metric whose span the package no
# longer has is left out of the output rather than failing the run
PER_LAYER = {
    "channel.rate_at.calls": ("count", "channel.rate_at"),
    "channel.rate_at.self_s": ("s", "channel.rate_at"),
    "trajectory.optimize_leg.calls": ("count", "trajectory.optimize_leg"),
    "trajectory.optimize_leg.self_s": ("s", "trajectory.optimize_leg"),
    "trajectory.optimize_leg.rate_calls": ("count", "trajectory.optimize_leg"),
    "trajectory.optimize_leg.infeasible_ratio": ("ratio", "trajectory.optimize_leg"),
    "trajectory.optimize_leg.infeasible_s": ("s", "trajectory.optimize_leg"),
    "trajectory.optimize_leg.cum_share": ("ratio", "trajectory.optimize_leg"),
    "trajectory.drain_leg.calls": ("count", "trajectory.drain_leg"),
    "trajectory.drain_leg.cum_s": ("s", "trajectory.drain_leg"),
    "trajectory.initial_leg.cum_s": ("s", "trajectory.initial_leg"),
    "placement.cum_s": ("s", "placement"),
    "placement.self_s": ("s", "placement"),
    "placement.leg_calls": ("count", "placement"),
    "placement.passes": ("count", None),
    "itsso.iterations": ("count", None),
    "itsso.accept_ratio": ("ratio", None),
    "itsso.initial_s": ("s", "itsso.initial_solution"),
    "itsso.plan_s": ("s", "itsso.run_itsso"),
    "scheduler.grant.calls": ("count", "scheduler.grant"),
    "scheduler.estimates.self_s": ("s", "scheduler.estimates"),
    "scheduler.contended_ratio": ("ratio", "simulator.run"),
    "scheduler.denials": ("count", "simulator.run"),
    "simulator.run.calls": ("count", "simulator.run"),
    "simulator.run.self_s": ("s", "simulator.run"),
    "simulator.uav_slots": ("count", "simulator.run"),
    "simulator.us_per_uav_slot": ("us", "simulator.run"),
    "audit.self_s": ("s", "audit"),
    "audit.us_per_row": ("us", "audit"),
    "instance.traced_s": ("s", None),
    "trace_overhead_ratio": ("ratio", None),
}


class ProgramMissing(RuntimeError):
    """The checkout holds no uavsense sources to benchmark."""


def load_program():
    """Import the package from the checkout's ``src/`` (fresh each call)."""
    if not (SRC / "uavsense" / "__init__.py").is_file():
        raise ProgramMissing(f"no uavsense package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "uavsense" or n.startswith("uavsense.")]:
        del sys.modules[name]
    return importlib.import_module("uavsense.bench"), importlib.import_module("uavsense.itsso")


def set_up(workload: Workload, seeds: list[int], clock: Clock):
    """Import the package and generate the scenarios, SETUP_REPEATS times.

    numpy is imported first: it is the package's dependency, not its set-up.
    Returns the last import's modules and scenarios and the median time.
    """
    import numpy  # noqa: F401

    def once():
        bench, itsso = load_program()
        base = replace(bench.ScenarioConfig(), **workload.overrides)
        return bench, itsso, [bench.generate_scenario(replace(base, seed=s)) for s in seeds]

    times = []
    for _ in range(SETUP_REPEATS):
        scaled, _, (bench, itsso, scenarios) = clock.time(once)
        times.append(scaled)
    return bench, itsso, scenarios, statistics.median(times)


class Pipeline:
    """The timed call, its checks and the per-instance results."""

    def __init__(self, bench, itsso, scenarios, clock: Clock):
        self.bench = bench
        self.itsso = itsso
        self.scenarios = scenarios
        self.clock = clock
        self.t_max: list[int | None] = [None] * len(scenarios)
        self.failures: list[str] = []

    def solve(self, i: int, call):
        """Run instance i through ``call``; returns (scaled s, raw s, solution, problems)."""
        scenario = self.scenarios[i]
        cfg = self.itsso.ItssoConfig(
            rng_seed=scenario.config.seed + self.bench._ITSSO_SEED_OFFSET)

        def work():
            sol = self.bench.run_scheme(scenario, cfg, record_trace=True)
            return sol, self.bench.audit_solution(scenario, sol)

        scaled, raw, (sol, problems) = self.clock.time(lambda: call(work))
        return scaled, raw, sol, problems

    def round_trip_problems(self, i: int, sol) -> list[str]:
        it = self.itsso
        out = []
        if any(a <= b for a, b in zip(sol.history, sol.history[1:])):
            out.append(f"history not strictly decreasing: {sol.history}")
        plans, schedule = it.solution_from_json(it.solution_to_json(sol))
        again = it.replay(plans, schedule, self.scenarios[i], record_trace=False)
        if again.t_max != sol.t_max:
            out.append(f"replay t_max {again.t_max} != {sol.t_max}")
        if again.grants != sol.outcome.grants:
            out.append("replay grant schedule differs")
        return out

    def attempt(self, i: int, first: bool, call=lambda f: f()):
        """Run and check instance i; returns (scaled s, raw s, solution) or None.

        ``first`` adds the round-trip checks, done once per instance.
        """
        seed = self.scenarios[i].config.seed
        try:
            scaled, raw, sol, problems = self.solve(i, call)
            if first:
                problems = problems + self.round_trip_problems(i, sol)
        except Exception as exc:  # a failed instance is counted, not fatal
            self.fail(seed, f"{type(exc).__name__}: {exc}")
            return None
        if self.t_max[i] is not None and sol.t_max != self.t_max[i]:
            problems = problems + [f"t_max {sol.t_max} != {self.t_max[i]} on an earlier run"]
        if problems:
            self.fail(seed, "; ".join(problems[:3]))
            return None
        self.t_max[i] = sol.t_max
        return scaled, raw, sol

    def fail(self, seed: int, reason: str) -> None:
        self.failures.append(reason)
        print(f"FAILED scenario seed {seed}: {reason}")

    def digest(self) -> str:
        pairs = [[s.config.seed, t] for s, t in zip(self.scenarios, self.t_max)]
        return hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16]


def timed_run(pipe: Pipeline, seconds: float):
    """Closed loop over the instance set for ``seconds``, at least one pass.

    Returns the scaled and raw times of the instances that passed, and the
    number attempted.
    """
    scaled, raw = [], []
    attempted = 0
    n = len(pipe.scenarios)
    start = time.perf_counter()
    while attempted < n or time.perf_counter() - start < seconds:
        i = attempted % n
        attempted += 1
        got = pipe.attempt(i, first=attempted <= n)
        if got is not None:
            scaled.append(got[0])
            raw.append(got[1])
    return scaled, raw, attempted


def end_to_end_metrics(pipe: Pipeline, times: list[float], raw: list[float],
                       setup_s: float) -> dict:
    done = [t for t in pipe.t_max if t is not None]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "instance_s.p50": statistics.median(times) if times else None,
        "instances_per_s": len(times) / sum(times) if times else None,
        "t_max_mean_slots": statistics.fmean(done) if done else None,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    print(f"instance samples = {len(times)} over {len(pipe.scenarios)} scenarios")
    # the highest percentile with at least ten samples beyond it
    pct = 100 * (len(times) - 10) // len(times) if times else 0
    if pct > 50:
        print(f"instance_s.p{pct} = {statistics.quantiles(times, n=100)[pct - 1]!r} s")
    if raw:
        print(f"raw wall time: instance_s.p50 = {statistics.median(raw)!r} s, "
              f"instances_per_s = {len(raw) / sum(raw)!r} 1/s, "
              f"scale to reference = {pipe.clock.scale()!r}")
    return values


class LayerCounts:
    """Counts read from every SimOutcome the traced simulator returns."""

    def __init__(self, k: int):
        self.k = k
        self.uav_slots = 0
        self.request_slots = 0
        self.contended_slots = 0
        self.denials = 0

    def observe(self, outcome) -> None:
        self.uav_slots += sum(outcome.completion_times.values())
        for req, got in zip(outcome.requests, outcome.grants):
            if req:
                self.request_slots += 1
                self.contended_slots += len(req) > self.k
                self.denials += len(req) - len(got)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_run(pipe: Pipeline, k: int) -> tuple[dict, int]:
    """One traced pass; the first quarter of instances also runs untraced.

    Every instance gets its full check once, outside the tracer.
    """
    n = len(pipe.scenarios)
    n_ref = max(1, n // 4)
    attempted = 0
    base_s = ref_traced_s = 0.0
    solutions = []
    counts = LayerCounts(k)
    tracer = Tracer(on_result={"simulator.run": counts.observe})
    for i in range(n):
        if i < n_ref:
            attempted += 1
            got = pipe.attempt(i, first=True)
            if got is None:
                continue
            base_s += got[0]
        attempted += 1
        got = pipe.attempt(i, first=i >= n_ref, call=tracer.run)
        if got is None:
            continue
        if i < n_ref:
            ref_traced_s += got[0]
        solutions.append(got[2])
    values = layer_metrics(tracer, counts, solutions, pipe.clock.scale())
    values["trace_overhead_ratio"] = _ratio(ref_traced_s, base_s)
    return values, attempted


def layer_metrics(tr: Tracer, counts: LayerCounts, solutions, scale: float) -> dict:
    """Per-instance layer numbers over the traced solutions.

    Span times are raw; ``scale`` converts them to reference seconds like
    the end-to-end times (see clock.py).
    """
    per = max(1, len(solutions))
    leg, drain = "trajectory.optimize_leg", "trajectory.drain_leg"
    leg_calls = tr.calls(leg)
    infeasible, infeasible_s = tr.raised(leg)
    instance_s = tr.cum_s(ROOT_SPAN)
    rows = sum(len(s.outcome.trace) for s in solutions)
    iterations = sum(s.iterations for s in solutions)
    accepted = sum(len(s.history) - 1 for s in solutions)
    print(f"bases: {len(solutions)} instances, {leg_calls} optimize_leg calls "
          f"({infeasible} infeasible), {iterations} iterations ({accepted} accepted), "
          f"{counts.request_slots} slots with requests ({counts.contended_slots} contended), "
          f"{counts.uav_slots} UAV-slots, {rows} audited rows")
    values = {
        "channel.rate_at.calls": tr.calls("channel.rate_at") / per,
        "channel.rate_at.self_s": tr.self_s("channel.rate_at") / per,
        f"{leg}.calls": leg_calls / per,
        f"{leg}.self_s": tr.self_s(leg) / per,
        f"{leg}.rate_calls": _ratio(tr.calls("channel.rate_at", parent=leg), leg_calls),
        f"{leg}.infeasible_ratio": _ratio(infeasible, leg_calls),
        f"{leg}.infeasible_s": infeasible_s / per,
        f"{leg}.cum_share": _ratio(tr.cum_s(leg), instance_s),
        f"{drain}.calls": tr.calls(drain) / per,
        f"{drain}.cum_s": tr.cum_s(drain) / per,
        "trajectory.initial_leg.cum_s": tr.cum_s("trajectory.initial_leg") / per,
        "placement.cum_s": tr.cum_s("placement") / per,
        "placement.self_s": tr.self_s("placement") / per,
        "placement.leg_calls": (tr.calls(leg, parent="placement")
                                + tr.calls(drain, parent="placement")) / per,
        "placement.passes": sum(s.placement_passes for s in solutions) / per,
        "itsso.iterations": iterations / per,
        "itsso.accept_ratio": _ratio(accepted, iterations),
        "itsso.initial_s": tr.cum_s("itsso.initial_solution") / per,
        "itsso.plan_s": (tr.cum_s(leg, parent="itsso.run_itsso")
                         + tr.cum_s(drain, parent="itsso.run_itsso")) / per,
        "scheduler.grant.calls": tr.calls("scheduler.grant") / per,
        "scheduler.estimates.self_s": tr.self_s("scheduler.estimates") / per,
        "scheduler.contended_ratio": _ratio(counts.contended_slots, counts.request_slots),
        "scheduler.denials": counts.denials / per,
        "simulator.run.calls": tr.calls("simulator.run") / per,
        "simulator.run.self_s": tr.self_s("simulator.run") / per,
        "simulator.uav_slots": counts.uav_slots / per,
        "simulator.us_per_uav_slot": 1e6 * _ratio(tr.cum_s("simulator.run"), counts.uav_slots),
        "audit.self_s": tr.self_s("audit") / per,
        "audit.us_per_row": 1e6 * _ratio(tr.cum_s("audit"), rows),
        "instance.traced_s": instance_s / per,
    }
    return {name: v * scale if PER_LAYER[name][0] in ("s", "us") else v
            for name, v in values.items() if PER_LAYER[name][1] in (None, *tr.wrapped)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instances", type=int, default=None,
                    help="scenarios per run (default: the workload's size)")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    n = wl.instances if args.instances is None else args.instances
    if not 1 <= n <= SEED_STRIDE or args.seed < 0:
        ap.error(f"need 1 <= --instances <= {SEED_STRIDE} and --seed >= 0")
    first = SEED_BASE + args.seed * SEED_STRIDE
    seeds = list(range(first, first + n))

    clock = Clock()
    try:
        bench, itsso, scenarios, setup_s = set_up(wl, seeds, clock)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import numpy

    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"scenario seeds {seeds[0]}..{seeds[-1]}")
    print(f"machine nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={numpy.__version__}")
    pipe = Pipeline(bench, itsso, scenarios, clock)
    if args.trace:
        values, attempted = traced_run(pipe, scenarios[0].k)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        times, raw, attempted = timed_run(pipe, args.seconds)
        values = end_to_end_metrics(pipe, times, raw, setup_s)
        units = END_TO_END
    failed = len(pipe.failures)
    print(f"t_max_digest = {pipe.digest()}")
    print(f"failed_ratio = {failed / attempted!r} ({failed}/{attempted})")
    metrics = {}
    for name, unit in units.items():
        if values.get(name) is not None:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} = {values[name]!r} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

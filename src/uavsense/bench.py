"""Scenario generation, baseline schemes and experiment drivers.

Scenarios draw task locations on the ground rectangle and UAV starts in the
box (altitudes floored), then deal each task to q distinct UAVs so that
per-UAV loads are equal.  Schemes share the task field: the cooperative
optimizer (itsso), the non-cooperative baseline (nc: q = 1 with the UAV
count scaled to keep the per-UAV load), and the fixed-sensing-location
baseline (fsl: everyone senses from a fixed altitude right above the task,
no probability constraint, no placement search).

Experiments sweep one variable, run a seeded batch of instances per point
and per scheme (instance i uses seed base+i in every scheme, so curves are
paired), and emit CSV files plus a manifest of how figure parameters were
resolved.  The RNG is numpy's default PCG64, seeded with 64-bit integers.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .audit import audit_trace
from .channel import ChannelParams, Position3
from .itsso import (
    InfeasibleScenario,
    ItssoConfig,
    Solution,
    _check_feasible,
    _pinned_height,
    run_itsso,
)
from .sensing import SensingParams, Task, min_cooperative_uavs
from .simulator import TraceRow
from .trajectory import KinematicParams

__all__ = [
    "ScenarioConfig",
    "Scenario",
    "ExperimentResult",
    "generate_scenario",
    "nc_config",
    "run_scheme",
    "run_experiment",
    "parse_config_text",
    "load_config",
    "audit_solution",
    "audit_rows",
    "EXPERIMENT_IDS",
]

SCHEMES = ("itsso", "nc", "fsl")

_ITSSO_SEED_OFFSET = 1_000_003  # decouples the schedule RNG from scenario draws
_FIG8_Q_CAP = 16  # largest group size fig8 probes
_FIG8_INSTANCE_CAP = 10  # fig8 rows per exponent and column, at most


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one scenario family."""

    m: int = 20  # UAVs
    n: int = 20  # tasks
    k: int = 10  # subcarriers
    q: int = 4  # workers per task
    area: tuple[float, float, float] = (500.0, 500.0, 100.0)
    channel: ChannelParams = field(default_factory=ChannelParams)
    sensing: SensingParams = field(default_factory=SensingParams)
    kinematics: KinematicParams = field(default_factory=KinematicParams)
    data_size: float = 20e6  # bits per task
    seed: int = 0
    scheme: str = "itsso"
    fsl_height: float = 50.0

    def __post_init__(self):
        if min(self.m, self.n, self.k, self.q) < 1:
            raise ValueError("m, n, k, q must all be at least 1")
        if self.q > self.m:
            raise ValueError(f"q={self.q} workers cannot exceed m={self.m} UAVs")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.data_size <= 0:
            raise ValueError("data_size must be positive")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed} must be non-negative")
        if 4300.0 * math.log10(self.kinematics.h_min) - 3800.0 <= 0.0:
            raise ValueError(f"kinematics.h_min={self.kinematics.h_min} must exceed "
                             f"10**(38/43) = {10 ** (38 / 43):.4f} m, below which the "
                             "LoS decay scale 4300 log10 z - 3800 is not positive")
        if self.fsl_height < self.kinematics.h_min:
            raise ValueError(f"fsl_height={self.fsl_height} is below the altitude floor "
                             f"kinematics.h_min={self.kinematics.h_min}")
        if self.scheme == "nc" and self.q != 1:
            raise ValueError(
                f"scheme 'nc' runs q=1, got q={self.q}; derive it with nc_config")
        if self.scheme != "nc" and (self.n * self.q) % self.m != 0:
            raise ValueError(
                f"equal split impossible: n*q={self.n * self.q} not divisible by m={self.m}")

    @property
    def n_per_uav(self) -> int:
        """Tasks per UAV; an nc config splits its load near-equally, and
        this is the smaller share."""
        return (self.n * self.q) // self.m


@dataclass
class Scenario:
    """One realized instance: geometry plus the task-to-UAV assignment."""

    config: ScenarioConfig
    uav_starts: dict[int, Position3]
    tasks: dict[int, Task]
    routes: dict[int, list[int]]

    @property
    def k(self) -> int:
        return self.config.k

    @property
    def channel(self) -> ChannelParams:
        return self.config.channel

    @property
    def kinematics(self) -> KinematicParams:
        return self.config.kinematics

    @property
    def sensing(self) -> SensingParams:
        return self.config.sensing


def _deal_assignment(rng: np.random.Generator, n: int, q: int,
                     bucket_sizes: list[int]) -> list[list[int]]:
    """Deal q copies of each task into buckets without duplicates per bucket."""
    m = len(bucket_sizes)
    for _ in range(200):
        slots = [j for j in range(n) for _ in range(q)]
        rng.shuffle(slots)
        buckets: list[list[int]] = []
        pos = 0
        for size in bucket_sizes:
            buckets.append(slots[pos:pos + size])
            pos += size
        # repair duplicate tasks inside a bucket by swapping across buckets
        ok = True
        for bi in range(m):
            guard = 0
            while len(set(buckets[bi])) != len(buckets[bi]):
                guard += 1
                if guard > 50 * n * q:
                    ok = False
                    break
                seen = set()
                di = next(i for i, t in enumerate(buckets[bi])
                          if t in seen or seen.add(t))
                bj = int(rng.integers(m))
                if bj == bi or not buckets[bj]:
                    continue
                dj = int(rng.integers(len(buckets[bj])))
                a, b = buckets[bi][di], buckets[bj][dj]
                if a == b:
                    continue
                if b in buckets[bi] or a in buckets[bj]:
                    continue
                buckets[bi][di], buckets[bj][dj] = b, a
            if not ok:
                break
        if ok:
            return buckets
    raise RuntimeError("could not deal a duplicate-free assignment")


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Deterministic instance for the config's seed.  Its draws equal numpy's
    ``uniform`` from 0, ``0.0 + high * u`` in C order: ``rng.random``'s
    doubles are scaled here as plain floats."""
    rng = np.random.default_rng(config.seed)
    ax, ay, az = config.area
    task_u = rng.random(2 * config.n).tolist()
    start_u = rng.random(3 * config.m).tolist()

    # ScenarioConfig makes every split but nc's exact; nc's is near-equal
    base, rem = divmod(config.n * config.q, config.m)
    sizes = [base + (1 if i < rem else 0) for i in range(config.m)]
    routes = dict(enumerate(_deal_assignment(rng, config.n, config.q, sizes)))

    # appended in UAV order, so each task's workers come out sorted
    workers: dict[int, list[int]] = {j: [] for j in range(config.n)}
    for uav, route in routes.items():
        for tid in route:
            workers[tid].append(uav)

    new = tuple.__new__  # Position3(...) without its Python-level __new__
    data_size, h_min = config.data_size, config.kinematics.h_min
    tasks = {
        j: Task(j, new(Position3, (ax * u, ay * v, 0.0)), data_size, tuple(workers[j]))
        for j, u, v in zip(range(config.n), task_u[0::2], task_u[1::2])
    }
    starts = {
        i: new(Position3, (ax * u, ay * v, max(az * w, h_min)))
        for i, u, v, w in zip(range(config.m), start_u[0::3], start_u[1::3], start_u[2::3])
    }
    return Scenario(config=config, uav_starts=starts, tasks=tasks, routes=routes)


def nc_config(base: ScenarioConfig) -> ScenarioConfig:
    """Non-cooperative variant: q = 1, same tasks and per-UAV load.

    The UAV count scales to n / n_per_uav; when that is fractional the
    closest integer, halves rounded up, is used with a near-equal load
    split.
    """
    n_i = base.n_per_uav
    m = max(1, (2 * base.n + n_i) // (2 * n_i))
    return replace(base, m=m, q=1, scheme="nc")


# every scheme runs through ITSSO, which reads FSL's pin from the scenario
run_scheme = run_itsso


def audit_solution(scenario: Scenario, solution: Solution) -> list[str]:
    """Independent constraint audit of a solution's trace, including its
    objective: the trace must end in slot ``solution.t_max`` and each UAV's
    rows in its completion slot."""
    trace = solution.outcome.trace
    if trace is None:
        raise ValueError("solution was produced without a trace; rerun with record_trace")
    problems = []
    last = max((r.slot for r in trace), default=0)
    if last != solution.t_max:
        problems.append(f"trace ends at slot {last} but the solution claims "
                        f"t_max {solution.t_max}")
    return problems + audit_rows(scenario, trace, solution.outcome.completion_times)


def audit_rows(scenario: Scenario, rows: Sequence[TraceRow],
               completion_times: Mapping[int, int] | None = None) -> list[str]:
    """Independent constraint audit of trace rows made from ``scenario``.
    FSL senses from a pinned height, so its sensing threshold is not checked."""
    return audit_trace(rows, scenario.uav_starts, scenario.routes, scenario.tasks,
                       scenario.channel, scenario.kinematics, scenario.sensing, scenario.k,
                       check_sensing_prob=_pinned_height(scenario) is None,
                       completion_times=completion_times)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@dataclass
class ExperimentResult:
    experiment: str
    rows: list[tuple[str, float, float, float, int]]  # scheme, x, mean, std, n
    raw: list[tuple[str, float, int, float]]  # scheme, x, instance, value
    manifest: str


def _table_point(base: ScenarioConfig, *, m: int, n: int, q: int, **kw) -> ScenarioConfig:
    return replace(base, m=m, n=n, q=q, scheme="itsso", **kw)


def _fig4_points(base: ScenarioConfig):
    # group-size sweep at n=20 tasks, 4 tasks per UAV: m = n*q / n_i = 5q
    for q in range(1, 9):
        yield float(q), [("itsso", _table_point(base, m=5 * q, n=20, q=q))]


def _three_schemes(itsso: ScenarioConfig) -> list[tuple[str, ScenarioConfig]]:
    """An itsso point with its nc variant and its fsl twin."""
    return [("itsso", itsso), ("nc", nc_config(itsso)), ("fsl", replace(itsso, scheme="fsl"))]


def _fig5_points(base: ScenarioConfig):
    # per-UAV load sweep at m=20, q=4: n = 5 * n_i; nc keeps (n, n_i) with m = 5
    for n_i in (2, 4, 6, 8):
        yield float(n_i), _three_schemes(_table_point(base, m=20, n=5 * n_i, q=4))


def _fig6_points(base: ScenarioConfig):
    # threshold sweep at n=20, n_i=4: itsso/fsl m=20 q=4, nc m=5 q=1
    for pr in (0.5, 0.6, 0.7, 0.8, 0.9):
        sensing = SensingParams(lam=base.sensing.lam, pr_th=pr)
        yield float(pr), _three_schemes(_table_point(base, m=20, n=20, q=4, sensing=sensing))


def _fig7_points(base: ScenarioConfig):
    # payload sweep at n=20, m=10, q=4 (n_i = 8); nc rounds m to 3
    for rs_mbit in (5, 10, 15, 20, 25, 30, 35, 40):
        yield float(rs_mbit), _three_schemes(
            _table_point(base, m=10, n=20, q=4, data_size=rs_mbit * 1e6))


def _fig9_points(base: ScenarioConfig):
    # subcarrier sweep per payload level, m=20, q=4, n=20
    for k in range(1, 11):
        yield float(k), [
            (f"itsso_rs{rs}", _table_point(base, m=20, n=20, q=4, k=k, data_size=rs * 1e6))
            for rs in (10, 20, 30, 40)]


# experiment id -> (manifest, sweep); fig8 has no sweep and runs _run_fig8
_EXPERIMENTS: dict[str, tuple[str, Optional[Callable]]] = {
    "fig4": ("group-size sweep q=1..8; n=20, n_i=4, m=5q (equal split)", _fig4_points),
    "fig5": ("per-UAV load sweep n_i in {2,4,6,8}; itsso/fsl: m=20,q=4,n=5*n_i; "
             "nc: q=1, m=n/n_i=5 so the load matches", _fig5_points),
    "fig6": ("threshold sweep pr_th in {0.5..0.9}; itsso/fsl: m=20,q=4,n=20; nc: m=5,q=1",
             _fig6_points),
    "fig7": ("payload sweep R_s in {5..40} Mbit; itsso/fsl: m=10,q=4,n=20 (n_i=8); "
             "nc: q=1, m=round(20/8)=3 with near-equal loads 7/7/6", _fig7_points),
    "fig8": ("minimum group size vs threshold 1-10^-x, x=1..6; simulated = smallest q "
             "whose best placement (directly above the task at h_min) is feasible in "
             "the pipeline; theoretical = closed-form ceiling with d0 = h_min; both "
             "columns depend only on h_min, lambda and pr_th, so each exponent repeats "
             f"one value over min(instances, {_FIG8_INSTANCE_CAP}) instances", None),
    "fig9": ("subcarrier sweep K=1..10 at R_s in {10,20,30,40} Mbit; m=20,q=4,n=20; "
             "one scheme label per payload level", _fig9_points),
}

EXPERIMENT_IDS = tuple(_EXPERIMENTS)


def _min_q_simulated(base: ScenarioConfig) -> int:
    """Smallest group size the pipeline accepts: the ITSSO feasibility
    rule, every worker right above the task at ``h_min``, on a one-task
    scenario at each q."""
    for q in range(1, _FIG8_Q_CAP + 1):
        scenario = generate_scenario(replace(base, m=q, n=1, q=q, scheme="itsso"))
        try:
            _check_feasible(scenario)
            return q
        except InfeasibleScenario:
            continue
    raise RuntimeError(
        f"no feasible group size up to {_FIG8_Q_CAP} for pr_th={base.sensing.pr_th}")


def _run_fig8(base: ScenarioConfig, instances: int, seed: int):
    raw = []
    for exponent in range(1, 7):
        sensing = SensingParams(lam=base.sensing.lam, pr_th=1.0 - 10.0 ** (-exponent))
        theoretical = float(min_cooperative_uavs(base.kinematics.h_min, sensing))
        simulated = float(_min_q_simulated(replace(base, seed=seed, sensing=sensing)))
        for idx in range(min(instances, _FIG8_INSTANCE_CAP)):
            raw.append(("simulated", float(exponent), idx, simulated))
            raw.append(("theoretical", float(exponent), idx, theoretical))
    return raw


def run_experiment(
    experiment: str,
    base: ScenarioConfig | None = None,
    instances: int = 200,
    out_dir: str | os.PathLike | None = None,
    seed: int = 1000,
) -> ExperimentResult:
    """Run one figure experiment in this process and (optionally) write its
    CSV files.

    Each sweep point patches ``base`` (the Table defaults when None), so
    fields a figure does not sweep (e.g. k, sensing) come from it.
    Instance i of every scheme runs on seed ``seed + i`` for pairing.
    """
    if experiment not in EXPERIMENT_IDS:
        raise ValueError(f"unknown experiment {experiment!r}; pick one of {EXPERIMENT_IDS}")
    if instances < 1:
        raise ValueError(f"an experiment needs at least 1 instance, got {instances}")
    if base is None:
        base = ScenarioConfig()

    manifest, sweep = _EXPERIMENTS[experiment]
    if sweep is None:
        raw = _run_fig8(base, instances, seed)
    else:
        raw = []
        for x, labelled in sweep(base):
            for label, cfg in labelled:
                for idx in range(instances):
                    scenario = generate_scenario(replace(cfg, seed=seed + idx))
                    itsso_cfg = ItssoConfig(rng_seed=seed + idx + _ITSSO_SEED_OFFSET)
                    sol = run_scheme(scenario, itsso_cfg, record_trace=False)
                    raw.append((label, x, idx, float(sol.t_max)))

    raw.sort(key=lambda r: (r[0], r[1], r[2]))
    groups: dict[tuple[str, float], list[float]] = {}
    for label, x, idx, value in raw:
        groups.setdefault((label, x), []).append(value)
    rows = []
    for (label, x), values in sorted(groups.items()):
        arr = np.asarray(values)
        std = float(arr.std(ddof=1)) if len(values) > 1 else 0.0
        rows.append((label, x, float(arr.mean()), std, len(values)))

    result = ExperimentResult(
        experiment=experiment, rows=rows, raw=raw, manifest=manifest,
    )
    if out_dir is not None:
        _write_experiment(result, Path(out_dir))
    return result


def _write_experiment(result: ExperimentResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"{result.experiment}.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "x", "mean_Tmax", "std_Tmax", "n"])
        for label, x, mean, std, n in result.rows:
            w.writerow([label, repr(x), repr(mean), repr(std), n])
    with open(out_dir / f"{result.experiment}_raw.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "x", "instance", "t_max"])
        for label, x, idx, value in result.raw:
            w.writerow([label, repr(x), idx, repr(value)])
    with open(out_dir / f"{result.experiment}_manifest.txt", "w",
              encoding="utf-8") as fh:
        fh.write(result.manifest + "\n")


# ---------------------------------------------------------------------------
# config-file ingestion
# ---------------------------------------------------------------------------

# config key -> (ScenarioConfig part, or None for a top-level field; field; parser)
_CONFIG_KEYS: dict[str, tuple[Optional[str], str, Callable[[str], object]]] = {
    "M": (None, "m", int), "N": (None, "n", int), "K": (None, "k", int),
    "q": (None, "q", int), "seed": (None, "seed", int), "scheme": (None, "scheme", str),
    "data_size": (None, "data_size", float), "fsl_height": (None, "fsl_height", float),
    "area.x": ("area", "x", float), "area.y": ("area", "y", float),
    "area.z": ("area", "z", float),
    "channel.bs_height": ("channel", "bs_height", float),
    "channel.carrier_freq": ("channel", "carrier_freq", float),
    "channel.subcarrier_bandwidth": ("channel", "subcarrier_bandwidth", float),
    "channel.noise_power": ("channel", "noise_power", float),
    "channel.tx_power": ("channel", "tx_power", float),
    "channel.slot_duration": ("channel", "slot_duration", float),
    "sensing.lambda": ("sensing", "lam", float), "sensing.pr_th": ("sensing", "pr_th", float),
    "kinematics.v_max": ("kinematics", "v_max", float),
    "kinematics.h_min": ("kinematics", "h_min", float),
}


def parse_config_text(text: str) -> ScenarioConfig:
    """Key-value scenario config; '#' starts a comment; unknown keys refuse."""
    parts: dict[Optional[str], dict[str, object]] = {
        part: {} for part in (None, "area", "channel", "sensing", "kinematics")}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        part, name, parse = _CONFIG_KEYS[key]
        if name in parts[part]:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            parts[part][name] = parse(raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: {raw!r}") from exc

    base = ScenarioConfig()
    area = parts.pop("area")
    fields = parts.pop(None)
    fields["area"] = tuple(area.get(axis, v) for axis, v in zip("xyz", base.area))
    return replace(base, **fields,
                   **{part: replace(getattr(base, part), **f) for part, f in parts.items()})


def load_config(path) -> ScenarioConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``; ``-m "not acceptance"``
leaves the suite out of a quick unit run.  Instance counts follow
the stated criteria; UAVSENSE_ACCEPT_INSTANCES caps them for quick
development runs (a capped run is not a conformance run).
"""

import itertools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from uavsense.analysis import SensitivityInputs, dTmax_dPRth, dTmax_dq
from uavsense.bench import (
    _ITSSO_SEED_OFFSET,
    ScenarioConfig,
    audit_solution,
    generate_scenario,
    nc_config,
    run_experiment,
    run_scheme,
)
from uavsense.channel import ChannelParams, Position3
from uavsense.itsso import ItssoConfig, run_itsso
from uavsense.sensing import (
    SensingParams,
    Task,
    required_sensing_radius,
    sensing_success_coop,
)
from uavsense.trajectory import (
    KinematicParams,
    constant_speed_leg,
    drain_leg,
    optimize_leg,
)

pytestmark = pytest.mark.acceptance

CP = ChannelParams()
KIN = KinematicParams()
SP = SensingParams()

_CAP = int(os.environ.get("UAVSENSE_ACCEPT_INSTANCES", "0"))
_WORKERS = min(os.cpu_count() or 1, 4)
_BOOTSTRAP_SEED = 2018  # fixed, so a report line repeats exactly
_BOOTSTRAP_RESAMPLES = 4000


def n_instances(spec_default: int) -> int:
    return min(spec_default, _CAP) if _CAP else spec_default


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _tmax_job(args):
    cfg, itsso_seed = args
    scenario = generate_scenario(cfg)
    sol = run_scheme(scenario, ItssoConfig(rng_seed=itsso_seed), record_trace=False)
    return sol.t_max


def _history_job(args):
    cfg, itsso_seed = args
    scenario = generate_scenario(cfg)
    sol = run_scheme(scenario, ItssoConfig(rng_seed=itsso_seed), record_trace=False)
    return sol.history, sol.iterations


def _pool_map(fn, jobs):
    if _WORKERS > 1 and len(jobs) > 8:
        with ProcessPoolExecutor(max_workers=_WORKERS) as pool:
            return list(pool.map(fn, jobs, chunksize=8))
    return [fn(j) for j in jobs]


def _tmax_per_seed(cfg: ScenarioConfig, seeds) -> np.ndarray:
    jobs = [(replace(cfg, seed=s), s + _ITSSO_SEED_OFFSET) for s in seeds]
    return np.array(_pool_map(_tmax_job, jobs), dtype=float)


def _mean_tmax(cfg: ScenarioConfig, seeds) -> float:
    return float(np.mean(_tmax_per_seed(cfg, seeds)))


def bootstrap_interval(per_seed, statistic, fmt: str = ".1%") -> str:
    """Paired bootstrap 95% interval of ``statistic`` of the means.

    ``per_seed`` holds one row of per-seed values for each sweep point.  The
    seeds are resampled with replacement, each draw keeping a seed's values
    at every point together; ``statistic`` maps the resampled means, one
    row per point, to one value per draw."""
    per_seed = np.asarray(per_seed)
    n = per_seed.shape[1]
    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    idx = rng.integers(0, n, size=(_BOOTSTRAP_RESAMPLES, n))
    lo, hi = np.percentile(statistic(per_seed[:, idx].mean(axis=2)), [2.5, 97.5])
    return (f"95% interval [{lo:{fmt}}, {hi:{fmt}}], paired bootstrap of "
            f"{_BOOTSTRAP_RESAMPLES} resamples")


def saving_interval(ours: np.ndarray, theirs: np.ndarray) -> str:
    """Interval of the saving ``1 - mean(ours) / mean(theirs)``."""
    return bootstrap_interval([ours, theirs], lambda m: 1.0 - m[0] / m[1])


def _smallest_step(means: np.ndarray) -> np.ndarray:
    return np.diff(means, axis=0).min(axis=0)


def _largest_deviation(means: np.ndarray) -> np.ndarray:
    center = means.mean(axis=0)
    return (np.abs(means - center) / center).max(axis=0)


class TestCriterion1Convergence:
    def test_monotone_and_bounded(self):
        n = n_instances(200)
        t0 = time.time()
        jobs = [(ScenarioConfig(seed=s), s + _ITSSO_SEED_OFFSET) for s in range(n)]
        results = _pool_map(_history_job, jobs)
        bad = []
        for s, (history, iterations) in enumerate(results):
            if any(b >= a for a, b in zip(history, history[1:])):
                bad.append((s, history))
            if iterations > 100:
                bad.append((s, f"{iterations} iterations"))
        elapsed = time.time() - t0
        report(1, not bad and elapsed < 300,
               f"{n} instances, objective strictly decreasing per accepted "
               f"iteration, <=100 iterations, {elapsed:.0f}s (cap 300s); "
               f"violations: {bad[:3]}")


class TestCriterion2VsNc:
    def test_load_sweep_and_saving_band(self):
        n = n_instances(200)
        seeds = range(n)
        means = {}
        per_seed = {}
        for n_i in (2, 4, 6, 8):
            base = ScenarioConfig(m=20, n=5 * n_i, q=4)
            per_seed[("itsso", n_i)] = _tmax_per_seed(base, seeds)
            per_seed[("nc", n_i)] = _tmax_per_seed(nc_config(base), seeds)
            for scheme in ("itsso", "nc"):
                means[(scheme, n_i)] = float(np.mean(per_seed[(scheme, n_i)]))
        lower_everywhere = all(
            means[("itsso", n_i)] < means[("nc", n_i)] for n_i in (2, 4, 6, 8))
        saving = 1 - means[("itsso", 4)] / means[("nc", 4)]
        ok = lower_everywhere and 0.05 <= saving <= 0.30
        detail = ", ".join(
            f"n_i={n_i}: {means[('itsso', n_i)]:.2f} vs {means[('nc', n_i)]:.2f}"
            for n_i in (2, 4, 6, 8))
        interval = saving_interval(per_seed[("itsso", 4)], per_seed[("nc", 4)])
        report(2, ok, f"{detail}; saving at n_i=4: {saving:.1%} "
                      f"({interval}; band [5%, 30%], {n} paired seeds)")


class TestCriterion3VsFsl:
    def test_fsl_gap(self):
        n = n_instances(200)
        seeds = range(n)
        base = ScenarioConfig()  # the threshold-sweep setup at its table point
        itsso_per_seed = _tmax_per_seed(base, seeds)
        fsl_per_seed = _tmax_per_seed(replace(base, scheme="fsl"), seeds)
        itsso = float(np.mean(itsso_per_seed))
        fsl = float(np.mean(fsl_per_seed))
        saving = 1 - itsso / fsl
        report(3, saving >= 0.30,
               f"ITSSO {itsso:.2f} vs FSL {fsl:.2f}: saving {saving:.1%} "
               f"({saving_interval(itsso_per_seed, fsl_per_seed)}; "
               f"need >=30%, {n} paired seeds)")


class TestCriterion4ThresholdMonotonicity:
    def test_trends(self):
        n = n_instances(100)
        seeds = range(n)
        prs = (0.5, 0.6, 0.7, 0.8, 0.9)
        it_per_seed, nc_per_seed = [], []
        for pr in prs:
            base = ScenarioConfig(sensing=SensingParams(0.01, pr))
            it_per_seed.append(_tmax_per_seed(base, seeds))
            nc_per_seed.append(_tmax_per_seed(nc_config(base), seeds))
        it_means = [float(np.mean(v)) for v in it_per_seed]
        nc_means = [float(np.mean(v)) for v in nc_per_seed]
        fsl_means = [
            _mean_tmax(replace(ScenarioConfig(sensing=SensingParams(0.01, pr)),
                               scheme="fsl"), seeds)
            for pr in (0.5, 0.7, 0.9)
        ]
        it_ok = all(b >= a for a, b in zip(it_means, it_means[1:]))
        nc_ok = all(b >= a for a, b in zip(nc_means, nc_means[1:]))
        center = float(np.mean(fsl_means))
        fsl_ok = all(abs(v - center) / center <= 0.05 for v in fsl_means)
        it_step = bootstrap_interval(it_per_seed, _smallest_step, ".2f")
        nc_step = bootstrap_interval(nc_per_seed, _smallest_step, ".2f")
        report(4, it_ok and nc_ok and fsl_ok,
               f"ITSSO {[round(v, 2) for v in it_means]} non-decreasing: {it_ok} "
               f"(smallest step: {it_step}); "
               f"NC {[round(v, 2) for v in nc_means]} non-decreasing: {nc_ok} "
               f"(smallest step: {nc_step}); "
               f"FSL {[round(v, 2) for v in fsl_means]} flat +-5%: {fsl_ok}")


class TestCriterion5MinGroupSize:
    def test_against_formula(self):
        res = run_experiment("fig8", instances=1, seed=500)
        sim = {x: m for sch, x, m, _, _ in res.rows if sch == "simulated"}
        theo = {x: m for sch, x, m, _, _ in res.rows if sch == "theoretical"}
        within = all(abs(sim[x] - theo[x]) <= 1 for x in sim)
        endpoints = sim[1.0] == 1 and sim[6.0] == 6
        report(5, within and endpoints,
               f"simulated min group size {[int(sim[k]) for k in sorted(sim)]} vs "
               f"formula {[int(theo[k]) for k in sorted(theo)]}; endpoints 1 and 6: "
               f"{endpoints}")


class TestCriterion6SensitivityIdentity:
    def test_finite_difference_grid(self):
        t0 = time.time()

        def radius(q, pr):
            return -math.log(1.0 - (1.0 - pr) ** (1.0 / q)) / 0.01

        worst = 0.0
        for q in range(1, 21):
            for pr in np.linspace(0.05, 0.95, 20):
                inp = SensitivityInputs(q, float(pr), 0.01, 4, 50.0)
                hq = 1e-5
                fd_q = -(4 / 50.0) * (radius(q + hq, pr) - radius(q - hq, pr)) / (2 * hq)
                hp = 1e-7
                fd_p = -(4 / 50.0) * (radius(q, pr + hp) - radius(q, pr - hp)) / (2 * hp)
                worst = max(worst,
                            abs(dTmax_dq(inp) - fd_q) / abs(fd_q),
                            abs(dTmax_dPRth(inp) - fd_p) / abs(fd_p))
        elapsed = time.time() - t0
        report(6, worst < 1e-4 and elapsed < 1.0,
               f"20x20 grid, worst relative error {worst:.2e} (tol 1e-4), "
               f"{elapsed * 1000:.0f}ms (cap 1s)")


class TestCriterion7PayloadKnee:
    def test_flat_band_and_knee(self):
        n = n_instances(100)
        seeds = range(n)
        per_seed = {rs: _tmax_per_seed(ScenarioConfig(data_size=rs * 1e6), seeds)
                    for rs in (5, 10, 15, 20, 25, 30, 35, 40)}
        means = {rs: float(np.mean(v)) for rs, v in per_seed.items()}
        band = [means[r] for r in (5, 10, 15, 20, 25)]
        center = float(np.mean(band))
        deviation = max(abs(v - center) / center for v in band)
        strict = means[25] < means[30] < means[35] < means[40]
        interval = bootstrap_interval([per_seed[r] for r in (5, 10, 15, 20, 25)],
                                      _largest_deviation)
        report(7, deviation < 0.10 and strict,
               f"means {[round(means[r], 2) for r in sorted(means)]}; "
               f"max deviation over [5,25] Mbit: {deviation:.1%} ({interval}; tol 10%); "
               f"strict increase 25->40: {strict}")


class TestCriterion8SpeedOptimality:
    def test_full_speed_dominates(self):
        rng = np.random.default_rng(8001)
        violations = []
        for trial in range(20):
            start = Position3(rng.uniform(0, 500), rng.uniform(0, 500),
                              rng.uniform(10, 100))
            end = Position3(rng.uniform(0, 500), rng.uniform(0, 500),
                            rng.uniform(10, 100))
            best = optimize_leg(start, end, 20e6, CP, KIN).slots
            for frac in (0.5, 0.7, 0.9):
                ref = constant_speed_leg(start, end, 20e6, frac * KIN.v_max,
                                         CP, KIN).slots
                if best > ref:
                    violations.append((trial, frac, best, ref))
        report(8, not violations,
               f"20 random legs x 3 slower speeds, full-speed slot count never "
               f"larger; violations: {violations}")


class TestCriterion9FeasibilityAudit:
    def test_all_schemes_audit_clean(self):
        n = n_instances(12)
        failures = []
        for seed in range(n):
            for scheme in ("itsso", "nc", "fsl"):
                cfg = ScenarioConfig(seed=seed, scheme="itsso")
                if scheme == "nc":
                    cfg = nc_config(cfg)
                elif scheme == "fsl":
                    cfg = replace(cfg, scheme="fsl")
                sc = generate_scenario(cfg)
                sol = run_scheme(sc, ItssoConfig(rng_seed=seed + _ITSSO_SEED_OFFSET),
                                 record_trace=True)
                problems = audit_solution(sc, sol)
                if problems:
                    failures.append((scheme, seed, problems[:2]))
        report(9, not failures,
               f"{n} seeds x 3 schemes re-validated against all constraints; "
               f"failures: {failures[:3]}")


def _oracle_candidates(start: Position3, task: Task, budget: float):
    overhead = Position3(task.location.x, task.location.y, KIN.h_min)
    pts = [overhead]
    direction = np.array([start.x - overhead.x, start.y - overhead.y,
                          start.z - overhead.z])
    norm = float(np.linalg.norm(direction))
    if norm > 1e-9:
        direction = direction / norm
        for steps in range(1, 8):
            for frac in (0.25, 0.5, 0.75, 1.0):
                s = (steps - 1 + frac) * KIN.v_max
                p = Position3(overhead.x + s * direction[0],
                              overhead.y + s * direction[1],
                              max(overhead.z + s * direction[2], KIN.h_min))
                if p.dist(task.location) <= budget:
                    pts.append(p)
    return pts


def _oracle_tmax(scenario) -> int:
    """Exhaustive search over discretized sensing locations and all grant
    orderings for the 2-UAV, 1-task-each, 1-subcarrier instance."""
    budget = required_sensing_radius(1, scenario.sensing)
    uavs = sorted(scenario.routes)
    tasks = [scenario.tasks[scenario.routes[u][0]] for u in uavs]
    cand = [_oracle_candidates(scenario.uav_starts[u], t, budget)
            for u, t in zip(uavs, tasks)]
    best = None
    for pair in itertools.product(*cand):
        # single-UAV tasks: each candidate must meet the threshold alone
        if any(sensing_success_coop([p.dist(t.location)], scenario.sensing)
               < scenario.sensing.pr_th for p, t in zip(pair, tasks)):
            continue
        taus = []
        rate_seqs = []
        for u, p, t in zip(uavs, pair, tasks):
            travel = optimize_leg(scenario.uav_starts[u], p, 0.0,
                                  scenario.channel, scenario.kinematics)
            taus.append(travel.slots + 1)
            drain = drain_leg(p, t.data_size, scenario.channel,
                              scenario.kinematics)
            rate_seqs.append(drain.rates)

        def rate(i, t):
            k = t - taus[i] - 1
            seq = rate_seqs[i]
            return seq[k] if k < len(seq) else seq[-1]

        # slot-synchronous search over grant choices, pareto-pruned residuals
        frontier = {(tasks[0].data_size, tasks[1].data_size)}
        t = max(min(taus) - 1, 0)
        horizon = max(taus) + 200
        done_at = None
        while t < horizon:
            t += 1
            nxt = set()
            for rem in frontier:
                active = [i for i in (0, 1) if t > taus[i] and rem[i] > 0]
                if not active:
                    nxt.add(rem)
                    continue
                for winner in active:
                    new = list(rem)
                    new[winner] = max(0.0, new[winner] - rate(winner, t))
                    nxt.add(tuple(new))
            # pareto prune
            frontier = {a for a in nxt
                        if not any(b != a and b[0] <= a[0] and b[1] <= a[1]
                                   for b in nxt)}
            if (0.0, 0.0) in frontier:
                done_at = t
                break
        if done_at is None:
            continue
        best = done_at if best is None else min(best, done_at)
    return best


class TestCriterion10SmallOracle:
    def test_matches_brute_force(self):
        gaps = []
        for seed in range(20):
            cfg = ScenarioConfig(m=2, n=2, q=1, k=1, seed=seed)
            sc = generate_scenario(cfg)
            sol = run_itsso(sc, ItssoConfig(rng_seed=seed + _ITSSO_SEED_OFFSET),
                            record_trace=False)
            oracle = _oracle_tmax(sc)
            gaps.append(sol.t_max - oracle)
        ok = all(abs(g) <= 1 for g in gaps)
        report(10, ok, f"ITSSO minus brute force over 20 seeds: {gaps}")

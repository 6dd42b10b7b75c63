"""Outer-loop tests: initialization, convergence, termination, export."""

import math

import numpy as np
import pytest

from uavsense.bench import _ITSSO_SEED_OFFSET, ScenarioConfig, generate_scenario, run_scheme
from uavsense.channel import Position3
from uavsense.itsso import (
    InfeasibleScenario,
    ItssoConfig,
    default_initial_locations,
    initial_solution,
    masks_from_outcome,
    replay,
    run_itsso,
    solution_from_json,
    solution_to_json,
)
from uavsense.sensing import SensingParams, sensing_success_coop
from uavsense.trajectory import drain_leg


class TestInitialSolution:
    def test_default_locations_meet_threshold(self):
        sc = generate_scenario(ScenarioConfig(seed=1))
        # every worker right above the task at the floor: for q=4 the group
        # probability is 1-(1-e^{-0.1})^4, far above 0.9
        locs = default_initial_locations(sc)
        h = sc.kinematics.h_min
        prob = sensing_success_coop([h] * 4, sc.sensing)
        assert prob == pytest.approx(0.9999179903671793, rel=1e-12)
        for task in sc.tasks.values():
            dists = []
            for uav in task.workers:
                idx = sc.routes[uav].index(task.id)
                dists.append(locs[(uav, idx)].dist(task.location))
            assert sensing_success_coop(dists, sc.sensing) >= sc.sensing.pr_th

    def test_infeasible_scenario_raises(self):
        cfg = ScenarioConfig(m=4, n=4, q=1, k=4, seed=2,
                             sensing=SensingParams(0.01, 1 - 1e-6))
        sc = generate_scenario(cfg)
        with pytest.raises(InfeasibleScenario):
            initial_solution(sc, ItssoConfig(rng_seed=0))

    def test_initial_speed_scaling(self):
        sc = generate_scenario(ScenarioConfig(seed=3))
        slow = initial_solution(sc, ItssoConfig(initial_speed_ratio=0.05, rng_seed=1))
        fast = initial_solution(sc, ItssoConfig(initial_speed_ratio=0.1, rng_seed=1))
        # halving the pace roughly doubles the kinematics-dominated makespan
        assert slow.t_max >= 1.8 * fast.t_max

    def test_identical_seed_identical_schedule(self):
        sc = generate_scenario(ScenarioConfig(seed=4))
        a = initial_solution(sc, ItssoConfig(rng_seed=11))
        b = initial_solution(sc, ItssoConfig(rng_seed=11))
        assert a.outcome.grants == b.outcome.grants
        assert a.t_max == b.t_max


class TestRunItsso:
    def test_history_non_increasing(self):
        for seed in range(15):
            sc = generate_scenario(ScenarioConfig(seed=seed))
            sol = run_itsso(sc, ItssoConfig(rng_seed=seed), record_trace=False)
            assert all(b < a for a, b in zip(sol.history, sol.history[1:]))
            assert sol.iterations <= 100
            assert sol.t_max == sol.history[-1]

    def test_terminates_on_first_non_improvement(self):
        sc = generate_scenario(ScenarioConfig(seed=8))
        sol = run_itsso(sc, ItssoConfig(rng_seed=8), record_trace=False)
        # the last candidate failed to improve, which is what stopped the loop
        assert sol.candidate_history[-1] >= sol.history[-1]
        assert len(sol.candidate_history) == sol.iterations + 1

    def test_near_fixed_point_stops_fast(self):
        cfg = ScenarioConfig(m=1, n=1, q=1, k=1, seed=5)
        sc = generate_scenario(cfg)
        # place the UAV right above the only task so there is nothing to gain
        sc.uav_starts[0] = Position3(
            sc.tasks[0].location.x, sc.tasks[0].location.y, 10.0)
        sol = run_itsso(sc, ItssoConfig(rng_seed=5), record_trace=False)
        assert sol.iterations <= 3
        assert all(b <= a for a, b in zip(sol.history, sol.history[1:]))

    def test_lower_bound_sanity(self):
        # the final objective cannot beat the sum of detour-only leg bounds
        for seed in (1, 7, 13):
            sc = generate_scenario(ScenarioConfig(seed=seed))
            sol = run_itsso(sc, ItssoConfig(rng_seed=seed), record_trace=False)
            worst = 0
            for p in sol.plans:
                total = 0
                prev = p.start
                for idx, tid in enumerate(p.task_ids):
                    residual = 0.0 if idx == 0 else sc.tasks[p.task_ids[idx - 1]].data_size
                    total += drain_leg(prev, residual, sc.channel, sc.kinematics).slots
                    prev = p.sensing_locations[idx]
                worst = max(worst, total)
            assert sol.t_max >= worst

    def test_masks_reflect_denials(self):
        sc = generate_scenario(ScenarioConfig(seed=10, k=2))
        sol = run_itsso(sc, ItssoConfig(rng_seed=10), record_trace=False)
        masks = masks_from_outcome(sol.outcome)
        denied = 0
        for t, (req, gr) in enumerate(zip(sol.outcome.requests, sol.outcome.grants)):
            for uav in req:
                if uav not in gr:
                    denied += 1
                    assert masks[uav][t] is False
        assert denied > 0  # K=2 with 20 UAVs must contend


class TestCrowdedPins:
    """Crowded geometry (M=10, N=10, K=2): objective histories recorded before
    the leg planners shared gradient walks and line rates.  Cached planning
    is bit-identical to cold planning, so these must not move."""

    @pytest.mark.parametrize("seed,history", [
        (1, [273, 75, 63]),
        (2, [229, 72, 59, 58, 57]),
        (3, [265, 72, 60]),
    ])
    def test_t_max(self, seed, history):
        sc = generate_scenario(ScenarioConfig(m=10, n=10, k=2, seed=seed))
        sol = run_scheme(sc, ItssoConfig(rng_seed=seed + _ITSSO_SEED_OFFSET))
        assert sol.t_max == history[-1]
        assert sol.history == history


class TestExportReplay:
    def test_round_trip(self):
        sc = generate_scenario(ScenarioConfig(seed=6))
        sol = run_itsso(sc, ItssoConfig(rng_seed=6), record_trace=True)
        text = solution_to_json(sol)
        plans, schedule = solution_from_json(text)
        assert [p.uav for p in plans] == [p.uav for p in sol.plans]
        out = replay(plans, schedule, sc)
        assert out.t_max == sol.t_max
        assert out.trace == sol.outcome.trace

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            solution_from_json('{"format": "something-else"}')

"""Micro-benchmarks of the hot calls, for pytest-benchmark.

    PYTHONPATH=src python -m pytest perfbench -m micro

Skipped unless selected with ``-m micro`` (see conftest.py).  They time one
call each and check nothing beyond it; ``run.py`` is the benchmark.
"""

from dataclasses import replace

import pytest

from uavsense import bench
from uavsense.channel import ChannelParams, rate_at
from uavsense.itsso import ItssoConfig, initial_solution, masks_from_outcome
from uavsense.scheduler import GreedyScheduler
from uavsense.simulator import run
from uavsense.trajectory import optimize_leg

pytestmark = pytest.mark.micro

SEED = 7_000_000


def _initial(k: int):
    scenario = bench.generate_scenario(replace(bench.ScenarioConfig(), k=k, seed=SEED))
    return scenario, initial_solution(scenario, ItssoConfig(rng_seed=SEED))


def test_rate_at(benchmark):
    benchmark(rate_at, 120.0, -80.0, 40.0, ChannelParams())


def test_crowded_optimize_leg(benchmark):
    """Second leg of the most-denied UAV at K=2, planned against its observed grants."""
    scenario, sol = _initial(k=2)
    masks = masks_from_outcome(sol.outcome)
    uav = min(masks, key=lambda u: sum(masks[u]))
    plan = next(p for p in sol.plans if p.uav == uav)
    mask = masks[uav]
    args = (plan.sensing_locations[0], plan.sensing_locations[1],
            scenario.tasks[plan.task_ids[0]].data_size, scenario.channel,
            scenario.kinematics,
            lambda slot: slot > len(mask) or slot < 1 or mask[slot - 1],
            plan.legs[0].slots + 2)
    benchmark(optimize_leg, *args)


def test_simulator_run(benchmark):
    scenario, sol = _initial(k=10)
    benchmark(run, sol.plans, GreedyScheduler(scenario.k), scenario.tasks,
              scenario.channel, scenario.kinematics, record_trace=False)

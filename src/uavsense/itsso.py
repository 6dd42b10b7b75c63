"""Outer iterative optimizer.

Starts from a deliberately slow but feasible plan, each worker sensing from
right above its task at the altitude where the task's uplink rate peaks
below the group's symmetric radius (``rate_max_locations``), then cycles three
sub-solvers until the network completion time stops improving: re-plan
every leg at full speed against the grants observed in the previous run
(``placement.replan_plans``, with the per-leg re-plan that the sensing
location search's moves use), locally optimize the sensing locations, and
let the greedy per-slot scheduler resolve the new contention inside the
simulator.  The scenario's scheme decides the rest: FSL pins every worker
right above its task at ``fsl_height`` and skips the location search
(``_pinned_height``).  The simulator is the single source of truth for the
objective; a candidate iterate that fails to improve it terminates the loop
and the best solution seen wins.

Every iterate is simulated without a slot trace.  When a trace is asked
for, it is recorded once, for the returned iterate only, by replaying its
plans under its own grant schedule: the simulator's state depends only on
the plans and the granted sets, so the replay reproduces the run exactly.
"""

from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from itertools import zip_longest
from typing import Mapping

import numpy as np

from .channel import ChannelParams, Position3, rate_at, screened_pathloss
from .placement import optimize_sensing_locations, replan_plans
from .scheduler import GreedyScheduler, RandomScheduler, ReplayScheduler
from .sensing import SensingParams, required_sensing_radius, sensing_success_coop
from .simulator import SimOutcome, UavPlan, run
from .trajectory import _ROOT_SLACK_M, KinematicParams, Leg, LegCache, drain_leg, initial_leg

__all__ = [
    "ItssoConfig",
    "Solution",
    "initial_solution",
    "run_itsso",
    "solution_to_json",
    "solution_from_json",
    "replay",
]

_MAX_ITERATIONS = 100  # candidate iterates per run; the loop stops at the first non-improving one
_INITIAL_SPEED_RATIO = 0.1  # pace of the initial iterate's legs, as a fraction of v_max
_START_GRID = 41  # altitudes rated per task by the rate-max start, h_min to the radius
_SCREEN_TOLERANCE = 1e-9  # relative pathloss margin within which the start rates exactly


@dataclass(frozen=True)
class ItssoConfig:
    rng_seed: int = 0


@dataclass
class Solution:
    """Best iterate found, plus the convergence record."""

    plans: list[UavPlan]
    outcome: SimOutcome
    history: list[int]  # objective of each accepted iterate (initial first)
    candidate_history: list[int]  # every simulated candidate, accepted or not
    placement_passes: int = 0

    @property
    def t_max(self) -> int:
        return self.outcome.t_max

    @property
    def iterations(self) -> int:
        """Candidates simulated after the initial iterate."""
        return len(self.candidate_history) - 1


class InfeasibleScenario(RuntimeError):
    """No sensing placement can meet the probability threshold."""


def _pinned_height(scenario) -> float | None:
    """FSL's rule, read from the scenario: the altitude at which every
    worker senses right above its task, with no sensing-location search and
    the probability threshold waived; None for the searched schemes."""
    config = scenario.config
    return config.fsl_height if config.scheme == "fsl" else None


def _check_feasible(scenario) -> None:
    """Raise ``InfeasibleScenario`` unless every group meets its threshold
    with all its workers right above the task at ``h_min``, the best case."""
    sp: SensingParams = scenario.sensing
    h_min = scenario.kinematics.h_min
    for task in scenario.tasks.values():
        dist = Position3(task.location.x, task.location.y, h_min).dist(task.location)
        prob = sensing_success_coop([dist] * len(task.workers), sp)
        if prob < sp.pr_th:
            raise InfeasibleScenario(
                f"task {task.id}: best-case sensing probability {prob:.6f} "
                f"cannot reach the threshold {sp.pr_th} with q={len(task.workers)}"
            )


def _above_tasks(scenario, heights: Mapping[int, float]) -> dict[tuple[int, int], Position3]:
    """Every worker right above its task at the task's height, keyed by
    (UAV, route index)."""
    tasks = scenario.tasks
    return {(uav, idx): Position3(tasks[tid].location.x, tasks[tid].location.y, heights[tid])
            for uav, route in scenario.routes.items() for idx, tid in enumerate(route)}


def overhead_locations(scenario, height: float) -> dict[tuple[int, int], Position3]:
    """Every worker right above its task at ``height``, keyed by (UAV,
    route index)."""
    return _above_tasks(scenario, dict.fromkeys(scenario.tasks, height))


def rate_max_locations(scenario) -> dict[tuple[int, int], Position3]:
    """Every worker right above its task at the altitude of the task's
    largest ``rate_at``, keyed by (UAV, route index).

    The altitudes rated are ``_START_GRID`` evenly spaced points from
    ``h_min`` to ``_ROOT_SLACK_M`` inside the group's symmetric radius, so
    that rounding cannot leave the group short of the threshold; a tie goes
    to the lowest.

    One ``screened_pathloss`` call per group size orders every task's grid.
    The rate falls strictly as the pathloss rises, and the screen is off by
    far less than ``_SCREEN_TOLERANCE``, so a point screened further than
    that (relative, absolute below 1 dB) above its row's least has a smaller
    rate.  A row with one point left takes it unrated; any other row rates
    what is left, or its whole grid where the screen has a NaN, with
    ``rate_at``, task by task as listed, so an out-of-domain grid point
    raises ``ChannelDomainError`` as an exhaustive search would.
    """
    cp, h_min = scenario.channel, scenario.kinematics.h_min
    groups: dict[int, list] = {}
    for task in scenario.tasks.values():
        groups.setdefault(len(task.workers), []).append(task)
    left = {}
    for q, tasks in groups.items():
        radius = required_sensing_radius(q, scenario.sensing)
        step = (max(radius - _ROOT_SLACK_M, h_min) - h_min) / (_START_GRID - 1)
        grid = [h_min + i * step for i in range(_START_GRID)]
        pl = screened_pathloss(np.array([[t.location.x] for t in tasks]),
                               np.array([[t.location.y] for t in tasks]), np.array(grid), cp)
        least = pl.min(axis=1, keepdims=True)  # NaN in a row with a NaN
        near = pl <= least + _SCREEN_TOLERANCE * (np.abs(least) + 1.0)
        for task, row in zip(tasks, near.tolist()):
            left[task.id] = [z for z, kept in zip(grid, row) if kept] or grid
    height = {}
    for task in scenario.tasks.values():
        zs, x, y = left[task.id], task.location.x, task.location.y
        height[task.id] = zs[0] if len(zs) == 1 else max(zs, key=lambda z: rate_at(x, y, z, cp))
    return _above_tasks(scenario, height)


def _build_plans(
    scenario,
    locations: Mapping[tuple[int, int], Position3],
    cache: LegCache | None = None,
) -> list[UavPlan]:
    """One plan per UAV through ``locations``: evenly paced straight legs at
    ``_INITIAL_SPEED_RATIO`` of full speed, stretched until each upload fits,
    then a drain planned as if every slot were granted."""
    cp: ChannelParams = scenario.channel
    kin: KinematicParams = scenario.kinematics
    v0 = _INITIAL_SPEED_RATIO * kin.v_max
    plans = []
    for uav in sorted(scenario.routes):
        route = scenario.routes[uav]
        prev = start = scenario.uav_starts[uav]
        locs = [locations[(uav, idx)] for idx in range(len(route))]
        legs = []
        residual = 0.0
        for tid, loc in zip(route, locs):
            legs.append(initial_leg(prev, loc, residual, v0, cp, kin))
            prev, residual = loc, scenario.tasks[tid].data_size
        plans.append(UavPlan(uav, start, list(route), locs, legs,
                             drain_leg(prev, residual, cp, kin, cache=cache)))
    return plans


def masks_from_outcome(outcome: SimOutcome) -> dict[int, list[bool]]:
    """Per-UAV slot mask from an observed run, for the UAVs with a denied
    request only: False where a request was denied, True elsewhere.  A
    planner grants every slot outside a mask, and to a UAV without one, so
    an all-True mask would plan exactly as no mask."""
    horizon = len(outcome.requests)
    masks: dict[int, list[bool]] = {}
    for t, (req, got) in enumerate(zip(outcome.requests, outcome.grants)):
        for uav in req - got:
            if uav not in masks:
                masks[uav] = [True] * horizon
            masks[uav][t] = False
    return masks


def initial_solution(scenario, cfg: ItssoConfig, cache: LegCache | None = None) -> Solution:
    """Feasible slow-speed starting point with a seeded random schedule.

    FSL pins every worker right above its task at ``fsl_height``
    (``_pinned_height``), and its threshold is not checked.  In the other
    schemes a scenario whose threshold no placement can meet, not even
    every worker right above its task at ``h_min``, raises
    ``InfeasibleScenario``; otherwise every worker senses from right above
    its task at the altitude of the task's best rate
    (``rate_max_locations``).  ``cache`` shares the drain legs' gradient
    walks with the caller's later plans, whose drains start from the same
    last sensing locations.
    """
    height = _pinned_height(scenario)
    if height is None:
        _check_feasible(scenario)
        locations = rate_max_locations(scenario)
    else:
        locations = overhead_locations(scenario, height)
    plans = _build_plans(scenario, locations, cache)
    outcome = run(
        plans, RandomScheduler(scenario.k, cfg.rng_seed), scenario.tasks,
        scenario.channel, scenario.kinematics, record_trace=False,
    )
    return Solution(plans, outcome, [outcome.t_max], [outcome.t_max])


def run_itsso(scenario, cfg: ItssoConfig | None = None,
              record_trace: bool = False) -> Solution:
    """Full optimization loop; see the module docstring.

    FSL's pinned locations (``_pinned_height``) are never moved: its runs
    skip the sensing-location search.  One ``LegCache`` serves every leg
    planned in this call, the initial iterate's drains included, and is
    dropped with it.

    Iterates are simulated untraced.  With ``record_trace`` the returned
    solution's trace comes from one ``replay`` of its plans under its own
    grant schedule.  ``replay`` is the one divergence check: it raises
    ``RuntimeError`` if its grants differ, and equal grants mean equal ``t_max``.

    The cyclic garbage collector is paused for the call and the caller's
    setting restored on every exit, after the returned ``Solution`` is
    built: a run makes no reference cycles, so a collection inside it would
    find nothing, and a cycle made anyway, say on an error path, is freed by
    the first collection after the call.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        cfg = cfg or ItssoConfig()
        cache = LegCache(scenario.channel, scenario.kinematics)
        search = _pinned_height(scenario) is None
        init = initial_solution(scenario, cfg, cache=cache)
        plans, outcome = init.plans, init.outcome
        history = [outcome.t_max]
        candidates = [outcome.t_max]
        passes = 0
        for _ in range(_MAX_ITERATIONS):
            masks = masks_from_outcome(outcome)
            candidate = replan_plans(plans, scenario.tasks, scenario.channel,
                                     scenario.kinematics, masks, cache)
            if search:
                assignment = optimize_sensing_locations(
                    candidate, scenario.tasks, scenario.channel, scenario.kinematics,
                    scenario.sensing, masks, cache=cache,
                )
                candidate = assignment.plans
                passes += assignment.passes
            result = run(
                candidate, GreedyScheduler(scenario.k), scenario.tasks,
                scenario.channel, scenario.kinematics, record_trace=False,
            )
            candidates.append(result.t_max)
            if result.t_max >= outcome.t_max:
                break
            plans, outcome = candidate, result
            history.append(outcome.t_max)
        if record_trace:
            outcome = replay(plans, outcome.grants, scenario)
        return Solution(plans, outcome, history, candidates, passes)
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# solution export / replay
# ---------------------------------------------------------------------------

def _leg_to_dict(leg) -> dict:
    return {
        "start": list(leg.start),
        "end": list(leg.end),
        "residual_data": leg.residual_data,
        "waypoints": [list(p) for p in leg.waypoints],
        "rates": leg.rates,
        "turning_point": list(leg.turning_point),
        "detour_slots": leg.detour_slots,
        "route_slots": leg.route_slots,
    }


def _leg_from_dict(d) -> Leg:
    return Leg(
        Position3(*d["start"]), Position3(*d["end"]), d["residual_data"],
        [Position3(*p) for p in d["waypoints"]], list(d["rates"]),
        Position3(*d["turning_point"]), d["detour_slots"], d["route_slots"],
    )


def solution_to_json(sol: Solution) -> str:
    """Replayable dump: trajectories, sensing locations and the schedule."""
    doc = {
        "format": "uavsense-solution-v1",
        "t_max": sol.t_max,
        "history": sol.history,
        "uavs": [
            {
                "id": p.uav,
                "start": list(p.start),
                "task_ids": list(p.task_ids),
                "sensing_locations": [list(q) for q in p.sensing_locations],
                "legs": [_leg_to_dict(l) for l in p.legs],
                "drain": _leg_to_dict(p.drain),
            }
            for p in sol.plans
        ],
        "schedule": [sorted(g) for g in sol.outcome.grants],
    }
    return json.dumps(doc, indent=1)


def solution_from_json(text: str) -> tuple[list[UavPlan], list[frozenset[int]]]:
    doc = json.loads(text)
    if doc.get("format") != "uavsense-solution-v1":
        raise ValueError("not a uavsense solution dump")
    plans = []
    for u in doc["uavs"]:
        plans.append(UavPlan(
            u["id"], Position3(*u["start"]), list(u["task_ids"]),
            [Position3(*q) for q in u["sensing_locations"]],
            [_leg_from_dict(l) for l in u["legs"]],
            _leg_from_dict(u["drain"]),
        ))
    schedule = [frozenset(g) for g in doc["schedule"]]
    return plans, schedule


def replay(plans, schedule, scenario, record_trace: bool = True) -> SimOutcome:
    """Re-run a dumped solution under its recorded schedule.

    The schedule decides only the contended slots, where more than
    ``scenario.k`` UAVs request; the simulator grants every requester of the
    others itself.  The replay must grant exactly the schedule: a recorded
    grant to a UAV that does not request in its slot, a grant in a slot
    without requests, a recorded denial in a slot whose requesters fit in K,
    or a run longer or shorter than the schedule raises ``RuntimeError``.
    It names the first slot whose grants differ, or a contended slot past
    the schedule's end, where the replay stops rather than schedule on its
    own.
    """
    outcome = run(
        plans, ReplayScheduler(schedule, scenario.k), scenario.tasks,
        scenario.channel, scenario.kinematics, record_trace=record_trace,
    )
    want = [frozenset(g) for g in schedule]
    if outcome.grants != want:
        slot, got, wanted = next(
            (t, sorted(a or ()), sorted(b or ()))
            for t, (a, b) in enumerate(zip_longest(outcome.grants, want), 1) if a != b)
        raise RuntimeError(
            f"replay diverged: slot {slot} grants {got}, the schedule {wanted} "
            f"({len(outcome.grants)} slots replayed, {len(want)} scheduled)")
    return outcome

"""Outer iterative optimizer.

Starts from a deliberately slow but feasible plan, then cycles three
sub-solvers until the network completion time stops improving: re-plan
every leg at full speed against the grants observed in the previous run,
locally optimize the sensing locations, and let the greedy per-slot
scheduler resolve the new contention inside the simulator.  The simulator
is the single source of truth for the objective; a candidate iterate that
fails to improve it terminates the loop and the best solution seen wins.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .channel import ChannelParams, Position3
from .placement import SensingAssignment, optimize_sensing_locations
from .scheduler import GreedyScheduler, RandomScheduler, ReplayScheduler
from .sensing import SensingParams, Task, sensing_success_coop
from .simulator import SimOutcome, UavPlan, run
from .trajectory import (
    KinematicParams,
    LegCache,
    LegInfeasible,
    drain_leg,
    grant_from_mask,
    initial_leg,
    optimize_leg,
)

__all__ = [
    "ItssoConfig",
    "Solution",
    "initial_solution",
    "run_itsso",
    "solution_to_json",
    "solution_from_json",
    "replay",
]


@dataclass(frozen=True)
class ItssoConfig:
    initial_speed_ratio: float = 0.1  # v0 as a fraction of v_max
    max_iterations: int = 100
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.initial_speed_ratio <= 1.0:
            raise ValueError("initial_speed_ratio must lie in (0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class Solution:
    """Best iterate found, plus the convergence record."""

    plans: list[UavPlan]
    outcome: SimOutcome
    t_max: int
    history: list[int]  # objective of each accepted iterate (initial first)
    candidate_history: list[int]  # every simulated candidate, accepted or not
    iterations: int
    assignment: Optional[SensingAssignment] = None
    placement_passes: int = 0


class InfeasibleScenario(RuntimeError):
    """No sensing placement can meet the probability threshold."""


def _check_feasible(scenario, locations) -> None:
    sp: SensingParams = scenario.sensing
    for task in scenario.tasks.values():
        dists = []
        for m in task.workers:
            idx = scenario.routes[m].index(task.id)
            dists.append(locations[(m, idx)].dist(task.location))
        prob = sensing_success_coop(dists, sp)
        if prob < sp.pr_th:
            raise InfeasibleScenario(
                f"task {task.id}: best-case sensing probability {prob:.6f} "
                f"cannot reach the threshold {sp.pr_th} with q={len(task.workers)}"
            )


def default_initial_locations(scenario) -> dict[tuple[int, int], Position3]:
    """Every worker right above its task at the altitude floor."""
    kin: KinematicParams = scenario.kinematics
    out = {}
    for uav, route in scenario.routes.items():
        for idx, tid in enumerate(route):
            loc = scenario.tasks[tid].location
            out[(uav, idx)] = Position3(loc.x, loc.y, kin.h_min)
    return out


def _build_plans(
    scenario,
    locations: Mapping[tuple[int, int], Position3],
    masks: Mapping[int, Sequence[bool]] | None,
    speed: float | None,
    initial: bool,
    cache: LegCache | None = None,
) -> list[UavPlan]:
    cp: ChannelParams = scenario.channel
    kin: KinematicParams = scenario.kinematics
    plans = []
    for uav in sorted(scenario.routes):
        route = scenario.routes[uav]
        start = scenario.uav_starts[uav]
        grant = grant_from_mask(None if masks is None else masks.get(uav))
        legs = []
        locs = []
        prev = start
        t = 0
        for idx, tid in enumerate(route):
            loc = locations[(uav, idx)]
            residual = 0.0 if idx == 0 else scenario.tasks[route[idx - 1]].data_size
            if initial:
                leg = initial_leg(prev, loc, residual, speed, cp, kin)
            else:
                try:
                    leg = optimize_leg(prev, loc, residual, cp, kin, grant, t + 1,
                                       cache=cache)
                except LegInfeasible:
                    # the observed mask can deny long stretches that the new
                    # plan will never see; plan optimistically and let the
                    # simulator resolve the contention
                    leg = optimize_leg(prev, loc, residual, cp, kin, cache=cache)
            legs.append(leg)
            locs.append(loc)
            t += leg.slots + 1
            prev = loc
        if route:
            dr = drain_leg(prev, scenario.tasks[route[-1]].data_size, cp, kin, grant, t + 1,
                           cache=cache)
        else:
            dr = drain_leg(start, 0.0, cp, kin)
        plans.append(UavPlan(uav, start, list(route), locs, legs, dr))
    return plans


def masks_from_outcome(outcome: SimOutcome) -> dict[int, list[bool]]:
    """Per-UAV slot mask from an observed run: False only where a request
    was denied (unknown slots stay optimistic)."""
    uavs = set()
    for req in outcome.requests:
        uavs |= req
    horizon = len(outcome.requests)
    masks = {}
    for uav in uavs:
        masks[uav] = [
            not (uav in outcome.requests[t] and uav not in outcome.grants[t])
            for t in range(horizon)
        ]
    return masks


def initial_solution(
    scenario,
    cfg: ItssoConfig,
    locations: Mapping[tuple[int, int], Position3] | None = None,
    sensing_check: bool = True,
    record_trace: bool = False,
) -> Solution:
    """Feasible slow-speed starting point with a seeded random schedule."""
    locations = dict(locations) if locations is not None else default_initial_locations(scenario)
    if sensing_check:
        _check_feasible(scenario, locations)
    v0 = cfg.initial_speed_ratio * scenario.kinematics.v_max
    plans = _build_plans(scenario, locations, None, v0, initial=True)
    outcome = run(
        plans, RandomScheduler(scenario.k, cfg.rng_seed), scenario.tasks,
        scenario.channel, scenario.kinematics, record_trace=record_trace,
    )
    return Solution(
        plans=plans,
        outcome=outcome,
        t_max=outcome.t_max,
        history=[outcome.t_max],
        candidate_history=[outcome.t_max],
        iterations=0,
    )


def run_itsso(
    scenario,
    cfg: ItssoConfig | None = None,
    placement: bool = True,
    sensing_check: bool = True,
    fixed_locations: Mapping[tuple[int, int], Position3] | None = None,
    record_trace: bool = False,
) -> Solution:
    """Full optimization loop; see the module docstring.

    ``placement=False`` with ``fixed_locations`` realizes schemes that pin
    sensing locations (the locations are then never moved).  One
    ``LegCache`` serves every leg planned in this call and is dropped with it.
    """
    cfg = cfg or ItssoConfig()
    cache = LegCache(scenario.channel, scenario.kinematics)
    best = initial_solution(
        scenario, cfg, locations=fixed_locations,
        sensing_check=sensing_check, record_trace=record_trace,
    )
    history = list(best.history)
    candidates = list(best.candidate_history)
    assignment: Optional[SensingAssignment] = None
    passes = 0
    iterations = 0
    for _ in range(cfg.max_iterations):
        iterations += 1
        masks = masks_from_outcome(best.outcome)
        locations = {
            (p.uav, idx): p.sensing_locations[idx]
            for p in best.plans for idx in range(p.n_tasks)
        }
        plans = _build_plans(scenario, locations, masks, None, initial=False, cache=cache)
        cand_assignment = None
        if placement:
            cand_assignment = optimize_sensing_locations(
                plans, scenario.tasks, scenario.channel, scenario.kinematics,
                scenario.sensing, masks, cache=cache,
            )
            plans = cand_assignment.plans
            passes += cand_assignment.passes
        outcome = run(
            plans, GreedyScheduler(scenario.k), scenario.tasks,
            scenario.channel, scenario.kinematics, record_trace=record_trace,
        )
        candidates.append(outcome.t_max)
        if outcome.t_max < best.t_max:
            best = Solution(plans, outcome, outcome.t_max, [], [], 0)
            history.append(outcome.t_max)
            if cand_assignment is not None:
                assignment = cand_assignment
        else:
            break
    return Solution(
        plans=best.plans,
        outcome=best.outcome,
        t_max=best.t_max,
        history=history,
        candidate_history=candidates,
        iterations=iterations,
        assignment=assignment,
        placement_passes=passes,
    )


# ---------------------------------------------------------------------------
# solution export / replay
# ---------------------------------------------------------------------------

def _leg_to_dict(leg) -> dict:
    return {
        "start": list(leg.start),
        "end": list(leg.end),
        "residual_data": leg.residual_data,
        "waypoints": [list(p) for p in leg.waypoints],
        "rates": list(leg.rates),
        "turning_point": list(leg.turning_point),
        "detour_slots": leg.detour_slots,
        "route_slots": leg.route_slots,
    }


def _leg_from_dict(d) -> "Leg":
    from .trajectory import Leg

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
    """Re-run a dumped solution under its recorded schedule."""
    return run(
        plans, ReplayScheduler(schedule, scenario.k), scenario.tasks,
        scenario.channel, scenario.kinematics, record_trace=record_trace,
    )

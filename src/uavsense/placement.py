"""Sensing-location optimization by local search.

Optimal sensing locations lie on the line through the incoming leg's
turning point and the task (for the first task the UAV's start stands in
for the turning point), so the search moves locations along that line in
one-slot quanta.  Each pass visits every task: the worker with the largest
completion time retreats one slot toward its turning point; if the group's
sensing probability breaks, workers with slack advance toward the task one
slot at a time until it holds again, and the whole adjustment is rolled
back when they cannot.  Group completion times never increase, which makes
the pass loop converge.

Retreats are confined to a per-worker distance budget around each task:
the hemispheroid radius within which a sensing location may wander, set to
the symmetric radius at which the whole group exactly meets the threshold.
Without it the search parks all slack on one member (the probability
product barely constrains a single far member once the others cover the
task), which degenerates into sensing from wherever the UAV happens to be.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from .channel import ChannelParams, Position3
from .sensing import SensingParams, Task, required_sensing_radius, sensing_success_coop
from .simulator import UavPlan
from .trajectory import (
    GrantFn,
    KinematicParams,
    LegCache,
    LegInfeasible,
    drain_leg,
    grant_from_mask,
    optimize_leg,
)

__all__ = [
    "SensingAssignment",
    "adjust_collinear",
    "delta_bounds",
    "optimize_sensing_locations",
]

_EPS = 1e-9


@dataclass
class SensingAssignment:
    """Result of the local search: final locations, leg bounds, updated plans."""

    locations: dict[tuple[int, int], Position3]  # (uav, route index) -> location
    bounds: dict[tuple[int, int], tuple[int, int]]  # (uav, route index) -> (lb, ub)
    plans: list[UavPlan]
    passes: int
    t_max_history: list[int]  # network completion estimate after each pass


def adjust_collinear(
    current: Position3,
    turning_point: Position3,
    dt: float,
    kin: KinematicParams,
) -> Position3:
    """Slide a sensing location dt slots along its turning-point line.

    Positive dt moves away from the turning point (toward the task, longer
    leg); negative dt retreats.  The altitude never drops below the floor.
    """
    dx = current.x - turning_point.x
    dy = current.y - turning_point.y
    dz = current.z - turning_point.z
    norm = math.sqrt(dx * dx + dy * dy + dz * dz)
    if norm <= _EPS:
        raise ValueError("sensing location coincides with the turning point")
    s = dt * kin.v_max / norm
    return Position3(
        current.x + s * dx,
        current.y + s * dy,
        max(current.z + s * dz, kin.h_min),
    )


def delta_bounds(
    start: Position3,
    task: Task,
    residual: float,
    cp: ChannelParams,
    kin: KinematicParams,
    is_granted: GrantFn = None,
    first_slot: int = 0,
) -> tuple[int, int]:
    """Slot-count bounds for the leg arriving at a task's sensing location.

    Lower bound: the sensing location sits on the turning point itself, so
    the leg is the pure maximum-rate detour.  Upper bound: the sensing
    location is directly above the task at minimum altitude, the farthest
    admissible point along the line.
    """
    lb = drain_leg(start, residual, cp, kin, is_granted, first_slot).slots
    overhead = Position3(task.location.x, task.location.y, kin.h_min)
    ub = optimize_leg(start, overhead, residual, cp, kin, is_granted, first_slot).slots
    return lb, ub


class _Search:
    """Mutable state for one local-search run."""

    def __init__(self, plans, tasks, cp, kin, sp, masks, cache):
        self.cp = cp
        self.kin = kin
        self.sp = sp
        self.tasks = tasks
        self.cache: LegCache = cache or LegCache(cp, kin)
        self.grants: dict[int, GrantFn] = {
            uav: grant_from_mask(mask) for uav, mask in (masks or {}).items()}
        # Per-worker distance budget: the hemispheroid radius around a task
        # within which a worker's sensing location may wander.  The symmetric
        # radius of the group exactly meets the threshold when everyone sits
        # on it, so retreats never take a single worker beyond it.
        self.budget: dict[int, float] = {}
        for task in tasks.values():
            q = len(task.workers)
            self.budget[task.id] = required_sensing_radius(q, sp)
        self.plans: dict[int, UavPlan] = {}
        for p in plans:
            self.plans[p.uav] = UavPlan(
                p.uav, p.start, list(p.task_ids), list(p.sensing_locations),
                list(p.legs), p.drain,
            )
        self.route_index: dict[tuple[int, int], int] = {}
        for p in self.plans.values():
            for idx, tid in enumerate(p.task_ids):
                self.route_index[(p.uav, tid)] = idx
        self.t = {u: p.planned_completion() for u, p in self.plans.items()}

    # -- mask helpers ------------------------------------------------------
    def _first_slot(self, plan: UavPlan, idx: int) -> int:
        # absolute slot of the leg's first waypoint: after idx sensing slots
        # and the preceding legs
        t = 0
        for k in range(idx):
            t += plan.legs[k].slots + 1
        return t + 1

    # -- plan surgery ------------------------------------------------------
    def _replan_incoming(self, uav: int, idx: int) -> None:
        p = self.plans[uav]
        start = p.start if idx == 0 else p.sensing_locations[idx - 1]
        residual = 0.0 if idx == 0 else self.tasks[p.task_ids[idx - 1]].data_size
        try:
            p.legs[idx] = optimize_leg(
                start, p.sensing_locations[idx], residual, self.cp, self.kin,
                self.grants.get(uav), self._first_slot(p, idx), cache=self.cache,
            )
        except LegInfeasible:
            # stale observed mask; plan optimistically (see the outer loop)
            p.legs[idx] = optimize_leg(
                start, p.sensing_locations[idx], residual, self.cp, self.kin,
                cache=self.cache)

    def _replan_outgoing(self, uav: int, idx: int) -> None:
        p = self.plans[uav]
        if idx + 1 < p.n_tasks:
            self._replan_incoming(uav, idx + 1)
        else:
            residual = self.tasks[p.task_ids[idx]].data_size
            p.drain = drain_leg(
                p.sensing_locations[idx], residual, self.cp, self.kin,
                self.grants.get(uav), self._first_slot(p, idx) + p.legs[idx].slots + 1,
                cache=self.cache,
            )

    def move(self, uav: int, idx: int, loc: Position3) -> None:
        p = self.plans[uav]
        p.sensing_locations[idx] = loc
        self._replan_incoming(uav, idx)
        self._replan_outgoing(uav, idx)
        self.t[uav] = p.planned_completion()

    # -- bookkeeping -------------------------------------------------------
    def snapshot(self, uav: int):
        p = self.plans[uav]
        return (uav, list(p.sensing_locations), list(p.legs), p.drain, self.t[uav])

    def restore(self, snap) -> None:
        uav, locations, legs, drain, t = snap
        p = self.plans[uav]
        p.sensing_locations = locations
        p.legs = legs
        p.drain = drain
        self.t[uav] = t

    def coop_prob(self, task: Task) -> float:
        dists = []
        for m in task.workers:
            idx = self.route_index[(m, task.id)]
            dists.append(self.plans[m].sensing_locations[idx].dist(task.location))
        return sensing_success_coop(dists, self.sp)

    def group_max(self, task: Task) -> int:
        return max(self.t[m] for m in task.workers)

    def lower_bound(self, uav: int, idx: int) -> int:
        p = self.plans[uav]
        start = p.start if idx == 0 else p.sensing_locations[idx - 1]
        residual = 0.0 if idx == 0 else self.tasks[p.task_ids[idx - 1]].data_size
        return drain_leg(
            start, residual, self.cp, self.kin,
            self.grants.get(uav), self._first_slot(p, idx), cache=self.cache,
        ).slots

    def upper_bound(self, uav: int, idx: int, task: Task) -> int:
        p = self.plans[uav]
        start = p.start if idx == 0 else p.sensing_locations[idx - 1]
        residual = 0.0 if idx == 0 else self.tasks[p.task_ids[idx - 1]].data_size
        overhead = Position3(task.location.x, task.location.y, self.kin.h_min)
        try:
            return optimize_leg(
                start, overhead, residual, self.cp, self.kin,
                self.grants.get(uav), self._first_slot(p, idx), cache=self.cache,
            ).slots
        except LegInfeasible:
            return optimize_leg(start, overhead, residual, self.cp, self.kin,
                                cache=self.cache).slots

    # -- moves -------------------------------------------------------------
    def _shrink_location(self, uav: int, idx: int, task: Task) -> Optional[Position3]:
        """At most one slot back toward the turning point.

        The step shortens when it would overshoot the turning point or leave
        the task's distance budget: the location then lands exactly on the
        turning point or on the budget sphere.
        """
        p = self.plans[uav]
        cur = p.sensing_locations[idx]
        tr = p.legs[idx].turning_point
        gap = cur.dist(tr)
        if gap <= _EPS:
            return None
        budget = self.budget[task.id]
        step = min(self.kin.v_max, gap)
        ux, uy, uz = (tr.x - cur.x) / gap, (tr.y - cur.y) / gap, (tr.z - cur.z) / gap

        def at(s: float) -> Position3:
            return Position3(cur.x + s * ux, cur.y + s * uy,
                             max(cur.z + s * uz, self.kin.h_min))

        cand = at(step)
        if cand.dist(task.location) > budget:
            lo, hi = 0.0, step
            for _ in range(40):
                mid = 0.5 * (lo + hi)
                if at(mid).dist(task.location) <= budget:
                    lo = mid
                else:
                    hi = mid
            if lo <= 1e-6:
                return None
            cand = at(lo)
        return cand

    def _grow_location(self, uav: int, idx: int, task: Task) -> Optional[Position3]:
        """One slot along the line away from the turning point, toward the task."""
        p = self.plans[uav]
        cur = p.sensing_locations[idx]
        tr = p.legs[idx].turning_point
        if cur.dist(tr) <= _EPS:
            # degenerate line: continue straight toward the task
            d = cur.dist(task.location)
            if d <= _EPS:
                return None
            s = self.kin.v_max / d
            cand = Position3(
                cur.x + s * (task.location.x - cur.x),
                cur.y + s * (task.location.y - cur.y),
                max(cur.z + s * (task.location.z - cur.z), self.kin.h_min),
            )
        else:
            cand = adjust_collinear(cur, tr, 1.0, self.kin)
        if cand.dist(task.location) >= cur.dist(task.location) - _EPS:
            return None  # cannot get closer (already by the overhead point)
        return cand

    def adjust_task(self, task: Task) -> bool:
        """One adjustment attempt for one task; True if a change was kept."""
        workers = sorted(task.workers, key=lambda m: (-self.t[m], m))
        i = workers[0]
        idx = self.route_index[(i, task.id)]
        plan = self.plans[i]
        if plan.legs[idx].slots <= self.lower_bound(i, idx):
            return False
        new_loc = self._shrink_location(i, idx, task)
        if new_loc is None:
            return False
        t_ref = self.t[i]
        group_before = self.group_max(task)
        snaps = {i: self.snapshot(i)}
        self.move(i, idx, new_loc)

        if self.coop_prob(task) < self.sp.pr_th:
            ok = self._repair(task, t_ref, snaps)
            if not ok:
                for s in snaps.values():
                    self.restore(s)
                return False
        if self.t[i] >= t_ref or self.group_max(task) > group_before:
            for s in snaps.values():
                self.restore(s)
            return False
        return True

    def _repair(self, task: Task, t_ref: int, snaps: dict) -> bool:
        """Advance slack workers toward the task until the threshold holds."""
        while self.coop_prob(task) < self.sp.pr_th:
            members = []
            for m in task.workers:
                if self.t[m] > t_ref - 1:
                    continue
                idx_m = self.route_index[(m, task.id)]
                if self.plans[m].legs[idx_m].slots > self.upper_bound(m, idx_m, task):
                    continue
                if self._grow_location(m, idx_m, task) is None:
                    continue
                members.append(m)
            if not members:
                return False
            members.sort(key=lambda m: (self.t[m], m))
            for m in members:
                idx_m = self.route_index[(m, task.id)]
                cand = self._grow_location(m, idx_m, task)
                if cand is None:
                    continue
                if m not in snaps:
                    snaps[m] = self.snapshot(m)
                self.move(m, idx_m, cand)
                if self.coop_prob(task) >= self.sp.pr_th:
                    return True
        return True


def optimize_sensing_locations(
    plans: Sequence[UavPlan],
    tasks: Mapping[int, Task],
    cp: ChannelParams,
    kin: KinematicParams,
    sp: SensingParams,
    masks: Mapping[int, Sequence[bool]] | None = None,
    max_passes: int = 200,
    cache: LegCache | None = None,
) -> SensingAssignment:
    """Run the local search until a full pass leaves every task's group
    completion time unchanged.  The input plans are not modified.

    ``cache`` shares gradient walks and line rates with the caller's other
    plans; without one the search makes its own for the length of the call.
    """
    search = _Search(plans, tasks, cp, kin, sp, masks, cache)
    ordered_tasks = [tasks[j] for j in sorted(tasks)]
    history = [max(search.t.values(), default=0)]
    passes = 0
    for _ in range(max_passes):
        passes += 1
        before = [search.group_max(task) for task in ordered_tasks]
        for task in ordered_tasks:
            search.adjust_task(task)
        after = [search.group_max(task) for task in ordered_tasks]
        t_max = max(search.t.values(), default=0)
        if t_max > history[-1]:
            raise AssertionError("local search increased the completion time")
        history.append(t_max)
        if after == before:
            break
    locations = {}
    bounds = {}
    for p in search.plans.values():
        for idx in range(p.n_tasks):
            locations[(p.uav, idx)] = p.sensing_locations[idx]
            task = tasks[p.task_ids[idx]]
            bounds[(p.uav, idx)] = (
                search.lower_bound(p.uav, idx),
                search.upper_bound(p.uav, idx, task),
            )
    return SensingAssignment(
        locations=locations,
        bounds=bounds,
        plans=[search.plans[u] for u in sorted(search.plans)],
        passes=passes,
        t_max_history=history,
    )

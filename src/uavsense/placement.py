"""Sensing-location optimization by local search.

Optimal sensing locations lie on the line through the incoming leg's
turning point and the task (for the first task the UAV's start stands in
for the turning point), so the search moves locations along that line in
one-slot quanta.  The search has one move.  A pass attempts the tasks in
id order: the worker with the largest completion time retreats one slot
toward its turning point, and the retreat is rolled back unless the group
still meets the sensing threshold, the worker's completion time fell and
the group's did not rise.  Group completion times never increase, which
makes the pass loop converge.

Three rules skip work.  Two skip only work whose outcome is decided, so
they leave plans, passes and completion times equal to attempting every
task in every pass and planning both legs of every move.  An attempt
reads only its workers' completion times, locations for the task and
budget, and the chosen worker's plan and mask; a failed one restores all
it changed, and a kept move changes one UAV.  So a failed attempt settles its task until a kept
move of one of its workers, and passes skip settled tasks.  A move changes
the slots of the legs into and out of the moved location only, and a
planned leg has at least ``delta_lower_bound`` slots (a drain with a
payload at least one): a move that this floor for the leg out keeps from
lowering the UAV's completion time is rolled back before that leg is
planned, so a leg out that no planner can fit no longer raises there.

The third is not exact.  An attempt is skipped when its incoming leg
already has the slots of a pure drain from the leg's start
(``_Search.lower_bound``), but a retreat also moves the outgoing leg's
start, so it drops some moves the rollback rules would keep.  It trades
objective for time: without it, perfbench at seed 0 read a mean ``t_max``
of 31.76 instead of 31.80 slots on ``table`` and 52.56 instead of 52.58 on
``crowded``, with ``instance_s.p50`` 1.3-2.8% lower on ``table`` and
7.5-8.3% higher on ``crowded``.

Retreats are confined to a per-worker distance budget around each task:
the hemispheroid radius within which a sensing location may wander, set to
the symmetric radius at which the whole group exactly meets the threshold.
Without it the search parks all slack on one member (the probability
product barely constrains a single far member once the others cover the
task), which degenerates into sensing from wherever the UAV happens to be.
A retreat that would leave the budget stops where its line exits the
budget sphere, a root of a quadratic in closed form (``_retreat``).

Invariant: every member of a group stays within the radius at which the
group meets the threshold, so a retreat leaves it met up to rounding.  A
full step that lands within ``_ROOT_SLACK_M`` inside the sphere can leave
the group an ulp short; the threshold check rolls such a retreat back.  A
rule under which a retreat can break the threshold needs a move that
advances members toward the task; this module has none.

Legs are planned again in one place, ``_Replanner.replan``, against the
UAV's observed grants: a move re-plans the legs into and out of the moved
location, and ``replan_plans``, ITSSO's pass before the search, every leg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .channel import ChannelParams, Position3
from .sensing import SensingParams, Task, required_sensing_radius, sensing_success_coop
from .simulator import UavPlan
from .trajectory import (
    _ROOT_SLACK_M,
    KinematicParams,
    LegCache,
    delta_lower_bound,
    drain_leg,
    replan_leg,
)

__all__ = [
    "SensingAssignment",
    "optimize_sensing_locations",
    "replan_plans",
]

_EPS = 1e-9
_MAX_PASSES = 200  # search passes per call; a pass that changes nothing ends it sooner


@dataclass
class SensingAssignment:
    """Result of the local search: the plans with their moved locations."""

    plans: list[UavPlan]
    passes: int


def _retreat(cur: Position3, tr: Position3, center: Position3, budget: float,
             kin: KinematicParams) -> Optional[Position3]:
    """At most one slot from ``cur`` back toward the turning point ``tr``.

    The step shortens when it would overshoot the turning point or leave the
    budget sphere (radius ``budget`` around ``center``): the location then
    lands exactly on the turning point, or where the line exits the sphere,
    the root of ``|cur + s u - center| = budget`` in closed form, aimed
    ``_ROOT_SLACK_M`` inside it so that rounding cannot land outside.  Both
    ends of the retreat sit at or above the altitude floor, so the floor
    cannot bend the line inside it; the landing point is still clamped to
    it.  None when there is no move: ``cur`` on the turning point, less
    than 1e-6 m from where the line leaves the sphere, or outside a sphere
    the line misses.
    """
    gap = cur.dist(tr)
    if gap <= _EPS:
        return None
    step = min(kin.v_max, gap)
    ux, uy, uz = (tr.x - cur.x) / gap, (tr.y - cur.y) / gap, (tr.z - cur.z) / gap

    def at(s: float) -> Position3:
        return Position3(cur.x + s * ux, cur.y + s * uy, max(cur.z + s * uz, kin.h_min))

    cand = at(step)
    if cand.dist(center) > budget:
        wx, wy, wz = cur.x - center.x, cur.y - center.y, cur.z - center.z
        r = budget - _ROOT_SLACK_M
        b = wx * ux + wy * uy + wz * uz
        c = wx * wx + wy * wy + wz * wz - r * r
        disc = b * b - c
        if disc < 0.0:
            return None  # the line misses the sphere
        root = math.sqrt(disc)
        s = -c / (b + root) if b > 0.0 else root - b  # the larger root, without cancellation
        # a location already on the sphere gives a root of rounding size
        if s <= 1e-6:
            return None
        cand = at(s)
        if cand.dist(center) > budget:
            return None
    return cand


class _Replanner:
    """Copies of some plans, each UAV's observed mask and a cache: all a
    re-plan needs."""

    def __init__(self, plans, tasks, cp, kin, masks, cache):
        self.cp = cp
        self.kin = kin
        self.tasks = tasks
        self.cache: LegCache = cache or LegCache(cp, kin)
        self.masks: Mapping[int, list[bool]] = masks or {}
        self.plans: dict[int, UavPlan] = {}
        for p in plans:
            self.plans[p.uav] = UavPlan(p.uav, p.start, list(p.task_ids),
                                        list(p.sensing_locations), list(p.legs), p.drain)

    def _leg_inputs(self, p: UavPlan, idx: int) -> tuple[Position3, float]:
        """Start and payload of leg ``idx`` of ``p``; ``idx == p.n_tasks`` is the drain."""
        if idx == 0:
            return p.start, 0.0
        return p.sensing_locations[idx - 1], self.tasks[p.task_ids[idx - 1]].data_size

    def replan(self, p: UavPlan, idx: int) -> None:
        """Plan leg ``idx`` of ``p`` again, from its first slot after the
        legs before it, against the UAV's mask; ``idx == p.n_tasks`` is
        the drain."""
        start, residual = self._leg_inputs(p, idx)
        first = p.first_slot(idx)
        mask = self.masks.get(p.uav)
        if idx < len(p.legs):
            p.legs[idx] = replan_leg(start, p.sensing_locations[idx], residual, self.cp,
                                     self.kin, mask, first, self.cache)
        else:
            p.drain = drain_leg(start, residual, self.cp, self.kin, mask, first,
                                cache=self.cache)


def replan_plans(plans: Sequence[UavPlan], tasks: Mapping[int, Task], cp: ChannelParams,
                 kin: KinematicParams, masks: Mapping[int, list[bool]] | None,
                 cache: LegCache | None) -> list[UavPlan]:
    """Copies of ``plans`` with every leg, then the drain, planned again in
    route order against each UAV's mask (all slots granted without one), as
    a move re-plans the legs it touches.  The input plans are not modified."""
    replanner = _Replanner(plans, tasks, cp, kin, masks, cache)
    for p in replanner.plans.values():
        for idx in range(p.n_tasks + 1):
            replanner.replan(p, idx)
    return list(replanner.plans.values())


class _Search(_Replanner):
    """Mutable state for one local-search run."""

    def __init__(self, plans, tasks, cp, kin, sp, masks, cache):
        super().__init__(plans, tasks, cp, kin, masks, cache)
        self.sp = sp
        # Per-worker distance budget: the hemispheroid radius around a task
        # within which a worker's sensing location may wander.  The symmetric
        # radius of the group exactly meets the threshold when everyone sits
        # on it, so retreats never take a single worker beyond it.
        self.budget: dict[int, float] = {
            task.id: required_sensing_radius(len(task.workers), sp) for task in tasks.values()}
        self.route_index: dict[tuple[int, int], int] = {}
        for p in self.plans.values():
            for idx, tid in enumerate(p.task_ids):
                self.route_index[(p.uav, tid)] = idx
        self.t = {u: p.planned_completion() for u, p in self.plans.items()}
        # tasks whose last attempt failed, none of whose workers moved since
        self.settled: set[int] = set()

    def move(self, uav: int, idx: int, loc: Position3) -> bool:
        """Move location ``idx`` of ``uav`` to ``loc`` and plan legs ``idx``
        and ``idx + 1`` again.  False, with leg ``idx + 1`` not planned and
        the caller to restore, when the floor of that leg's slots already
        keeps ``t`` from falling."""
        p = self.plans[uav]
        last = idx + 1 == p.n_tasks
        old = p.legs[idx].slots + (p.drain if last else p.legs[idx + 1]).slots
        p.sensing_locations[idx] = loc
        self.replan(p, idx)
        floor = (int(self.tasks[p.task_ids[idx]].data_size > 0) if last
                 else delta_lower_bound(loc, p.sensing_locations[idx + 1], self.kin))
        if p.legs[idx].slots + floor >= old:
            return False
        self.replan(p, idx + 1)
        self.t[uav] = p.planned_completion()
        return True

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
        return max(map(self.t.__getitem__, task.workers))

    def lower_bound(self, uav: int, idx: int) -> int:
        """Slots of leg ``idx`` with its sensing location on the turning
        point: the pure maximum-rate detour."""
        p = self.plans[uav]
        start, residual = self._leg_inputs(p, idx)
        return drain_leg(start, residual, self.cp, self.kin, self.masks.get(uav),
                         p.first_slot(idx), cache=self.cache).slots

    def adjust_task(self, task: Task) -> bool:
        """One adjustment attempt for one task; True if a change was kept.
        A failed attempt settles the task, a kept one unsettles every task
        of the moved worker."""
        self.settled.add(task.id)
        i = min(task.workers, key=lambda m: (-self.t[m], m))
        idx = self.route_index[(i, task.id)]
        plan = self.plans[i]
        if plan.legs[idx].slots <= self.lower_bound(i, idx):
            return False
        new_loc = _retreat(plan.sensing_locations[idx], plan.legs[idx].turning_point,
                           task.location, self.budget[task.id], self.kin)
        if new_loc is None:
            return False
        t_ref = self.t[i]
        group_before = self.group_max(task)
        snap = self.snapshot(i)
        # the budget keeps the threshold met up to rounding (module docstring)
        if (not self.move(i, idx, new_loc) or self.coop_prob(task) < self.sp.pr_th
                or self.t[i] >= t_ref or self.group_max(task) > group_before):
            self.restore(snap)
            return False
        self.settled.difference_update(plan.task_ids)
        return True


def optimize_sensing_locations(
    plans: Sequence[UavPlan],
    tasks: Mapping[int, Task],
    cp: ChannelParams,
    kin: KinematicParams,
    sp: SensingParams,
    masks: Mapping[int, list[bool]] | None = None,
    cache: LegCache | None = None,
) -> SensingAssignment:
    """Run the local search until a pass leaves every task's group
    completion time unchanged; a pass skips the settled tasks (module
    docstring).  The input plans are not modified.

    ``cache`` shares gradient walks and line rates with the caller's other
    plans; without one the search makes its own for the length of the call.
    """
    search = _Search(plans, tasks, cp, kin, sp, masks, cache)
    ordered_tasks = [tasks[j] for j in sorted(tasks)]
    after = [search.group_max(task) for task in ordered_tasks]
    for passes in range(1, _MAX_PASSES + 1):
        t_max = max(search.t.values(), default=0)
        before = after
        for task in ordered_tasks:
            if task.id not in search.settled:
                search.adjust_task(task)
        after = [search.group_max(task) for task in ordered_tasks]
        if max(search.t.values(), default=0) > t_max:
            raise AssertionError("local search increased the completion time")
        if after == before:
            break
    return SensingAssignment(plans=[search.plans[u] for u in sorted(search.plans)],
                             passes=passes)

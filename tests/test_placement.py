"""Local-search placement tests: retreats, the budget, bounds, convergence, oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uavsense.bench import ScenarioConfig, generate_scenario
from uavsense.channel import ChannelParams, Position3
from uavsense.itsso import (
    ItssoConfig,
    _build_plans,
    masks_from_outcome,
    overhead_locations,
    run_itsso,
)
from uavsense.placement import (
    _retreat,
    _Search,
    optimize_sensing_locations,
    replan_plans,
)
from uavsense.scheduler import GreedyScheduler
from uavsense.sensing import (
    SensingParams,
    Task,
    required_sensing_radius,
    sensing_success_coop,
    sensing_success_single,
)
from uavsense.simulator import UavPlan, run
from uavsense.trajectory import (
    _ROOT_SLACK_M,
    KinematicParams,
    LegCache,
    drain_leg,
    optimize_leg,
    replan_leg,
)

CP = ChannelParams()
KIN = KinematicParams()
SP = SensingParams()


def bisection_retreat(cur, tr, center, budget, kin):
    """Reference retreat: at most one slot toward ``tr``, cut short where a
    40-step bisection finds the line leaving the budget sphere."""
    gap = cur.dist(tr)
    if gap <= 1e-9:
        return None
    step = min(kin.v_max, gap)
    ux, uy, uz = (tr.x - cur.x) / gap, (tr.y - cur.y) / gap, (tr.z - cur.z) / gap

    def at(s):
        return Position3(cur.x + s * ux, cur.y + s * uy, max(cur.z + s * uz, kin.h_min))

    cand = at(step)
    if cand.dist(center) > budget:
        lo, hi = 0.0, step
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if at(mid).dist(center) <= budget:
                lo = mid
            else:
                hi = mid
        if lo <= 1e-6:
            return None
        cand = at(lo)
    return cand


_unit = st.tuples(*[st.floats(-1, 1)] * 3).filter(lambda v: math.hypot(*v) > 1e-3)


@st.composite
def _retreat_case(draw):
    """A location inside the budget sphere around a ground task, above the
    floor, and a turning point above the floor up to four slots away."""
    center = Position3(draw(st.floats(-500, 500)), draw(st.floats(-500, 500)), 0.0)
    budget = draw(st.floats(15, 150))
    v = draw(_unit)
    f = budget * draw(st.floats(0, 1)) / math.hypot(*v)
    cur = Position3(center.x + f * v[0], center.y + f * v[1], abs(f * v[2]))
    assume(cur.z >= KIN.h_min)
    w = draw(_unit)
    g = draw(st.floats(1, 200)) / math.hypot(*w)
    tr = Position3(cur.x + g * w[0], cur.y + g * w[1], max(cur.z + g * w[2], KIN.h_min))
    return cur, tr, center, budget


class TestRetreat:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=_retreat_case())
    def test_lands_on_the_budget_sphere_and_never_outside(self, case):
        cur, tr, center, budget = case
        got = _retreat(cur, tr, center, budget, KIN)
        full = min(KIN.v_max, cur.dist(tr))
        u = np.subtract(tr, cur) / cur.dist(tr)
        if got is None:
            return
        assert got.dist(center) <= budget
        assert got.z >= KIN.h_min
        assert cur.dist(got) <= full + 1e-9
        assert np.linalg.norm(np.cross(np.subtract(got, cur), u)) < 1e-9  # on the line
        if cur.dist(got) < full - 1e-6:  # cut short: on the sphere
            assert budget - got.dist(center) <= 1e-9

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(case=_retreat_case())
    def test_agrees_with_the_bisection(self, case):
        # both land within 1e-9 m of the sphere, the closed form 1e-10 m
        # inside it and the bisection within its 2**-40 step; their points
        # agree to 1e-9 m unless the line grazes the sphere, where the
        # exit is ill-conditioned for both
        cur, tr, center, budget = case
        got = _retreat(cur, tr, center, budget, KIN)
        ref = bisection_retreat(cur, tr, center, budget, KIN)
        assert (got is None) == (ref is None)
        if got is None:
            return
        assert abs(got.dist(center) - ref.dist(center)) <= 1e-9
        radial = np.subtract(got, center) / got.dist(center)
        if abs(np.dot(radial, np.subtract(tr, cur) / cur.dist(tr))) >= 0.2:
            assert got.dist(ref) <= 1e-9

    def test_a_location_on_its_turning_point_does_not_move(self):
        cur = Position3(200.0, 0.0, 40.0)
        assert _retreat(cur, cur, Position3(200.0, 0.0, 0.0), 50.0, KIN) is None

    def test_a_location_outside_a_sphere_its_line_misses_does_not_move(self):
        cur, tr = Position3(200.0, 0.0, 40.0), Position3(400.0, 0.0, 40.0)
        assert _retreat(cur, tr, Position3(0.0, 300.0, 0.0), 10.0, KIN) is None

    @pytest.mark.parametrize("budget", [15.0, 47.3, 123.456789])
    def test_a_location_on_the_sphere_does_not_move(self, budget):
        # a retreat outward from the sphere's surface has a root of rounding
        # size, which is no move
        center = Position3(120.0, -340.0, 0.0)
        rng = np.random.default_rng(int(budget))
        for _ in range(200):
            v = rng.normal(size=3)
            v[2] = abs(v[2]) + 0.2
            v /= np.linalg.norm(v)
            cur = Position3(*(np.asarray(center) + budget * v))
            if cur.z < KIN.h_min:
                continue
            tr = Position3(*(np.asarray(cur) + rng.uniform(5, 100) * v))
            assert _retreat(cur, tr, center, budget, KIN) is None


class TestBudget:
    """The budget is what keeps a group at its threshold: a retreat beyond
    it is rolled back, and members within it always meet the threshold."""

    def test_a_retreat_that_breaks_the_threshold_is_rolled_back(self):
        # q = 1: without the 10.54 m budget each task's retreat lands a slot
        # out, 51-57 m from the task, and would save its worker a slot
        sc = generate_scenario(ScenarioConfig(m=4, n=4, q=1, k=4, seed=9))
        slow = _build_plans(sc, overhead_locations(sc, sc.kinematics.h_min))
        plans = replan_plans(slow, sc.tasks, CP, KIN, None, None)
        search = _Search(plans, sc.tasks, CP, KIN, SP, None, None)
        for tid, task in sorted(sc.tasks.items()):
            search.budget[tid] = math.inf
            (uav,) = task.workers
            idx = search.route_index[(uav, tid)]
            p = search.plans[uav]
            before = (list(p.sensing_locations), list(p.legs), p.drain, search.t[uav])
            loc = _retreat(p.sensing_locations[idx], p.legs[idx].turning_point,
                           task.location, math.inf, KIN)
            assert 51 < loc.dist(task.location) < 57
            assert loc.dist(task.location) > required_sensing_radius(1, SP)
            snap = search.snapshot(uav)
            search.move(uav, idx, loc)
            assert search.t[uav] == before[3] - 1
            assert search.coop_prob(task) < SP.pr_th
            search.restore(snap)
            assert search.adjust_task(task) is False
            assert (p.sensing_locations, p.legs, p.drain, search.t[uav]) == before

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(q=st.integers(1, 16), pr_th=st.floats(0.01, 0.999999, exclude_min=True,
                                                   exclude_max=True),
           lam=st.floats(0.001, 0.1), data=st.data())
    def test_members_within_the_budget_meet_the_threshold(self, q, pr_th, lam, data):
        # a retreat cut short lands _ROOT_SLACK_M inside the sphere
        sp = SensingParams(lam, pr_th)
        reach = required_sensing_radius(q, sp) - _ROOT_SLACK_M
        edge = st.just(1.0) | st.floats(0, 1)  # on the sphere, or inside it
        fractions = data.draw(st.lists(edge, min_size=q, max_size=q))
        assert sensing_success_coop([f * reach for f in fractions], sp) >= pr_th


class TestDeltaBounds:
    """Slot-count bounds of the leg arriving at a task's sensing location, as
    placement's local search takes them: the pure maximum-rate detour
    (``drain_leg``, the location on its turning point) below, the leg to the
    point right above the task at the floor (``optimize_leg``) above."""

    def test_lower_bound_is_detour_only(self):
        start = Position3(200, 100, 40)
        lower = drain_leg(start, 20e6, CP, KIN)
        assert lower.route_slots == 0 and lower.detour_slots == lower.slots
        assert lower.turning_point == lower.end
        # a sensing location on the turning point makes the leg that detour
        assert optimize_leg(start, lower.end, 20e6, CP, KIN).slots == lower.slots
        upper = optimize_leg(start, Position3(350, 250, KIN.h_min), 20e6, CP, KIN)
        assert lower.slots <= upper.slots

    def test_initial_legs_sit_inside_bounds(self):
        # legs re-planned at full speed from overhead locations equal the
        # upper bound by construction and all bounds are ordered
        rng = np.random.default_rng(5)
        for seed in range(20):
            sc = generate_scenario(ScenarioConfig(m=4, n=4, q=2, k=4, seed=seed))
            for uav, route in sc.routes.items():
                start = sc.uav_starts[uav]
                prev = start
                for idx, tid in enumerate(route):
                    task = sc.tasks[tid]
                    residual = 0.0 if idx == 0 else sc.tasks[route[idx - 1]].data_size
                    loc = Position3(task.location.x, task.location.y, KIN.h_min)
                    leg = optimize_leg(prev, loc, residual, CP, KIN)
                    lb = drain_leg(prev, residual, CP, KIN).slots
                    ub = optimize_leg(prev, loc, residual, CP, KIN).slots
                    assert lb <= leg.slots <= ub
                    prev = loc

    def test_moving_toward_turning_point_never_longer(self):
        start = Position3(50, 50, 60)
        task_loc = Position3(400, 300, 0)
        overhead = Position3(task_loc.x, task_loc.y, KIN.h_min)
        prev_slots = None
        for f in (0.0, 0.2, 0.4, 0.6, 0.8):
            # slide the leg end from the overhead point toward the start
            end = Position3(
                overhead.x + f * (start.x - overhead.x),
                overhead.y + f * (start.y - overhead.y),
                max(overhead.z + f * (start.z - overhead.z), KIN.h_min),
            )
            slots = optimize_leg(start, end, 20e6, CP, KIN).slots
            if prev_slots is not None:
                assert slots <= prev_slots
            prev_slots = slots


class TestReplanPlans:
    """``replan_plans`` re-plans every leg and drain the way a direct call
    of the leg planners at the leg's own first slot does."""

    @staticmethod
    def _plans_and_masks():
        # a crowded ITSSO solution and the grants of its own run, as the
        # next iteration would re-plan it; one UAV with an empty route is
        # added, masked as well
        sc = generate_scenario(ScenarioConfig(m=10, n=10, k=2, seed=31))
        sol = run_itsso(sc, ItssoConfig(rng_seed=31))
        masks = masks_from_outcome(sol.outcome)
        idle = max(sc.routes) + 1
        start = Position3(120, 80, 30)
        masks[idle] = [False, True] * 20
        plans = sol.plans + [UavPlan(idle, start, [], [], [], drain_leg(start, 0.0, CP, KIN))]
        return sc, plans, masks

    def test_input_plans_are_not_modified(self):
        sc, plans, masks = self._plans_and_masks()
        before = [(p.uav, list(p.task_ids), list(p.sensing_locations), list(p.legs), p.drain)
                  for p in plans]
        out = replan_plans(plans, sc.tasks, CP, KIN, masks, LegCache(CP, KIN))
        assert [(p.uav, p.task_ids, p.sensing_locations, p.legs, p.drain)
                for p in plans] == before
        for p, q in zip(plans, out):
            assert q is not p and q.legs is not p.legs
            assert q.sensing_locations is not p.sensing_locations

    @pytest.mark.parametrize("masked", [True, False], ids=["mask", "no-mask"])
    def test_every_leg_equals_a_direct_planner_call(self, masked):
        sc, plans, masks = self._plans_and_masks()
        if not masked:
            masks = None
        out = replan_plans(plans, sc.tasks, CP, KIN, masks, LegCache(CP, KIN))
        assert [q.uav for q in out] == [p.uav for p in plans]
        for p, q in zip(plans, out):
            assert (q.start, q.task_ids, q.sensing_locations) == (
                p.start, p.task_ids, p.sensing_locations)
            grant = masks.get(q.uav) if masks else None
            prev, residual = q.start, 0.0
            for idx, (tid, loc) in enumerate(zip(q.task_ids, q.sensing_locations)):
                first = q.first_slot(idx)
                assert q.legs[idx] == replan_leg(prev, loc, residual, CP, KIN, grant, first)
                prev, residual = loc, sc.tasks[tid].data_size
            first = q.first_slot(q.n_tasks)
            assert q.drain == drain_leg(prev, residual, CP, KIN, grant, first)

    def test_masks_change_the_plans(self):
        # the mask is read: some leg differs from the one planned unmasked
        sc, plans, masks = self._plans_and_masks()
        masked = replan_plans(plans, sc.tasks, CP, KIN, masks, None)
        free = replan_plans(plans, sc.tasks, CP, KIN, None, None)
        assert any(a.legs != b.legs or a.drain != b.drain for a, b in zip(masked, free))


def _single_task_plans(starts, locations, task):
    plans = []
    for uav, (start, loc) in enumerate(zip(starts, locations)):
        leg = optimize_leg(start, loc, 0.0, CP, KIN)
        drain = drain_leg(loc, task.data_size, CP, KIN)
        plans.append(UavPlan(uav, start, [task.id], [loc], [leg], drain))
    return plans


class TestLocalSearch:
    def test_nc_keeps_threshold_satisfied(self):
        # q = 1: any retreat that breaks the bound rolls back, so final
        # distances stay at or inside the single-UAV radius
        sc = generate_scenario(ScenarioConfig(m=4, n=4, q=1, k=4, seed=9))
        sol = run_itsso(sc, ItssoConfig(rng_seed=1), record_trace=False)
        d_max = required_sensing_radius(1, SP)
        for p in sol.plans:
            for idx, tid in enumerate(p.task_ids):
                d = p.sensing_locations[idx].dist(sc.tasks[tid].location)
                assert sensing_success_single(d, SP) >= SP.pr_th - 1e-9
                assert d <= d_max + 1e-6

    def test_all_at_lower_bound_unchanged(self):
        # every worker already sensing from its start: nothing to shrink
        task = Task(0, Position3(100, 100, 0), 20e6, (0, 1))
        starts = [Position3(100, 100, 12), Position3(105, 100, 14)]
        plans = _single_task_plans(starts, starts, task)
        out = optimize_sensing_locations(plans, {0: task}, CP, KIN, SP)
        for p, q in zip(plans, out.plans):
            assert p.sensing_locations == q.sensing_locations
        assert out.passes <= 2

    def test_group_threshold_holds_after_search(self):
        rng = np.random.default_rng(11)
        for seed in range(10):
            sc = generate_scenario(ScenarioConfig(seed=seed))
            sol = run_itsso(sc, ItssoConfig(rng_seed=seed), record_trace=False)
            for task in sc.tasks.values():
                dists = []
                for p in sol.plans:
                    if task.id in p.task_ids:
                        idx = p.task_ids.index(task.id)
                        dists.append(p.sensing_locations[idx].dist(task.location))
                assert len(dists) == len(task.workers)
                assert sensing_success_coop(dists, SP) >= SP.pr_th - 1e-9

    def test_altitude_floor_everywhere(self):
        sc = generate_scenario(ScenarioConfig(seed=17))
        sol = run_itsso(sc, ItssoConfig(rng_seed=17), record_trace=False)
        for p in sol.plans:
            for loc in p.sensing_locations:
                assert loc.z >= KIN.h_min - 1e-9

    def test_pass_history_monotone(self):
        sc = generate_scenario(ScenarioConfig(seed=23))
        slow = _build_plans(sc, overhead_locations(sc, sc.kinematics.h_min))
        plans = replan_plans(slow, sc.tasks, CP, KIN, None, None)
        # a pass that raised the network's planned completion would raise
        # AssertionError inside the search
        out = optimize_sensing_locations(plans, sc.tasks, CP, KIN, SP)
        assert out.passes >= 1
        assert (max(p.planned_completion() for p in out.plans)
                <= max(p.planned_completion() for p in plans))

    def test_two_uav_single_task_matches_brute_force(self):
        # exhaustive search over collinear location pairs at slot resolution
        rng = np.random.default_rng(41)
        sp2 = SensingParams(0.01, 0.9)
        budget = required_sensing_radius(2, sp2)
        for trial in range(5):
            task = Task(0, Position3(rng.uniform(150, 350), rng.uniform(150, 350), 0),
                        20e6, (0, 1))
            starts = [
                Position3(rng.uniform(0, 500), rng.uniform(0, 500), rng.uniform(20, 90))
                for _ in range(2)
            ]

            def candidates(start):
                overhead = Position3(task.location.x, task.location.y, KIN.h_min)
                pts = [overhead]
                # march from the overhead point toward the start, one slot at
                # a time, keeping the altitude floor and the distance budget
                direction = np.array([start.x - overhead.x, start.y - overhead.y,
                                      start.z - overhead.z])
                norm = np.linalg.norm(direction)
                if norm > 1e-9:
                    direction = direction / norm
                    for steps in range(1, 12):
                        for frac in (0.25, 0.5, 0.75, 1.0):
                            s = (steps - 1 + frac) * KIN.v_max
                            p = Position3(
                                overhead.x + s * direction[0],
                                overhead.y + s * direction[1],
                                max(overhead.z + s * direction[2], KIN.h_min),
                            )
                            if p.dist(task.location) <= budget:
                                pts.append(p)
                return pts

            def t_max_for(locs):
                plans = _single_task_plans(starts, locs, task)
                out = run(plans, GreedyScheduler(2), {0: task}, CP, KIN,
                          record_trace=False)
                return out.t_max

            best = None
            for pair in itertools.product(candidates(starts[0]), candidates(starts[1])):
                d = [p.dist(task.location) for p in pair]
                if sensing_success_coop(d, sp2) < sp2.pr_th:
                    continue
                t = t_max_for(list(pair))
                best = t if best is None else min(best, t)

            plans = _single_task_plans(
                starts, [Position3(task.location.x, task.location.y, KIN.h_min)] * 2,
                task)
            searched = optimize_sensing_locations(plans, {0: task}, CP, KIN, sp2)
            got = t_max_for([p.sensing_locations[0] for p in searched.plans])
            assert got <= best + 1, (got, best)

"""Local-search placement tests: retreats, the budget, bounds, the skipped
work, convergence, oracle."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uavsense import itsso
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
    _MAX_PASSES,
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
)
from uavsense.simulator import UavPlan, run
from uavsense.trajectory import (
    _ROOT_SLACK_M,
    KinematicParams,
    LegCache,
    LegInfeasible,
    delta_lower_bound,
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


_coord = st.floats(-400, 400)
_point = st.builds(Position3, _coord, _coord, st.floats(10, 120))
_offset = st.builds(Position3, st.floats(-150, 150), st.floats(-150, 150), st.floats(-60, 60))
# three denied slots to one granted, as in crowded runs, or no mask
_mask = st.none() | st.lists(st.sampled_from([False, False, False, True]), max_size=60)


class TestSlotFloor:
    """Every leg a move plans has at least ``delta_lower_bound`` slots, and a
    drain with a payload at least one: the floor by which ``_Search.move``
    rules a move out before it plans the move's second leg."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(start=_point, offset=_offset, residual=st.just(0.0) | st.floats(0, 120e6),
           mask=_mask, first_slot=st.integers(1, 40))
    def test_planned_legs_keep_the_floor(self, start, offset, residual, mask, first_slot):
        end = Position3(start.x + offset.x, start.y + offset.y, max(10.0, start.z + offset.z))
        floor = delta_lower_bound(start, end, KIN)
        try:
            assert optimize_leg(start, end, residual, CP, KIN, mask, first_slot).slots >= floor
        except LegInfeasible:
            pass  # replan_leg then plans it as if every slot were granted
        assert replan_leg(start, end, residual, CP, KIN, mask, first_slot).slots >= floor
        drain = drain_leg(start, residual, CP, KIN, mask, first_slot)
        assert drain.slots >= (1 if residual > 0 else 0)

    def test_a_move_the_floor_rules_out_plans_one_leg_and_is_rolled_back(self, monkeypatch):
        sc = generate_scenario(ScenarioConfig(seed=20))
        slow = _build_plans(sc, overhead_locations(sc, sc.kinematics.h_min))
        plans = replan_plans(slow, sc.tasks, CP, KIN, None, None)
        search = _Search(plans, sc.tasks, CP, KIN, SP, None, None)
        calls = []
        replan = _Search.replan
        monkeypatch.setattr(_Search, "replan",
                            lambda self, p, idx: calls.append(idx) or replan(self, p, idx))
        for task in (sc.tasks[tid] for tid in sorted(sc.tasks)):
            i = min(task.workers, key=lambda m: (-search.t[m], m))
            snaps = {m: search.snapshot(m) for m in task.workers}
            calls.clear()
            kept = search.adjust_task(task)
            if not kept and len(calls) == 1:
                break
        else:
            pytest.fail("no attempt was ruled out by the floor")
        assert all(search.snapshot(m) == snap for m, snap in snaps.items())
        assert task.id in search.settled
        # planning the second leg as well would have rolled the move back too
        idx = search.route_index[(i, task.id)]
        p = search.plans[i]
        p.sensing_locations[idx] = _retreat(p.sensing_locations[idx],
                                            p.legs[idx].turning_point, task.location,
                                            search.budget[task.id], KIN)
        search.replan(p, idx)
        search.replan(p, idx + 1)
        assert p.planned_completion() >= snaps[i][4]


def _parent_search(plans, tasks, sp, masks):
    """The search without settled tasks or the slot floor, as a reference:
    every pass attempts every task and every move plans both its legs.
    Returns the search, its passes and its attempts."""
    search = _Search(plans, tasks, CP, KIN, sp, masks, LegCache(CP, KIN))
    attempts = 0

    def group_max(task):
        return max(search.t[m] for m in task.workers)

    def adjust_task(task):
        nonlocal attempts
        attempts += 1
        i = min(task.workers, key=lambda m: (-search.t[m], m))
        idx = search.route_index[(i, task.id)]
        plan = search.plans[i]
        if plan.legs[idx].slots <= search.lower_bound(i, idx):
            return
        new_loc = _retreat(plan.sensing_locations[idx], plan.legs[idx].turning_point,
                           task.location, search.budget[task.id], KIN)
        if new_loc is None:
            return
        t_ref, group_before = search.t[i], group_max(task)
        snap = search.snapshot(i)
        plan.sensing_locations[idx] = new_loc
        search.replan(plan, idx)
        search.replan(plan, idx + 1)
        search.t[i] = plan.planned_completion()
        if (search.coop_prob(task) < sp.pr_th or search.t[i] >= t_ref
                or group_max(task) > group_before):
            search.restore(snap)

    ordered = [tasks[j] for j in sorted(tasks)]
    for passes in range(1, _MAX_PASSES + 1):
        before = [group_max(task) for task in ordered]
        for task in ordered:
            adjust_task(task)
        if [group_max(task) for task in ordered] == before:
            break
    return search, passes, attempts


class TestSkippedWork:
    def test_the_search_equals_the_parent_loop_with_fewer_attempts(self, monkeypatch):
        # every search of ITSSO runs on table (K=10), crowded (M=N=10, K=2),
        # q=1 and q=8, each from replan_plans' output under the previous
        # run's masks, is also run by the reference loop
        attempts = {"new": 0, "parent": 0}
        searches = []
        adjust, search_fn = _Search.adjust_task, itsso.optimize_sensing_locations

        def counted(self, task):
            attempts["new"] += 1
            return adjust(self, task)

        def compared(plans, tasks, cp, kin, sp, masks, cache):
            out = search_fn(plans, tasks, cp, kin, sp, masks, cache)
            ref, passes, made = _parent_search(plans, tasks, sp, masks)
            attempts["parent"] += made
            assert out.passes == passes
            for p in out.plans:
                q = ref.plans[p.uav]
                assert p.sensing_locations == q.sensing_locations
                assert p.legs == q.legs and p.drain == q.drain
                assert p.planned_completion() == ref.t[p.uav]
            searches.append(out.passes)
            return out

        monkeypatch.setattr(_Search, "adjust_task", counted)
        monkeypatch.setattr(itsso, "optimize_sensing_locations", compared)
        families = [ScenarioConfig(), ScenarioConfig(m=10, n=10, k=2),
                    ScenarioConfig(m=5, n=20, q=1), ScenarioConfig(m=40, q=8)]
        for cfg in families:
            for seed in (3, 4, 5, 6):
                sc = generate_scenario(replace(cfg, seed=seed))
                run_itsso(sc, ItssoConfig(rng_seed=seed), record_trace=False)
        assert len(searches) >= 40
        assert attempts["new"] < attempts["parent"]


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
                assert sensing_success_coop([d], SP) >= SP.pr_th - 1e-9
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

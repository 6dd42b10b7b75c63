"""Outer-loop tests: initialization, convergence, termination, export."""

import gc
import json
import re
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsense.bench import (
    _ITSSO_SEED_OFFSET,
    ScenarioConfig,
    audit_solution,
    generate_scenario,
    nc_config,
    run_scheme,
)
from uavsense.channel import ChannelDomainError, ChannelParams, Position3, rate_at
from uavsense.itsso import (
    InfeasibleScenario,
    ItssoConfig,
    _check_feasible,
    initial_solution,
    masks_from_outcome,
    overhead_locations,
    rate_max_locations,
    replay,
    run_itsso,
    solution_from_json,
    solution_to_json,
)
from uavsense.placement import replan_plans
from uavsense.scheduler import GreedyScheduler, RandomScheduler, ReplayScheduler
from uavsense.sensing import SensingParams, required_sensing_radius, sensing_success_coop
from uavsense.simulator import run
from uavsense.trajectory import _ROOT_SLACK_M, KinematicParams, LegCache, drain_leg


class TestInitialSolution:
    def test_default_locations_meet_threshold(self):
        sc = generate_scenario(ScenarioConfig(seed=1))
        # every worker right above the task at the floor: for q=4 the group
        # probability is 1-(1-e^{-0.1})^4, far above 0.9
        locs = overhead_locations(sc, sc.kinematics.h_min)
        h = sc.kinematics.h_min
        prob = sensing_success_coop([h] * 4, sc.sensing)
        assert prob == pytest.approx(0.9999179903671793, rel=1e-12)
        for task in sc.tasks.values():
            dists = []
            for uav in task.workers:
                idx = sc.routes[uav].index(task.id)
                dists.append(locs[(uav, idx)].dist(task.location))
            assert sensing_success_coop(dists, sc.sensing) >= sc.sensing.pr_th
        _check_feasible(sc)  # the same best case, read from the scenario

    def test_infeasible_scenario_raises(self):
        cfg = ScenarioConfig(m=4, n=4, q=1, k=4, seed=2,
                             sensing=SensingParams(0.01, 1 - 1e-6))
        sc = generate_scenario(cfg)
        with pytest.raises(InfeasibleScenario):
            initial_solution(sc, ItssoConfig(rng_seed=0))

    def test_identical_seed_identical_schedule(self):
        sc = generate_scenario(ScenarioConfig(seed=4))
        a = initial_solution(sc, ItssoConfig(rng_seed=11))
        b = initial_solution(sc, ItssoConfig(rng_seed=11))
        assert a.outcome.grants == b.outcome.grants
        assert a.t_max == b.t_max

    def test_initial_legs_are_rated_only_where_they_send(self, monkeypatch):
        # a slow initial leg rates the points up to where its all-granted
        # upload fits, and the simulator those it sums in granted slots; the
        # drain legs' gradient walks and the start's altitude grid are
        # counted apart
        import sys

        import uavsense.channel as channel
        import uavsense.itsso as itsso

        real_rate_at = channel.rate_at
        calls = {"legs": 0, "drain": 0, "start": 0}
        where = ["legs"]

        def counted(*args):
            calls[where[0]] += 1
            return real_rate_at(*args)

        def counted_apart(key, fn):
            def wrapped(*args, **kwargs):
                where[0] = key
                try:
                    return fn(*args, **kwargs)
                finally:
                    where[0] = "legs"
            return wrapped

        for name, module in list(sys.modules.items()):
            if (name.startswith("uavsense.") and module is not channel
                    and getattr(module, "rate_at", None) is real_rate_at):
                monkeypatch.setattr(module, "rate_at", counted)
        monkeypatch.setattr(itsso, "drain_leg", counted_apart("drain", drain_leg))
        monkeypatch.setattr(itsso, "rate_max_locations",
                            counted_apart("start", itsso.rate_max_locations))
        sc = generate_scenario(ScenarioConfig(seed=0))
        sol = initial_solution(sc, ItssoConfig(rng_seed=_ITSSO_SEED_OFFSET))
        granted = sum(len(g) for g in sol.outcome.grants)
        legs = sum(p.n_tasks for p in sol.plans)
        waypoints = sum(leg.slots for p in sol.plans for leg in p.legs)
        assert calls["drain"] > 0
        # the start rates only the rows its pathloss screen leaves undecided,
        # and on this seed it decides every row
        assert calls["start"] == 0
        assert calls["legs"] <= granted + 2 * legs
        assert waypoints > 4 * (granted + 2 * legs)  # rating them all would fail


class TestRateMaxStart:
    """Outside FSL every worker starts right above its task at the altitude
    of the task's largest rate, on a 41-point grid from h_min to just inside
    the group's symmetric radius."""

    CONFIGS = [
        ScenarioConfig(seed=7_180_100),
        ScenarioConfig(m=10, n=10, k=2, seed=7_180_101),
        ScenarioConfig(m=8, n=8, q=2, seed=7_180_102),
        ScenarioConfig(m=5, n=5, q=1, seed=7_180_103, sensing=SensingParams(0.01, 0.5)),
    ]

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["table", "crowded", "q2", "q1"])
    def test_overhead_below_the_radius_and_feasible(self, cfg):
        sc = generate_scenario(cfg)
        h_min = sc.kinematics.h_min
        locs = rate_max_locations(sc)
        assert locs.keys() == overhead_locations(sc, h_min).keys()
        for (uav, idx), loc in locs.items():
            task = sc.tasks[sc.routes[uav][idx]]
            radius = required_sensing_radius(len(task.workers), sc.sensing)
            assert (loc.x, loc.y) == (task.location.x, task.location.y)
            assert h_min <= loc.z < radius
        for task in sc.tasks.values():
            dists = [locs[(uav, sc.routes[uav].index(task.id))].dist(task.location)
                     for uav in task.workers]
            assert sensing_success_coop(dists, sc.sensing) >= sc.sensing.pr_th
        assert any(loc.z > h_min for loc in locs.values())

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["table", "crowded", "q2", "q1"])
    def test_each_altitude_is_the_grid_argmax(self, cfg):
        sc = generate_scenario(cfg)
        h_min = sc.kinematics.h_min
        locs = rate_max_locations(sc)
        for task in sc.tasks.values():
            radius = required_sensing_radius(len(task.workers), sc.sensing)
            grid = np.linspace(h_min, radius - _ROOT_SLACK_M, 41)
            x, y = task.location.x, task.location.y
            rates = [rate_at(x, y, float(z), sc.channel) for z in grid]
            best = grid[rates.index(max(rates))]
            heights = {locs[(uav, sc.routes[uav].index(task.id))].z for uav in task.workers}
            assert len(heights) == 1
            assert heights.pop() == pytest.approx(best, abs=1e-9)

    def test_a_tie_goes_to_the_lowest_altitude(self, monkeypatch):
        import uavsense.itsso as itsso

        def flat(x, y, z, cp):  # every grid point a candidate of the screen
            return np.zeros(np.broadcast_shapes(x.shape, y.shape, z.shape))

        monkeypatch.setattr(itsso, "screened_pathloss", flat)
        monkeypatch.setattr(itsso, "rate_at", lambda x, y, z, cp: 1.0)  # every rate equal
        sc = generate_scenario(self.CONFIGS[1])
        assert {loc.z for loc in rate_max_locations(sc).values()} == {sc.kinematics.h_min}

    def test_an_infeasible_scenario_raises_before_the_start_is_rated(self, monkeypatch):
        import uavsense.itsso as itsso

        def unrated(scenario):
            raise AssertionError("the start was rated")

        monkeypatch.setattr(itsso, "rate_max_locations", unrated)
        cfg = ScenarioConfig(m=4, n=4, q=1, k=4, seed=2,
                             sensing=SensingParams(0.01, 1 - 1e-6))
        with pytest.raises(InfeasibleScenario, match="best-case sensing probability"):
            initial_solution(generate_scenario(cfg), ItssoConfig(rng_seed=0))

    def test_the_start_is_used_without_pinned_locations(self):
        sc = generate_scenario(self.CONFIGS[1])
        locs = rate_max_locations(sc)
        sol = initial_solution(sc, ItssoConfig(rng_seed=0))
        for p in sol.plans:
            assert p.sensing_locations == [locs[(p.uav, i)] for i in range(p.n_tasks)]

    @pytest.mark.parametrize("overrides,n", [
        (dict(m=10, n=10, k=2), 60),
        (dict(k=4), 12),
    ], ids=["crowded", "table-k4"])
    def test_itsso_is_at_or_below_fsl_where_subcarriers_are_scarce(self, overrides, n):
        # FSL is ITSSO with every location pinned overhead at 50 m: over
        # paired seeds ITSSO must not lose to it
        totals = {"itsso": 0, "fsl": 0}
        for seed in range(7_180_000, 7_180_000 + n):
            for scheme in totals:
                sc = generate_scenario(ScenarioConfig(seed=seed, scheme=scheme, **overrides))
                totals[scheme] += run_scheme(
                    sc, ItssoConfig(rng_seed=seed + _ITSSO_SEED_OFFSET)).t_max
        assert totals["itsso"] <= totals["fsl"]


    def test_a_grid_point_on_the_bs_is_a_named_error(self):
        # task 0 right under the BS, whose height is the sixth grid altitude:
        # the screen has no value there, so the row is rated point by point
        cfg = ScenarioConfig(m=4, n=4, q=2, k=1, seed=0)
        h_min = cfg.kinematics.h_min
        step = (max(required_sensing_radius(2, cfg.sensing) - _ROOT_SLACK_M, h_min)
                - h_min) / 40
        sc = generate_scenario(dc_replace(cfg, channel=ChannelParams(bs_height=h_min + 5 * step)))
        sc.tasks[0] = dc_replace(sc.tasks[0], location=Position3(0.0, 0.0, 0.0))
        with pytest.raises(ChannelDomainError, match=re.escape(f"(0.0, 0.0, {h_min + 5 * step!r})")):
            rate_max_locations(sc)

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(),
        ScenarioConfig(m=10, n=10, k=2),
        ScenarioConfig(q=1, m=5),
        ScenarioConfig(q=2, m=10),
        ScenarioConfig(q=8, m=40),
        ScenarioConfig(q=1, sensing=SensingParams(0.01, 0.5)),
        ScenarioConfig(area=(300.0, 700.0, 60.0)),
    ], ids=["table", "m10-k2", "q1-m5", "q2-m10", "q8-m40", "q1-pr0.5", "area300x700"])
    def test_the_screened_start_equals_the_exhaustive_grid_search(self, cfg):
        for seed in range(7_350_000, 7_350_200):
            sc = generate_scenario(dc_replace(cfg, seed=seed))
            assert rate_max_locations(sc) == _exhaustive_start(sc), seed


def _exhaustive_start(scenario):
    """The start rated at every grid point with ``rate_at``, the lowest
    altitude taking a tie: the reference the screened start must equal."""
    cp, h_min = scenario.channel, scenario.kinematics.h_min
    height = {}
    for task in scenario.tasks.values():
        radius = required_sensing_radius(len(task.workers), scenario.sensing)
        step = (max(radius - _ROOT_SLACK_M, h_min) - h_min) / 40
        x, y = task.location.x, task.location.y
        height[task.id] = max((h_min + i * step for i in range(41)),
                              key=lambda z: rate_at(x, y, z, cp))
    return {(uav, idx): Position3(scenario.tasks[tid].location.x,
                                  scenario.tasks[tid].location.y, height[tid])
            for uav, route in scenario.routes.items() for idx, tid in enumerate(route)}


def _masks_of_every_requester(outcome):
    """A mask for every UAV that requested, all True but where it was
    denied: the masks the planners read before only denied UAVs got one."""
    horizon = len(outcome.requests)
    masks = {}
    for t, (req, got) in enumerate(zip(outcome.requests, outcome.grants)):
        for uav in req:
            if uav not in masks:
                masks[uav] = [True] * horizon
        for uav in req - got:
            masks[uav][t] = False
    return masks


class TestMasks:
    """Only a UAV with a denied request gets a mask: a planner grants every
    slot outside a mask and to a UAV without one."""

    def test_only_denied_uavs_get_a_mask(self):
        sc = generate_scenario(ScenarioConfig(seed=3))
        outcome = run_itsso(sc, ItssoConfig(rng_seed=3)).outcome
        masks = masks_from_outcome(outcome)
        requesters = set().union(*outcome.requests)
        denied = {uav for req, got in zip(outcome.requests, outcome.grants) for uav in req - got}
        assert denied and denied < requesters
        assert masks.keys() == denied
        for uav, mask in masks.items():
            assert mask == [uav not in req or uav in got
                            for req, got in zip(outcome.requests, outcome.grants)]

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(m=10, n=10, k=2),
        ScenarioConfig(m=10, n=10, k=1),
    ], ids=["crowded", "k1"])
    def test_replanned_legs_equal_those_planned_with_every_requester_masked(self, cfg):
        for seed in range(7_350_300, 7_350_306):
            sc = generate_scenario(dc_replace(cfg, seed=seed))
            args = (sc.tasks, sc.channel, sc.kinematics)
            init = initial_solution(sc, ItssoConfig(rng_seed=seed))
            plans, outcome = init.plans, init.outcome
            for _ in range(3):  # the initial run, then greedy runs of the re-planned legs
                masks = masks_from_outcome(outcome)
                got = replan_plans(plans, *args, masks, LegCache(sc.channel, sc.kinematics))
                want = replan_plans(plans, *args, _masks_of_every_requester(outcome),
                                    LegCache(sc.channel, sc.kinematics))
                assert [(p.legs, p.drain) for p in got] == [(p.legs, p.drain) for p in want]
                plans = got
                outcome = run(plans, GreedyScheduler(sc.k), sc.tasks, sc.channel,
                              sc.kinematics, record_trace=False)


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


class TestCollectorPause:
    """``run_itsso`` pauses the cyclic garbage collector and gives the
    caller's setting back on every exit."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_no_collection_starts_during_a_run(self):
        sc = generate_scenario(ScenarioConfig(seed=3))
        starts = []

        def hook(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.enable()
        gc.collect()  # the call starts with nothing due
        gc.callbacks.append(hook)
        try:
            run_itsso(sc, ItssoConfig(rng_seed=3), record_trace=True)
            during = len(starts)  # allocates nothing the collector tracks
        finally:
            gc.callbacks.remove(hook)
        assert during == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_callers_setting_is_restored(self, enabled):
        sc = generate_scenario(ScenarioConfig(m=10, n=10, seed=3))
        (gc.enable if enabled else gc.disable)()
        run_itsso(sc, ItssoConfig(rng_seed=3))
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_setting_is_restored_after_a_raise(self, enabled):
        cfg = ScenarioConfig(m=4, n=4, q=1, k=4, seed=2,
                             sensing=SensingParams(0.01, 1 - 1e-6))
        sc = generate_scenario(cfg)
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(InfeasibleScenario):
            run_itsso(sc, ItssoConfig(rng_seed=0))
        assert gc.isenabled() is enabled


class TestCrowdedPins:
    """Crowded geometry (M=10, N=10, K=2): objective histories recorded
    from the rate-max start.  Cached planning is bit-identical to cold
    planning, so a speed change must not move these."""

    @pytest.mark.parametrize("seed,history", [
        (1, [273, 56, 54]),
        (2, [227, 54, 48]),
        (3, [264, 54, 52]),
    ])
    def test_t_max(self, seed, history):
        sc = generate_scenario(ScenarioConfig(m=10, n=10, k=2, seed=seed))
        sol = run_scheme(sc, ItssoConfig(rng_seed=seed + _ITSSO_SEED_OFFSET))
        assert sol.t_max == history[-1]
        assert sol.history == history


class TestTablePins:
    """Table point (M=20, N=20, K=10), ITSSO and FSL: objective histories
    recorded from the rate-max start (FSL's before projections became
    on-demand and placement stopped computing unread leg bounds).  A speed
    change must not move a schedule."""

    @pytest.mark.parametrize("scheme,seed,history", [
        ("itsso", 1, [291, 30]),
        ("itsso", 2, [278, 30]),
        ("itsso", 3, [312, 32]),
        ("fsl", 1, [291, 37]),
        ("fsl", 2, [278, 36]),
        ("fsl", 3, [312, 38]),
    ])
    def test_t_max(self, scheme, seed, history):
        sc = generate_scenario(ScenarioConfig(seed=seed, scheme=scheme))
        sol = run_scheme(sc, ItssoConfig(rng_seed=seed + _ITSSO_SEED_OFFSET))
        assert sol.t_max == history[-1]
        assert sol.history == history


class TestFslPinsItself:
    """An FSL scenario runs as FSL through ``run_itsso`` itself: every
    worker pinned right above its task at ``fsl_height`` and no location
    search, with ``TestTablePins``' FSL histories."""

    @pytest.mark.parametrize("seed,history", [(1, [291, 37]), (2, [278, 36]), (3, [312, 38])])
    def test_run_itsso_reads_the_scheme(self, seed, history):
        sc = generate_scenario(ScenarioConfig(seed=seed, scheme="fsl"))
        cfg = ItssoConfig(rng_seed=seed + _ITSSO_SEED_OFFSET)
        init = initial_solution(sc, cfg)
        assert {loc for p in init.plans for loc in p.sensing_locations} == {
            Position3(t.location.x, t.location.y, sc.config.fsl_height)
            for t in sc.tasks.values()}
        sol = run_itsso(sc, cfg)
        assert sol.history == history
        assert sol.placement_passes == 0
        assert {loc.z for p in sol.plans for loc in p.sensing_locations} == {50.0}


class TestTraceReplay:
    """Iterates run untraced; a traced run records the returned iterate once,
    by replaying its plans under its own grant schedule."""

    SCENARIOS = {
        "itsso": ScenarioConfig(seed=21),
        "fsl": ScenarioConfig(seed=22, scheme="fsl"),
        "nc": nc_config(ScenarioConfig(seed=23)),
        "itsso-k2": ScenarioConfig(m=10, n=10, k=2, seed=24),
    }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_traced_run_returns_the_untraced_solution_plus_its_trace(self, name):
        sc = generate_scenario(self.SCENARIOS[name])
        cfg = ItssoConfig(rng_seed=sc.config.seed + _ITSSO_SEED_OFFSET)
        traced = run_scheme(sc, cfg, record_trace=True)
        plain = run_scheme(sc, cfg, record_trace=False)
        assert plain.outcome.trace is None
        assert traced.plans == plain.plans
        assert traced.t_max == plain.t_max
        assert traced.history == plain.history
        assert traced.candidate_history == plain.candidate_history
        assert dc_replace(traced.outcome, trace=None) == plain.outcome
        # a candidate won, so this is the trace a traced greedy run records
        assert len(traced.history) > 1
        direct = run(traced.plans, GreedyScheduler(sc.k), sc.tasks, sc.channel,
                     sc.kinematics, record_trace=True)
        assert traced.outcome.trace == direct.trace
        assert dc_replace(direct, trace=None) == plain.outcome

    def test_replay_reproduces_a_random_schedule_trace(self):
        # the initial iterate wins only when no candidate improves on it;
        # its trace is then a replay of a RandomScheduler run
        sc = generate_scenario(ScenarioConfig(m=10, n=10, k=2, seed=25))
        cfg = ItssoConfig(rng_seed=25)
        init = initial_solution(sc, cfg)
        assert init.outcome.trace is None
        out = replay(init.plans, init.outcome.grants, sc)
        direct = run(init.plans, RandomScheduler(sc.k, cfg.rng_seed), sc.tasks,
                     sc.channel, sc.kinematics, record_trace=True)
        assert out.trace == direct.trace
        assert dc_replace(out, trace=None) == dc_replace(init.outcome, trace=None)

    def test_diverging_replay_raises(self, monkeypatch):
        # the replay itself notices a run that leaves its schedule: here its
        # scheduler, asked only in contended slots, drops the lowest id of
        # the first recorded grant it makes
        real_grant = ReplayScheduler.grant
        dropped = []

        def drop_first(sched, slot, requesters):
            got = real_grant(sched, slot, requesters)
            if got and not dropped:
                assert len(requesters) > sched.k
                dropped.append((slot, sorted(got)))
                return got - {min(got)}
            return got

        monkeypatch.setattr(ReplayScheduler, "grant", drop_first)
        sc = generate_scenario(ScenarioConfig(m=6, n=6, q=2, k=3, seed=26))
        # an untraced run never replays
        assert run_itsso(sc, ItssoConfig(rng_seed=26), record_trace=False).t_max > 0
        assert not dropped
        with pytest.raises(RuntimeError, match="replay diverged") as err:
            run_itsso(sc, ItssoConfig(rng_seed=26), record_trace=True)
        assert len(dropped) == 1
        slot, got = dropped[0]
        # replay's own check
        assert f"slot {slot} grants {got[1:]}, the schedule {got} " in str(err.value)

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_a_dump_denying_an_uncontended_requester_raises(self, record_trace):
        # the simulator grants every requester of a slot whose demand fits
        # in K without asking the schedule, so only replay's comparison of
        # the whole grant log sees a dump that drops one of those grants
        sc = generate_scenario(self.SCENARIOS["itsso"])
        sol = run_itsso(sc, ItssoConfig(rng_seed=21))
        doc = json.loads(solution_to_json(sol))
        slot = next(t for t, req in enumerate(sol.outcome.requests, 1) if 0 < len(req) <= sc.k)
        granted = doc["schedule"][slot - 1]
        assert granted == sorted(sol.outcome.requests[slot - 1])
        doc["schedule"][slot - 1] = granted[1:]
        plans, schedule = solution_from_json(json.dumps(doc))
        with pytest.raises(RuntimeError, match=re.escape(
                f"replay diverged: slot {slot} grants {granted}, the schedule {granted[1:]} ")):
            replay(plans, schedule, sc, record_trace)

    @pytest.mark.parametrize("record_trace", [False, True])
    def test_a_schedule_one_slot_short_raises(self, record_trace):
        # the run's last slot is uncontended, so the replay grants it without
        # reading the schedule and ends one slot past it
        sc = generate_scenario(self.SCENARIOS["itsso"])
        sol = run_itsso(sc, ItssoConfig(rng_seed=21))
        grants, requests = sol.outcome.grants, sol.outcome.requests
        slot = len(grants)
        assert 0 < len(requests[-1]) <= sc.k
        with pytest.raises(RuntimeError, match=re.escape(
                f"replay diverged: slot {slot} grants {sorted(grants[-1])}, the schedule [] "
                f"({slot} slots replayed, {slot - 1} scheduled)")):
            replay(sol.plans, grants[:-1], sc, record_trace)


@st.composite
def _small_config(draw):
    """A scenario of at most 6 UAVs and 6 tasks, K of 1 to 3, in any scheme."""
    m = draw(st.integers(1, 6))
    q = draw(st.integers(1, m))
    n = draw(st.sampled_from([n for n in range(1, 7) if n * q % m == 0]))
    config = ScenarioConfig(m=m, n=n, q=q, k=draw(st.integers(1, 3)),
                            seed=draw(st.integers(0, 2**32)))
    scheme = draw(st.sampled_from(("itsso", "nc", "fsl")))
    return nc_config(config) if scheme == "nc" else dc_replace(config, scheme=scheme)


def _check_a_run(sc):
    """A run audits clean, replays its dump bit-identically, strictly
    improves on every accepted iterate, and traced is untraced plus replay."""
    cfg = ItssoConfig(rng_seed=sc.config.seed + _ITSSO_SEED_OFFSET)
    traced = run_scheme(sc, cfg, record_trace=True)
    assert audit_solution(sc, traced) == []
    plans, schedule = solution_from_json(solution_to_json(traced))
    out = replay(plans, schedule, sc)
    assert (out.grants, out.t_max, out.trace) == \
        (traced.outcome.grants, traced.t_max, traced.outcome.trace)
    assert all(a > b for a, b in zip(traced.history, traced.history[1:]))
    # the traced solution is the untraced one plus its trace
    plain = run_scheme(sc, cfg, record_trace=False)
    assert plain.outcome.trace is None
    assert dc_replace(traced, outcome=dc_replace(traced.outcome, trace=None)) == plain


class TestSmallScenarioProperties:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(config=_small_config())
    def test_a_run_audits_clean_replays_its_dump_and_converges(self, config):
        _check_a_run(generate_scenario(config))


def _coincident_tasks(sc):
    """Every task moved onto the first task's spot."""
    spot = sc.tasks[0].location
    for tid, task in sc.tasks.items():
        sc.tasks[tid] = dc_replace(task, location=spot)


def _a_uav_starts_on_the_bs(sc):
    sc.uav_starts[0] = sc.channel.bs_position


def _a_task_under_the_bs(sc):
    sc.tasks[0] = dc_replace(sc.tasks[0], location=Position3(0.0, 0.0, 0.0))


class TestEdgeScenarios:
    """Inputs at the model's edges under the four checks of
    ``TestSmallScenarioProperties``: geometry the generator draws with
    probability zero (M=N=4, q=2, K=1, nc its q=1 variant, every scheme), an
    altitude floor near the ceiling and a drain that carries a route's only
    payload."""

    @pytest.mark.parametrize("edit", [_coincident_tasks, _a_uav_starts_on_the_bs,
                                      _a_task_under_the_bs],
                             ids=["coincident-tasks", "uav-on-the-bs", "task-under-the-bs"])
    @pytest.mark.parametrize("scheme", ["itsso", "nc", "fsl"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_run_audits_clean_replays_its_dump_and_converges(self, edit, scheme, seed):
        config = ScenarioConfig(m=4, n=4, q=2, k=1, seed=seed)
        config = nc_config(config) if scheme == "nc" else dc_replace(config, scheme=scheme)
        sc = generate_scenario(config)
        edit(sc)
        _check_a_run(sc)

    @pytest.mark.parametrize("scheme", ["itsso", "fsl"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_floor_near_the_ceiling(self, scheme, seed):
        # starts are floored into [30, 32] m and FSL senses at 31 m
        config = ScenarioConfig(m=4, n=4, q=2, k=1, seed=seed, scheme=scheme,
                                area=(500.0, 500.0, 32.0), fsl_height=31.0,
                                kinematics=KinematicParams(h_min=30.0))
        _check_a_run(generate_scenario(config))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_floor_near_the_ceiling_is_too_high_for_one_worker(self, seed):
        # q=1 at 30 m: exp(-0.01 * 30) = 0.741 is below the 0.9 threshold
        config = nc_config(ScenarioConfig(m=4, n=4, q=2, k=1, seed=seed,
                                          area=(500.0, 500.0, 32.0),
                                          kinematics=KinematicParams(h_min=30.0)))
        with pytest.raises(InfeasibleScenario, match=r"0\.740818 cannot reach the threshold"):
            run_scheme(generate_scenario(config), ItssoConfig(rng_seed=seed))

    @pytest.mark.parametrize("scheme", ["itsso", "fsl"])
    def test_a_drain_that_carries_the_only_payload(self, scheme):
        # one task per route: its whole 1e10-bit payload rides the drain, the
        # gradient walk after the route's only sensing slot
        sc = generate_scenario(ScenarioConfig(m=4, n=2, q=2, k=1, data_size=1e10,
                                              scheme=scheme))
        assert all(len(route) == 1 for route in sc.routes.values())
        _check_a_run(sc)


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

    def test_a_request_past_the_recorded_schedule_raises(self):
        # a cut schedule leaves UAVs holding data after its last slot: the
        # replay has diverged, and says where instead of scheduling on its own
        sc = generate_scenario(ScenarioConfig(seed=6))
        sol = run_itsso(sc, ItssoConfig(rng_seed=6))
        cut = sol.outcome.grants[:-10]
        with pytest.raises(RuntimeError, match=rf"replay diverged: slot {len(cut) + 1} "):
            replay(sol.plans, cut, sc)

    @pytest.mark.parametrize("tamper", ["non_requester", "no_requests", "past_the_end"])
    @pytest.mark.parametrize("record_trace", [False, True])
    def test_a_grant_the_replay_does_not_make_raises(self, tamper, record_trace):
        # the replay would drop a grant to a UAV that does not request in
        # its slot, never read one in a slot without requests, and stop
        # before a recorded slot past the run's end: each returns another
        # grant log than the schedule, so the replay has diverged
        sc = generate_scenario(ScenarioConfig(seed=6))
        sol = run_itsso(sc, ItssoConfig(rng_seed=6))
        grants, requests = sol.outcome.grants, sol.outcome.requests
        uavs = {p.uav for p in sol.plans}
        assert replay(sol.plans, list(grants), sc, record_trace).grants == grants
        schedule = list(grants)
        if tamper == "non_requester":
            slot = next(t for t, req in enumerate(requests, 1) if req and uavs - req)
            schedule[slot - 1] = grants[slot - 1] | {min(uavs - requests[slot - 1])}
        elif tamper == "no_requests":
            slot = next(t for t, req in enumerate(requests, 1) if not req)
            schedule[slot - 1] = frozenset([min(uavs)])
        else:
            slot = len(grants) + 1
            schedule.append(frozenset())
        with pytest.raises(RuntimeError, match=rf"replay diverged: slot {slot} "):
            replay(sol.plans, schedule, sc, record_trace)

    def test_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            solution_from_json('{"format": "something-else"}')

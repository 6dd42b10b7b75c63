"""Protocol engine tests: bookkeeping, contention, hover-drain, determinism."""

import math

import pytest

from uavsense import scheduler, simulator
from uavsense.bench import ScenarioConfig, nc_config
from uavsense.channel import ChannelParams, Position3, rate_at
from uavsense.scheduler import (
    GreedyScheduler,
    RandomScheduler,
    ReplayScheduler,
    update_completion_estimates,
)
from uavsense.sensing import Task
from uavsense.simulator import (
    EMPTY,
    SENSING,
    TRANSMISSION,
    UavPlan,
    read_trace,
    run,
    write_trace,
)
from uavsense.trajectory import KinematicParams, Leg, drain_leg, optimize_leg

CP = ChannelParams()
KIN = KinematicParams()

_LEGAL = {
    (SENSING, TRANSMISSION), (SENSING, EMPTY),
    (TRANSMISSION, TRANSMISSION), (TRANSMISSION, SENSING), (TRANSMISSION, EMPTY),
    (EMPTY, EMPTY), (EMPTY, SENSING),
}


def make_plan(uav, start, locations, task_ids, tasks):
    legs = []
    prev = start
    t = 0
    for idx, loc in enumerate(locations):
        residual = 0.0 if idx == 0 else tasks[task_ids[idx - 1]].data_size
        leg = optimize_leg(prev, loc, residual, CP, KIN, first_slot=t + 1)
        legs.append(leg)
        t += leg.slots + 1
        prev = loc
    drain = drain_leg(prev, tasks[task_ids[-1]].data_size, CP, KIN)
    return UavPlan(uav, start, list(task_ids), list(locations), legs, drain)


def sensing_slots(out, uav):
    """The slots in which ``uav`` senses, from a traced run's rows."""
    return [r.slot for r in out.trace if r.uav == uav and r.slot_type == SENSING]


class TestSingleUav:
    def test_completion_bookkeeping(self):
        task = Task(0, Position3(100, 100, 0), 20e6, (0,))
        tasks = {0: task}
        start = Position3(300, 300, 60)
        loc = Position3(100, 100, 10)
        plan = make_plan(0, start, [loc], [0], tasks)
        out = run([plan], GreedyScheduler(10), tasks, CP, KIN)
        # the sensing slot is right after the first leg, completion when the
        # payload drains
        assert sensing_slots(out, 0) == [plan.legs[0].slots + 1]
        t_tran = out.completion_times[0] - sensing_slots(out, 0)[-1]
        assert t_tran >= 1
        assert out.t_max == out.completion_times[0]
        # all payload delivered: residual on the last row is zero
        assert out.trace[-1].residual_bits == 0.0

    def test_two_tasks_sequence(self):
        tasks = {
            0: Task(0, Position3(100, 100, 0), 20e6, (0,)),
            1: Task(1, Position3(350, 250, 0), 20e6, (0,)),
        }
        plan = make_plan(0, Position3(50, 50, 20),
                         [Position3(100, 100, 12), Position3(350, 250, 12)],
                         [0, 1], tasks)
        out = run([plan], GreedyScheduler(10), tasks, CP, KIN)
        sensed = sensing_slots(out, 0)
        assert len(sensed) == 2
        assert sensed[1] > sensed[0]
        assert out.completion_times[0] > sensed[1]

    def test_hover_drain_when_leg_capacity_missing(self):
        # schedule denies every slot via a k=1 contention with a dummy rival:
        # simpler: give the UAV a plan whose leg cannot carry the data and
        # check it hovers at the sensing location until drained
        tasks = {
            0: Task(0, Position3(100, 0, 0), 20e6, (0,)),
            1: Task(1, Position3(150, 0, 0), 20e6, (0,)),
        }
        start = Position3(100, 0, 10)
        loc0 = Position3(100, 0, 10)
        loc1 = Position3(150, 0, 10)
        leg0 = optimize_leg(start, loc0, 0.0, CP, KIN)
        # deliberately short leg: a single 50 m hop cannot carry 20 Mbit
        leg1 = optimize_leg(loc0, loc1, 0.0, CP, KIN)
        drain = drain_leg(loc1, 20e6, CP, KIN)
        plan = UavPlan(0, start, [0, 1], [loc0, loc1], [leg0, leg1], drain)
        rate = rate_at(loc1.x, loc1.y, loc1.z, CP)
        need = math.ceil(20e6 / rate)
        out = run([plan], GreedyScheduler(10), tasks, CP, KIN)
        # arrival at slot tau0 + 1; hover-drain until the payload fits;
        # second sensing right after
        tau0, tau1 = sensing_slots(out, 0)
        assert tau1 == tau0 + leg1.slots + 1 + (
            need - leg1.slots if need > leg1.slots else 0)
        # trace shows motionless transmission slots at loc1 before sensing
        rows = [r for r in out.trace if r.uav == 0]
        pre_sense = [r for r in rows if tau0 < r.slot < tau1]
        assert all(r.slot_type == TRANSMISSION for r in pre_sense)
        assert all((r.x, r.y, r.z) == (loc1.x, loc1.y, loc1.z)
                   for r in pre_sense[-max(need - leg1.slots, 0):])


class TestContention:
    def _pair(self):
        tasks = {
            0: Task(0, Position3(200, 0, 0), 30e6, (0,)),
            1: Task(1, Position3(-200, 0, 0), 30e6, (1,)),
        }
        plans = []
        for uav, x in ((0, 200.0), (1, -200.0)):
            loc = Position3(x, 0, 30)
            leg = optimize_leg(loc, loc, 0.0, CP, KIN)
            drain = drain_leg(loc, 30e6, CP, KIN)
            plans.append(UavPlan(uav, loc, [uav], [loc], [leg], drain))
        return plans, tasks

    def test_alternating_grants_under_k1(self):
        # hand-checked 2x1 oracle: symmetric UAVs, one subcarrier; after the
        # joint sensing slot the denied UAV's projection grows, so grants
        # alternate and per-slot grant counts never exceed one
        plans, tasks = self._pair()
        out = run(plans, GreedyScheduler(1), tasks, CP, KIN)
        for granted in out.grants:
            assert len(granted) <= 1
        both_active = [g for g, r in zip(out.grants, out.requests) if len(r) == 2]
        winners = [next(iter(g)) for g in both_active if g]
        assert winners, "expected contended slots"
        for a, b in zip(winners, winners[1:]):
            assert a != b, f"grants did not alternate: {winners}"

    def test_work_conservation(self):
        plans, tasks = self._pair()
        out = run(plans, GreedyScheduler(2), tasks, CP, KIN)
        for granted, requested in zip(out.grants, out.requests):
            if len(requested) <= 2:
                assert granted == requested


class TestStateMachine:
    def test_transitions_legal_on_real_run(self):
        from uavsense.bench import ScenarioConfig, generate_scenario
        from uavsense.itsso import ItssoConfig, run_itsso

        sc = generate_scenario(ScenarioConfig(seed=13))
        sol = run_itsso(sc, ItssoConfig(rng_seed=99), record_trace=True)
        per_uav = {}
        for row in sol.outcome.trace:
            prev = per_uav.get(row.uav)
            if prev is not None:
                assert (prev, row.slot_type) in _LEGAL, (prev, row.slot_type)
            per_uav[row.uav] = row.slot_type

    def test_empty_slot_has_no_residual(self):
        from uavsense.bench import ScenarioConfig, generate_scenario
        from uavsense.itsso import ItssoConfig, run_itsso

        sc = generate_scenario(ScenarioConfig(seed=21))
        sol = run_itsso(sc, ItssoConfig(rng_seed=77), record_trace=True)
        for row in sol.outcome.trace:
            if row.slot_type == EMPTY:
                assert row.residual_bits == 0.0

    def test_data_conservation_per_task(self):
        tasks = {0: Task(0, Position3(150, 80, 0), 20e6, (0,))}
        plan = make_plan(0, Position3(0, 0, 40), [Position3(150, 80, 15)], [0], tasks)
        out = run([plan], GreedyScheduler(5), tasks, CP, KIN)
        assert sum(r.rate_bits for r in out.trace) == pytest.approx(20e6)


class TestDeterminism:
    def test_bit_identical_reruns(self):
        from uavsense.bench import ScenarioConfig, generate_scenario
        from uavsense.itsso import ItssoConfig, run_itsso

        sc = generate_scenario(ScenarioConfig(seed=31))
        a = run_itsso(sc, ItssoConfig(rng_seed=5), record_trace=True)
        b = run_itsso(sc, ItssoConfig(rng_seed=5), record_trace=True)
        assert a.t_max == b.t_max
        assert a.history == b.history
        assert a.outcome.grants == b.outcome.grants
        assert a.outcome.trace == b.outcome.trace


class TestLegWithoutWaypoints:
    def test_data_on_a_leg_without_waypoints_raises(self):
        # the second leg says it carries nothing and has no slots, but the
        # task sensed before it holds data: no waypoint to send from
        tasks = {0: Task(0, Position3(100, 0, 0), 20e6, (0,)),
                 1: Task(1, Position3(100, 0, 0), 20e6, (0,))}
        loc = Position3(100, 0, 10)
        leg0 = optimize_leg(Position3(0, 0, 40), loc, 0.0, CP, KIN)
        plan = UavPlan(0, Position3(0, 0, 40), [0, 1], [loc, loc],
                       [leg0, optimize_leg(loc, loc, 0.0, CP, KIN)],
                       drain_leg(loc, 20e6, CP, KIN))
        assert plan.legs[1].slots == 0
        with pytest.raises(RuntimeError, match="leg 1 carries 2e.07 bits but has no waypoints"):
            run([plan], GreedyScheduler(10), tasks, CP, KIN)


class TestStarvation:
    def test_never_granted_uav_raises_diagnostic(self, monkeypatch):
        monkeypatch.setattr(simulator, "_MAX_SLOTS", 200)
        class NeverScheduler:
            def grant(self, slot, requesters):
                return frozenset()

        tasks = {0: Task(0, Position3(100, 0, 0), 20e6, (0,))}
        plan = make_plan(0, Position3(0, 0, 40), [Position3(100, 0, 15)], [0], tasks)
        with pytest.raises(RuntimeError, match="UAV 0"):
            run([plan], NeverScheduler(), tasks, CP, KIN)


class _EagerReads(GreedyScheduler):
    """Reads every requester's estimate and residual before ranking."""

    def grant(self, slot, requesters):
        update_completion_estimates(requesters, slot)
        return super().grant(slot, requesters)


class _UncontendedReadsNothing(GreedyScheduler):
    """Fails when a slot whose demand fits in K projects anybody, or a
    contended one projects other than each requester once; ``projected``
    lists the slot's ``(slot, uav)`` projections."""

    def __init__(self, k, projected):
        super().__init__(k)
        self.contended = 0
        self.projected = projected

    def grant(self, slot, requesters):
        self.projected.clear()
        granted = super().grant(slot, requesters)
        if len(requesters) <= self.k:
            assert self.projected == []
        else:
            self.contended += 1
            assert self.projected == [(slot, st.uav) for st in requesters]
        return granted


def _final_plans(cfg):
    from uavsense.bench import _ITSSO_SEED_OFFSET, generate_scenario, run_scheme
    from uavsense.itsso import ItssoConfig

    sc = generate_scenario(cfg)
    sol = run_scheme(sc, ItssoConfig(rng_seed=cfg.seed + _ITSSO_SEED_OFFSET))
    return sc, sol.plans


class TestOnDemandProjections:
    @pytest.mark.parametrize("overrides", [
        dict(m=10, n=10, k=2, seed=4),  # crowded: most slots contended
        dict(seed=4),  # table point, K=10
    ])
    def test_reading_everything_changes_nothing(self, overrides):
        from uavsense.bench import ScenarioConfig

        sc, plans = _final_plans(ScenarioConfig(**overrides))
        lazy = run(plans, GreedyScheduler(sc.k), sc.tasks, sc.channel, sc.kinematics)
        eager = run(plans, _EagerReads(sc.k), sc.tasks, sc.channel, sc.kinematics)
        assert any(len(r) > sc.k for r in lazy.requests)
        assert eager.grants == lazy.grants
        assert eager.trace == lazy.trace
        assert eager.completion_times == lazy.completion_times

    def test_only_contended_slots_project(self, monkeypatch):
        # uncontended slots project nobody; a contended one projects each
        # requester once, in UAV order
        from uavsense.bench import ScenarioConfig

        projected = []
        project = simulator._Runtime.projected_completion
        monkeypatch.setattr(simulator._Runtime, "projected_completion",
                            lambda st, slot: projected.append((slot, st.uav))
                            or project(st, slot))
        sc, plans = _final_plans(ScenarioConfig(m=10, n=10, k=2, seed=4))
        sched = _UncontendedReadsNothing(sc.k, projected)
        out = run(plans, sched, sc.tasks, sc.channel, sc.kinematics)
        assert sched.contended == sum(len(r) > sc.k for r in out.requests) > 0

    def test_keys_project_each_requester_once(self):
        # one key per requester, in the requesters' order, from one
        # projection and one residual read each
        class State:
            def __init__(self, uav):
                self.uav = uav
                self.residual = 100.0 * uav
                self.calls = []

            def projected_completion(self, slot):
                self.calls.append(slot)
                return 10.0 * slot + self.uav

        states = [State(2), State(1)]
        assert update_completion_estimates(states, 7) == [(-72.0, -200.0, 2),
                                                          (-71.0, -100.0, 1)]
        assert [s.calls for s in states] == [[7], [7]]
        assert update_completion_estimates([], 7) == []

    def test_estimate_binding_runs_once_per_contended_slot(self, monkeypatch):
        # perfbench times the projections as the span of
        # scheduler.update_completion_estimates, the module binding that
        # GreedyScheduler calls: once per contended slot, and only there;
        # the random and replay schedulers never call it
        assert not hasattr(simulator, "update_completion_estimates")
        slots = []

        def counted(requesters, slot):
            slots.append(slot)
            return update_completion_estimates(requesters, slot)

        monkeypatch.setattr(scheduler, "update_completion_estimates", counted)
        sc, plans = _final_plans(ScenarioConfig(m=10, n=10, k=2, seed=4))
        for record_trace in (False, True):
            slots.clear()
            out = run(plans, GreedyScheduler(sc.k), sc.tasks, sc.channel, sc.kinematics,
                      record_trace=record_trace)
            contended = [t for t, r in enumerate(out.requests, start=1) if len(r) > sc.k]
            assert contended and slots == contended
            slots.clear()
            for sched in (RandomScheduler(sc.k, 3), ReplayScheduler(out.grants)):
                other = run(plans, sched, sc.tasks, sc.channel, sc.kinematics,
                            record_trace=record_trace)
                assert any(len(r) > sc.k for r in other.requests)
                assert slots == []


class TestProjectionMemo:
    def test_a_uav_denied_at_its_leg_end_is_summed_once_per_state(self, monkeypatch):
        # a UAV hovering at its leg end keeps its leg, waypoint and residual
        # while it is denied; every projection of that state after the first
        # reuses the first one's slots to drain
        reads, sums = {}, {}
        uav = [None]
        project, to_drain = simulator._Runtime.projected_completion, Leg.slots_to_deliver

        def counted_projection(st, slot):
            uav[0] = st.uav
            if not (st.done or st.pending_sense) and st.w == st.leg_slots > 0:
                key = (st.uav, id(st.leg), st.w, st.residual)
                reads[key] = reads.get(key, 0) + 1
            return project(st, slot)

        def counted_drain(leg, w, residual):
            if w == leg.slots > 0:
                key = (uav[0], id(leg), w, residual)
                sums[key] = sums.get(key, 0) + 1
            return to_drain(leg, w, residual)

        sc, plans = _final_plans(ScenarioConfig(m=10, n=10, k=2, seed=4))
        monkeypatch.setattr(simulator._Runtime, "projected_completion", counted_projection)
        monkeypatch.setattr(Leg, "slots_to_deliver", counted_drain)
        run(plans, GreedyScheduler(sc.k), sc.tasks, sc.channel, sc.kinematics)
        assert sum(n > 1 for n in reads.values()) > 10
        assert sums == dict.fromkeys(reads, 1)


class TestTraceIo:
    def test_round_trip(self, tmp_path):
        tasks = {0: Task(0, Position3(100, 0, 0), 20e6, (0,))}
        plan = make_plan(0, Position3(0, 0, 40), [Position3(100, 0, 15)], [0], tasks)
        out = run([plan], GreedyScheduler(5), tasks, CP, KIN)
        path = tmp_path / "trace.csv"
        write_trace(out.trace, path)
        back = read_trace(path)
        assert back == out.trace

    @pytest.mark.parametrize("text, line, what", [
        ("", 1, "expected"),
        ("slot,uav\n", 1, "expected"),
        (",".join(simulator._TRACE_HEADER) + "\n1,0,sensing,0,0,40,0,0.0,2e7\n1,0,empty\n", 3,
         "expected"),
        (",".join(simulator._TRACE_HEADER) + "\n1,0,sensing,0,0,40,0,0.0,2e7,9\n", 2, "expected"),
        (",".join(simulator._TRACE_HEADER) + "\n1,0,sensing,0,0,40,0,0.0,2e7\n"
         "one,0,sensing,0,0,40,0,0.0,2e7\n", 3, "invalid literal for int"),
        (",".join(simulator._TRACE_HEADER) + "\n2,0,sensing,0,0,high,0,0.0,2e7\n", 2,
         "could not convert string to float"),
    ], ids=["empty", "header", "short-row", "long-row", "unparsed-slot", "unparsed-altitude"])
    def test_a_malformed_file_raises_naming_the_line(self, tmp_path, text, line, what):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"trace.csv: line {line}: {what}"):
            read_trace(path)


class TestPlanTimeline:
    """``UavPlan.first_slot`` and ``planned_completion`` against simulated
    runs in which nothing is contended (one subcarrier per UAV)."""

    @staticmethod
    def _runs(masked):
        """Per seed, the slow initial plans (unmasked only) and their
        re-plan, against no mask or a contended run's grants (K=2 for 8
        UAVs), each simulated with K=M."""
        from uavsense.bench import generate_scenario
        from uavsense.itsso import _build_plans, masks_from_outcome, overhead_locations
        from uavsense.placement import replan_plans

        for seed in (3, 8):
            sc = generate_scenario(ScenarioConfig(m=8, n=8, q=2, k=2, seed=seed))
            slow = _build_plans(sc, overhead_locations(sc, KIN.h_min))
            if masked:
                masks = masks_from_outcome(run(slow, GreedyScheduler(sc.k), sc.tasks, CP, KIN,
                                               record_trace=False))
                assert any(not all(mask) for mask in masks.values())
                candidates = [replan_plans(slow, sc.tasks, CP, KIN, masks, None)]
            else:
                candidates = [slow, replan_plans(slow, sc.tasks, CP, KIN, None, None)]
            for plans in candidates:
                out = run(plans, GreedyScheduler(len(plans)), sc.tasks, CP, KIN)
                assert out.grants == out.requests  # nothing contended
                yield plans, out

    @pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
    def test_sensing_slots_follow_the_legs(self, masked):
        for plans, out in self._runs(masked):
            for p in plans:
                assert sensing_slots(out, p.uav) == [
                    p.first_slot(i + 1) - 1 for i in range(p.n_tasks)]

    def test_unmasked_plans_complete_as_planned(self):
        for plans, out in self._runs(False):
            for p in plans:
                assert out.completion_times[p.uav] == p.planned_completion()

    def test_drains_planned_against_masks_finish_no_later(self):
        for plans, out in self._runs(True):
            for p in plans:
                assert out.completion_times[p.uav] <= p.planned_completion()


def _initial_plans(sc):
    """The initial plans of a seeded scheme run (``fsl`` pins its locations)."""
    from uavsense.bench import _ITSSO_SEED_OFFSET
    from uavsense.itsso import ItssoConfig, initial_solution

    return initial_solution(sc, ItssoConfig(rng_seed=sc.config.seed + _ITSSO_SEED_OFFSET)).plans


class TestIdleUavsSleep:
    """Untraced runs skip the empty slots of UAVs with nothing to send; a
    traced run steps every UAV, so the two must agree."""

    @pytest.mark.parametrize("cfg", [
        ScenarioConfig(seed=7_150_000),  # itsso at the table point
        ScenarioConfig(seed=7_150_001, scheme="fsl"),
        nc_config(ScenarioConfig(seed=7_150_002)),
        ScenarioConfig(seed=7_150_003, m=10, n=10, k=1),
    ], ids=["itsso", "fsl", "nc", "k1"])
    def test_untraced_run_matches_the_traced_run(self, cfg, monkeypatch):
        sc, final = _final_plans(cfg)
        initial = _initial_plans(sc)
        sleeps = []
        real_sleep = simulator._Runtime.sleep
        monkeypatch.setattr(simulator._Runtime, "sleep",
                            lambda st, slot: sleeps.append(slot) or real_sleep(st, slot))
        for plans in (initial, final):
            for make in (lambda: GreedyScheduler(sc.k), lambda: RandomScheduler(sc.k, 3)):
                del sleeps[:]
                fast = run(plans, make(), sc.tasks, sc.channel, sc.kinematics,
                           record_trace=False)
                assert sleeps and 0 in sleeps  # idle UAVs slept, from slot 0 on
                del sleeps[:]
                slow = run(plans, make(), sc.tasks, sc.channel, sc.kinematics)
                assert not sleeps
                assert any(row.slot_type == EMPTY for row in slow.trace)
                assert fast.completion_times == slow.completion_times
                assert fast.grants == slow.grants
                assert fast.requests == slow.requests
                replayed = run(plans, ReplayScheduler(fast.grants), sc.tasks, sc.channel,
                               sc.kinematics)
                assert replayed.grants == fast.grants
                for out in (fast, slow, replayed):
                    # one grant set per slot, up to the slot the last UAV completes
                    # in: equal grants imply an equal t_max
                    assert len(out.grants) == len(out.requests) == out.t_max == \
                        max(out.completion_times.values(), default=0)

    def test_untraced_run_reads_no_waypoint(self, monkeypatch):
        sc, plans = _final_plans(ScenarioConfig(seed=7_150_004))
        want = run(plans, GreedyScheduler(sc.k), sc.tasks, sc.channel, sc.kinematics,
                   record_trace=False)

        def unread(leg):
            raise AssertionError("the waypoints were read")

        monkeypatch.setattr(Leg, "waypoints", property(unread))
        got = run(plans, GreedyScheduler(sc.k), sc.tasks, sc.channel, sc.kinematics,
                  record_trace=False)
        assert (got.completion_times, got.requests, got.grants) == \
            (want.completion_times, want.requests, want.grants)
        with pytest.raises(AssertionError, match="waypoints were read"):
            run(plans, GreedyScheduler(sc.k), sc.tasks, sc.channel, sc.kinematics)

    def test_empty_payload_then_a_leg_without_waypoints(self):
        # sensing a 0-bit payload starts a leg with no waypoints: the UAV
        # idles one slot, as a traced run steps it, then senses again
        from types import SimpleNamespace

        loc = Position3(100, 0, 10)
        tasks = {0: SimpleNamespace(data_size=0.0), 1: SimpleNamespace(data_size=20e6)}
        leg0 = optimize_leg(Position3(0, 0, 40), loc, 0.0, CP, KIN)
        plan = UavPlan(0, Position3(0, 0, 40), [0, 1], [loc, loc],
                       [leg0, optimize_leg(loc, loc, 0.0, CP, KIN)],
                       drain_leg(loc, 20e6, CP, KIN))
        assert plan.legs[1].slots == 0
        fast = run([plan], GreedyScheduler(1), tasks, CP, KIN, record_trace=False)
        slow = run([plan], GreedyScheduler(1), tasks, CP, KIN)
        sensed = leg0.slots + 1
        assert sensing_slots(slow, 0) == [sensed, sensed + 2]
        assert [r.slot_type for r in slow.trace[sensed - 1:sensed + 2]] == \
            [SENSING, EMPTY, SENSING]
        assert fast.completion_times == slow.completion_times
        assert fast.grants == slow.grants and fast.requests == slow.requests

    def test_slots_in_which_every_uav_sleeps_are_skipped(self):
        # every UAV sleeps through its first leg from slot 0, so the slots
        # before the first sensing slot are skipped whole, each logged as the
        # shared empty set; the traced run steps them to the same logs
        tasks = {0: Task(0, Position3(400, 0, 0), 20e6, (0,)),
                 1: Task(1, Position3(0, 400, 0), 20e6, (1,)),
                 2: Task(2, Position3(300, 300, 0), 20e6, (0, 1))}
        plans = [
            make_plan(0, Position3(0, 0, 40), [Position3(400, 0, 15), Position3(300, 290, 20)],
                      [0, 2], tasks),
            make_plan(1, Position3(50, 0, 40), [Position3(0, 400, 15), Position3(290, 300, 20)],
                      [1, 2], tasks),
        ]
        fast = run(plans, GreedyScheduler(1), tasks, CP, KIN, record_trace=False)
        slow = run(plans, GreedyScheduler(1), tasks, CP, KIN)
        first = min(p.legs[0].slots for p in plans if p.n_tasks)
        assert first >= 2
        skipped = [t for t, req in enumerate(fast.requests, 1) if req is simulator._NOTHING]
        assert skipped[:first] == list(range(1, first + 1))
        assert all(fast.grants[t - 1] is simulator._NOTHING for t in skipped)
        assert not any(req is simulator._NOTHING for req in slow.requests)
        assert (fast.requests, fast.grants) == (slow.requests, slow.grants)

    def test_slot_cap_while_every_uav_sleeps(self, monkeypatch):
        # the cap falls inside the first leg, which the UAV sleeps through
        tasks = {0: Task(0, Position3(400, 0, 0), 20e6, (0,))}
        plan = make_plan(0, Position3(0, 0, 40), [Position3(400, 0, 15)], [0], tasks)
        assert plan.legs[0].slots > 5
        monkeypatch.setattr(simulator, "_MAX_SLOTS", 5)
        for record_trace in (False, True):
            with pytest.raises(RuntimeError, match="UAV 0 still holds 0 bits on leg 0"):
                run([plan], GreedyScheduler(1), tasks, CP, KIN, record_trace=record_trace)


class _ReadsEveryEstimate(GreedyScheduler):
    """Grants like ``GreedyScheduler`` and keeps every requester's estimate."""

    def __init__(self, k):
        super().__init__(k)
        self.reads: list[tuple[int, float]] = []

    def grant(self, slot, requesters):
        self.reads += [(uav, -key) for key, _, uav in
                       update_completion_estimates(requesters, slot)]
        return super().grant(slot, requesters)


class TestProjectionRelation:
    def test_projection_never_undershoots_the_realized_completion(self):
        # each UAV of a final plan replayed alone, every slot granted: the
        # projection read in any slot is at or above the completion slot,
        # above it by a few slots at most
        below = equal = above = 0
        for overrides in (dict(), dict(m=10, n=10, k=2), dict(scheme="fsl")):
            for i in range(6):
                cfg = ScenarioConfig(seed=7_095_000 + i, **overrides)
                sc, plans = _final_plans(cfg)
                for plan in plans:
                    sched = _ReadsEveryEstimate(1)
                    out = run([plan], sched, sc.tasks, sc.channel, sc.kinematics,
                              record_trace=False)
                    done = out.completion_times[plan.uav]
                    for uav, est in sched.reads:
                        assert uav == plan.uav
                        assert done <= est <= done + 5
                        below += est < done
                        equal += est == done
                        above += est > done
        assert (below, equal, above) == (0, 1968, 1157)

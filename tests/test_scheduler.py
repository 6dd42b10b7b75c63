"""Subcarrier allocation tests: cap, priorities, tie-breaks, estimates."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsense.channel import ChannelParams, Position3
from uavsense.scheduler import (
    GreedyScheduler,
    RandomScheduler,
    schedule_slot,
)
from uavsense.sensing import Task
from uavsense.simulator import UavPlan, run
from uavsense.trajectory import KinematicParams, drain_leg, optimize_leg

CP = ChannelParams()
KIN = KinematicParams()


def _keys(requests, times, residuals):
    """The ranking keys ``update_completion_estimates`` makes, from plain
    per-UAV estimates and residuals."""
    return [(-times[i], -residuals[i], i) for i in requests]


class TestScheduleSlot:
    def test_empty_requests(self):
        assert schedule_slot([], 10) == frozenset()

    def test_all_granted_under_cap(self):
        t = {1: 5.0, 2: 9.0, 3: 1.0}
        assert schedule_slot(_keys([1, 2, 3], t, dict.fromkeys(t, 1e6)), 10) == {1, 2, 3}

    def test_contention_takes_largest_completion_times(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            uavs = list(range(12))
            times = {i: float(rng.integers(0, 40)) for i in uavs}
            granted = schedule_slot(_keys(uavs, times, dict.fromkeys(uavs, 1e6)), 10)
            assert len(granted) == 10
            denied = set(uavs) - granted
            # sort-based oracle with the documented tie-break (equal residuals)
            order = sorted(uavs, key=lambda i: (-times[i], i))
            assert granted == set(order[:10])
            assert min(times[i] for i in granted) >= max(
                times[i] for i in denied) or any(
                times[g] == times[d] for g in granted for d in denied)

    def test_priority_correctness_strict(self):
        times = {1: 10.0, 2: 20.0, 3: 30.0, 4: 40.0}
        residuals = {1: 9e6, 2: 9e6, 3: 1e6, 4: 1e6}
        granted = schedule_slot(_keys([1, 2, 3, 4], times, residuals), 2)
        assert granted == {3, 4}

    def test_residual_tie_break(self):
        times = {1: 10.0, 2: 10.0, 3: 10.0}
        residuals = {1: 5e6, 2: 9e6, 3: 1e6}
        assert schedule_slot(_keys([1, 2, 3], times, residuals), 1) == {2}

    def test_id_tie_break(self):
        times = {4: 10.0, 7: 10.0}
        residuals = {4: 1e6, 7: 1e6}
        assert schedule_slot(_keys([4, 7], times, residuals), 1) == {4}

    def test_cap_always_respected(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(1, 25))
            k = int(rng.integers(1, 12))
            times = {i: float(rng.integers(0, 50)) for i in range(n)}
            granted = schedule_slot(_keys(range(n), times, dict.fromkeys(times, 1e6)), k)
            assert len(granted) <= k
            if n <= k:
                assert len(granted) == n

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(ranks=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1,
                          max_size=12),
           k=st.integers(1, 12), order=st.randoms(use_true_random=False))
    def test_tied_keys_rank_projection_then_residual_then_lower_id(self, ranks, k, order):
        # few distinct values, so projections and residuals tie often; the
        # winners do not depend on the order of the keys
        times = {i: float(p) for i, (p, _) in enumerate(ranks)}
        residuals = {i: 1e6 * r for i, (_, r) in enumerate(ranks)}
        uavs = list(times)
        order.shuffle(uavs)
        granted = schedule_slot(_keys(uavs, times, residuals), k)
        ranked = sorted(times, key=lambda i: (-times[i], -residuals[i], i))
        assert granted == set(ranked[:k])
        for g in granted:
            for d in set(times) - granted:
                # a winner beats every loser on projection, then on residual
                # at an equal projection, then on the lower id at both equal
                assert (times[g], residuals[g], -g) > (times[d], residuals[d], -d)


def _one_task_plan(uav, start, loc, data, tasks):
    leg = optimize_leg(start, loc, 0.0, CP, KIN)
    drain = drain_leg(loc, data, CP, KIN)
    return UavPlan(uav, start, [uav], [loc], [leg], drain)


class TestEstimates:
    def _symmetric_pair(self, k):
        # two identical UAVs draining one task each under k subcarriers
        tasks = {}
        plans = []
        for uav, sx in ((0, 200.0), (1, -200.0)):
            loc = Position3(sx, 0.0, 30.0)
            tasks[uav] = Task(uav, Position3(sx, 0.0, 0.0), 30e6, (uav,))
            plans.append(_one_task_plan(uav, loc, loc, 30e6, tasks))
        return plans, tasks

    def test_denial_never_decreases_estimate(self):
        # same scenario under k=1 vs k=2: the winner's completion is equal,
        # losers finish strictly later
        plans, tasks = self._symmetric_pair(1)
        out1 = run(plans, GreedyScheduler(1), tasks, CP, KIN, record_trace=False)
        plans2, tasks2 = self._symmetric_pair(2)
        out2 = run(plans2, GreedyScheduler(2), tasks2, CP, KIN, record_trace=False)
        for uav in (0, 1):
            assert out1.completion_times[uav] >= out2.completion_times[uav]
        assert out1.t_max > out2.t_max

    def test_finished_uav_estimate_frozen(self):
        plans, tasks = self._symmetric_pair(2)
        out = run(plans, GreedyScheduler(2), tasks, CP, KIN, record_trace=False)
        assert out.t_max == max(out.completion_times.values())

    def test_permutation_equivariance(self):
        # relabeling UAV ids permutes completion times identically
        tasks = {}
        plans = []
        coords = [(150.0, 90.0), (-230.0, 50.0), (40.0, -300.0)]
        for uav, (x, y) in enumerate(coords):
            loc = Position3(x, y, 30.0)
            tasks[uav] = Task(uav, Position3(x, y, 0.0), 25e6, (uav,))
            plans.append(_one_task_plan(uav, loc, loc, 25e6, tasks))
        base = run(plans, GreedyScheduler(1), tasks, CP, KIN, record_trace=False)

        perm = {0: 2, 1: 0, 2: 1}
        tasks2 = {}
        plans2 = []
        for uav, (x, y) in enumerate(coords):
            nid = perm[uav]
            loc = Position3(x, y, 30.0)
            tasks2[nid] = Task(nid, Position3(x, y, 0.0), 25e6, (nid,))
            leg = optimize_leg(loc, loc, 0.0, CP, KIN)
            drain = drain_leg(loc, 25e6, CP, KIN)
            plans2.append(UavPlan(nid, loc, [nid], [loc], [leg], drain))
        out2 = run(plans2, GreedyScheduler(1), tasks2, CP, KIN, record_trace=False)
        # identical geometries contend identically up to the id tie-break;
        # the multiset of completion times is preserved
        assert sorted(base.completion_times.values()) == sorted(
            out2.completion_times.values())


class _Requester:
    """A requester as the simulator passes it, which no random or replay
    grant may project."""

    def __init__(self, uav):
        self.uav = uav
        self.residual = 1.0

    def projected_completion(self, slot):
        raise AssertionError("a random grant projected a requester")


class TestRandomScheduler:
    def test_deterministic_under_seed(self):
        a = RandomScheduler(3, seed=99)
        b = RandomScheduler(3, seed=99)
        requesters = [_Requester(i) for i in range(8)]
        for slot in range(1, 20):
            assert a.grant(slot, requesters) == b.grant(slot, requesters)

    def test_cap(self):
        s = RandomScheduler(3, seed=1)
        granted = s.grant(1, [_Requester(i) for i in range(10)])
        assert len(granted) == 3

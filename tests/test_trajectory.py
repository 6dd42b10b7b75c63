"""Leg-planner tests: bounds, gradient direction, detour search, speed optimality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavsense.channel import ChannelParams, Position3, rate_at
from uavsense.trajectory import (
    KinematicParams,
    LegCache,
    LegInfeasible,
    constant_speed_leg,
    delta_lower_bound,
    drain_leg,
    grant_from_mask,
    initial_leg,
    optimize_leg,
    rate_gradient,
)

CP = ChannelParams()
KIN = KinematicParams()  # v_max=50, h_min=10


def random_position(rng, zmin=10.0, zmax=120.0):
    return Position3(rng.uniform(-400, 400), rng.uniform(-400, 400),
                     rng.uniform(zmin, zmax))


def mask_of(bits: str) -> list[bool]:
    return [b == "1" for b in bits]


def masked_capacity(waypoints, mask, first_slot) -> float:
    """Independent capacity: rates re-evaluated, summed over granted slots."""
    total = 0.0
    for k, p in enumerate(waypoints):
        slot = first_slot + k
        if slot < 1 or slot > len(mask) or mask[slot - 1]:
            total += rate_at(p.x, p.y, p.z, CP)
    return total


def near_pathloss_kink(pos: Position3) -> bool:
    """Non-differentiable loci of the rate: the LoS branch point and the
    boundary where the clamped LoS probability saturates at one."""
    d_h = math.hypot(pos.x, pos.y)
    d1 = max(460 * math.log10(pos.z) - 700, 18.0)
    if abs(d_h - d1) < 2.0:
        return True
    if d_h > d1:
        p0 = 4300 * math.log10(pos.z) - 3800
        raw = d1 / d_h + math.exp((-d_h / p0) * (1 - d1 / d_h))
        if abs(raw - 1.0) < 0.02:
            return True
    return False


class TestDeltaLowerBound:
    def test_zero_distance(self):
        p = Position3(10, 10, 20)
        assert delta_lower_bound(p, p, KIN) == 0

    def test_fractional(self):
        assert delta_lower_bound(Position3(0, 0, 10), Position3(125, 0, 10), KIN) == 3

    def test_exact_division(self):
        assert delta_lower_bound(Position3(0, 0, 10), Position3(100, 0, 10), KIN) == 2


class TestRateGradient:
    def test_points_toward_bs_from_afar(self):
        g = rate_gradient(Position3(300, 0, 80), CP, KIN)
        assert g is not None and g[0] < 0

    def test_floor_clamps_vertical(self):
        pos = Position3(350, 0, KIN.h_min)
        g = rate_gradient(pos, CP, KIN)
        assert g is not None
        assert pos.z + KIN.v_max * g[2] >= KIN.h_min - 1e-9

    def test_matches_independent_finite_differences(self):
        # independent oracle: fresh central differences at a 10x smaller step;
        # the comparison skips the pathloss branch point (not differentiable)
        # and clamped directions (intentionally altered)
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 100:
            pos = random_position(rng, zmin=12.0)
            if near_pathloss_kink(pos):
                continue
            g = rate_gradient(pos, CP, KIN)
            if g is None or g[2] == 0.0:
                continue
            h = 0.01
            ref = np.array([
                rate_at(pos.x + h, pos.y, pos.z, CP) - rate_at(pos.x - h, pos.y, pos.z, CP),
                rate_at(pos.x, pos.y + h, pos.z, CP) - rate_at(pos.x, pos.y - h, pos.z, CP),
                rate_at(pos.x, pos.y, pos.z + h, CP) - rate_at(pos.x, pos.y, pos.z - h, CP),
            ])
            norm = np.linalg.norm(ref)
            if norm < 1e-12:
                continue
            ref /= norm
            cos = float(np.clip(np.dot(ref, np.asarray(g)), -1.0, 1.0))
            assert math.acos(cos) < 1e-3
            checked += 1


class TestOptimizeLeg:
    def test_no_data_gives_straight_line(self):
        start, end = Position3(200, 0, 40), Position3(50, 100, 30)
        leg = optimize_leg(start, end, 0.0, CP, KIN)
        assert leg.detour_slots == 0
        assert leg.route_slots == delta_lower_bound(start, end, KIN)
        assert leg.turning_point == start
        assert leg.waypoints[-1] == end

    def test_small_residual_fits_straight(self):
        start, end = Position3(200, 0, 40), Position3(50, 100, 30)
        straight = optimize_leg(start, end, 0.0, CP, KIN)
        cap = sum(straight.rates)
        leg = optimize_leg(start, end, 0.5 * cap, CP, KIN)
        assert leg.detour_slots == 0 and leg.slots == straight.slots

    def test_oversized_residual_extends_leg(self):
        start, end = Position3(300, 300, 40), Position3(250, 350, 30)
        straight = optimize_leg(start, end, 0.0, CP, KIN)
        residual = 1.5 * sum(straight.rates)
        leg = optimize_leg(start, end, residual, CP, KIN)
        assert leg.slots > straight.slots
        # independent re-check of the data constraint over the waypoints
        assert sum(rate_at(p.x, p.y, p.z, CP) for p in leg.waypoints) >= residual

    def test_heavy_residual_detours_toward_bs(self):
        start, end = Position3(400, 400, 40), Position3(350, 420, 30)
        straight = optimize_leg(start, end, 0.0, CP, KIN)
        leg = optimize_leg(start, end, 6.0 * sum(straight.rates), CP, KIN)
        assert leg.detour_slots >= 1
        # the turning point is strictly closer to the BS than the start
        bs = CP.bs_position
        assert leg.turning_point.dist(bs) < start.dist(bs)

    def test_kinematic_invariants(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            start, end = random_position(rng), random_position(rng)
            straight = optimize_leg(start, end, 0.0, CP, KIN)
            residual = rng.uniform(0.5, 2.5) * max(sum(straight.rates), 1e6)
            leg = optimize_leg(start, end, residual, CP, KIN)
            prev = start
            for p in leg.waypoints:
                assert prev.dist(p) <= KIN.v_max + 1e-9
                assert p.z >= KIN.h_min - 1e-9
                prev = p
            assert leg.waypoints[-1] == end
            assert leg.detour_slots + leg.route_slots == leg.slots
            assert sum(leg.rates) >= residual

    def test_budget_minimality(self):
        # no candidate family admits a shorter leg than the one returned
        rng = np.random.default_rng(29)
        for _ in range(15):
            start, end = random_position(rng), random_position(rng)
            straight = optimize_leg(start, end, 0.0, CP, KIN)
            residual = rng.uniform(1.1, 2.0) * max(sum(straight.rates), 1e6)
            leg = optimize_leg(start, end, residual, CP, KIN)
            n = leg.slots
            if n <= straight.slots:
                continue
            from uavsense.trajectory import _even_waypoints
            shorter = _even_waypoints(start, end, n - 1)
            assert sum(rate_at(p.x, p.y, p.z, CP) for p in shorter) < residual

    def test_infeasible_leg_raises(self):
        start = Position3(480, 480, 10)
        end = Position3(470, 470, 10)
        with pytest.raises(LegInfeasible):
            optimize_leg(start, end, 1e12, CP, KIN, max_detour_factor=1)

    def test_mask_never_shortens_leg(self):
        start, end = Position3(300, 300, 40), Position3(200, 250, 30)
        straight = optimize_leg(start, end, 0.0, CP, KIN)
        residual = 0.9 * sum(straight.rates)
        full = optimize_leg(start, end, residual, CP, KIN)
        blocked = optimize_leg(start, end, residual, CP, KIN,
                               is_granted=lambda s: s % 2 == 0, first_slot=1)
        assert blocked.slots >= full.slots


class TestMaskedFamilies:
    """Masked cases, found by a seeded search, where each straight-line
    family wins only because the mask denies slots."""

    def test_hover_at_end(self):
        start, end = Position3(-222.0, 31.0, 94.0), Position3(-306.0, -18.0, 105.0)
        mask = mask_of("100000111001000100001011011100")
        residual = 34.1e6
        leg = optimize_leg(start, end, residual, CP, KIN, grant_from_mask(mask), 1)
        dlb = delta_lower_bound(start, end, KIN)
        assert (dlb, leg.slots, leg.detour_slots) == (2, 9, 0)
        # full speed to the end, then transmit from there
        assert leg.waypoints[:dlb] == optimize_leg(start, end, 0.0, CP, KIN).waypoints
        assert leg.waypoints[dlb:] == [end] * (leg.slots - dlb)
        assert masked_capacity(leg.waypoints, mask, 1) >= residual
        assert masked_capacity(leg.waypoints[:-1], mask, 1) < residual
        assert optimize_leg(start, end, residual, CP, KIN).slots == 4

    def test_even_line(self):
        start, end = Position3(191.0, 138.0, 104.0), Position3(206.0, 182.0, 75.0)
        mask = mask_of("101000010000110010011000000100")
        residual = 31.1e6
        leg = optimize_leg(start, end, residual, CP, KIN, grant_from_mask(mask), 1)
        n = leg.slots
        assert (delta_lower_bound(start, end, KIN), n, leg.detour_slots) == (2, 8, 0)
        for k, p in enumerate(leg.waypoints, start=1):
            f = k / n
            ref = (start.x + f * (end.x - start.x), start.y + f * (end.y - start.y),
                   start.z + f * (end.z - start.z))
            assert p == pytest.approx(ref, abs=1e-9)
        assert masked_capacity(leg.waypoints, mask, 1) >= residual
        shorter = [Position3(*(a + k / (n - 1) * (b - a) for a, b in zip(start, end)))
                   for k in range(1, n)]
        assert masked_capacity(shorter, mask, 1) < residual
        assert optimize_leg(start, end, residual, CP, KIN).slots == 3

    def test_grant_from_mask_is_optimistic_outside_the_mask(self):
        grant = grant_from_mask([False, True])
        assert [grant(s) for s in (-1, 0, 1, 2, 3)] == [True, True, False, True, True]
        assert grant_from_mask(None) is None


def _planned(start, end, residual, grant, first_slot, cache):
    try:
        return optimize_leg(start, end, residual, CP, KIN, grant, first_slot, cache=cache)
    except LegInfeasible:
        return "infeasible"


_coord = st.floats(-400, 400, allow_nan=False)
_point = st.builds(Position3, _coord, _coord, st.floats(10, 120, allow_nan=False))
_offset = st.builds(Position3, st.floats(-150, 150), st.floats(-150, 150), st.floats(-60, 60))
# three denied slots to one granted, as in crowded runs
_mask = st.lists(st.sampled_from([False, False, False, True]), max_size=60)


class TestLegCache:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(start=_point, offset=_offset, residual=st.floats(0, 120e6), mask=_mask,
           first_slot=st.integers(-3, 40), other=_offset, other_mask=_mask)
    def test_warm_cache_matches_cold(self, start, offset, residual, mask, first_slot,
                                     other, other_mask):
        end = Position3(start.x + offset.x, start.y + offset.y, max(10.0, start.z + offset.z))
        grant = grant_from_mask(mask)
        cold = _planned(start, end, residual, grant, first_slot, None)
        cache = LegCache(CP, KIN)
        # other plans from the same start grow the shared walk and line rates
        near = Position3(start.x + other.x, start.y + other.y, max(10.0, start.z + other.z))
        _planned(start, near, 2 * residual, grant_from_mask(other_mask), 1, cache)
        _planned(start, end, 0.5 * residual, None, 0, cache)
        try:
            drain_leg(start, residual, CP, KIN, grant_from_mask(other_mask), 1,
                      max_slots=200, cache=cache)
        except LegInfeasible:
            pass
        warm = _planned(start, end, residual, grant, first_slot, cache)
        assert warm == cold
        if cold != "infeasible":
            assert warm.waypoints == cold.waypoints and warm.rates == cold.rates
            assert (warm.detour_slots, warm.route_slots) == (cold.detour_slots, cold.route_slots)
        assert _planned(start, end, residual, grant, first_slot, cache) == cold

    def test_mutating_a_leg_leaves_later_plans_intact(self):
        start, end = Position3(400, 400, 40), Position3(350, 420, 30)
        straight = optimize_leg(start, end, 0.0, CP, KIN)
        grant = grant_from_mask(mask_of("1101" * 10))
        heavy = 6.0 * sum(straight.rates)
        plans = [  # a drain, the straight line and a detoured leg
            lambda cache: drain_leg(start, heavy, CP, KIN, grant, 1, cache=cache),
            lambda cache: optimize_leg(start, end, 0.0, CP, KIN, grant, 1, cache=cache),
            lambda cache: optimize_leg(start, end, heavy, CP, KIN, grant, 1, cache=cache),
        ]
        expected = [plan(None) for plan in plans]
        assert expected[2].detour_slots >= 1
        cache = LegCache(CP, KIN)
        for _ in range(2):
            for plan, want in zip(plans, expected):
                got = plan(cache)
                assert got == want
                got.waypoints.reverse()
                got.waypoints[0] = Position3(0.0, 0.0, 99.0)
                got.waypoints.append(start)
                got.rates[:] = [0.0] * len(got.rates)
                got.rates.append(1.0)

    def test_drain_is_a_prefix_of_the_gradient_walk(self):
        start = Position3(400, 300, 60)
        cache = LegCache(CP, KIN)
        # a detoured leg from the same start walks the gradient first
        far = Position3(420, 320, 50)
        assert optimize_leg(start, far, 150e6, CP, KIN, cache=cache).detour_slots > 0
        walk = cache.walk(start)
        walk.extend(40)
        pos = start
        for p in walk.pts[:5]:
            g = rate_gradient(pos, CP, KIN)
            pos = Position3(pos.x + KIN.v_max * g[0], pos.y + KIN.v_max * g[1],
                            max(pos.z + KIN.v_max * g[2], KIN.h_min))
            assert p == pos
        for mask in (None, mask_of("0110100111"), mask_of("0001")):
            grant = grant_from_mask(mask)
            for residual in (5e6, 40e6, 120e6):
                cold = drain_leg(start, residual, CP, KIN, grant, 2)
                k = cold.slots
                assert cold.waypoints == walk.pts[:k] and cold.rates == walk.rates[:k]
                assert cold.turning_point == walk.pts[k - 1]
                assert drain_leg(start, residual, CP, KIN, grant, 2, cache=cache) == cold

    def test_refuses_other_parameters(self):
        cache = LegCache(CP, KIN)
        start, end = Position3(300, 0, 40), Position3(0, 300, 40)
        slow = KinematicParams(v_max=30.0)
        with pytest.raises(ValueError):
            optimize_leg(start, end, 0.0, CP, slow, cache=cache)
        with pytest.raises(ValueError):
            drain_leg(start, 1e6, ChannelParams(tx_power=20.0), KIN, cache=cache)


class TestSpeedOptimality:
    def test_full_speed_never_loses(self):
        # legs built by the planner at the speed cap finish in no more slots
        # than constant-speed builds at slower speeds (and at the cap itself)
        rng = np.random.default_rng(31)
        for _ in range(25):
            start = Position3(rng.uniform(0, 500), rng.uniform(0, 500), rng.uniform(10, 100))
            end = Position3(rng.uniform(0, 500), rng.uniform(0, 500), rng.uniform(10, 100))
            residual = 20e6
            best = optimize_leg(start, end, residual, CP, KIN).slots
            for frac in (0.5, 0.7, 0.9, 1.0):
                ref = constant_speed_leg(start, end, residual,
                                         frac * KIN.v_max, CP, KIN).slots
                assert best <= ref


class TestDrainLeg:
    def test_empty_for_no_data(self):
        leg = drain_leg(Position3(100, 100, 30), 0.0, CP, KIN)
        assert leg.slots == 0

    def test_delivers_residual(self):
        leg = drain_leg(Position3(400, 300, 60), 80e6, CP, KIN)
        assert sum(leg.rates) >= 80e6
        assert leg.route_slots == 0
        assert leg.turning_point == leg.waypoints[-1]

    def test_rates_improve_along_walk(self):
        leg = drain_leg(Position3(400, 300, 60), 120e6, CP, KIN)
        assert leg.rates[-1] > leg.rates[0]


class TestInitialLeg:
    def test_even_pacing_and_capacity(self):
        start, end = Position3(400, 0, 50), Position3(100, 200, 30)
        leg = initial_leg(start, end, 40e6, 5.0, CP, KIN)
        steps = []
        prev = start
        for p in leg.waypoints:
            steps.append(prev.dist(p))
            prev = p
        assert max(steps) <= 5.0 + 1e-9
        assert sum(leg.rates) >= 40e6
        assert leg.waypoints[-1] == end

    def test_halving_speed_doubles_slots(self):
        start, end = Position3(0, 0, 10), Position3(250, 0, 10)
        a = initial_leg(start, end, 0.0, 5.0, CP, KIN)
        b = initial_leg(start, end, 0.0, 2.5, CP, KIN)
        assert a.slots == 50 and b.slots == 100

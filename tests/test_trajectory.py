"""Leg-planner tests: bounds, gradient direction, detour search, speed optimality."""

import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from uavsense import trajectory
from uavsense.channel import (
    ChannelDomainError,
    ChannelParams,
    Position3,
    rate_at,
    rate_gradient_at,
    segment_rate_ceiling,
)
from uavsense.itsso import _leg_to_dict
from uavsense.trajectory import (
    KinematicParams,
    Leg,
    LegCache,
    LegInfeasible,
    constant_speed_leg,
    delta_lower_bound,
    drain_leg,
    initial_leg,
    optimize_leg,
    rate_gradient,
    replan_leg,
)
from uavsense.trajectory import _BS_STANDOFF, _grant_window, _Line, _gradient_step

CP = ChannelParams()
KIN = KinematicParams()  # v_max=50, h_min=10


def even_waypoints(start: Position3, end: Position3, slots: int) -> list[Position3]:
    """Reference evenly paced line, built eagerly: point k at k/slots of the
    way, the last exactly at the end."""
    pts = []
    for k in range(1, slots + 1):
        f = k / slots
        pts.append(Position3(
            start.x + f * (end.x - start.x),
            start.y + f * (end.y - start.y),
            start.z + f * (end.z - start.z),
        ))
    pts[-1] = end
    return pts


def frontload_waypoints(start: Position3, end: Position3, speed: float,
                        slots: int) -> list[Position3]:
    """Reference full-speed line, built eagerly: full-speed steps with the
    remainder on the last one."""
    d = start.dist(end)
    if slots == 0:
        return []
    ux, uy, uz = (end.x - start.x) / d, (end.y - start.y) / d, (end.z - start.z) / d
    pts = [Position3(start.x + min(k * speed, d) * ux,
                     start.y + min(k * speed, d) * uy,
                     start.z + min(k * speed, d) * uz)
           for k in range(1, slots + 1)]
    pts[-1] = end
    return pts


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


def central_differences(pos: Position3, cp: ChannelParams,
                        step: float = 0.1) -> tuple[float, float, float]:
    """Rate differences across a central stencil of half-width ``step``; the
    lower z probe is kept inside the z > 0 domain."""
    x, y, z = pos
    return (rate_at(x + step, y, z, cp) - rate_at(x - step, y, z, cp),
            rate_at(x, y + step, z, cp) - rate_at(x, y - step, z, cp),
            rate_at(x, y, z + step, cp) - rate_at(x, y, max(z - step, 1e-6), cp))


def central_difference_gradient(pos: Position3, cp: ChannelParams, kin: KinematicParams):
    """Reference ``rate_gradient``: the direction of the 0.1 m central
    differences, with the planner's floor clamp."""
    gx, gy, gz = central_differences(pos, cp)
    norm = math.sqrt(gx * gx + gy * gy + gz * gz)
    if norm <= 0.0 or not math.isfinite(norm):
        return None
    gx, gy, gz = gx / norm, gy / norm, gz / norm
    if pos.z + kin.v_max * gz < kin.h_min:
        h = math.hypot(gx, gy)
        if h <= 1e-12:
            return None
        return (gx / h, gy / h, 0.0)
    return (gx, gy, gz)


def bisection_gradient_step(pos: Position3, speed: float, cp: ChannelParams,
                            kin: KinematicParams) -> Position3:
    """Reference gradient-walk step: along ``central_difference_gradient``,
    pulled back by a 40-step bisection to where it enters the BS standoff.
    Gradient walks stepped so when the ``TestGrantedSlotScan`` pins were
    recorded."""
    g = central_difference_gradient(pos, cp, kin)
    if g is None:
        h = math.hypot(pos.x, pos.y)
        if h <= 1e-9:
            return pos
        d = min(speed, h)
        nxt = Position3(pos.x - d * pos.x / h, pos.y - d * pos.y / h, pos.z)
    else:
        nxt = Position3(pos.x + speed * g[0], pos.y + speed * g[1],
                        max(pos.z + speed * g[2], kin.h_min))
    bs = cp.bs_position
    if nxt.dist(bs) < _BS_STANDOFF:
        vx, vy, vz = nxt.x - pos.x, nxt.y - pos.y, nxt.z - pos.z
        if math.sqrt(vx * vx + vy * vy + vz * vz) <= 1e-12:
            return pos
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            cand = Position3(pos.x + mid * vx, pos.y + mid * vy, pos.z + mid * vz)
            if cand.dist(bs) < _BS_STANDOFF:
                hi = mid
            else:
                lo = mid
        nxt = Position3(pos.x + lo * vx, pos.y + lo * vy, pos.z + lo * vz)
    return nxt


def rate_branch(x: float, y: float, z: float, cp: ChannelParams) -> tuple[bool, ...]:
    """Which piece of ``rate_at``'s formula a point takes: the 18 m floor of
    the breakpoint, inside the breakpoint, LoS probability clamped at 1 or
    at 0."""
    log_z = math.log10(z)
    d1_raw = 460.0 * log_z - 700.0
    d1 = max(d1_raw, 18.0)
    d_h = math.hypot(x, y)
    if d_h <= d1:
        return (d1_raw < 18.0, True, False, False)
    p = d1 / d_h + math.exp((-d_h / (4300.0 * log_z - 3800.0)) * (1.0 - d1 / d_h))
    return (d1_raw < 18.0, False, p >= 1.0, p < 0.0)


def angle(u, v) -> float:
    cos = float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))
    return math.acos(min(1.0, max(-1.0, cos)))


_cp = st.builds(ChannelParams, tx_power=st.sampled_from([23.0, 0.0, 10.0, 30.0]),
                bs_height=st.sampled_from([25.0, 10.0, 45.0, 80.0]))


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

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(x=st.floats(-800, 800), y=st.floats(-800, 800), z=st.floats(10.2, 150),
           cp=_cp)
    def test_analytic_gradient_matches_the_central_difference_off_the_branches(
            self, x, y, z, cp):
        # where no point of the 0.1 m stencil takes another piece of the
        # formula than the centre, the closed form points where the central
        # difference does, within 1e-3 rad, and is the rate's gradient: its
        # size is that of a 0.1 mm stencil's within 0.01%
        h = 0.1
        stencil = [(x + h, y, z), (x - h, y, z), (x, y + h, z), (x, y - h, z),
                   (x, y, z + h), (x, y, z - h)]
        branch = rate_branch(x, y, z, cp)
        assume(all(rate_branch(*p, cp) == branch for p in stencil))
        assume(math.hypot(x, y, z - cp.bs_height) > 1.0)
        g = np.asarray(rate_gradient_at(x, y, z, cp))
        ref = np.asarray(central_differences(Position3(x, y, z), cp, h)) / (2 * h)
        assert angle(g, ref) < 1e-3
        fine = np.asarray(central_differences(Position3(x, y, z), cp, 1e-4)) / 2e-4
        assert np.linalg.norm(g) == pytest.approx(np.linalg.norm(fine), rel=1e-4)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(log_r=st.floats(-8.99, 5.0), theta=st.floats(0.0, 2 * math.pi),
           z=st.floats(KIN.h_min, 200.0))
    def test_a_direction_exists_off_the_bs_vertical_axis(self, log_r, theta, z):
        # None would leave the walk hovering; off the axis it never is: the
        # floor rule acts below h_min + v_max = 60 m, where the horizontal
        # part of the gradient pulls toward the BS
        pos = Position3(10.0 ** log_r * math.cos(theta), 10.0 ** log_r * math.sin(theta), z)
        assume(math.hypot(pos.x, pos.y) > 1e-9 and pos.dist(CP.bs_position) >= 1.0)
        assert rate_gradient(pos, CP, KIN) is not None

    def test_on_the_bs_vertical_axis_the_walk_hovers(self):
        # straight above the BS below 60 m the gradient points down into the
        # floor; dropping its vertical part leaves no direction
        pos = Position3(0.0, 0.0, 40.0)
        assert rate_gradient(pos, CP, KIN) is None
        assert _gradient_step(pos, KIN.v_max, CP, KIN) is pos

    @pytest.mark.parametrize("pos", [
        CP.bs_position, Position3(30.0, 0.0, 0.0), Position3(0.0, 0.0, -5.0),
        Position3(-200.0, 100.0, -1e-9),
    ])
    def test_no_gradient_on_the_bs_or_at_or_below_the_ground(self, pos):
        with pytest.raises(ChannelDomainError):
            rate_at(pos.x, pos.y, pos.z, CP)
        with pytest.raises(ChannelDomainError, match="no channel rate gradient"):
            rate_gradient_at(pos.x, pos.y, pos.z, CP)
        with pytest.raises(ChannelDomainError):
            rate_gradient(pos, CP, KIN)


class TestBsStandoff:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(bs_height=st.sampled_from([25.0, 10.0, 45.0, 80.0]),
           x=st.floats(-17, 17), y=st.floats(-17, 17), dz=st.floats(-40, 0),
           overshoot=st.floats(-0.99, 0.99))
    def test_a_step_aimed_through_the_bs_stops_at_the_standoff(self, bs_height, x, y, dz,
                                                               overshoot):
        # inside the 18 m breakpoint the link is LoS, so from the BS height
        # or below (where the floor clamp leaves it alone) the rate gradient
        # points straight at the BS; a step whose end falls within the
        # standoff stops where it enters the standoff sphere
        cp = ChannelParams(bs_height=bs_height)
        bs = cp.bs_position
        pos = Position3(x, y, max(bs_height + dz, KIN.h_min))
        dist = pos.dist(bs)
        assume(dist > 1.5)
        assert angle(rate_gradient(pos, cp, KIN), np.subtract(bs, pos)) < 1e-6
        nxt = _gradient_step(pos, dist + overshoot, cp, KIN)
        assert _BS_STANDOFF <= nxt.dist(bs) <= _BS_STANDOFF + 1e-9
        # on the step's own line
        v = np.subtract(nxt, pos)
        assert angle(v, np.subtract(bs, pos)) < 1e-6

    def test_a_step_from_the_standoff_sphere_hovers(self):
        # 1 m from the BS at its height, a step toward it has no room left
        pos = Position3(0.6, 0.8, CP.bs_height)
        assert pos.dist(CP.bs_position) == _BS_STANDOFF
        assert _gradient_step(pos, 0.5, CP, KIN) is pos


@st.composite
def _segment(draw):
    """A segment (a, b) and a channel: free, passing within 1 m of the BS,
    with endpoints on the altitude floor, or of zero length."""
    cp = draw(_cp)
    kind = draw(st.sampled_from(["free", "near_bs", "floor", "coincident"]))
    coord = st.floats(-400, 400)
    alt = st.floats(KIN.h_min, 120)
    if kind == "near_bs":
        off = st.floats(-0.57, 0.57)
        c = (draw(off), draw(off), cp.bs_height + draw(off))
        u = [draw(st.floats(-1, 1)) for _ in range(3)]
        norm = math.sqrt(sum(x * x for x in u))
        assume(norm > 1e-3)
        s, t = draw(st.floats(0, 300)), draw(st.floats(0, 300))
        a = Position3(*(ci - s * ui / norm for ci, ui in zip(c, u)))
        b = Position3(*(ci + t * ui / norm for ci, ui in zip(c, u)))
        assume(min(a.z, b.z) > 1.0)
    elif kind == "floor":
        a = Position3(draw(coord), draw(coord), KIN.h_min)
        b = Position3(draw(coord), draw(coord), draw(st.sampled_from([KIN.h_min, 60.0])))
    else:
        a = Position3(draw(coord), draw(coord), draw(alt))
        b = a if kind == "coincident" else Position3(draw(coord), draw(coord), draw(alt))
    return cp, a, b


class TestSegmentRateCeiling:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seg=_segment(), stretch=st.integers(0, 12))
    def test_bounds_every_waypoint(self, seg, stretch):
        # the ceiling holds at every full-speed and evenly paced waypoint,
        # and a line point rated on its own equals the built waypoint's rate
        cp, a, b = seg
        ceiling = segment_rate_ceiling(a, b, cp)
        assert ceiling > 0.0 and not math.isnan(ceiling)
        n = max(delta_lower_bound(a, b, KIN), 1)
        lines = [(n + stretch, True, even_waypoints(a, b, n + stretch))]
        if a.dist(b) > 0.0:  # as the planner, which routes no zero-length line
            lines.append((n, False, frontload_waypoints(a, b, KIN.v_max, n)))
        for slots, even, pts in lines:
            line = _Line(a, b, slots, even, KIN.v_max, cp, {})
            for j, p in enumerate(pts):
                try:
                    r = rate_at(p.x, p.y, p.z, cp)
                except ChannelDomainError:
                    # on (or within float underflow of) the BS: outside the
                    # channel model's domain, for the line as well
                    with pytest.raises(ChannelDomainError):
                        line.rate(j)
                    continue
                assert r <= ceiling
                assert line.rate(j) == r

    def test_is_tight_far_from_the_bs(self):
        a = b = Position3(300.0, -200.0, 60.0)
        r = rate_at(a.x, a.y, a.z, CP)
        assert r <= segment_rate_ceiling(a, b, CP) <= 1.01 * r

    def test_infinite_through_the_bs(self):
        bs = CP.bs_position
        a = Position3(-50.0, 0.0, bs.z)
        assert segment_rate_ceiling(a, Position3(50.0, 0.0, bs.z), CP) == math.inf
        assert segment_rate_ceiling(bs, bs, CP) == math.inf


class TestLine:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(seg=_segment(), n=st.integers(1, 40), even=st.booleans(), data=st.data())
    def test_matches_the_eager_reference_bit_for_bit(self, seg, n, even, data):
        # waypoints and rates of both pacings equal the eagerly built
        # line's, and a cached line rated in any order by single reads
        # reads the same rates at every point
        cp, a, b = seg
        assume(even or a.dist(b) > 0.0)  # a full-speed line has a direction
        ref = even_waypoints(a, b, n) if even else frontload_waypoints(a, b, KIN.v_max, n)
        try:
            ref_rates = [rate_at(p.x, p.y, p.z, cp) for p in ref]
        except ChannelDomainError:
            assume(False)  # a waypoint on the BS
        pts = _Line(a, b, n, even, KIN.v_max, cp, {})
        assert repr(pts.points()) == repr(ref) and pts.points()[-1] == b
        cache = LegCache(cp, KIN)
        line = cache.line(a, b, n, even)
        for j in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
            assert repr(line.rate(j)) == repr(ref_rates[j])
        assert cache.line(a, b, n, even) is line
        assert repr([line.rate(j) for j in range(line.n)]) == repr(ref_rates)
        assert repr(line.points()) == repr(ref)

    def test_no_slots_is_empty(self):
        a, b = Position3(0, 0, 10), Position3(0, 0, 10)
        for even in (False, True):
            line = _Line(a, b, 0, even, KIN.v_max, CP, {})
            assert line.points() == [] and [line.rate(j) for j in range(line.n)] == []


def _family_legs():
    """One fresh leg of every family the planners return, each with its
    waypoints built eagerly and independently of the planners."""
    v = KIN.v_max
    start, end = Position3(400, 400, 40), Position3(350, 420, 30)
    dlb = delta_lower_bound(start, end, KIN)
    heavy = 84e6  # about six times the straight line's capacity

    def walked(n):
        walk = LegCache(CP, KIN).walk(start)
        walk.extend(n)
        return walk

    def detour():
        leg = optimize_leg(start, end, heavy, CP, KIN, mask_of("1101" * 10), 1)
        walk = walked(leg.detour_slots)
        tp = leg.turning_point
        d1 = walk.pts.index(tp) + 1  # 3 walk steps, 7 pauses, an evenly paced route
        return leg, (walk.pts[:d1] + [tp] * (leg.detour_slots - d1)
                     + even_waypoints(tp, end, leg.route_slots))

    def hover_at_end():
        a, b = Position3(-222.0, 31.0, 94.0), Position3(-306.0, -18.0, 105.0)
        mask = mask_of("100000111001000100001011011100")
        leg = optimize_leg(a, b, 34.1e6, CP, KIN, mask, 1)
        return leg, frontload_waypoints(a, b, v, 2) + [b] * (leg.slots - 2)

    def even_line():
        a, b = Position3(191.0, 138.0, 104.0), Position3(206.0, 182.0, 75.0)
        mask = mask_of("101000010000110010011000000100")
        leg = optimize_leg(a, b, 31.1e6, CP, KIN, mask, 1)
        return leg, even_waypoints(a, b, leg.slots)

    def drain():
        leg = drain_leg(start, heavy, CP, KIN, mask_of("0110"), 1)
        return leg, walked(leg.slots).pts

    return {
        "straight": lambda: (optimize_leg(start, end, 0.0, CP, KIN),
                             frontload_waypoints(start, end, v, dlb)),
        "hover_at_end": hover_at_end,
        "even_line": even_line,
        "detour": detour,
        "drain": drain,
        "no_drain": lambda: (drain_leg(start, 0.0, CP, KIN), []),
        "initial": lambda: (initial_leg(start, end, heavy, 5.0, CP, KIN),
                            eager_initial_leg(start, end, heavy, 5.0, CP).waypoints),
    }


class TestLegReads:
    """Every planner's leg reads its own rates, one slot at a time or as a list."""

    @settings(max_examples=140, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(sorted(_family_legs())), data=st.data())
    def test_reads_in_any_order_match_the_eager_lists(self, family, data):
        # rates read one slot at a time in random order from a fresh leg,
        # then the lists, equal the eager lists bit for bit; rates are the
        # channel's at each eager waypoint
        leg, ref = _family_legs()[family]()
        ref_rates = [rate_at(p.x, p.y, p.z, CP) for p in ref]
        n = len(ref)
        assert (leg.slots, leg.detour_slots + leg.route_slots) == (n, n)
        index = st.integers(0, n - 1) if n else st.nothing()
        for k in data.draw(st.lists(index, max_size=2 * n)):
            assert repr(leg.rate(k)) == repr(ref_rates[k])
        assert type(leg.rates) is list and repr(leg.rates) == repr(ref_rates)
        assert type(leg.waypoints) is list and repr(leg.waypoints) == repr(ref)
        assert [leg.rate(k) for k in range(n)] == ref_rates
        eager = Leg(leg.start, leg.end, leg.residual_data, ref, ref_rates,
                    leg.turning_point, leg.detour_slots, leg.route_slots)
        assert leg == eager and eager == leg
        assert eager.slots == n and [eager.rate(k) for k in range(n)] == ref_rates
        assert repr(leg) == repr(eager)

    def test_unread_rates_stay_unrated(self):
        # a masked detour leg sums only the route points in granted slots;
        # the others stay NaN in the cache until the leg reads them
        start, end = Position3(400, 400, 40), Position3(350, 420, 30)
        grant = mask_of("00011" * 15)
        cache = LegCache(CP, KIN)
        leg = optimize_leg(start, end, 60e6, CP, KIN, grant, 1, cache=cache)
        assert (leg.detour_slots, leg.route_slots) == (10, 8)
        waypoints = leg.waypoints  # reading waypoints rates nothing
        route = cache.lines[(leg.turning_point, end, 8, False)]
        assert route.points() == waypoints[10:]
        unrated = [j for j, r in enumerate(route.rates) if math.isnan(r)]
        assert len(unrated) == 4
        p = waypoints[10 + unrated[-1]]
        assert leg.rate(10 + unrated[-1]) == rate_at(p.x, p.y, p.z, CP)
        assert sum(math.isnan(r) for r in route.rates) == 3  # only the point read
        rates = leg.rates
        assert not any(math.isnan(r) for r in route.rates)
        assert repr(rates) == repr([rate_at(p.x, p.y, p.z, CP) for p in waypoints])
        assert repr(rates) == repr(optimize_leg(start, end, 60e6, CP, KIN, grant, 1).rates)

    def test_a_leg_with_no_payload_rates_nothing_until_read(self):
        # the first leg of a route carries no data: planning it sums no
        # rate, so its line stays unrated until the leg's rates are read
        start, end = Position3(200, 0, 40), Position3(50, 100, 30)
        cache = LegCache(CP, KIN)
        leg = optimize_leg(start, end, 0.0, CP, KIN, cache=cache)
        line = cache.lines[(start, end, leg.slots, False)]
        assert leg.slots > 1 and all(math.isnan(r) for r in line.rates)
        rates = leg.rates
        assert not any(math.isnan(r) for r in line.rates)
        assert repr(rates) == repr([rate_at(p.x, p.y, p.z, CP) for p in leg.waypoints])


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
            shorter = even_waypoints(start, end, n - 1)
            assert sum(rate_at(p.x, p.y, p.z, CP) for p in shorter) < residual

    def test_infeasible_leg_raises(self):
        start = Position3(480, 480, 10)
        end = Position3(470, 470, 10)
        with pytest.raises(LegInfeasible):
            optimize_leg(start, end, 1e12, CP, KIN)

    def test_evenly_paced_waypoint_on_the_bs_is_a_named_domain_error(self):
        # 150 m straight through the BS: the 3-slot full-speed line and its
        # hover cannot carry 100 Mbit, and the 4-slot evenly paced line puts
        # its second waypoint exactly on the BS, where the model has no value
        start, end = Position3(-75, 0, CP.bs_height), Position3(75, 0, CP.bs_height)
        assert even_waypoints(start, end, 4)[1] == CP.bs_position
        with pytest.raises(ChannelDomainError, match=r"\(0\.0, 0\.0, 25\.0\)"):
            optimize_leg(start, end, 100e6, CP, KIN)

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
        leg = optimize_leg(start, end, residual, CP, KIN, mask, 1)
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
        leg = optimize_leg(start, end, residual, CP, KIN, mask, 1)
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


class TestReplanLeg:
    start, end = Position3(400, 400, 40), Position3(350, 420, 30)

    def heavy(self) -> float:
        return 6.0 * sum(optimize_leg(self.start, self.end, 0.0, CP, KIN).rates)

    def test_plans_as_if_every_slot_were_granted_when_no_leg_fits_the_grants(self):
        heavy = self.heavy()
        denied = [False] * 200
        with pytest.raises(LegInfeasible):
            optimize_leg(self.start, self.end, heavy, CP, KIN, denied, 1)
        leg = replan_leg(self.start, self.end, heavy, CP, KIN, denied, 1, LegCache(CP, KIN))
        unmasked = optimize_leg(self.start, self.end, heavy, CP, KIN)
        assert leg.waypoints == unmasked.waypoints and leg.rates == unmasked.rates
        assert (leg.detour_slots, leg.route_slots) == (unmasked.detour_slots,
                                                       unmasked.route_slots)
        assert leg == unmasked

    def test_keeps_the_masked_leg_when_one_fits(self):
        heavy = self.heavy()
        grant = mask_of("1101" * 10)
        leg = replan_leg(self.start, self.end, heavy, CP, KIN, grant, 1)
        assert leg == optimize_leg(self.start, self.end, heavy, CP, KIN, grant, 1)
        assert leg != optimize_leg(self.start, self.end, heavy, CP, KIN)


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
        cold = _planned(start, end, residual, mask, first_slot, None)
        cache = LegCache(CP, KIN)
        # other plans from the same start grow the shared walk and line rates
        near = Position3(start.x + other.x, start.y + other.y, max(10.0, start.z + other.z))
        _planned(start, near, 2 * residual, other_mask, 1, cache)
        _planned(start, end, 0.5 * residual, None, 0, cache)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trajectory, "_MAX_DRAIN_SLOTS", 200)
            try:
                drain_leg(start, residual, CP, KIN, other_mask, 1, cache=cache)
            except LegInfeasible:
                pass
        warm = _planned(start, end, residual, mask, first_slot, cache)
        assert warm == cold
        if cold != "infeasible":
            assert warm.waypoints == cold.waypoints and warm.rates == cold.rates
            assert (warm.detour_slots, warm.route_slots) == (cold.detour_slots, cold.route_slots)
        assert _planned(start, end, residual, mask, first_slot, cache) == cold

    def test_mutating_a_leg_leaves_later_plans_intact(self):
        # every planner's legs, drains included, hand out fresh lists:
        # changing them changes neither the leg nor later plans from the
        # cache, which share its walk and route line
        start, end = Position3(400, 400, 40), Position3(350, 420, 30)
        straight = optimize_leg(start, end, 0.0, CP, KIN)
        grant = mask_of("1101" * 10)
        heavy = 6.0 * sum(straight.rates)
        plans = [  # a drain, the straight line, a detoured leg and an initial leg
            lambda cache: drain_leg(start, heavy, CP, KIN, grant, 1, cache=cache),
            lambda cache: optimize_leg(start, end, 0.0, CP, KIN, grant, 1, cache=cache),
            lambda cache: optimize_leg(start, end, heavy, CP, KIN, grant, 1, cache=cache),
            lambda cache: initial_leg(start, end, heavy, 5.0, CP, KIN),
        ]
        expected = [plan(None) for plan in plans]
        assert expected[0].slots >= 1 and expected[2].detour_slots >= 1
        cache = LegCache(CP, KIN)
        for _ in range(2):
            for plan, want in zip(plans, expected):
                got = plan(cache)
                assert got == want
                for items in (got.waypoints, got.rates):
                    first = items[0]
                    items.reverse()
                    items[0] = first
                    del items[1]
                    items.append(first)
                assert got == want

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
            for residual in (5e6, 40e6, 120e6):
                cold = drain_leg(start, residual, CP, KIN, mask, 2)
                k = cold.slots
                assert cold.waypoints == walk.pts[:k] and cold.rates == walk.rates[:k]
                assert cold.turning_point == walk.pts[k - 1]
                assert drain_leg(start, residual, CP, KIN, mask, 2, cache=cache) == cold

    def test_refuses_other_parameters(self):
        cache = LegCache(CP, KIN)
        start, end = Position3(300, 0, 40), Position3(0, 300, 40)
        slow = KinematicParams(v_max=30.0)
        with pytest.raises(ValueError):
            optimize_leg(start, end, 0.0, CP, slow, cache=cache)
        with pytest.raises(ValueError):
            drain_leg(start, 1e6, ChannelParams(tx_power=20.0), KIN, cache=cache)
        with pytest.raises(ValueError):  # a drain with no payload checks too
            drain_leg(start, 0.0, CP, slow, cache=cache)


def _drained(start, residual, grant, first_slot, cache):
    try:
        return drain_leg(start, residual, CP, KIN, grant, first_slot, cache=cache)
    except LegInfeasible:
        return "infeasible"


# a mostly denied mask, long enough to hold most legs' slots, or none granted
_long_mask = st.one_of(st.lists(st.sampled_from([False, False, False, True]),
                                min_size=40, max_size=120),
                       st.just([False] * 120))


class TestLegMemo:
    """A ``LegCache`` keeps each planned leg with the grants of its own
    slots and hands it out again while those grants are unchanged."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(start=_point, offset=_offset, residual=st.floats(1e5, 120e6),
           masks=st.lists(_long_mask, min_size=1, max_size=3),
           first_slots=st.lists(st.integers(-3, 12), min_size=1, max_size=3))
    def test_warm_legs_equal_cold_ones(self, start, offset, residual, masks, first_slots):
        # each mask and first slot is planned twice with one cache (the
        # second time from the memo) and once cold; replan_leg falls back
        # to the unmasked plan when the mask is all denied
        end = Position3(start.x + offset.x, start.y + offset.y, max(10.0, start.z + offset.z))
        cache = LegCache(CP, KIN)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trajectory, "_MAX_DRAIN_SLOTS", 200)
            for _ in range(2):
                for mask in masks:
                    for first_slot in first_slots:
                        for plan in (_planned, _drained):
                            args = ((start, end) if plan is _planned else (start,)) + (
                                residual, mask, first_slot)
                            warm, cold = plan(*args, cache), plan(*args, None)
                            assert warm == cold
                            if cold != "infeasible":
                                assert (warm.waypoints, warm.rates) == (cold.waypoints,
                                                                        cold.rates)
                        warm = replan_leg(start, end, residual, CP, KIN, mask, first_slot,
                                          cache)
                        assert warm == replan_leg(start, end, residual, CP, KIN, mask,
                                                  first_slot)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(start=_point, offset=_offset, residual=st.floats(1e5, 60e6),
           mask=st.lists(st.sampled_from([False, True, True]), min_size=80, max_size=120),
           first_slot=st.integers(1, 12), data=st.data())
    def test_a_grant_after_the_leg_hits_and_one_inside_plans_again(
            self, start, offset, residual, mask, first_slot, data):
        end = Position3(start.x + offset.x, start.y + offset.y, max(10.0, start.z + offset.z))
        plans = (lambda grant, cache: _planned(start, end, residual, grant, first_slot, cache),
                 lambda grant, cache: _drained(start, residual, grant, first_slot, cache))
        for plan in plans:
            cache = LegCache(CP, KIN)
            leg = plan(mask, cache)
            assume(leg != "infeasible")
            lo, hi = first_slot - 1, first_slot - 1 + leg.slots  # the leg's mask indices
            assume(hi < len(mask))
            after = list(mask)
            k = data.draw(st.integers(hi, len(mask) - 1))
            after[k] = not after[k]
            assert plan(after, cache) is leg
            if leg.slots:
                inside = list(mask)
                k = data.draw(st.integers(lo, hi - 1))
                inside[k] = not inside[k]
                again = plan(inside, cache)
                assert again is not leg
                assert again == plan(inside, None)

    def test_the_same_grants_at_another_first_slot_hit(self):
        start, end = Position3(400, 400, 40), Position3(350, 420, 30)
        mask = mask_of("1101" * 30)
        cache = LegCache(CP, KIN)
        leg = optimize_leg(start, end, 84e6, CP, KIN, mask, 1, cache=cache)
        assert leg.detour_slots > 0
        shifted = mask_of("0000") + mask
        assert optimize_leg(start, end, 84e6, CP, KIN, shifted, 5, cache=cache) is leg
        assert optimize_leg(start, end, 84e6, CP, KIN, shifted, 4, cache=cache) is not leg

    def test_a_mask_changed_in_place_plans_again(self):
        # the memo keeps a copy of the grants it read, not a view of the mask
        start, end = Position3(400, 400, 40), Position3(350, 420, 30)
        mask = mask_of("1101" * 30)
        cache = LegCache(CP, KIN)
        leg = optimize_leg(start, end, 84e6, CP, KIN, mask, 1, cache=cache)
        mask[0] = False  # a slot of the leg
        again = optimize_leg(start, end, 84e6, CP, KIN, mask, 1, cache=cache)
        assert again is not leg
        assert again == optimize_leg(start, end, 84e6, CP, KIN, mask, 1)

    def test_an_infeasible_call_is_not_kept(self):
        start, end = Position3(400, 400, 40), Position3(350, 420, 30)
        denied = [False] * 200
        cache = LegCache(CP, KIN)
        for _ in range(2):
            with pytest.raises(LegInfeasible):
                optimize_leg(start, end, 84e6, CP, KIN, denied, 1, cache=cache)
        assert not cache._legs
        fallback = replan_leg(start, end, 84e6, CP, KIN, denied, 1, cache)
        assert fallback is optimize_leg(start, end, 84e6, CP, KIN, cache=cache)
        assert fallback == optimize_leg(start, end, 84e6, CP, KIN)


_SHARED = LegCache(CP, KIN)  # one cache across every example of TestCapacityContract


class TestCapacityContract:
    """Every leg builder keeps ``Leg``'s capacity contract: with every slot
    granted, a leg delivers its payload within its slots.  The simulator's
    completion chain counts a leg's planned slots on that ground.  The
    floors that ``placement._Search.move`` reads hold too: a leg to a
    location takes at least ``delta_lower_bound`` slots, a drain with a
    payload at least one."""

    @staticmethod
    def _carries(leg):
        return leg.slots_to_deliver(0, leg.residual_data) <= leg.slots

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(start=_point, offset=_offset, residual=st.just(0.0) | st.floats(0, 120e6),
           mask=_mask, kind=st.sampled_from(["none", "mask", "function"]),
           first_slot=st.integers(-3, 40), v0=st.sampled_from([2.5, 5.0, 20.0]))
    def test_every_builder_carries_its_payload_within_its_slots(
            self, start, offset, residual, mask, kind, first_slot, v0):
        end = Position3(start.x + offset.x, start.y + offset.y, max(10.0, start.z + offset.z))
        grants = {"none": None, "mask": mask, "function": _asked(mask)}[kind]
        floor = delta_lower_bound(start, end, KIN)
        to_location = [initial_leg(start, end, residual, v0, CP, KIN),
                       replan_leg(start, end, residual, CP, KIN, grants, first_slot),
                       replan_leg(start, end, residual, CP, KIN, grants, first_slot, _SHARED)]
        for cache in (None, _SHARED):
            try:
                to_location.append(optimize_leg(start, end, residual, CP, KIN, grants,
                                                first_slot, cache))
            except LegInfeasible:
                pass  # replan_leg then plans it as if every slot were granted
        # a mask that denies every slot the planner reads forces the fallback
        denied = replan_leg(start, end, residual, CP, KIN, [False] * 400, 1)
        if residual > 0:
            assert denied == optimize_leg(start, end, residual, CP, KIN)
        to_location.append(denied)
        for leg in to_location:
            assert self._carries(leg)
            assert leg.slots >= floor
        for cache in (None, _SHARED):
            drain = drain_leg(start, residual, CP, KIN, grants, first_slot, cache)
            assert self._carries(drain)
            assert drain.slots >= (1 if residual > 0 else 0)


def slots_to_deliver_by_reads(leg, w, residual):
    """Reference for ``Leg.slots_to_deliver``: one ``rate`` read per slot,
    then the hover at the leg end."""
    if residual <= 0:
        return 0
    n, rate = leg.slots, leg.rate
    total = 0.0
    for j in range(w, n):
        total += rate(j)
        if total >= residual:
            return j - w + 1
    if not n:
        raise RuntimeError("a leg carrying data must have waypoints")
    extra = math.ceil((residual - total) / rate(n - 1) - 1e-12)
    return (n - w) + max(extra, 1 if total < residual else 0)


def _delivery_legs():
    """One fresh leg of every builder: ``_family_legs``' planner families,
    drains and initial leg, and ``replan_leg``'s fallback to an unmasked
    plan."""
    makers = {name: (lambda make=make: make()[0]) for name, make in _family_legs().items()}
    start, end = Position3(400, 400, 40), Position3(350, 420, 30)
    makers["replan_fallback"] = lambda: replan_leg(start, end, 84e6, CP, KIN, [False] * 200, 1)
    return makers


def _loaded(leg):
    """``leg`` as ``solution_from_json`` loads it from a dump."""
    from types import SimpleNamespace

    from uavsense.itsso import solution_from_json, solution_to_json
    from uavsense.simulator import UavPlan

    plan = UavPlan(0, leg.start, [], [], [], leg)
    sol = SimpleNamespace(t_max=0, history=[], plans=[plan], outcome=SimpleNamespace(grants=[]))
    (back,), _ = solution_from_json(solution_to_json(sol))
    return back.drain


def _unrated(leg):
    """Which route points of ``leg`` are still unrated, if it has a route."""
    route = leg._route
    return None if route is None else [r != r for r in route.rates]


class TestSlotsToDeliver:
    """``Leg.slots_to_deliver`` counts what a read of ``rate`` per slot
    counts, rating the same route points."""

    @staticmethod
    def _check(make, w, residual):
        leg, ref = make(), make()  # the same leg twice, each rated on its own
        try:
            want = slots_to_deliver_by_reads(ref, w, residual)
        except RuntimeError as exc:
            with pytest.raises(RuntimeError, match=str(exc)):
                leg.slots_to_deliver(w, residual)
            return None
        assert leg.slots_to_deliver(w, residual) == want
        assert _unrated(leg) == _unrated(ref)
        return want

    @staticmethod
    def _residual(data, make, w):
        """0, a sum of the leg's rates from ``w`` (where the count steps),
        or any amount up past its capacity, into the hover at the end."""
        rates = make().rates[w:]
        steps = [0.0] + list(itertools.accumulate(rates))
        capacity = steps[-1]
        return data.draw(st.sampled_from(steps) | st.floats(0.0, 2.0 * capacity + 1e6)
                         | st.just(math.nextafter(capacity, math.inf)))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(family=st.sampled_from(sorted(_delivery_legs())), loaded=st.booleans(),
           data=st.data())
    def test_every_builder_counts_as_the_per_slot_reads(self, family, loaded, data):
        made = _delivery_legs()[family]
        make = (lambda: _loaded(made())) if loaded else made
        n = made().slots
        w = data.draw(st.integers(0, n + 2))
        self._check(make, w, self._residual(data, make, w))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(start=_point, offset=_offset, residual=st.floats(0, 120e6), mask=_mask,
           builder=st.sampled_from(["optimize", "replan", "drain", "initial"]),
           data=st.data())
    def test_planned_legs_count_as_the_per_slot_reads(self, start, offset, residual, mask,
                                                      builder, data):
        end = Position3(start.x + offset.x, start.y + offset.y, max(10.0, start.z + offset.z))
        make = {
            "optimize": lambda: optimize_leg(start, end, residual, CP, KIN),
            "replan": lambda: replan_leg(start, end, residual, CP, KIN, mask, 1),
            "drain": lambda: drain_leg(start, residual, CP, KIN, mask, 1),
            "initial": lambda: initial_leg(start, end, residual, 5.0, CP, KIN),
        }[builder]
        w = data.draw(st.integers(0, make().slots + 2))
        self._check(make, w, self._residual(data, make, w))

    def test_every_family_is_covered(self):
        # the shapes the property runs over: a walk head with pauses, an
        # evenly paced and a full-speed route, pauses at the end, all head
        legs = {name: make() for name, make in _delivery_legs().items()}
        assert legs["detour"]._d1 < legs["detour"]._r0 and legs["detour"]._route.even
        assert legs["even_line"]._route.even
        assert legs["hover_at_end"].slots > legs["hover_at_end"]._route.n
        assert legs["drain"]._route is None and legs["drain"].slots == legs["drain"]._d1
        assert legs["replan_fallback"] == optimize_leg(legs["replan_fallback"].start,
                                                       legs["replan_fallback"].end,
                                                       84e6, CP, KIN)
        assert _loaded(legs["detour"])._route is None

    def test_data_on_a_leg_without_waypoints_raises(self):
        leg = drain_leg(Position3(0, 0, 40), 0.0, CP, KIN)
        assert leg.slots == 0
        for w in (0, 1, 2):
            assert leg.slots_to_deliver(w, 0.0) == 0
            with pytest.raises(RuntimeError, match="a leg carrying data must have waypoints"):
                leg.slots_to_deliver(w, 1.0)
        assert _loaded(leg).slots_to_deliver(0, 0.0) == 0
        with pytest.raises(RuntimeError, match="a leg carrying data must have waypoints"):
            _loaded(leg).slots_to_deliver(0, 1.0)


def _asked(mask):
    """Reference ``is_granted`` over a mask: slot s is ``mask[s - 1]``, and
    slots outside the mask are granted."""
    return lambda slot: slot > len(mask) or slot < 1 or mask[slot - 1]


class TestGrantWindow:
    """``_grant_window`` slices a mask; a function over the same mask is
    asked slot by slot, with the same answers."""

    def test_a_bare_mask_is_optimistic_outside_it(self):
        # nothing was observed before slot 1 or past the mask
        assert _grant_window([False, True], -1, 5) == [True, True, False, True, True]
        assert _grant_window(None, -1, 5) == [True] * 5

    @pytest.mark.parametrize("first_slot, n", [
        (-5, 3), (-2, 4), (0, 1), (1, 10), (4, 6), (8, 6), (10, 3), (11, 4), (20, 5), (1, 0),
    ], ids=["before", "into", "slot0", "whole", "inside", "straddles_end", "at_end",
            "past", "far_past", "empty"])
    def test_slicing_the_mask_equals_asking_each_slot(self, first_slot, n):
        mask = mask_of("0110100010")
        asked = _asked(mask)
        want = [asked(s) for s in range(first_slot, first_slot + n)]
        assert _grant_window(mask, first_slot, n) == want
        assert _grant_window(asked, first_slot, n) == want

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(mask=st.lists(st.booleans(), max_size=30), first_slot=st.integers(-40, 40),
           n=st.integers(0, 50))
    def test_any_window_equals_asking_each_slot(self, mask, first_slot, n):
        window = _grant_window(mask, first_slot, n)
        assert type(window) is list and len(window) == n
        assert window == [_asked(mask)(s) for s in range(first_slot, first_slot + n)]

    def test_a_plain_lambda_plans_the_same_legs(self):
        # perfbench's micro-benchmark passes optimize_leg a lambda over a mask
        for cache in (None, LegCache(CP, KIN)):
            for start, end, residual, mask, first_slot in _masked_corpus()[:40]:
                plain = _asked(mask)
                assert (_planned(start, end, residual, plain, first_slot, cache)
                        == _planned(start, end, residual, mask, first_slot, cache))
                assert (_drained(start, residual, plain, first_slot, cache)
                        == _drained(start, residual, mask, first_slot, cache))


def _masked_corpus():
    """Masked optimize_leg calls at 75-97% denial, five from each start."""
    rng = np.random.default_rng(606)
    calls = []
    for _ in range(40):
        start = random_position(rng)
        for _ in range(5):
            end = Position3(start.x + rng.uniform(-150, 150), start.y + rng.uniform(-150, 150),
                            float(np.clip(start.z + rng.uniform(-60, 60), 10, 120)))
            denial = rng.uniform(0.75, 0.97)
            mask = [bool(g) for g in rng.random(int(rng.integers(20, 120))) >= denial]
            calls.append((start, end, rng.uniform(2e6, 40e6), mask, int(rng.integers(1, 12))))
    return calls


@pytest.fixture
def bisection_walk(monkeypatch):
    """Gradient walks that take ``bisection_gradient_step``."""
    monkeypatch.setattr(trajectory, "_gradient_step", bisection_gradient_step)


class TestGrantedSlotScan:
    """The scan rates only summed points and skips checks a rate ceiling
    rules out; these pin the legs it returns to those of a dense scan.

    The pins were recorded with gradient walks along the central-difference
    direction and a bisected BS standoff (``bisection_gradient_step``; 9
    steps of the corpus walks stop at the standoff).  Each check runs once
    with that walk and once, pinned anew, with the closed-form walk the
    planner takes."""

    def check_hover_pauses(self, tp: Position3) -> None:
        # the held capacity reaches the residual only through the pauses at
        # the turning point, and every slot of the route is denied
        start, end = Position3(-106.0, 179.0, 84.0), Position3(-208.0, 205.0, 120.0)
        mask = mask_of("100100000001001000000000010000")
        residual = 25.1e6
        leg = optimize_leg(start, end, residual, CP, KIN, mask, 1)
        assert (leg.slots, leg.detour_slots, leg.route_slots, leg.turning_point) == (8, 4, 4, tp)
        d1 = leg.waypoints.index(tp) + 1
        assert d1 == 2
        assert not any(mask[leg.detour_slots:leg.slots])
        assert masked_capacity(leg.waypoints[:d1], mask, 1) < residual
        assert masked_capacity(leg.waypoints[:leg.detour_slots], mask, 1) >= residual

    def test_hover_pauses_reach_the_residual_before_a_denied_route(
            self, bisection_walk):
        self.check_hover_pauses(
            Position3(-56.97948623399388, 96.22006324830403, 56.71499859809383))

    def test_hover_pauses_reach_the_residual_before_a_denied_route_on_the_analytic_walk(self):
        self.check_hover_pauses(
            Position3(-56.979481342892086, 96.22006755073286, 56.714994332364455))

    def test_half_rated_route_line_comes_back_whole_as_a_straight_line(self):
        start, end = Position3(400, 400, 40), Position3(350, 420, 30)
        cache = LegCache(CP, KIN)
        optimize_leg(start, end, 40e6, CP, KIN, mask_of("0001" * 15), 1,
                     cache=cache)
        half = [key for key, line in cache.lines.items()
                if key[0] != start and not key[3] and any(math.isnan(r) for r in line.rates)]
        assert half  # a masked detour search left a route line partly rated
        for a, b, n, _ in half:
            assert delta_lower_bound(a, b, KIN) == n
            for residual in (0.0, 5e6):
                warm = optimize_leg(a, b, residual, CP, KIN, cache=cache)
                cold = optimize_leg(a, b, residual, CP, KIN)
                assert warm == cold
                assert not any(math.isnan(r) for r in warm.rates)
            assert not any(math.isnan(r) for r in cache.lines[(a, b, n, False)].rates)

    def check_masked_corpus(self, digest: str) -> None:
        # digest of 200 legs as the dense scan, which rated every point of
        # every candidate line, returned them (cold and with one shared cache)
        for cache in (None, LegCache(CP, KIN)):
            h = hashlib.sha256()
            for start, end, residual, mask, first_slot in _masked_corpus():
                leg = _planned(start, end, residual, mask, first_slot, cache)
                if leg != "infeasible":
                    leg = (leg.waypoints, leg.rates, leg.detour_slots, leg.route_slots)
                h.update(repr(leg).encode())
            assert h.hexdigest()[:16] == digest

    def test_masked_corpus_matches_the_dense_scan(self, bisection_walk):
        self.check_masked_corpus("e5a95b0e3ef80eea")

    def test_masked_corpus_matches_the_dense_scan_on_the_analytic_walk(self):
        self.check_masked_corpus("87605dc1dc66e3ef")


# points within 35 m of the BS at (0, 0, 25) on each axis, where walks
# bounce across it or stop at the standoff
_near_bs = st.builds(lambda x, y, z: Position3(x, y, max(10.0, 25.0 + z)),
                     st.floats(-35, 35), st.floats(-35, 35), st.floats(-35, 35))


def _split_slots(walk_pts, end) -> list[int]:
    """``d1 + d2`` of every split of a walk: the slots its leg needs with
    no pause, d2 being the route's full-speed slots to ``end``."""
    return [d1 + delta_lower_bound(p, end, KIN) for d1, p in enumerate(walk_pts, start=1)]


class TestLazyDetourWalk:
    """The scan takes the walk only as far as a budget's splits can fit,
    which rests on ``d1 + d2`` never falling by more than a slot."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(start=st.one_of(_point, _near_bs), end=st.one_of(_point, _near_bs))
    def test_split_slots_never_fall_by_more_than_one(self, start, end):
        assume(start.dist(CP.bs_position) > _BS_STANDOFF)  # the channel's domain
        walk = LegCache(CP, KIN).walk(start)
        walk.extend(60)
        highest = -1
        for need in _split_slots(walk.pts, end):
            assert need >= highest - 1
            highest = max(highest, need)

    def test_a_masked_detour_walks_no_further_than_its_budget_needs(self):
        # every split but the last one walked fits the leg's budget plus the
        # one slot of rounding margin
        detours = 0
        for start, end, residual, mask, first_slot in _masked_corpus():
            cache = LegCache(CP, KIN)
            leg = _planned(start, end, residual, mask, first_slot, cache)
            if leg == "infeasible":
                continue
            detours += leg.detour_slots > 0
            need = _split_slots(cache.walk(start).pts, end)
            assert all(n <= leg.slots + 1 for n in need[:-1])
        assert detours >= 50


def _counted_rates(monkeypatch) -> list[tuple[float, float, float]]:
    """The points ``trajectory`` rates from now on, in order."""
    points = []

    def counted(x, y, z, cp):
        points.append((x, y, z))
        return rate_at(x, y, z, cp)

    monkeypatch.setattr(trajectory, "rate_at", counted)
    return points


class TestSharedRates:
    """A point that several lines share is rated once."""

    def test_detours_through_one_cache_rate_their_common_end_once(self, monkeypatch):
        end = Position3(350, 420, 30)
        grant = mask_of("1101" * 30)
        starts = [Position3(400, 400, 40), Position3(410, 380, 45), Position3(390, 430, 35)]
        cache = LegCache(CP, KIN)
        points = _counted_rates(monkeypatch)
        legs = [optimize_leg(a, end, 84e6, CP, KIN, grant, 1, cache=cache) for a in starts]
        assert all(leg.detour_slots for leg in legs)
        for leg in legs:  # every point of every leg read
            assert not any(math.isnan(r) for r in leg.rates)
        assert points.count(end) == 1
        assert len(points) == len(set(points))

    def test_a_walk_held_at_the_standoff_keeps_its_point_and_rate(self, monkeypatch):
        # straight above the BS, the first step stops at the standoff and
        # every later step holds there, rated at that point
        walk = LegCache(CP, KIN).walk(Position3(0.0, 0.0, 75.5))
        points = _counted_rates(monkeypatch)
        walk.extend(12)
        held = walk.pts[0]
        assert held.dist(CP.bs_position) < _BS_STANDOFF + 1e-9
        assert walk.pts == [held] * 12 and walk.rates == [rate_at(*held, CP)] * 12
        assert set(points) == {held}


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


def _constant_speed_corpus():
    """constant_speed_leg calls: 40 random legs, each at four speeds against
    no mask, an observed-style mask and a function; about a third detour."""
    rng = np.random.default_rng(808)
    calls = []
    for _ in range(40):
        start, end = random_position(rng), random_position(rng)
        residual = rng.uniform(10e6, 120e6)
        mask = [bool(g) for g in rng.random(int(rng.integers(20, 120))) >= 0.5]
        first_slot = int(rng.integers(1, 12))
        for grant in (None, mask, lambda s: s % 3 != 1):
            for frac in (0.5, 0.7, 0.9, 1.0):
                calls.append((start, end, residual, frac * KIN.v_max, grant, first_slot))
    return calls


class TestConstantSpeedPin:
    def test_legs_match_the_golden(self):
        # the whole leg, not only the slot count criterion 8 reads; the
        # golden was computed before the builder moved onto the shared
        # walk, line and sum
        h = hashlib.sha256()
        for start, end, residual, v, grant, first_slot in _constant_speed_corpus():
            leg = constant_speed_leg(start, end, residual, v, CP, KIN, grant, first_slot)
            h.update(repr((leg.waypoints, leg.rates, leg.turning_point, leg.detour_slots,
                           leg.route_slots)).encode())
        assert h.hexdigest()[:16] == "8d14278d861860ec"


class TestDrainLeg:
    def test_empty_for_no_data(self):
        start = Position3(100, 100, 30)
        leg = drain_leg(start, 0.0, CP, KIN)
        assert leg.slots == 0 and leg.end == leg.turning_point == start
        cache = LegCache(CP, KIN)
        grant = mask_of("0101")
        assert drain_leg(start, 0.0, CP, KIN, grant, 3, cache=cache) == leg
        assert drain_leg(start, 0.0, CP, KIN, cache=cache) == leg

    def test_delivers_residual(self):
        leg = drain_leg(Position3(400, 300, 60), 80e6, CP, KIN)
        assert sum(leg.rates) >= 80e6
        assert leg.route_slots == 0
        assert leg.turning_point == leg.waypoints[-1]

    def test_rates_improve_along_walk(self):
        leg = drain_leg(Position3(400, 300, 60), 120e6, CP, KIN)
        assert leg.rates[-1] > leg.rates[0]


def eager_initial_leg(start, end, residual, v0, cp):
    """Reference initial leg: every waypoint built and rated up front, and
    stretched while the whole line's capacity falls short of the residual."""
    d = start.dist(end)
    slots = 0 if d <= 0 else max(1, math.ceil(d / v0 - 1e-9))
    while True:
        pts = even_waypoints(start, end, slots) if slots else []
        rates = [rate_at(p.x, p.y, p.z, cp) for p in pts]
        total = 0.0
        for r in rates:
            total += r
        if residual <= 0 or total >= residual:
            return Leg(start, end, residual, pts, rates, start, 0, slots)
        slots = max(slots + 1, int(slots * 1.5))


class TestInitialLeg:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seg=_segment(), v0=st.sampled_from([2.5, 5.0, 20.0]),
           load=st.sampled_from([0.0, 0.01, 0.3, 0.99, 1.0, 1.7, 3.0]), data=st.data())
    def test_lazy_leg_equals_eager_reference(self, seg, v0, load, data):
        # a load above 1 makes the leg stretch; rates are read one slot at a
        # time in random order before the leg is dumped, listed and compared
        cp, a, b = seg
        n0 = eager_initial_leg(a, b, 0.0, v0, cp).slots
        assume(n0 <= 400)
        try:
            capacity = sum(eager_initial_leg(a, b, 0.0, v0, cp).rates) if n0 else 1e6
            ref = eager_initial_leg(a, b, load * capacity, v0, cp)
        except ChannelDomainError:
            assume(False)  # a waypoint exactly on the BS; see the test below
        leg = initial_leg(a, b, load * capacity, v0, cp, KIN)
        n = ref.slots
        assert (leg.slots, len(leg.rates), leg.detour_slots, leg.route_slots) == \
            (n, n, 0, n)
        reads = data.draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else []
        for k in reads + ([n - 1] if n else []):
            assert leg.rate(k) == ref.rates[k]
        assert json.dumps(_leg_to_dict(leg)) == json.dumps(_leg_to_dict(ref))
        assert leg.waypoints == ref.waypoints and leg.rates == ref.rates
        assert leg == ref and ref == leg

    def test_a_point_on_the_bs_raises_when_read(self):
        # the 4-slot line puts its second waypoint exactly on the BS; the
        # first already carries the data, so the leg is built, and only
        # reading that point's rate meets the model's hole
        start, end = Position3(-75, 0, CP.bs_height), Position3(75, 0, CP.bs_height)
        leg = initial_leg(start, end, 1e6, 37.5, CP, KIN)
        assert leg.slots == 4 and leg.waypoints[1] == CP.bs_position
        assert leg.rate(0) == rate_at(-37.5, 0.0, CP.bs_height, CP)
        assert leg.rate(3) == rate_at(75.0, 0.0, CP.bs_height, CP)
        for read in (lambda: leg.rate(1), lambda: leg.rates):
            with pytest.raises(ChannelDomainError, match=r"\(0\.0, 0\.0, 25\.0\)"):
                read()

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

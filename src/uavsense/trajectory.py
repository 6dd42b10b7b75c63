"""Per-leg trajectory construction between consecutive sensing locations.

A leg is the slot-by-slot path a UAV flies from one sensing location to the
next while uploading the data collected at the leg's start.  Legs are built
at maximum speed (slower speeds never finish earlier) and, when the straight
line does not give enough transmission capacity, are prefixed with a
rate-gradient detour toward the BS: the shortest detour that makes the
upload fit wins.

Masks: planners accept ``is_granted(abs_slot) -> bool`` describing which
slots the caller expects to hold a subcarrier (slot of waypoint k is
``first_slot + k - 1``).  ``None`` means every slot is granted.
``grant_from_mask`` turns an observed per-slot mask into such a function.

What is cached, and for how long.  Every channel evaluation depends only
on geometry; the mask and the residual only decide which rates are summed.
- Within one ``optimize_leg`` call the grant window is read once into a
  list of bools, and the route from each detour split to the end point is
  built and rated once, whatever the budget.
- A ``LegCache`` keeps the rate-gradient walk (positions and rates) from
  each leg start, which ``optimize_leg`` and ``drain_leg`` extend and
  share, and the rates (not the waypoints) of every straight line
  ``optimize_leg`` has rated.  ``run_itsso`` makes one per call and drops
  it on return; a call without one starts cold.  There is no module-level
  cache.
Capacities are summed left to right over granted slots, exactly as a
plain loop would, so a cached plan is bit-identical to a cold one.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .channel import ChannelParams, Position3, rate_at

__all__ = [
    "KinematicParams",
    "Leg",
    "LegCache",
    "LegInfeasible",
    "delta_lower_bound",
    "grant_from_mask",
    "rate_gradient",
    "optimize_leg",
    "drain_leg",
    "initial_leg",
]

GrantFn = Optional[Callable[[int], bool]]

_CEIL_EPS = 1e-9  # guards exact-division distances against float noise
_BS_STANDOFF = 1.0  # m; gradient steps never land closer to the BS than this


class LegInfeasible(RuntimeError):
    """No feasible leg exists within the detour cap."""


@dataclass(frozen=True)
class KinematicParams:
    v_max: float = 50.0  # meters per slot
    h_min: float = 10.0  # minimum altitude, meters

    def __post_init__(self):
        if not (self.v_max > 0 and self.h_min > 0):
            raise ValueError("v_max and h_min must be positive")


@dataclass
class Leg:
    """One planned leg: waypoints occupy the slots after the start's sensing slot.

    ``waypoints[k]`` is the position in leg slot k+1; the last waypoint is
    the leg's end point.  ``rates`` caches the scheduled-rate at each
    waypoint so the simulator and schedulers never re-evaluate the channel.
    ``detour_slots + route_slots == len(waypoints)``.
    """

    start: Position3
    end: Position3
    residual_data: float
    waypoints: list[Position3]
    rates: list[float]
    turning_point: Position3
    detour_slots: int
    route_slots: int

    @property
    def slots(self) -> int:
        return len(self.waypoints)


def grant_from_mask(mask: Optional[Sequence[bool]]) -> GrantFn:
    """``is_granted`` for a mask over absolute slots: slot s is ``mask[s - 1]``.

    Slots outside ``1..len(mask)`` are granted: nothing was observed there,
    so the planner stays optimistic.  A ``None`` mask grants every slot.
    """
    if mask is None:
        return None
    n = len(mask)
    return lambda slot: slot > n or slot < 1 or mask[slot - 1]


def delta_lower_bound(start: Position3, end: Position3, kin: KinematicParams) -> int:
    """Fewest slots to cover the straight line at maximum speed."""
    d = start.dist(end)
    if d <= 0.0:
        return 0
    return max(1, math.ceil(d / kin.v_max - _CEIL_EPS))


def rate_gradient(
    pos: Position3,
    params: ChannelParams,
    kin: KinematicParams,
    step: float = 0.1,
) -> Optional[tuple[float, float, float]]:
    """Unit direction of steepest rate increase at ``pos``.

    Central finite differences with the given step; if a full-speed move
    along the raw direction would sink below the altitude floor, the
    vertical component is dropped and the rest renormalized.  Returns None
    when no ascent direction exists (degenerate gradient); callers fall
    back to a horizontal step toward the BS.
    """
    x, y, z = pos
    gx = rate_at(x + step, y, z, params) - rate_at(x - step, y, z, params)
    gy = rate_at(x, y + step, z, params) - rate_at(x, y - step, z, params)
    zl = max(z - step, 1e-6)  # keep the probe inside the z > 0 domain
    gz = rate_at(x, y, z + step, params) - rate_at(x, y, zl, params)
    norm = math.sqrt(gx * gx + gy * gy + gz * gz)
    if norm <= 0.0 or not math.isfinite(norm):
        return None
    gx, gy, gz = gx / norm, gy / norm, gz / norm
    if z + kin.v_max * gz < kin.h_min:
        h = math.hypot(gx, gy)
        if h <= 1e-12:
            return None
        return (gx / h, gy / h, 0.0)
    return (gx, gy, gz)


def _gradient_step(pos: Position3, speed: float, cp: ChannelParams,
                   kin: KinematicParams) -> Position3:
    """Advance one slot along the rate gradient, respecting floor and BS standoff."""
    g = rate_gradient(pos, cp, kin)
    if g is None:
        # no ascent direction: head horizontally for the BS ground projection
        h = math.hypot(pos.x, pos.y)
        if h <= 1e-9:
            return pos  # right above the BS, nothing better than hovering
        d = min(speed, h)
        g = (-pos.x / h, -pos.y / h, 0.0)
        nxt = Position3(pos.x + d * g[0], pos.y + d * g[1], pos.z)
    else:
        nxt = Position3(
            pos.x + speed * g[0],
            pos.y + speed * g[1],
            max(pos.z + speed * g[2], kin.h_min),
        )
    bs = cp.bs_position
    if nxt.dist(bs) < _BS_STANDOFF:
        # pull back along the step so the link stays out of the singularity
        vx, vy, vz = nxt.x - pos.x, nxt.y - pos.y, nxt.z - pos.z
        span = math.sqrt(vx * vx + vy * vy + vz * vz)
        if span <= 1e-12:
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


def _even_waypoints(start: Position3, end: Position3, slots: int) -> list[Position3]:
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


def _frontload_waypoints(start: Position3, end: Position3, speed: float,
                         slots: int) -> list[Position3]:
    """Full-speed steps with the remainder on the last one."""
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


def _masked_capacity(rates: list[float], is_granted: GrantFn, first_slot: int) -> float:
    if is_granted is None:
        return sum(rates)
    total = 0.0
    slot = first_slot
    for r in rates:
        if is_granted(slot):
            total += r
        slot += 1
    return total


class _Walk:
    """Rate-gradient walk from one start at full speed.

    ``pts[k]`` is the position after k+1 steps and ``rates[k]`` its rate.
    The walk is a pure function of the start, the channel and the
    kinematics, so it only ever grows; legs copy the prefix they use.
    """

    __slots__ = ("start", "cp", "kin", "pts", "rates")

    def __init__(self, start: Position3, cp: ChannelParams, kin: KinematicParams):
        self.start = start
        self.cp = cp
        self.kin = kin
        self.pts: list[Position3] = []
        self.rates: list[float] = []

    def extend(self, n: int) -> None:
        """Walk on until at least n steps are known."""
        cp, kin, pts, rates = self.cp, self.kin, self.pts, self.rates
        pos = pts[-1] if pts else self.start
        while len(pts) < n:
            pos = _gradient_step(pos, kin.v_max, cp, kin)
            pts.append(pos)
            rates.append(rate_at(pos.x, pos.y, pos.z, cp))


class LegCache:
    """Gradient walks by leg start and line rates by geometry, shared by the
    planners of one run.

    Bound to one channel and kinematics; ``optimize_leg`` and ``drain_leg``
    refuse a cache made for other parameters.  It grows with every distinct
    start and line it sees and is meant to be dropped with the run that
    made it.  Line rates are kept as ``array('d')``, without waypoints, to
    keep it small.
    """

    def __init__(self, cp: ChannelParams, kin: KinematicParams):
        self.cp = cp
        self.kin = kin
        self._walks: dict[Position3, _Walk] = {}
        # (a, b, slots, evenly paced) -> rates of that line's waypoints
        self.lines: dict[tuple[Position3, Position3, int, bool], array] = {}

    def check(self, cp: ChannelParams, kin: KinematicParams) -> None:
        if (cp is not self.cp and cp != self.cp) or (kin is not self.kin and kin != self.kin):
            raise ValueError("LegCache was made for other channel or kinematic parameters")

    def walk(self, start: Position3) -> _Walk:
        w = self._walks.get(start)
        if w is None:
            w = self._walks[start] = _Walk(start, self.cp, self.kin)
        return w


def _grant_window(is_granted: GrantFn, first_slot: int, n: int) -> list[bool]:
    """Grants of leg slots 0..n-1 (absolute slots from ``first_slot``)."""
    if is_granted is None:
        return [True] * n
    return [is_granted(slot) for slot in range(first_slot, first_slot + n)]


def _covers(rates: list[float], granted: list[bool], k: int, total: float,
            residual: float) -> bool:
    """Whether ``total`` plus the granted ``rates`` (leg slots from k) reaches
    the residual.  Rates are non-negative, so the partial sum never falls
    and stopping once it reaches the residual gives the full sum's answer."""
    if total >= residual:
        return True
    for r in rates:
        if granted[k]:
            total += r
            if total >= residual:
                return True
        k += 1
    return False


def optimize_leg(
    start: Position3,
    end: Position3,
    residual_data: float,
    cp: ChannelParams,
    kin: KinematicParams,
    is_granted: GrantFn = None,
    first_slot: int = 0,
    max_detour_factor: int = 10,
    cache: Optional[LegCache] = None,
) -> Leg:
    """Shortest leg from start to end whose capacity covers the residual data.

    Scans total slot budgets upward from the kinematic minimum.  At every
    budget two families compete: the straight line (full speed at the
    minimum budget, evenly paced when stretched; pacing below full speed is
    legal since the speed cap is an inequality) and the gradient-detour leg
    whose turning point is the detour's endpoint.  The first feasible budget
    wins, with the smallest detour preferred inside a budget, so detours
    are minimal and, by the stretched-line family, a leg built at full
    speed never takes more slots than one built slower.

    ``cache`` shares the gradient walk from ``start`` and the rated lines
    with other calls of the same run; the leg returned is the same with or
    without it.
    """
    if residual_data < 0:
        raise ValueError("residual_data must be non-negative")
    v = kin.v_max
    d = start.dist(end)
    dlb = 0 if d <= 0 else max(1, math.ceil(d / v - _CEIL_EPS))

    # a cold call still rates each line once, whatever the budget
    lines = {}
    if cache is not None:
        cache.check(cp, kin)
        lines = cache.lines

    def line_pts(a: Position3, b: Position3, n: int, even: bool) -> list[Position3]:
        return _even_waypoints(a, b, n) if even else _frontload_waypoints(a, b, v, n)

    def line_rates(a: Position3, b: Position3, n: int, even: bool) -> array:
        key = (a, b, n, even)
        got = lines.get(key)
        if got is None:
            got = lines[key] = array(
                "d", [rate_at(p.x, p.y, p.z, cp) for p in line_pts(a, b, n, even)])
        return got

    line = _frontload_waypoints(start, end, v, dlb)
    rates = line_rates(start, end, dlb, False).tolist()
    if residual_data <= 0:
        return Leg(start, end, residual_data, line, rates, start, 0, dlb)
    cap = max(max_detour_factor * max(dlb, 1), 20)
    granted = _grant_window(is_granted, first_slot, dlb + cap)
    line_total = 0.0  # the full sum: the hover-at-end family continues it
    for r, g in zip(rates, granted):
        if g:
            line_total += r
    if line_total >= residual_data:
        return Leg(start, end, residual_data, line, rates, start, 0, dlb)

    walk = _Walk(start, cp, kin) if cache is None else cache.walk(start)
    detour, detour_rates = walk.pts, walk.rates
    # per detour split d1 (index d1 - 1): the route length d2 to the end,
    # the hover pauses counted so far and the capacity of the first d1 walk
    # steps plus those pauses
    d2s: list[int] = []
    paused: list[int] = []
    held: list[float] = []
    walk_total = 0.0
    for n in range(dlb, dlb + cap + 1):
        if d > 0 and n > dlb:
            # arrive at full speed and keep transmitting at the destination
            if granted[n - 1]:
                line_total += rates[-1]
            if line_total >= residual_data:
                hover_end = n - dlb
                return Leg(start, end, residual_data, line + [end] * hover_end,
                           rates + [rates[-1]] * hover_end, start, 0, n)
        if d > 0 and n >= max(dlb, 1):
            # or spread the slots evenly along the segment
            pr = line_rates(start, end, n, True)
            if _covers(pr, granted, 0, 0.0, residual_data):
                return Leg(start, end, residual_data, _even_waypoints(start, end, n),
                           pr.tolist(), start, 0, n)
        if len(detour) < n:
            walk.extend(n)
        while len(d2s) < n:
            k = len(d2s)
            if granted[k]:
                walk_total += detour_rates[k]
            span = detour[k].dist(end)
            d2s.append(0 if span <= 0 else max(1, math.ceil(span / v - _CEIL_EPS)))
            paused.append(0)
            held.append(walk_total)
        for d1 in range(1, n + 1):
            d2 = d2s[d1 - 1]
            hover = n - d1 - d2  # pause at the detour's endpoint before routing
            if hover < 0:
                continue
            tp = detour[d1 - 1]
            r_tp = detour_rates[d1 - 1]
            while paused[d1 - 1] < hover:
                if granted[d1 + paused[d1 - 1]]:
                    held[d1 - 1] += r_tp
                paused[d1 - 1] += 1
            for even in ((False, True) if d2 else (False,)):
                pr = line_rates(tp, end, d2, even)
                if _covers(pr, granted, d1 + hover, held[d1 - 1], residual_data):
                    return Leg(start, end, residual_data,
                               detour[:d1] + [tp] * hover + line_pts(tp, end, d2, even),
                               detour_rates[:d1] + [r_tp] * hover + pr.tolist(),
                               tp, d1 + hover, d2)
    raise LegInfeasible(
        f"no feasible leg from {start} to {end} within {cap} extra slots "
        f"(residual {residual_data:.3g} bits)"
    )


def constant_speed_leg(
    start: Position3,
    end: Position3,
    residual_data: float,
    v: float,
    cp: ChannelParams,
    kin: KinematicParams,
    is_granted: GrantFn = None,
    first_slot: int = 0,
    max_detour_factor: int = 10,
) -> Leg:
    """Reference builder moving at one fixed speed every slot.

    Full-speed steps with the remainder on the final step of each phase;
    the detour grows one slot at a time exactly as in the main planner but
    no sub-speed pacing or pausing is considered.  Exists as the baseline
    the full planner is measured against: a leg built at the speed cap
    never takes more slots than one built at any constant slower speed.
    """

    if residual_data < 0:
        raise ValueError("residual_data must be non-negative")
    d = start.dist(end)
    dlb = 0 if d <= 0 else max(1, math.ceil(d / v - _CEIL_EPS))
    line = _frontload_waypoints(start, end, v, dlb)
    rates = [rate_at(p.x, p.y, p.z, cp) for p in line]
    if residual_data <= 0 or _masked_capacity(rates, is_granted, first_slot) >= residual_data:
        return Leg(start, end, residual_data, line, rates, start, 0, dlb)
    cap = max(max_detour_factor * max(dlb, 1), 20)
    detour: list[Position3] = []
    detour_rates: list[float] = []
    pos = start
    for d1 in range(1, cap + 1):
        pos = _gradient_step(pos, v, cp, kin)
        detour.append(pos)
        detour_rates.append(rate_at(pos.x, pos.y, pos.z, cp))
        span = pos.dist(end)
        d2 = 0 if span <= 0 else max(1, math.ceil(span / v - _CEIL_EPS))
        route = _frontload_waypoints(pos, end, v, d2)
        route_rates = [rate_at(p.x, p.y, p.z, cp) for p in route]
        if _masked_capacity(detour_rates + route_rates, is_granted,
                            first_slot) >= residual_data:
            return Leg(start, end, residual_data, detour + route,
                       detour_rates + route_rates, pos, d1, d2)
    raise LegInfeasible(
        f"no feasible constant-speed leg from {start} to {end} within {cap} detour slots")


def drain_leg(
    start: Position3,
    residual_data: float,
    cp: ChannelParams,
    kin: KinematicParams,
    is_granted: GrantFn = None,
    first_slot: int = 0,
    max_slots: int = 10000,
    cache: Optional[LegCache] = None,
) -> Leg:
    """Pure sending-priority detour: walk the rate gradient until drained.

    Used after a UAV's final sensing slot, when there is no next sensing
    location to reach.  The turning point is the walk's endpoint and the
    route part is empty.  The leg is a prefix of the gradient walk from
    ``start``, which ``cache`` shares with ``optimize_leg``.
    """
    if cache is not None:
        cache.check(cp, kin)
    if residual_data <= 0:
        return Leg(start, start, 0.0, [], [], start, 0, 0)
    walk = _Walk(start, cp, kin) if cache is None else cache.walk(start)
    rates = walk.rates
    total = 0.0
    for k in range(1, max_slots + 1):
        if len(rates) < k:
            walk.extend(k)
        if is_granted is None or is_granted(first_slot + k - 1):
            total += rates[k - 1]
        if total >= residual_data:
            pos = walk.pts[k - 1]
            return Leg(start, pos, residual_data, walk.pts[:k], rates[:k], pos, k, 0)
    raise LegInfeasible(
        f"drain from {start} cannot deliver {residual_data:.3g} bits in {max_slots} slots"
    )


def initial_leg(
    start: Position3,
    end: Position3,
    residual_data: float,
    v0: float,
    cp: ChannelParams,
    kin: KinematicParams,
    max_stretch: int = 100000,
) -> Leg:
    """Slow evenly-paced straight leg used by the initial solution.

    The pace starts at v0 and the leg is stretched (more slots along the
    same segment) until the all-granted upload fits, which guarantees the
    data constraint for the initial iterate.
    """
    d = start.dist(end)
    slots = 0 if d <= 0 else max(1, math.ceil(d / v0 - _CEIL_EPS))
    while True:
        line = _even_waypoints(start, end, slots) if slots else []
        rates = [rate_at(p.x, p.y, p.z, cp) for p in line]
        if residual_data <= 0 or sum(rates) >= residual_data:
            return Leg(start, end, residual_data, line, rates, start, 0, slots)
        if slots >= max_stretch:
            raise LegInfeasible(
                f"initial leg from {start} to {end} cannot carry "
                f"{residual_data:.3g} bits even with {slots} slots"
            )
        slots = max(slots + 1, int(slots * 1.5))

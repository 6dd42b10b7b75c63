"""Per-leg trajectory construction between consecutive sensing locations.

A leg is the slot-by-slot path a UAV flies from one sensing location to the
next while uploading the data collected at the leg's start.  Legs are built
at maximum speed (slower speeds never finish earlier) and, when the straight
line does not give enough transmission capacity, are prefixed with a
rate-gradient detour toward the BS: the shortest detour that makes the
upload fit wins.  A detour walks at full speed along the closed-form
gradient of the rate (``channel.rate_gradient_at``), and a step that would
end within ``_BS_STANDOFF`` of the BS stops where it enters that sphere,
the smaller root of a quadratic.  No channel evaluation steers the walk:
it rates only the points it lands on.

Masks: a planner's ``is_granted`` says which slots the caller expects to
hold a subcarrier (slot of waypoint k is ``first_slot + k - 1``).  It is
``None``, every slot granted; an observed per-slot mask, a ``list[bool]``
as ``itsso.masks_from_outcome`` makes it, where slot s is ``mask[s - 1]``
and slots outside the mask are granted; or any ``is_granted(slot) ->
bool``.  ``replan_leg`` plans against the mask, falling back to no mask
when no leg fits.  Planners read grants only through ``_grant_window``,
which slices a mask and calls a function once per slot.  Only granted
slots add capacity, so ``optimize_leg`` sums a line over its granted slots
alone, and skips a candidate outright when its granted slots, each at the
segment's rate ceiling (``channel.segment_rate_ceiling``, a proven upper
bound on the rate anywhere on the segment), cannot make up the residual.

What is cached, and for how long.  Every channel evaluation depends only
on geometry; the mask and the residual only decide which rates are summed.
- Within one ``optimize_leg`` call the grant window is read once: the
  first ``delta_lower_bound`` slots for the straight line, the rest only
  when the straight line falls short, into a list of bools and a prefix
  count.  Each detour split's route and rate ceiling are worked out once,
  whatever the budget, and the gradient walk is taken only one split past
  the last that can fit the budget (``_plan_leg`` says why that is exact).
- Every straight line, full speed or evenly paced, is one ``_Line``, the
  only place a line point is worked out.  It keeps its rates in an
  ``array('d')``, NaN until rated.  Every capacity check of a line,
  ``initial_leg``'s stretch test and ``constant_speed_leg`` included, is
  one ``_summed``: it rates only the granted points it sums and stops at
  the residual; the hover-at-end family reads only the line's end point.
  Every slot count of a distance at a speed is one ``_slots``, and every
  gradient walk one ``_Walk``: at ``v_max`` for the planners, at its own
  speed for ``constant_speed_leg``.
- A ``LegCache`` keeps the rate-gradient walk (positions and rates) from
  each leg start, which ``optimize_leg`` and ``drain_leg`` extend and
  share, and those lines (their rates, not their waypoints), so a line
  partly rated by one call is completed by the next that needs it.  Its
  lines share the rate of each end point, taken on the first read by any
  of them.  ``run_itsso`` makes one per call and drops it on return; a
  call without one starts cold, through a throwaway cache (``_cache``).
  There is no module-level cache.
- The same ``LegCache`` keeps every leg it planned, keyed by
  ``(start, end, payload)`` for ``optimize_leg`` and ``(start, payload)``
  for ``drain_leg``, each with the grants of that leg's own slots, and
  returns the kept leg while the current grants over those slots are
  equal.  That is exact: a leg of n slots was decided by the grants of its
  slots 0..n-1 alone (``_plan_leg``; a drain stops at the first slot where
  its sum reaches the payload), and the rest of the key fixes the geometry.
  ``LegCache.keep`` reads those grants itself; a leg with no payload reads
  none, and a call that raises ``LegInfeasible`` is not kept.  The memo
  sits inside the public functions, so every call is still a call of them.
- A leg builds nothing up front.  Every ``Leg`` stores its shape: the
  walk prefix it uses, pauses, its route ``_Line`` and pauses at the end.
  ``Leg.rate(k)`` is the one reader of a slot's rate, and a route point is
  rated on its first read and kept in the line: the simulator's granted
  slots, its completion projections (``slots_to_deliver``) and a dump
  (``rates``) all read through it.  ``waypoints`` builds a fresh list in
  bulk.  Only a traced simulator run and a dump read waypoints; the
  simulator rates the points it sums in granted slots or projections, and
  a dump rates the rest.  The stretches of one ``initial_leg`` share
  their end point's rate.
Capacities are summed left to right over granted slots, exactly as a
plain loop over every slot would, so a plan is bit-identical to the one a
dense scan of every point gives, with or without a cache.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, compress
from typing import Callable, Optional

from .channel import (
    ChannelParams,
    Position3,
    rate_at,
    rate_gradient_at,
    segment_rate_ceiling,
    _require_finite,
)

__all__ = [
    "KinematicParams",
    "Leg",
    "LegCache",
    "LegInfeasible",
    "delta_lower_bound",
    "rate_gradient",
    "optimize_leg",
    "replan_leg",
    "drain_leg",
    "initial_leg",
]

# None (every slot granted), an observed mask over absolute slots, or a function
Grants = Optional[list[bool] | Callable[[int], bool]]

_CEIL_EPS = 1e-9  # guards exact-division distances against float noise
_BS_STANDOFF = 1.0  # m; gradient steps never land closer to the BS than this
_NAN = array("d", [math.nan])  # an unrated line point
_MAX_STRETCH = 100000  # slots; an initial leg needing more is infeasible
_MAX_DRAIN_SLOTS = 10000  # slots; a drain leg needing more is infeasible
_MAX_DETOUR_FACTOR = 10  # extra slots a leg may take: this many times its minimum, at least 20
_ROOT_SLACK_M = 1e-10  # m; a closed-form sphere crossing is aimed this far on the safe side


class LegInfeasible(RuntimeError):
    """No feasible leg exists within the detour cap."""


@dataclass(frozen=True)
class KinematicParams:
    v_max: float = 50.0  # meters per slot
    h_min: float = 10.0  # minimum altitude, meters

    def __post_init__(self):
        _require_finite(positive=True, v_max=self.v_max, h_min=self.h_min)


_LEG_FIELDS = ("start", "end", "residual_data", "waypoints", "rates", "turning_point",
               "detour_slots", "route_slots")


class Leg:
    """One planned leg: its ``slots`` follow the start's sensing slot.

    ``waypoints[k]`` is the position in leg slot k+1; the last waypoint is
    the leg's end point.  ``rate(k)`` is the scheduled rate at
    ``waypoints[k]``, so the simulator and schedulers never re-evaluate the
    channel; ``rates`` lists them all.
    ``detour_slots + route_slots == slots == len(waypoints)``.

    A leg stores its shape, not its lists: the first ``d1`` items of a head
    (a gradient walk's points and rates), pauses there up to
    ``detour_slots``, a route ``_Line`` and pauses at its end; a leg made
    from given lists (a loaded dump) is all head.
    ``waypoints`` and ``rates`` build fresh lists on every read, and
    ``rate`` is the one reader of a slot's rate: ``rates``,
    ``slots_to_deliver`` and the simulator all read through it.  A route
    point that no capacity check summed is rated on its first read and kept
    in the line, so a ``ChannelDomainError`` for such a point surfaces
    there, not when the leg is planned.  Legs compare equal by content.

    The capacity contract: a planner returns a leg only once its rates in
    the granted slots, summed left to right, reach ``residual_data``
    (``initial_leg`` grants every slot; ``replan_leg``'s fallback plans as
    if every slot were granted).  Rates are non-negative and float addition
    is monotone, so the sum over every slot reaches it too: with every slot
    granted, a planned leg delivers its payload within its ``slots``.  The
    simulator's completion projections count on it.  A leg made from given
    lists is not checked.
    """

    __slots__ = ("start", "end", "residual_data", "turning_point", "detour_slots",
                 "route_slots", "slots", "_pts", "_rates", "_d1", "_r0", "_route")

    def __init__(self, start: Position3, end: Position3, residual_data: float,
                 waypoints: list[Position3], rates: list[float], turning_point: Position3,
                 detour_slots: int, route_slots: int):
        self.start, self.end, self.residual_data = start, end, residual_data
        self.turning_point, self.detour_slots, self.route_slots = (
            turning_point, detour_slots, route_slots)
        n = self.slots = len(waypoints)
        self._pts, self._rates, self._d1, self._r0, self._route = waypoints, rates, n, n, None

    def rate(self, k: int) -> float:
        """The rate in leg slot k+1 (0 <= k < slots)."""
        j = k - self._r0
        if j < 0:
            d1 = self._d1
            return self._rates[k if k < d1 else d1 - 1]
        route = self._route
        return route.rate(j if j < route.n else route.n - 1)

    def slots_to_deliver(self, w: int, residual: float) -> int:
        """Slots after waypoint ``w`` until ``residual`` bits are delivered
        with every slot granted, reading ``rate`` slot by slot and hovering
        at the leg end once the waypoints run out."""
        if residual <= 0:
            return 0
        n, rate = self.slots, self.rate
        if not n:
            raise RuntimeError("a leg carrying data must have waypoints")
        total = 0.0
        for k in range(w, n):
            total += rate(k)
            if total >= residual:
                return k + 1 - w
        extra = math.ceil((residual - total) / rate(n - 1) - 1e-12)
        return (n - w) + max(extra, 1)

    @property
    def waypoints(self) -> list[Position3]:
        d1, route = self._d1, self._route
        pts = self._pts[:d1]
        pts += pts[-1:] * (self._r0 - d1)
        if route is not None:
            pts += route.points()
        pts += pts[-1:] * (self.slots - len(pts))
        return pts

    @property
    def rates(self) -> list[float]:
        return [self.rate(k) for k in range(self.slots)]

    def __eq__(self, other):
        if not isinstance(other, Leg):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in _LEG_FIELDS)

    __hash__ = None

    def __repr__(self) -> str:
        return "Leg(" + ", ".join(f"{f}={getattr(self, f)!r}" for f in _LEG_FIELDS) + ")"


def _slots(d: float, v: float) -> int:
    """Slots to fly distance d at speed v: none for no distance, else at
    least one."""
    return 0 if d <= 0 else max(1, math.ceil(d / v - _CEIL_EPS))


def delta_lower_bound(start: Position3, end: Position3, kin: KinematicParams) -> int:
    """Fewest slots to cover the straight line at maximum speed."""
    return _slots(start.dist(end), kin.v_max)


def rate_gradient(
    pos: Position3,
    params: ChannelParams,
    kin: KinematicParams,
) -> Optional[tuple[float, float, float]]:
    """Unit direction of steepest rate increase at ``pos``.

    The direction of ``channel.rate_gradient_at``, the closed-form gradient
    of ``rate_at`` (along ``-grad pl``, since the rate falls strictly as the
    average pathloss rises); it raises ``ChannelDomainError`` wherever
    ``rate_at`` does.  If a full-speed move along it would sink below the
    altitude floor, the vertical component is dropped and the rest
    renormalized.  Returns None when no ascent direction exists; callers
    hover; this happens only on the BS's vertical axis (``hypot(x, y)``
    below 1e-9 m).  The floor rule acts only below ``h_min + v_max``, where
    (up to about 500 m) every point off the axis has a horizontal pull
    toward the BS; the norm is 0 or not finite only astronomically far
    from the BS or at a subnormal distance from it.
    """
    gx, gy, gz = rate_gradient_at(pos.x, pos.y, pos.z, params)
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


def _gradient_step(pos: Position3, speed: float, cp: ChannelParams,
                   kin: KinematicParams) -> Position3:
    """Advance one slot along the rate gradient, respecting floor and BS standoff."""
    g = rate_gradient(pos, cp, kin)
    if g is None:
        return pos  # no ascent direction (on the BS's vertical axis): hover
    nxt = Position3(
        pos.x + speed * g[0],
        pos.y + speed * g[1],
        max(pos.z + speed * g[2], kin.h_min),
    )
    bs = cp.bs_position
    if nxt.dist(bs) < _BS_STANDOFF:
        # stop where the step enters the standoff sphere, so the link stays
        # out of the singularity: the smaller root of |w + s v| = r, with w
        # the start's offset from the BS and v the step, aimed _ROOT_SLACK_M
        # outside the sphere so that rounding cannot land inside it
        vx, vy, vz = nxt.x - pos.x, nxt.y - pos.y, nxt.z - pos.z
        wx, wy, wz = pos.x - bs.x, pos.y - bs.y, pos.z - bs.z
        r = _BS_STANDOFF + _ROOT_SLACK_M
        c = wx * wx + wy * wy + wz * wz - r * r
        if c <= 0.0:
            return pos  # already at the standoff: hover
        a = vx * vx + vy * vy + vz * vz
        b = wx * vx + wy * vy + wz * vz  # < 0: the step ends inside the sphere
        s = c / (math.sqrt(b * b - a * c) - b)
        nxt = Position3(pos.x + s * vx, pos.y + s * vy, pos.z + s * vz)
        if nxt.dist(bs) < _BS_STANDOFF:
            return pos
    return nxt


class _Line:
    """The n-slot straight line a -> b, evenly paced or at ``speed`` with the
    remainder on the last step; the last point is exactly b.

    The one place a line point is worked out.  ``rates``, an ``array('d')``
    of n NaNs, keeps each point's rate once rated; ``points`` gives the
    waypoints in bulk and ``rate`` one point's rate.  ``ends`` maps end points
    to their rates; lines that share it rate each end point once.
    """

    __slots__ = ("a", "b", "n", "even", "speed", "cp", "rates", "ends", "_d", "_dx", "_dy",
                 "_dz")

    def __init__(self, a: Position3, b: Position3, n: int, even: bool, speed: float,
                 cp: ChannelParams, ends: dict[Position3, float]):
        self.a, self.b, self.n, self.even = a, b, n, even
        self.speed, self.cp, self.rates, self.ends = speed, cp, _NAN * n, ends
        # point k (1-based) is a + f * (dx, dy, dz): evenly paced, f = k / n
        # of the span; at full speed, f = min(k * speed, d) along the unit
        # direction
        dx, dy, dz = b.x - a.x, b.y - a.y, b.z - a.z
        if not even and n:
            d = self._d = a.dist(b)
            dx, dy, dz = dx / d, dy / d, dz / d
        self._dx, self._dy, self._dz = dx, dy, dz

    def _xyz(self, j: int) -> tuple[float, float, float]:
        """Coordinates of waypoint j (0-based)."""
        k = j + 1
        f = k / self.n if self.even else min(k * self.speed, self._d)
        a = self.a
        return a.x + f * self._dx, a.y + f * self._dy, a.z + f * self._dz

    def points(self) -> list[Position3]:
        """Every waypoint, as ``_xyz`` makes it."""
        n = self.n
        if not n:
            return []
        if self.even:
            fs = [k / n for k in range(1, n)]
        else:
            v, d = self.speed, self._d
            fs = [min(k * v, d) for k in range(1, n)]
        (ax, ay, az), dx, dy, dz = self.a, self._dx, self._dy, self._dz
        new = tuple.__new__  # Position3(...) without its Python-level __new__
        pts = [new(Position3, (ax + f * dx, ay + f * dy, az + f * dz)) for f in fs]
        pts.append(self.b)
        return pts

    def rate(self, j: int) -> float:
        """Waypoint j's (0-based) rate, rated on first read and kept; the end
        point's through ``ends``."""
        r = self.rates[j]
        if r != r:
            if j + 1 < self.n:
                x, y, z = self._xyz(j)
                r = rate_at(x, y, z, self.cp)
            else:
                b, ends = self.b, self.ends
                r = ends.get(b)
                if r is None:
                    r = ends[b] = rate_at(b.x, b.y, b.z, self.cp)
            self.rates[j] = r
        return r


def _leg(start: Position3, end: Position3, residual_data: float, route: Optional[_Line],
         tail: int = 0, walk: Optional[_Walk] = None, d1: int = 0, hover: int = 0) -> Leg:
    """The leg that walks the first ``d1`` steps of ``walk``, pauses
    ``hover`` slots there, flies ``route`` (if any) and pauses ``tail``
    slots at its end."""
    pts, rates = (walk.pts, walk.rates) if d1 else ([], [])
    r0 = d1 + hover
    n = r0 + route.n + tail if route else r0
    leg = Leg(start, end, residual_data, pts, rates, pts[d1 - 1] if d1 else start, r0, n - r0)
    leg.slots, leg._d1, leg._r0, leg._route = n, d1, r0, route
    return leg


class _Walk:
    """Rate-gradient walk from one start at ``speed`` per slot.

    ``pts[k]`` is the position after k+1 steps and ``rates[k]`` its rate.
    The walk is a pure function of the start, the speed, the channel and
    the kinematics, so it only ever grows; legs read the prefix they use.
    Every step is rated with ``rate_at``, one that holds its position at the
    BS standoff too.
    """

    __slots__ = ("start", "cp", "kin", "speed", "pts", "rates")

    def __init__(self, start: Position3, cp: ChannelParams, kin: KinematicParams,
                 speed: float):
        self.start = start
        self.cp = cp
        self.kin = kin
        self.speed = speed
        self.pts: list[Position3] = []
        self.rates: list[float] = []

    def extend(self, n: int) -> None:
        """Walk on until at least n steps are known."""
        cp, kin, speed, pts, rates = self.cp, self.kin, self.speed, self.pts, self.rates
        pos = pts[-1] if pts else self.start
        while len(pts) < n:
            nxt = _gradient_step(pos, speed, cp, kin)
            rates.append(rate_at(nxt.x, nxt.y, nxt.z, cp))
            pts.append(nxt)
            pos = nxt


class LegCache:
    """Gradient walks by leg start, rated lines by geometry and planned legs
    by their inputs, shared by the planners of one run.

    Bound to one channel and kinematics; ``optimize_leg`` and ``drain_leg``
    refuse a cache made for other parameters.  It grows with every distinct
    start, line and leg it sees and is meant to be dropped with the run
    that made it.  A line keeps its rates, NaN where not yet rated, but not
    its waypoints, to keep it small.  A leg is kept with the grants of the
    slots its planner read (see ``kept``).
    """

    def __init__(self, cp: ChannelParams, kin: KinematicParams):
        self.cp = cp
        self.kin = kin
        self._walks: dict[Position3, _Walk] = {}
        # (a, b, slots, evenly paced) -> that line, at full speed v_max
        self.lines: dict[tuple[Position3, Position3, int, bool], _Line] = {}
        self.ends: dict[Position3, float] = {}  # a line's end point -> its rate, once read
        # (start, end, payload) of an optimize_leg call, or (start, payload)
        # of a drain_leg call -> each leg planned for it, with the grants of
        # the leg slots its planner read
        self._legs: dict[tuple, list[tuple[Leg, list[bool]]]] = {}

    def walk(self, start: Position3) -> _Walk:
        w = self._walks.get(start)
        if w is None:
            w = self._walks[start] = _Walk(start, self.cp, self.kin, self.kin.v_max)
        return w

    def line(self, a: Position3, b: Position3, n: int, even: bool) -> _Line:
        key = (a, b, n, even)
        got = self.lines.get(key)
        if got is None:
            got = self.lines[key] = _Line(a, b, n, even, self.kin.v_max, self.cp, self.ends)
        return got

    def kept(self, key: tuple, is_granted: Grants, first_slot: int) -> Optional[Leg]:
        """The leg kept for ``key`` whose grants read equal the current ones
        over the same slots, if any: the planner would return it again."""
        for leg, window in self._legs.get(key, ()):
            if _grant_window(is_granted, first_slot, len(window)) == window:
                return leg
        return None

    def keep(self, key: tuple, leg: Leg, is_granted: Grants, first_slot: int) -> Leg:
        """Keep ``leg`` with the grants of its own slots, none for a leg with
        no payload, which reads no grants; returns the leg."""
        n = leg.slots if leg.residual_data > 0 else 0
        self._legs.setdefault(key, []).append((leg, _grant_window(is_granted, first_slot, n)))
        return leg


def _cache(cache: Optional[LegCache], cp: ChannelParams, kin: KinematicParams) -> LegCache:
    """The caller's cache, if made for these parameters, or a throwaway one:
    a call without a cache starts cold."""
    if cache is None:
        return LegCache(cp, kin)
    if (cp is not cache.cp and cp != cache.cp) or (kin is not cache.kin and kin != cache.kin):
        raise ValueError("LegCache was made for other channel or kinematic parameters")
    return cache


def _grant_window(is_granted: Grants, first_slot: int, n: int) -> list[bool]:
    """Grants of leg slots 0..n-1 (absolute slots from ``first_slot``): all
    of them for None, one call per slot of a function, else a slice of the
    mask, with the slots outside it granted.  The window is a new list, so a
    caller may extend it and a mask changed later cannot change it."""
    if is_granted is None:
        return [True] * n
    if callable(is_granted):
        return [is_granted(slot) for slot in range(first_slot, first_slot + n)]
    mask = is_granted
    lo, hi = first_slot - 1, first_slot - 1 + n  # mask indices of the window
    if 0 <= lo and hi <= len(mask):
        return mask[lo:hi]
    window = [True] * min(n, -lo) if lo < 0 else []
    window += mask[max(lo, 0):max(min(hi, len(mask)), 0)]
    window += [True] * (n - len(window))
    return window


def _summed(line: _Line, granted: Sequence[bool], k0: int, total: float,
            target: float) -> float:
    """``total`` plus the granted rates of a line whose point j flies leg
    slot k0 + j, left to right, stopped once it reaches ``target``.  Only
    the points summed are rated; rates are non-negative, so a stopped sum
    gives the full sum's answer."""
    rates, n = line.rates, line.n
    for j in compress(range(n), granted[k0:k0 + n]):
        r = rates[j]
        if r != r:
            r = line.rate(j)
        total += r
        if total >= target:
            break
    return total


def optimize_leg(
    start: Position3,
    end: Position3,
    residual_data: float,
    cp: ChannelParams,
    kin: KinematicParams,
    is_granted: Grants = None,
    first_slot: int = 0,
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

    ``cache`` shares the gradient walk from ``start``, the rated lines and
    the legs already planned with other calls of the same run; the leg
    returned is equal with or without it.  A leg of n slots depends only on
    the grants of leg slots 0..n-1 (see ``_plan_leg``), so a kept leg whose
    grants there equal the current ones is the leg a new plan would give.
    The leg keeps ``Leg``'s capacity contract.
    """
    if residual_data < 0:
        raise ValueError("residual_data must be non-negative")
    cache = _cache(cache, cp, kin)
    key = (start, end, residual_data)
    leg = cache.kept(key, is_granted, first_slot)
    if leg is None:
        leg = cache.keep(key, _plan_leg(start, end, residual_data, cp, kin, is_granted,
                                        first_slot, cache), is_granted, first_slot)
    return leg


def _plan_leg(
    start: Position3,
    end: Position3,
    residual_data: float,
    cp: ChannelParams,
    kin: KinematicParams,
    is_granted: Grants,
    first_slot: int,
    cache: LegCache,
) -> Leg:
    """``optimize_leg``'s budget scan, with no leg memo.

    A leg returned at budget n (``slots == n``) was decided by the grants of
    leg slots 0..n-1 alone: every check at a budget m <= n reads grants
    below m only.  The straight line at the minimum reads its slots; the
    hover-at-end family reads slot m-1; the granted count ``count[m]``
    covers slots below m; the walk and pause sums of a split read slots
    below its route start ``k0 <= m``; and ``_summed`` reads the route's
    slots ``k0..m-1``.  Grants beyond the leg therefore cannot change it.

    The walk is taken only as far as a budget's splits can fit.  Split d1
    needs ``S(d1) = d1 + d2(d1)`` slots, d2 being the route's length in
    full-speed slots, ``ceil(dist / v_max)``.  Between two splits every
    walk step starts at or above the altitude floor and moves at most
    ``v_max`` (the standoff only shortens it), so over j steps the distance
    to the end falls by at most ``j * v_max`` and ``d2`` by at most j
    slots: S never falls as d1 grows, but for one slot of ``ceil`` rounding
    near a whole number.  So once a split has ``S > n + 1``, every later one
    has ``S > n`` and cannot fit budget n; the scan computes splits up to
    the first such one and no further.
    """
    dlb = delta_lower_bound(start, end, kin)  # 0 only for a line of no length
    straight = cache.line(start, end, dlb, False)
    if residual_data <= 0:
        return _leg(start, end, residual_data, straight)  # rated on read, if ever
    granted = _grant_window(is_granted, first_slot, dlb)
    line_total = _summed(straight, granted, 0, 0.0, residual_data)  # hover-at-end continues it
    if line_total >= residual_data:
        return _leg(start, end, residual_data, straight)

    cap = max(_MAX_DETOUR_FACTOR * max(dlb, 1), 20)
    granted += _grant_window(is_granted, first_slot + dlb, cap)
    count = list(accumulate(granted, initial=0))  # granted leg slots before slot k
    end_rate = straight.rate(dlb - 1) if dlb else 0.0  # all the hover-at-end family adds

    walk = cache.walk(start)
    detour, detour_rates = walk.pts, walk.rates
    # per detour split d1 (index d1 - 1): the route length d2 to the end,
    # the hover pauses counted so far, the capacity of the first d1 walk
    # steps plus those pauses, and the route segment's rate ceiling (NaN
    # until a check needs it)
    d2s: list[int] = []
    paused: list[int] = []
    held: list[float] = []
    ceilings: list[float] = []
    line_ceiling = math.nan
    walk_total = 0.0
    for n in range(dlb, dlb + cap + 1):
        if dlb and n > dlb:
            # arrive at full speed and keep transmitting at the destination
            if granted[n - 1]:
                line_total += end_rate
            if line_total >= residual_data:
                return _leg(start, end, residual_data, straight, n - dlb)
        if dlb and count[n]:
            # or spread the slots evenly along the segment, unless even the
            # segment's rate ceiling in every granted slot falls short
            if line_ceiling != line_ceiling:
                line_ceiling = segment_rate_ceiling(start, end, cp)
            if not count[n] * line_ceiling < residual_data:
                paced = cache.line(start, end, n, True)
                if _summed(paced, granted, 0, 0.0, residual_data) >= residual_data:
                    return _leg(start, end, residual_data, paced)
        # up to the first split past this budget by more than a slot
        while len(d2s) < n and (not d2s or len(d2s) + d2s[-1] <= n + 1):
            k = len(d2s)
            if len(detour) <= k:
                walk.extend(k + 1)
            if granted[k]:
                walk_total += detour_rates[k]
            d2s.append(_slots(detour[k].dist(end), kin.v_max))
            paused.append(0)
            held.append(walk_total)
            ceilings.append(math.nan)
        for d1 in range(1, len(d2s) + 1):
            i = d1 - 1
            d2 = d2s[i]
            hover = n - d1 - d2  # pause at the detour's endpoint before routing
            if hover < 0:
                continue
            tp = detour[i]
            r_tp = detour_rates[i]
            while paused[i] < hover:
                if granted[d1 + paused[i]]:
                    held[i] += r_tp
                paused[i] += 1
            h = held[i]
            k0 = d1 + hover  # the route flies leg slots k0..n-1
            if h < residual_data:
                # skip the split when the route's granted slots, each at the
                # segment's rate ceiling, cannot make up the rest
                g = count[n] - count[k0]
                if not g:
                    continue
                c = ceilings[i]
                if c != c:
                    c = ceilings[i] = segment_rate_ceiling(tp, end, cp)
                if h + g * c < residual_data:
                    continue
            for even in ((False, True) if d2 else (False,)):
                route = cache.line(tp, end, d2, even)
                if h >= residual_data or _summed(route, granted, k0, h,
                                                 residual_data) >= residual_data:
                    return _leg(start, end, residual_data, route, 0, walk, d1, hover)
    raise LegInfeasible(
        f"no feasible leg from {start} to {end} within {cap} extra slots "
        f"(residual {residual_data:.3g} bits)"
    )


def replan_leg(
    start: Position3,
    end: Position3,
    residual_data: float,
    cp: ChannelParams,
    kin: KinematicParams,
    is_granted: Grants,
    first_slot: int,
    cache: Optional[LegCache] = None,
) -> Leg:
    """``optimize_leg`` against the grants of a previous run, or, when no leg
    fits them, as if every slot were granted.

    The observed mask can deny long stretches that the new plan will never
    see; planning optimistically leaves that contention to the simulator.
    """
    try:
        return optimize_leg(start, end, residual_data, cp, kin, is_granted, first_slot,
                            cache=cache)
    except LegInfeasible:
        return optimize_leg(start, end, residual_data, cp, kin, cache=cache)


def constant_speed_leg(
    start: Position3,
    end: Position3,
    residual_data: float,
    v: float,
    cp: ChannelParams,
    kin: KinematicParams,
    is_granted: Grants = None,
    first_slot: int = 0,
) -> Leg:
    """Reference builder moving at one fixed speed every slot.

    Steps of ``v`` with the remainder on the final step of each phase; the
    detour grows one slot at a time exactly as in the main planner but no
    sub-speed pacing or pausing is considered.  It is built from the
    planners' parts: a ``_Walk`` at ``v``, ``_Line``, ``_summed`` and
    ``_leg``.  Exists as the baseline the full planner is measured against:
    a leg built at the speed cap never takes more slots than one built at
    any constant slower speed.
    """
    if residual_data < 0:
        raise ValueError("residual_data must be non-negative")
    ends: dict[Position3, float] = {}  # every line ends at ``end``
    dlb = _slots(start.dist(end), v)
    line = _Line(start, end, dlb, False, v, cp, ends)
    granted = _grant_window(is_granted, first_slot, dlb)
    if residual_data <= 0 or _summed(line, granted, 0, 0.0, residual_data) >= residual_data:
        return _leg(start, end, residual_data, line)
    cap = max(_MAX_DETOUR_FACTOR * max(dlb, 1), 20)
    walk = _Walk(start, cp, kin, v)
    walk_total = 0.0
    for d1 in range(1, cap + 1):
        walk.extend(d1)
        tp = walk.pts[-1]
        d2 = _slots(tp.dist(end), v)
        if len(granted) < d1 + d2:
            granted += _grant_window(is_granted, first_slot + len(granted),
                                     d1 + d2 - len(granted))
        if granted[d1 - 1]:
            walk_total += walk.rates[-1]
        route = _Line(tp, end, d2, False, v, cp, ends)
        if _summed(route, granted, d1, walk_total, residual_data) >= residual_data:
            return _leg(start, end, residual_data, route, 0, walk, d1)
    raise LegInfeasible(
        f"no feasible constant-speed leg from {start} to {end} within {cap} detour slots")


def drain_leg(
    start: Position3,
    residual_data: float,
    cp: ChannelParams,
    kin: KinematicParams,
    is_granted: Grants = None,
    first_slot: int = 0,
    cache: Optional[LegCache] = None,
) -> Leg:
    """Pure sending-priority detour: walk the rate gradient until drained.

    Used after a UAV's final sensing slot, when there is no next sensing
    location to reach.  The turning point is the walk's endpoint and the
    route part is empty.  The leg is a prefix of the gradient walk from
    ``start``, which ``cache`` shares with ``optimize_leg``.  A walk that
    does not deliver within ``_MAX_DRAIN_SLOTS`` slots raises
    ``LegInfeasible``.

    A drain that stops after k slots was decided by the grants of its k
    slots alone, so ``cache`` also keeps each drain with those grants and
    returns it again while they are unchanged.
    """
    cache = _cache(cache, cp, kin)
    key = (start, residual_data)
    leg = cache.kept(key, is_granted, first_slot)
    if leg is None:
        leg = cache.keep(key, _drain(start, residual_data, is_granted, first_slot, cache),
                         is_granted, first_slot)
    return leg


def _drain(start: Position3, residual_data: float, is_granted: Grants, first_slot: int,
           cache: LegCache) -> Leg:
    """``drain_leg``'s walk, reading grants a window at a time, with no leg
    memo; a drain with no payload is empty."""
    if residual_data <= 0:
        return _leg(start, start, 0.0, None)
    walk = cache.walk(start)
    rates = walk.rates
    granted: list[bool] = []
    total = 0.0
    limit = _MAX_DRAIN_SLOTS
    for k in range(limit):
        if k == len(granted):
            granted += _grant_window(is_granted, first_slot + k, min(max(k, 16), limit - k))
        if len(rates) <= k:
            walk.extend(k + 1)
        if granted[k]:
            total += rates[k]
        if total >= residual_data:
            return _leg(start, walk.pts[k], residual_data, None, 0, walk, k + 1)
    raise LegInfeasible(
        f"drain from {start} cannot deliver {residual_data:.3g} bits in {_MAX_DRAIN_SLOTS} slots"
    )


def initial_leg(
    start: Position3,
    end: Position3,
    residual_data: float,
    v0: float,
    cp: ChannelParams,
    kin: KinematicParams,
) -> Leg:
    """Slow evenly-paced straight leg used by the initial solution.

    The pace starts at v0 and the leg is stretched (more slots along the
    same segment) until the all-granted upload fits, which guarantees the
    data constraint for the initial iterate.  The stretch test rates the
    points up to the one where the upload fits, the simulator only those
    it sums.
    """
    slots = _slots(start.dist(end), v0)
    ends: dict[Position3, float] = {}  # every stretch ends at ``end``
    while True:
        line = _Line(start, end, slots, True, v0, cp, ends)
        if residual_data <= 0 or _summed(line, [True] * slots, 0, 0.0,
                                         residual_data) >= residual_data:
            return _leg(start, end, residual_data, line)
        if slots >= _MAX_STRETCH:
            raise LegInfeasible(
                f"initial leg from {start} to {end} cannot carry "
                f"{residual_data:.3g} bits even with {slots} slots"
            )
        slots = max(slots + 1, int(slots * 1.5))

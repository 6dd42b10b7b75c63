"""Executable sense-and-send protocol.

Advances the network slot by slot.  Every UAV is, in each slot, in exactly
one of three states: a sensing slot (hovering at a sensing location,
collecting the task's payload), a transmission slot (moving along its
planned waypoints, draining collected data whenever a subcarrier is
granted) or an empty slot (moving with nothing left to send).  A UAV that
reaches a sensing location while still holding data hovers there in
transmission slots until drained, then senses; the outer optimizer absorbs
that slack on the next pass by re-planning against the observed grants.

Completion projections, the greedy scheduler's priority, are made on
demand: only when a scheduler reads a UAV's estimate in a slot, which in
practice means only for the requesters of a contended slot.  Likewise a
leg's rate is read only in a granted slot of a UAV holding data, and a
waypoint only when a trace row is written, so a leg whose items are made
on first read (``trajectory.initial_leg``) is rated only where it sends.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .channel import ChannelParams, Position3
from .scheduler import OnDemand, update_completion_estimates
from .sensing import Task
from .trajectory import KinematicParams, Leg

__all__ = [
    "UavPlan",
    "SimOutcome",
    "TraceRow",
    "run",
    "write_trace",
    "read_trace",
]

_MAX_SLOTS = 100000  # slots; a run needing more raises

SENSING = "sensing"
TRANSMISSION = "transmission"
EMPTY = "empty"


@dataclass
class UavPlan:
    """Everything one UAV intends to do: route, sensing points, legs.

    ``legs[k]`` ends at ``sensing_locations[k]`` and carries the payload of
    task k-1 (nothing for k = 0); ``drain`` is the detour flown after the
    last sensing slot while the final payload uploads.
    """

    uav: int
    start: Position3
    task_ids: list[int]
    sensing_locations: list[Position3]
    legs: list[Leg]
    drain: Leg

    def __post_init__(self):
        if not (len(self.task_ids) == len(self.sensing_locations) == len(self.legs)):
            raise ValueError("task/location/leg lists must align")

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    def sensing_slots(self) -> list[int]:
        """Planned slot index of each sensing slot (all plan slots granted)."""
        taus = []
        t = 0
        for leg in self.legs:
            t += leg.slots + 1
            taus.append(t)
        return taus

    def planned_completion(self) -> int:
        if not self.task_ids:
            return 0
        return self.sensing_slots()[-1] + self.drain.slots


@dataclass
class TraceRow:
    slot: int
    uav: int
    slot_type: str
    x: float
    y: float
    z: float
    granted: int
    rate_bits: float
    residual_bits: float


@dataclass
class SimOutcome:
    """Result of one protocol run."""

    completion_times: dict[int, int]
    t_max: int
    tau: dict[int, list[int]]
    grants: list[frozenset[int]]
    requests: list[frozenset[int]]
    trace: list[TraceRow] | None


class _Runtime:
    """Mutable per-UAV execution state (one leg pointer plus residual).

    The waypoints, rates and length of the leg being walked are bound when
    the UAV enters it, so the slot loop reads them without a plan lookup.
    The UAV is at waypoint ``w - 1`` of that leg, or, while ``w`` is 0, where
    the last leg left it; ``position`` is kept up to date only in traced runs.
    """

    __slots__ = (
        "uav", "plan", "n_tasks", "cur", "wps", "rates", "leg_slots", "w",
        "residual", "position", "stype", "pending_sense", "done",
        "t_done", "taus", "chain",
    )

    def __init__(self, plan: UavPlan):
        self.uav = plan.uav
        self.plan = plan
        self.n_tasks = plan.n_tasks
        self.cur = 0  # leg being walked; n_tasks means the drain leg
        self.enter_leg()
        self.residual = 0.0
        self.position = plan.start
        self.stype = EMPTY
        self.pending_sense = False
        self.done = self.n_tasks == 0
        self.t_done = 0
        self.taus: list[int] = []
        # chain[j]: all-granted slots from "about to walk leg j" to completion
        self.chain = _completion_chain(plan)
        if not self.done and self.leg_slots == 0:
            self.pending_sense = True

    def enter_leg(self) -> None:
        """Start walking leg ``cur`` (the drain leg once every task is sensed)."""
        p = self.plan
        leg = p.drain if self.cur >= self.n_tasks else p.legs[self.cur]
        self.wps = leg.waypoints
        self.rates = leg.rates
        self.leg_slots = len(leg.waypoints)
        self.w = 0  # waypoints consumed on the current leg

    def projected_completion(self, slot: int) -> float:
        """Completion slot if every transmission slot after ``slot`` were granted."""
        if self.done:
            return float(self.t_done)
        if self.pending_sense:
            return slot + 1 + self.chain[self.cur + 1]
        drain_slots = _slots_to_drain(self.rates, self.residual, self.w)
        if self.cur >= self.n_tasks:
            return slot + drain_slots
        rem = max(self.leg_slots - self.w, drain_slots)
        return slot + rem + 1 + self.chain[self.cur + 1]


def _slots_to_drain(rates: Sequence[float], residual: float, w: int) -> int:
    """Additional all-granted slots until ``residual`` bits are delivered,
    starting just after waypoint ``w`` of a leg with per-waypoint ``rates``
    (hovering at the leg end once waypoints run out)."""
    if residual <= 0:
        return 0
    total = 0.0
    for j in range(w, len(rates)):
        total += rates[j]
        if total >= residual:
            return j - w + 1
    if not rates:
        raise RuntimeError("a leg carrying data must have waypoints")
    end_rate = rates[-1]
    extra = math.ceil((residual - total) / end_rate - 1e-12)
    return (len(rates) - w) + max(extra, 1 if total < residual else 0)


def _completion_chain(plan: UavPlan) -> list[float]:
    n = plan.n_tasks
    chain = [0.0] * (n + 1)
    if n == 0:
        return chain
    chain[n] = _slots_to_drain(plan.drain.rates, plan.drain.residual_data, 0)
    for j in range(n - 1, -1, -1):
        leg = plan.legs[j]
        walk = max(leg.slots, _slots_to_drain(leg.rates, leg.residual_data, 0))
        chain[j] = walk + 1 + chain[j + 1]
    return chain


def run(
    plans: Sequence[UavPlan],
    sched,
    tasks: Mapping[int, Task],
    cp: ChannelParams,
    kin: KinematicParams,
    record_trace: bool = True,
) -> SimOutcome:
    """Run the protocol until every UAV finishes all its tasks.

    ``sched`` provides ``grant(slot, requests, estimates, residuals)``.  Both
    mappings are keyed by UAV id and filled on first read: a UAV's
    completion projection (all future transmission slots granted) and its
    residual bits, both as they stand after the slot's moves.  A scheduler
    that ranks nobody, as in every uncontended slot, projects nobody.
    A run still going after ``_MAX_SLOTS`` slots raises ``RuntimeError``
    naming the UAV that holds the most data.
    """
    states = [_Runtime(p) for p in plans]
    by_id = {s.uav: s for s in states}
    if len(by_id) != len(states):
        raise ValueError("duplicate UAV ids in plans")
    order = sorted(by_id)

    def residual_of(uav: int) -> float:
        return by_id[uav].residual

    grants_log: list[frozenset[int]] = []
    requests_log: list[frozenset[int]] = []
    trace: list[TraceRow] | None = [] if record_trace else None

    active = [by_id[i] for i in order if not by_id[i].done]
    t = 0
    while active:
        t += 1
        if t > _MAX_SLOTS:
            worst = max(active, key=lambda s: s.residual)
            raise RuntimeError(
                f"simulation exceeded {_MAX_SLOTS} slots; UAV {worst.uav} still "
                f"holds {worst.residual:.3g} bits on leg {worst.cur}"
            )
        requests: list[int] = []
        for st in active:
            if st.pending_sense:
                # hover and collect: the position stays, data arrives in full
                st.taus.append(t)
                task = tasks[st.plan.task_ids[st.cur]]
                st.residual += task.data_size
                st.pending_sense = False
                st.cur += 1
                st.enter_leg()
                if not st.leg_slots and st.residual > 0:
                    # the UAV sends only from a waypoint of the leg it walks
                    raise RuntimeError(
                        f"UAV {st.uav}: leg {st.cur} carries {st.residual:.3g} bits "
                        f"but has no waypoints")
                st.stype = SENSING
                continue
            if st.w < st.leg_slots:
                st.w += 1
            # else: waypoints exhausted; hover in place at the leg end
            if st.residual > 0:
                st.stype = TRANSMISSION
                requests.append(st.uav)
            else:
                st.stype = EMPTY

        if requests:
            granted = sched.grant(t, requests, update_completion_estimates(by_id, t),
                                  OnDemand(residual_of))
        else:
            granted = frozenset()
        requests_log.append(frozenset(requests))
        grants_log.append(frozenset(granted))

        finished = False
        for st in active:
            uav = st.uav
            stype = st.stype
            got = uav in granted
            applied = 0.0
            if got and st.residual > 0:
                # a granted requester has walked a waypoint of its leg, as a
                # leg carrying data has waypoints (checked on sensing)
                applied = min(st.rates[st.w - 1], st.residual)
                st.residual -= applied
                if st.residual <= 1e-9:
                    st.residual = 0.0
            if trace is not None:
                if st.w:
                    st.position = st.wps[st.w - 1]
                pos = st.position
                trace.append(TraceRow(
                    t, uav, stype, pos.x, pos.y, pos.z,
                    1 if got else 0, applied, st.residual,
                ))
            if st.residual == 0.0:
                if st.cur >= st.n_tasks:
                    if stype != SENSING or applied > 0.0:
                        st.done = True
                        st.t_done = t
                        finished = True
                elif stype != SENSING and st.w >= st.leg_slots:
                    st.pending_sense = True
        if finished:
            active = [s for s in active if not s.done]

    completion = {i: by_id[i].t_done for i in order}
    return SimOutcome(
        completion_times=completion,
        t_max=max(completion.values(), default=0),
        tau={i: list(by_id[i].taus) for i in order},
        grants=grants_log,
        requests=requests_log,
        trace=trace,
    )


_TRACE_HEADER = ["slot", "uav", "slot_type", "x", "y", "z", "granted",
                 "rate_bits", "residual_bits"]


def write_trace(rows: Iterable[TraceRow], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(_TRACE_HEADER)
        for r in rows:
            w.writerow([r.slot, r.uav, r.slot_type,
                        repr(r.x), repr(r.y), repr(r.z),
                        r.granted, repr(r.rate_bits), repr(r.residual_bits)])


def read_trace(path) -> list[TraceRow]:
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != _TRACE_HEADER:
            raise ValueError(f"unexpected trace header {header}")
        for rec in reader:
            rows.append(TraceRow(
                int(rec[0]), int(rec[1]), rec[2],
                float(rec[3]), float(rec[4]), float(rec[5]),
                int(rec[6]), float(rec[7]), float(rec[8]),
            ))
    return rows

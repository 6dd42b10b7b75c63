"""Executable sense-and-send protocol.

Advances the network slot by slot.  Every UAV is, in each slot, in exactly
one of three states: a sensing slot (hovering at a sensing location,
collecting the task's payload), a transmission slot (moving along its
planned waypoints, draining collected data whenever a subcarrier is
granted) or an empty slot (moving with nothing left to send).  A UAV that
reaches a sensing location while still holding data hovers there in
transmission slots until drained, then senses; the outer optimizer absorbs
that slack on the next pass by re-planning against the observed grants.

Only what a run reads is worked out:
- Only a contended slot reaches the scheduler.  Every requester transmits
  while demand fits the K subcarriers, so a slot with at most ``sched.k``
  requesters is granted to all of them by the simulator itself, and
  ``sched.grant`` is asked only when more than ``sched.k`` UAVs request.
- Completion projections, the greedy scheduler's priority, are made on
  demand: the scheduler gets the slot's requesters themselves and asks
  for a projection (``_Runtime.projected_completion``) only where it
  ranks, which only the greedy scheduler does, in a contended slot.  A
  UAV's completion chain, which its projections before the drain leg
  share, is built on the first of them from the plan: each leg's planned
  slot count and the drain's all-granted slots.  The slots to drain the
  current leg are counted by ``Leg.slots_to_deliver``, which reads the
  leg's rates slot by slot through ``Leg.rate``.  A UAV keeps that count
  from its last projection with the leg, waypoint and residual it was
  made for: a UAV denied while hovering at its leg end keeps all three
  from slot to slot, so it is projected again without summing its rates
  again.
- A leg's rate is read only through ``Leg.rate``: in a granted slot of a
  UAV holding data or by a projection.  A planned leg rates a route point
  on its first read (``trajectory``), so a point that planning did not
  rate is rated only where the run reads it.
- Waypoints are read only by a traced run, which lists each leg's
  waypoints once, when the UAV enters the leg.
- Idle UAVs sleep in untraced runs: a UAV with nothing to send on a leg
  to a sensing location skips the empty slots left on that leg and is
  back in the slot loop to sense.  A traced run steps every UAV in every
  slot, since each slot needs a row; a traced ITSSO run is a stepped
  replay of the untraced run's grants, and ``itsso.replay`` raises if its
  grants differ from them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from .channel import ChannelParams, Position3
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
_NOTHING: frozenset[int] = frozenset()  # requests and grants of a slot without a request

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

    def first_slot(self, idx: int) -> int:
        """First slot of leg ``idx`` (the drain when ``idx == n_tasks``) as
        planned: each earlier leg's slots and then its sensing slot."""
        first = idx + 1
        for leg in self.legs[:idx]:
            first += leg.slots
        return first

    def planned_completion(self) -> int:
        """Last slot of the drain as planned: every leg and the drain take
        the slots they were planned with, against the grants they were
        planned for (the observed mask, or every slot granted)."""
        return self.first_slot(self.n_tasks) - 1 + self.drain.slots


@dataclass(slots=True)
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
    grants: list[frozenset[int]]
    requests: list[frozenset[int]]
    trace: list[TraceRow] | None


class _Runtime:
    """Mutable per-UAV execution state (one leg pointer plus residual).

    The leg being walked and its length are bound when the UAV enters it,
    so the slot loop reads its rates without a plan lookup; a traced run
    also binds the leg's waypoints, as a list.  The UAV is at waypoint
    ``w - 1`` of that leg, or, while ``w`` is 0, where the last leg left it;
    ``position`` is kept up to date only in traced runs.  A UAV asleep in
    an untraced run (see ``run``) is back in the slot loop at slot ``wake``.
    """

    __slots__ = (
        "uav", "plan", "traced", "n_tasks", "cur", "leg", "wps", "leg_slots", "w",
        "residual", "position", "stype", "pending_sense", "done",
        "t_done", "chain", "wake", "drain_memo",
    )

    def __init__(self, plan: UavPlan, traced: bool):
        self.uav = plan.uav
        self.plan = plan
        self.traced = traced
        self.n_tasks = plan.n_tasks
        self.cur = 0  # leg being walked; n_tasks means the drain leg
        self.enter_leg()
        self.residual = 0.0
        self.position = plan.start
        self.stype = EMPTY
        self.done = self.n_tasks == 0
        self.pending_sense = not self.done and self.leg_slots == 0  # a first leg of no slots
        self.t_done = 0
        # built on the first projection before the drain leg
        self.chain: list[int] | None = None
        self.wake = 0
        # (leg, w, residual, slots to drain) of the last projection
        self.drain_memo: tuple = (None, 0, 0.0, 0)

    def enter_leg(self) -> None:
        """Start walking leg ``cur`` (the drain leg once every task is sensed)."""
        p = self.plan
        leg = self.leg = p.drain if self.cur >= self.n_tasks else p.legs[self.cur]
        self.wps = leg.waypoints if self.traced else None
        self.leg_slots = leg.slots
        self.w = 0  # waypoints consumed on the current leg

    def sleep(self, slot: int) -> None:
        """Skip the empty slots left on this leg after ``slot``, at least one;
        the UAV is back at slot ``wake``, to sense."""
        self.wake = slot + max(1, self.leg_slots - self.w) + 1
        self.pending_sense = True

    def projected_completion(self, slot: int) -> float:
        """Completion slot if every transmission slot after ``slot`` were
        granted, for a requester of ``slot``: a UAV that has stepped onto a
        waypoint of its leg holding data, neither done nor about to sense;
        the projection is defined for no other UAV."""
        leg, w, residual = self.leg, self.w, self.residual
        memo = self.drain_memo
        if memo[0] is leg and memo[1] == w and memo[2] == residual:
            drain_slots = memo[3]  # e.g. denied while hovering at the leg end
        else:
            drain_slots = leg.slots_to_deliver(w, residual)
            self.drain_memo = (leg, w, residual, drain_slots)
        if self.cur >= self.n_tasks:
            return slot + drain_slots
        chain = self.chain
        if chain is None:
            chain = self.chain = _completion_chain(self.plan)
        rem = self.leg_slots - w
        if drain_slots > rem:
            rem = drain_slots
        return slot + rem + 1 + chain[self.cur + 1]


def _completion_chain(plan: UavPlan) -> list[int]:
    """``chain[j]``: all-granted slots from "about to walk leg j" to
    completion.  Each leg takes its planned slots, within which it carries
    its payload (``trajectory.Leg``); the drain takes its all-granted
    slots, at most its planned ones."""
    n = plan.n_tasks
    chain = [0] * (n + 1)
    chain[n] = plan.drain.slots_to_deliver(0, plan.drain.residual_data)
    for j in range(n - 1, -1, -1):
        chain[j] = plan.legs[j].slots + 1 + chain[j + 1]
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

    ``sched`` provides ``k``, the subcarrier count, and ``grant(slot,
    requesters) -> set of UAV ids``, called only in a contended slot, where
    more than ``sched.k`` UAVs request; the run trusts the set it returns.
    A slot whose requesters fit in ``sched.k`` grants every one of them
    without asking, and a slot without a request logs the shared empty set
    as both its requests and its grants.  ``requesters`` are the
    requesting UAVs' runtime states, in UAV id order, as they stand after
    the slot's moves: each has ``uav``, ``residual`` (bits) and
    ``projected_completion(slot)`` (the completion slot if every later
    transmission slot were granted).  A scheduler that ranks nobody
    projects nobody.  A projection counts each leg after the current one
    as its planned slots (``_completion_chain``), so a hand-edited plan
    whose leg cannot carry its payload is projected as if it could.  A run still
    going after ``_MAX_SLOTS`` slots raises ``RuntimeError`` naming the UAV
    that holds the most data.

    Without a trace, a UAV with nothing to send on a leg to a sensing
    location sleeps through the empty slots left on that leg: it would
    request nothing and be read by nobody there, so it leaves the slot loop
    in the first slot it steps idle (slot 1 on a first leg) and comes back
    in the slot it senses.  A traced run steps every UAV, since every slot
    needs its row.
    """
    k = sched.k
    states = [_Runtime(p, record_trace) for p in plans]
    by_id = {s.uav: s for s in states}
    if len(by_id) != len(states):
        raise ValueError("duplicate UAV ids in plans")
    order = sorted(by_id)

    grants_log: list[frozenset[int]] = []
    requests_log: list[frozenset[int]] = []
    trace: list[TraceRow] | None = [] if record_trace else None
    asleep: dict[int, list[_Runtime]] = {}  # wake slot -> UAVs back then

    active = [by_id[i] for i in order if not by_id[i].done]
    t = 0
    while active or asleep:
        t += 1
        if t > _MAX_SLOTS:
            worst = max((by_id[i] for i in order if not by_id[i].done),
                        key=lambda s: s.residual)
            raise RuntimeError(
                f"simulation exceeded {_MAX_SLOTS} slots; UAV {worst.uav} still "
                f"holds {worst.residual:.3g} bits on leg {worst.cur}"
            )
        woken = asleep.pop(t, None)
        if woken:
            active += woken
            active.sort(key=attrgetter("uav"))
        requesters: list[_Runtime] = []
        for st in active:
            if st.pending_sense:
                # hover and collect: the position stays, data arrives in full
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
                requesters.append(st)
            else:
                st.stype = EMPTY

        if not requesters:
            granted = _NOTHING
            requests_log.append(granted)
        elif len(requesters) > k:
            requests_log.append(frozenset([st.uav for st in requesters]))
            granted = frozenset(sched.grant(t, requesters))
        else:
            # demand fits in K: every requester transmits
            granted = frozenset([st.uav for st in requesters])
            requests_log.append(granted)
        grants_log.append(granted)

        left = False  # whether a UAV finished or fell asleep
        for st in active:
            uav = st.uav
            stype = st.stype
            got = uav in granted
            applied = 0.0
            if got and st.residual > 0:
                # a granted requester has walked a waypoint of its leg, as a
                # leg carrying data has waypoints (checked on sensing)
                applied = min(st.leg.rate(st.w - 1), st.residual)
                st.residual -= applied
                if st.residual <= 1e-9:
                    st.residual = 0.0
            if trace is not None:
                if st.w:
                    st.position = st.wps[st.w - 1]
                x, y, z = st.position
                trace.append(TraceRow(
                    t, uav, stype, x, y, z, 1 if got else 0, applied, st.residual))
            if st.residual == 0.0:
                if st.cur >= st.n_tasks:
                    if stype != SENSING:
                        st.done = True
                        st.t_done = t
                        left = True
                elif stype != SENSING and st.w >= st.leg_slots:
                    st.pending_sense = True
                elif trace is None:
                    st.sleep(t)
                    asleep.setdefault(st.wake, []).append(st)
                    left = True
        if left:
            active = [s for s in active if not s.done and s.wake <= t]

    completion = {i: by_id[i].t_done for i in order}
    return SimOutcome(
        completion_times=completion,
        t_max=max(completion.values(), default=0),
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
    """Rows of a ``write_trace`` file; an empty file, another header, a row
    without its 9 fields or a field that does not parse raises
    ``ValueError`` naming the line."""
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _TRACE_HEADER:
            raise ValueError(f"{path}: line 1: expected the trace header, got "
                             f"{'an empty file' if header is None else header}")
        for rec in reader:
            if len(rec) != len(_TRACE_HEADER):
                raise ValueError(f"{path}: line {reader.line_num}: expected "
                                 f"{len(_TRACE_HEADER)} fields, got {len(rec)}")
            try:
                rows.append(TraceRow(
                    int(rec[0]), int(rec[1]), rec[2],
                    float(rec[3]), float(rec[4]), float(rec[5]),
                    int(rec[6]), float(rec[7]), float(rec[8]),
                ))
            except ValueError as exc:
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
    return rows

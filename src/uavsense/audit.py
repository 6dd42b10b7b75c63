"""Independent validator for simulation traces.

Walks the per-slot trace rows and re-derives every protocol constraint from
scratch: altitude floor, speed cap, zero velocity while sensing, cooperative
sensing probability, complete data delivery between sensing slots, the
per-slot subcarrier cap and binary grants held only in transmission slots,
legal slot-type transitions, and agreement between the reported rates and
the channel model.  Given the claimed completion slots, it also checks
that each UAV's trace ends in its completion slot, which ties the objective
to the trace.  It shares nothing with the simulator's bookkeeping except
the channel definition itself.
"""

from __future__ import annotations

import math
from collections import defaultdict
from operator import attrgetter
from typing import Mapping, Sequence

from .channel import ChannelParams, Position3, rate_at
from .sensing import SensingParams, Task, sensing_success_coop
from .simulator import EMPTY, SENSING, TRANSMISSION, TraceRow
from .trajectory import KinematicParams

__all__ = ["audit_trace"]

_TOL = 1e-6

_LEGAL_TRANSITIONS = {
    (SENSING, TRANSMISSION),
    (SENSING, EMPTY),
    (TRANSMISSION, TRANSMISSION),
    (TRANSMISSION, SENSING),
    (TRANSMISSION, EMPTY),
    (EMPTY, EMPTY),
    (EMPTY, SENSING),
}


def audit_trace(
    rows: Sequence[TraceRow],
    initial_positions: Mapping[int, Position3],
    routes: Mapping[int, Sequence[int]],
    tasks: Mapping[int, Task],
    cp: ChannelParams,
    kin: KinematicParams,
    sp: SensingParams,
    k_subcarriers: int,
    check_sensing_prob: bool = True,
    completion_times: Mapping[int, int] | None = None,
) -> list[str]:
    """Return a list of constraint violations (empty means the trace passes).

    With ``completion_times`` (UAV id -> completion slot), each UAV's last
    trace row must fall in its completion slot, and a UAV without rows must
    complete at slot 0.
    """
    problems: list[str] = []
    by_uav: dict[int, list[TraceRow]] = defaultdict(list)
    by_slot_granted: dict[int, int] = defaultdict(int)
    for r in rows:
        by_uav[r.uav].append(r)
        if r.granted not in (0, 1):
            problems.append(f"slot {r.slot} uav {r.uav}: grant flag {r.granted} not binary")
        by_slot_granted[r.slot] += r.granted

    for slot, n in sorted(by_slot_granted.items()):
        if n > k_subcarriers:
            problems.append(f"slot {slot}: {n} grants exceed the cap {k_subcarriers}")

    for uav, route in sorted(routes.items()):
        if route and uav not in by_uav:
            problems.append(f"uav {uav}: has {len(route)} tasks but no trace rows")

    # sensing-location record per task for the cooperative probability check
    sensing_points: dict[int, list[tuple[int, Position3]]] = defaultdict(list)
    floor, cap = kin.h_min - _TOL, kin.v_max + _TOL

    for uav, urows in sorted(by_uav.items()):
        urows.sort(key=attrgetter("slot"))
        # floats, not points: a Position3 is made only for a sensing row
        px, py, pz = initial_positions[uav]
        prev_type = None
        prev_residual = 0.0
        sense_count = 0
        route = list(routes.get(uav, ()))
        last_sense_slot = None
        last_drain_slot = None
        expected_slot = None
        for r in urows:
            slot, stype, x, y, z = r.slot, r.slot_type, r.x, r.y, r.z
            if expected_slot is not None and slot != expected_slot:
                problems.append(f"uav {uav}: trace skips from slot {expected_slot - 1} to {slot}")
            expected_slot = slot + 1
            if z < floor:
                problems.append(f"slot {slot} uav {uav}: altitude {z:.3f} below floor")
            # Position3.dist's expression: ``x * x`` is not always ``x ** 2``
            step = math.sqrt((x - px) ** 2 + (y - py) ** 2 + (z - pz) ** 2)
            if step > cap:
                problems.append(f"slot {slot} uav {uav}: speed {step:.3f} exceeds v_max")
            if prev_type is not None and (prev_type, stype) not in _LEGAL_TRANSITIONS:
                problems.append(
                    f"slot {slot} uav {uav}: illegal transition {prev_type}->{stype}")

            residual_before = prev_residual
            if stype == SENSING:
                if step > _TOL:
                    problems.append(f"slot {slot} uav {uav}: moved {step:.3f} m while sensing")
                if sense_count >= len(route):
                    problems.append(f"slot {slot} uav {uav}: more sensing slots than tasks")
                else:
                    task = tasks[route[sense_count]]
                    sensing_points[task.id].append((uav, Position3(x, y, z)))
                    residual_before += task.data_size
                    if last_sense_slot is not None and prev_residual > _TOL:
                        problems.append(
                            f"slot {slot} uav {uav}: sensed task {task.id} with "
                            f"{prev_residual:.3g} bits still undelivered")
                    last_sense_slot = slot
                sense_count += 1

            rate_bits = r.rate_bits
            if r.granted:
                if stype != TRANSMISSION:
                    problems.append(
                        f"slot {slot} uav {uav}: grant outside a transmission slot ({stype})")
                model_rate = rate_at(x, y, z, cp)
                expected = min(model_rate, residual_before)
                if abs(rate_bits - expected) > max(1e-6 * max(expected, 1.0), 1e-3):
                    problems.append(
                        f"slot {slot} uav {uav}: applied rate {rate_bits:.6g} "
                        f"!= min(channel {model_rate:.6g}, residual {residual_before:.6g})")
            elif rate_bits != 0.0:
                problems.append(f"slot {slot} uav {uav}: rate without a grant")

            residual = r.residual_bits
            if abs(residual_before - rate_bits - residual) > 1e-3:
                problems.append(
                    f"slot {slot} uav {uav}: residual bookkeeping off "
                    f"({residual_before:.6g} - {rate_bits:.6g} != {residual:.6g})")
            if stype == EMPTY and residual > _TOL:
                problems.append(f"slot {slot} uav {uav}: empty slot with residual data")
            if rate_bits > 0:
                last_drain_slot = slot
            px, py, pz = x, y, z
            prev_type = stype
            prev_residual = residual

        if sense_count != len(route):
            problems.append(f"uav {uav}: sensed {sense_count} tasks, route has {len(route)}")
        if urows and prev_residual > _TOL:
            problems.append(f"uav {uav}: finished with {prev_residual:.3g} bits undelivered")
        if route and last_sense_slot is not None and last_drain_slot is not None:
            # completion accounting: last sensing slot plus its transmission span
            if last_drain_slot <= last_sense_slot:
                problems.append(
                    f"uav {uav}: final upload ended at {last_drain_slot} before "
                    f"its last sensing slot {last_sense_slot}")

    if completion_times is not None:
        for uav in sorted(set(completion_times) | set(by_uav)):
            claimed = completion_times.get(uav)
            last = by_uav[uav][-1].slot if uav in by_uav else 0
            if claimed != last:
                problems.append(
                    f"uav {uav}: claimed completion slot {claimed} but its trace "
                    f"ends at slot {last}")

    if check_sensing_prob:
        for task_id, points in sorted(sensing_points.items()):
            task = tasks[task_id]
            dists = [p.dist(task.location) for _, p in points]
            if len(points) != len(task.workers):
                problems.append(
                    f"task {task_id}: sensed by {len(points)} UAVs, expected {len(task.workers)}")
            prob = sensing_success_coop(dists, sp)
            if prob < sp.pr_th - 1e-9:
                problems.append(
                    f"task {task_id}: cooperative sensing probability {prob:.6f} "
                    f"below threshold {sp.pr_th}")
    return problems

"""Audit tests: every check reports its own violation, and nothing else.

A small hand-made trace passes the audit; each test tampers it once, in a
way that breaks one protocol rule, and expects that rule's message alone
(a sensing slot without a task also breaks the residual bookkeeping).
"""

from dataclasses import replace

from uavsense.audit import audit_trace
from uavsense.channel import ChannelParams, Position3
from uavsense.sensing import SensingParams, Task
from uavsense.simulator import EMPTY, SENSING, TRANSMISSION, TraceRow
from uavsense.trajectory import KinematicParams

CP = ChannelParams()
KIN = KinematicParams()  # v_max 50 m a slot, floor at 10 m
SP = SensingParams(lam=0.001, pr_th=0.9)  # one worker within ~105 m suffices
H = 12.0  # flight altitude, just above the floor
BITS = 1000.0  # every payload; a granted slot anywhere here carries more

TASKS = {
    0: Task(0, Position3(100.0, 0.0, 0.0), BITS, (0,)),
    1: Task(1, Position3(140.0, 0.0, 0.0), BITS, (0,)),
    2: Task(2, Position3(100.0, 60.0, 0.0), BITS, (1,)),
}
ROUTES = {0: [0, 1], 1: [2]}
STARTS = {0: Position3(100.0, 0.0, H), 1: Position3(100.0, 60.0, H)}


def _row(slot, uav, stype, x, y, granted=0, rate=0.0, residual=0.0, z=H):
    return TraceRow(slot, uav, stype, x, y, z, granted, rate, residual)


def _clean_rows() -> list[TraceRow]:
    """UAV 0 senses task 0, uploads it, flies on, senses task 1, is denied
    once and uploads it; UAV 1 senses task 2 and uploads it in slot 2,
    beside UAV 0, so slot 2 holds two grants."""
    return [
        _row(1, 0, SENSING, 100.0, 0.0, residual=BITS),
        _row(2, 0, TRANSMISSION, 120.0, 0.0, granted=1, rate=BITS),
        _row(3, 0, EMPTY, 130.0, 0.0),
        _row(4, 0, EMPTY, 140.0, 0.0),
        _row(5, 0, SENSING, 140.0, 0.0, residual=BITS),
        _row(6, 0, TRANSMISSION, 130.0, 0.0, residual=BITS),
        _row(7, 0, TRANSMISSION, 120.0, 0.0, granted=1, rate=BITS),
        _row(1, 1, SENSING, 100.0, 60.0, residual=BITS),
        _row(2, 1, TRANSMISSION, 100.0, 50.0, granted=1, rate=BITS),
    ]


def _audit(rows, k=2, routes=ROUTES, tasks=TASKS, starts=STARTS, completion=None):
    if completion is None:
        completion = {0: 7, 1: 2}
    return audit_trace(rows, starts, routes, tasks, CP, KIN, SP, k,
                       completion_times=completion)


def _tampered(**changes_by_key):
    """The clean rows, with the row of slot s and UAV u given the fields of
    keyword ``s<s>u<u>``."""
    rows = _clean_rows()
    for i, r in enumerate(rows):
        changes = changes_by_key.get(f"s{r.slot}u{r.uav}")
        if changes:
            rows[i] = replace(r, **changes)
    return rows


def test_clean_trace_passes():
    assert _audit(_clean_rows()) == []


def test_altitude_below_floor():
    assert _audit(_tampered(s3u0=dict(z=9.0))) == ["slot 3 uav 0: altitude 9.000 below floor"]


def test_step_over_v_max():
    assert _audit(_tampered(s3u0=dict(x=175.0))) == ["slot 3 uav 0: speed 55.000 exceeds v_max"]


def test_move_while_sensing():
    assert _audit(_tampered(s5u0=dict(x=141.0))) == [
        "slot 5 uav 0: moved 1.000 m while sensing"]


def test_illegal_transition():
    assert _audit(_tampered(s4u0=dict(slot_type=TRANSMISSION))) == [
        "slot 4 uav 0: illegal transition empty->transmission"]


def test_rate_without_a_grant():
    assert _audit(_tampered(s2u0=dict(granted=0))) == ["slot 2 uav 0: rate without a grant"]


def test_applied_rate_off_the_channel():
    # 999 of 1000 bits in slot 6, the last bit in slot 7: the bookkeeping
    # adds up, but a granted slot must carry min(channel, residual)
    problems = _audit(_tampered(s6u0=dict(granted=1, rate_bits=BITS - 1, residual_bits=1.0),
                                s7u0=dict(rate_bits=1.0)))
    assert len(problems) == 1
    assert problems[0].startswith("slot 6 uav 0: applied rate 999 != min(channel ")
    assert problems[0].endswith(", residual 1000)")


def test_residual_bookkeeping():
    rows = _tampered(s6u0=dict(residual_bits=BITS + 0.5), s7u0=dict(rate_bits=BITS + 0.5))
    assert _audit(rows) == ["slot 6 uav 0: residual bookkeeping off (1000 - 0 != 1000.5)"]


def test_empty_slot_holding_data():
    # inside the bookkeeping's 1e-3 bits, above the empty slot's 1e-6
    assert _audit(_tampered(s3u0=dict(residual_bits=5e-4))) == [
        "slot 3 uav 0: empty slot with residual data"]


def test_non_binary_grant_flag():
    assert _audit(_tampered(s7u0=dict(granted=2))) == ["slot 7 uav 0: grant flag 2 not binary"]


def test_more_than_k_grants():
    assert _audit(_clean_rows(), k=1) == ["slot 2: 2 grants exceed the cap 1"]


def test_skipped_slot():
    rows = [r for r in _clean_rows() if (r.slot, r.uav) != (3, 0)]
    assert _audit(rows) == ["uav 0: trace skips from slot 2 to 4"]


def test_uav_with_tasks_but_no_rows():
    rows = [r for r in _clean_rows() if r.uav != 1]
    assert _audit(rows, completion={0: 7}) == ["uav 1: has 1 tasks but no trace rows"]


def test_wrong_sensing_count():
    tasks = {**TASKS, 3: Task(3, Position3(100.0, 80.0, 0.0), BITS, (1,))}
    assert _audit(_clean_rows(), routes={**ROUTES, 1: [2, 3]}, tasks=tasks) == [
        "uav 1: sensed 1 tasks, route has 2"]


def test_more_sensing_slots_than_tasks():
    # a sensing slot without a task collects nothing, so the residual the
    # row reports does not add up either
    assert _audit(_clean_rows(), routes={**ROUTES, 0: [0]}) == [
        "slot 5 uav 0: more sensing slots than tasks",
        "slot 5 uav 0: residual bookkeeping off (0 - 0 != 1000)",
        "uav 0: sensed 2 tasks, route has 1"]


def test_task_sensed_by_too_few_workers():
    tasks = {**TASKS, 2: replace(TASKS[2], workers=(1, 0))}
    assert _audit(_clean_rows(), tasks=tasks) == ["task 2: sensed by 1 UAVs, expected 2"]


def test_data_left_undelivered():
    assert _audit(_tampered(s2u1=dict(granted=0, rate_bits=0.0, residual_bits=BITS))) == [
        "uav 1: finished with 1e+03 bits undelivered"]


def test_cooperative_probability_below_threshold():
    # UAV 1 flies 200 m up: exp(-0.2) ~ 0.819 of sensing task 2
    starts = {**STARTS, 1: Position3(100.0, 60.0, 200.0)}
    problems = _audit(_tampered(s1u1=dict(z=200.0), s2u1=dict(z=200.0)), starts=starts)
    assert problems == ["task 2: cooperative sensing probability 0.818731 below threshold 0.9"]


def test_grant_in_a_sensing_slot():
    # sensing and sending fall in different slots: one UAV with two tasks
    # that uploads its first payload in the very slot it senses it
    rows = [
        _row(1, 0, SENSING, 100.0, 0.0, granted=1, rate=BITS),
        _row(2, 0, EMPTY, 120.0, 0.0),
        _row(3, 0, SENSING, 120.0, 0.0, residual=BITS),
        _row(4, 0, TRANSMISSION, 130.0, 0.0, granted=1, rate=BITS),
    ]
    tasks = {0: TASKS[0], 1: replace(TASKS[1], location=Position3(120.0, 0.0, 0.0))}
    assert _audit(rows, routes={0: [0, 1]}, tasks=tasks, completion={0: 4}) == [
        "slot 1 uav 0: grant outside a transmission slot (sensing)"]


def test_grant_in_an_empty_slot():
    assert _audit(_tampered(s3u0=dict(granted=1))) == [
        "slot 3 uav 0: grant outside a transmission slot (empty)"]


def test_unknown_slot_type():
    # reported once: the next row's transition from it is not blamed too
    assert _audit(_tampered(s3u0=dict(slot_type="bogus"))) == [
        "slot 3 uav 0: unknown slot type 'bogus'"]


def test_rows_of_a_uav_the_scenario_does_not_have():
    # reported, not raised, and left out of every other check: its grant
    # would be slot 2's third, over the cap of 2
    rows = _clean_rows() + [_row(2, 99, TRANSMISSION, 0.0, 0.0, granted=1, rate=BITS),
                            _row(3, 99, EMPTY, 0.0, 0.0)]
    assert _audit(rows) == ["slot 2 uav 99: the scenario has no such UAV",
                            "slot 3 uav 99: the scenario has no such UAV"]
    assert _audit([_row(1, 99, EMPTY, 0.0, 0.0)])[0] == \
        "slot 1 uav 99: the scenario has no such UAV"

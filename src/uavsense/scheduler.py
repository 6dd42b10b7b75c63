"""Per-slot subcarrier allocation.

At most K UAVs transmit in any slot.  When demand exceeds K, subcarriers go
to the requesters with the largest projected completion time; ties break on
larger residual data, then lower UAV id, so schedules are reproducible.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Protocol

import numpy as np

__all__ = [
    "schedule_slot",
    "update_completion_estimates",
    "GreedyScheduler",
    "RandomScheduler",
    "ReplayScheduler",
]


def schedule_slot(
    requests: Iterable[int],
    completion_times: Mapping[int, float],
    k: int,
    residuals: Mapping[int, float],
) -> frozenset[int]:
    """Grant up to ``k`` subcarriers among the requesting UAVs.

    Everyone wins when demand fits; otherwise the k largest completion-time
    estimates win (residual data, then lower id, break ties).
    """
    req = list(requests)
    if len(req) <= k:
        return frozenset(req)
    ranked = sorted([(-completion_times[i], -residuals[i], i) for i in req])
    return frozenset([i for _, _, i in ranked[:k]])


class _ProjectsCompletion(Protocol):
    def projected_completion(self, slot: int) -> float: ...


class _Estimates(dict):
    """``uav -> completion-slot projection`` in one slot, each made on its
    first read and then kept, so ``len`` counts the UAVs read.  Read it by
    key: ``get`` and iteration see only the values read so far.  Read only
    a requester of the slot: a UAV that has stepped onto a waypoint of its
    leg holding data, neither done nor about to sense; the simulator's
    projection is defined for no other UAV."""

    __slots__ = ("states", "slot")

    def __missing__(self, uav):
        value = self[uav] = self.states[uav].projected_completion(self.slot)
        return value


def update_completion_estimates(states: Mapping[int, _ProjectsCompletion],
                                slot: int) -> _Estimates:
    """Completion-slot projections for ``slot``'s contention, made on demand.

    A UAV is projected, as if every future transmission slot were granted,
    the first time a scheduler reads it; uncontended slots read nobody.
    """
    estimates = _Estimates()
    estimates.states, estimates.slot = states, slot
    return estimates


class GreedyScheduler:
    """Largest-completion-time-first allocation (the optimizer's scheduler)."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need at least one subcarrier")
        self.k = k

    def grant(self, slot, requests, estimates, residuals):
        return schedule_slot(requests, estimates, self.k, residuals)


class RandomScheduler:
    """Uniformly random allocation; seeds the initial ITSSO iterate."""

    def __init__(self, k: int, seed: int):
        if k < 1:
            raise ValueError("need at least one subcarrier")
        self.k = k
        self._rng = np.random.default_rng(seed)

    def grant(self, slot, requests, estimates, residuals):
        req = sorted(requests)
        if len(req) <= self.k:
            return frozenset(req)
        picked = self._rng.choice(len(req), size=self.k, replace=False)
        return frozenset(req[i] for i in picked)


class ReplayScheduler:
    """Replays a recorded per-slot grant sequence (solution replay).

    A request after the last recorded slot means the replay has left the
    run it records, so it raises rather than schedule on its own.
    """

    def __init__(self, grants: list[frozenset[int]]):
        self.grants = grants

    def grant(self, slot, requests, estimates, residuals):
        if slot - 1 >= len(self.grants):
            raise RuntimeError(
                f"replay diverged: slot {slot} requests a subcarrier after the "
                f"{len(self.grants)} recorded slots")
        return frozenset(self.grants[slot - 1]) & frozenset(requests)

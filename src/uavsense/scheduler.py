"""Per-slot subcarrier allocation.

At most K UAVs transmit in any slot.  A slot whose requesters fit in K
needs no decision: the simulator grants every requester itself and asks a
scheduler (its ``k`` subcarriers, ``grant(slot, requesters)``) only when
more than ``k`` UAVs request.  There, subcarriers go to the requesters with
the largest projected completion time; ties break on larger residual data,
then lower UAV id, so schedules are reproducible.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "schedule_slot",
    "update_completion_estimates",
    "GreedyScheduler",
    "RandomScheduler",
    "ReplayScheduler",
]


def schedule_slot(keys: Iterable[tuple[float, float, int]], k: int) -> frozenset[int]:
    """Grant ``k`` subcarriers by rank: the UAV ids of the ``k`` smallest
    ``(-completion_estimate, -residual, uav)`` keys, so the largest
    completion-time estimates win and larger residual data, then the
    lower id, break ties.  Fewer keys than ``k`` are all granted."""
    return frozenset([uav for _, _, uav in sorted(keys)[:k]])


def update_completion_estimates(requesters: Sequence, slot: int
                                ) -> list[tuple[float, float, int]]:
    """The ranking keys of ``slot``'s contention, one per requester, in
    the requesters' order: ``(-projection, -residual, uav)``, where the
    projection is the completion slot if every later transmission slot
    were granted (``projected_completion(slot)``, which the simulator's
    requester states provide).  Only a contended slot is ranked, so an
    uncontended one projects nobody.
    """
    return [(-st.projected_completion(slot), -st.residual, st.uav) for st in requesters]


class GreedyScheduler:
    """Largest-completion-time-first allocation (the optimizer's scheduler)."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("need at least one subcarrier")
        self.k = k

    def grant(self, slot, requesters):
        return schedule_slot(update_completion_estimates(requesters, slot), self.k)


class RandomScheduler:
    """Uniformly random allocation; seeds the initial ITSSO iterate.

    ``grant`` is called only in a contended slot, with more than ``k``
    requesters, so the generator draws once per contended slot."""

    def __init__(self, k: int, seed: int):
        if k < 1:
            raise ValueError("need at least one subcarrier")
        self.k = k
        self._rng = np.random.default_rng(seed)

    def grant(self, slot, requesters):
        req = [st.uav for st in requesters]  # in id order
        picked = self._rng.choice(len(req), size=self.k, replace=False)
        return frozenset(req[i] for i in picked)


class ReplayScheduler:
    """Replays a recorded per-slot grant sequence (solution replay).

    It decides only the contended slots, with more than ``k`` requesters;
    the simulator grants every requester of the others itself, so a
    schedule that differs from the run in such a slot is caught by
    ``itsso.replay``'s comparison of the whole grant log.  A contended
    request after the last recorded slot means the replay has left the run
    it records, so it raises rather than schedule on its own.
    """

    def __init__(self, grants: list[frozenset[int]], k: int):
        self.grants = grants
        self.k = k

    def grant(self, slot, requesters):
        if slot - 1 >= len(self.grants):
            raise RuntimeError(
                f"replay diverged: slot {slot} requests a subcarrier after the "
                f"{len(self.grants)} recorded slots")
        return frozenset(self.grants[slot - 1]) & {st.uav for st in requesters}

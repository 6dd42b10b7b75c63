"""Probabilistic sensing-success model.

A UAV senses a ground task successfully with probability exp(-lambda * d);
a group of cooperating UAVs succeeds unless every member fails.  The module
also provides the inverse relations used by the placement optimizer and the
sensitivity analysis: the symmetric radius at which a group of q UAVs
exactly meets the threshold, and the smallest group size that meets it at a
given distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .channel import Position3, _require_finite

__all__ = [
    "SensingParams",
    "Task",
    "sensing_success_coop",
    "required_sensing_radius",
    "min_cooperative_uavs",
]


@dataclass(frozen=True)
class SensingParams:
    lam: float = 0.01  # sensing performance, 1/meters
    pr_th: float = 0.9  # success-probability threshold, in (0, 1)

    def __post_init__(self):
        _require_finite(positive=True, lam=self.lam)
        if not 0.0 < self.pr_th < 1.0:
            raise ValueError(f"pr_th={self.pr_th} must lie strictly between 0 and 1")


@dataclass(frozen=True)
class Task:
    """One sensing task: ground location, payload size and its worker group."""

    id: int
    location: Position3  # z = 0
    data_size: float  # bits collected in the sensing slot
    workers: tuple[int, ...]  # UAV ids, |workers| = q, all distinct

    def __post_init__(self):
        if self.location.z != 0.0:
            raise ValueError(f"task {self.id} must sit on the ground")
        if not self.data_size > 0:
            raise ValueError(f"task {self.id} needs a positive data size")
        if len(set(self.workers)) != len(self.workers) or not self.workers:
            raise ValueError(f"task {self.id} workers must be distinct and non-empty")


def sensing_success_coop(distances: Sequence[float] | Iterable[float],
                         params: SensingParams) -> float:
    """Probability that at least one group member senses successfully."""
    fail = 1.0
    n = 0
    for d in distances:
        if d < 0 or not math.isfinite(d):
            raise ValueError(f"distance must be finite and non-negative, got {d}")
        fail *= 1.0 - math.exp(-params.lam * d)
        n += 1
    if n == 0:
        raise ValueError("a cooperative group needs at least one member")
    return 1.0 - fail


def required_sensing_radius(q: int, params: SensingParams) -> float:
    """Symmetric distance at which q cooperating UAVs exactly meet the threshold.

    Inverts pr_th = 1 - (1 - exp(-lam*d0))**q for d0.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    return -math.log(1.0 - (1.0 - params.pr_th) ** (1.0 / q)) / params.lam


def min_cooperative_uavs(d0: float, params: SensingParams) -> int:
    """Smallest group size meeting the threshold when all members sit at d0."""
    if not 0 <= d0 < math.inf:
        raise ValueError(f"d0={d0} must be finite and non-negative")
    single = math.exp(-params.lam * d0)
    if single >= params.pr_th:
        return 1
    # 1 - (1 - e^{-lam d0})^q >= pr_th  <=>  q >= ln(1-pr_th) / ln(1-e^{-lam d0})
    q = math.log(1.0 - params.pr_th) / math.log(1.0 - single)
    return max(1, math.ceil(q - 1e-12))

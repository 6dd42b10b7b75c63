"""Closed-form sensitivity of the completion time.

Under the symmetric-distance idealization (every group member sensing from
the radius that exactly meets the threshold), the completion time responds
to the group size q and the threshold pr_th through that radius alone.
The marginal slot cost per task is the radius change divided by the top
speed, times the number of tasks per UAV.  ``uavsense analyze --op
dtdq`` and ``--op dtdpr`` evaluate them at a given point.

The formulas hold for that idealization, not for the simulated model,
which adds placement's per-worker distance budget, the rate-max start and
the upload time.  At the Table point (q=4, n_i=4, lam=0.01, v_max=50),
dT/dPR_th reads 19.0-22.0 slots per unit threshold at the midpoints of the
pr_th steps 0.5, 0.6, ..., 0.9, nearly flat, while criterion 4's simulated
ITSSO means rise by 6.0-31.2 slots per unit over those steps: the formula
does not track the simulated slope there.  Criterion 6 checks the formulas
against their own finite differences only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SensitivityInputs",
    "dTmax_dq",
    "dTmax_dPRth",
]


@dataclass(frozen=True)
class SensitivityInputs:
    q: int
    pr_th: float
    lam: float
    n_tasks_per_uav: int
    v_max: float

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be at least 1")
        if not 0.0 < self.pr_th < 1.0:
            raise ValueError("pr_th must lie strictly between 0 and 1")
        if self.lam <= 0 or self.v_max <= 0 or self.n_tasks_per_uav < 1:
            raise ValueError("lam, v_max must be positive and n_tasks_per_uav >= 1")


def dTmax_dq(inp: SensitivityInputs) -> float:
    """Marginal slots per added group member (always negative)."""
    u = (1.0 - inp.pr_th) ** (1.0 / inp.q)
    return (
        u * math.log(1.0 - inp.pr_th)
        / (inp.lam * (1.0 - u) * inp.q * inp.q)
        * (inp.n_tasks_per_uav / inp.v_max)
    )


def dTmax_dPRth(inp: SensitivityInputs) -> float:
    """Marginal slots per unit of threshold (always positive)."""
    u = (1.0 - inp.pr_th) ** (1.0 / inp.q)
    return (
        (1.0 - inp.pr_th) ** (1.0 / inp.q - 1.0)
        / (inp.lam * inp.q * (1.0 - u))
        * (inp.n_tasks_per_uav / inp.v_max)
    )

"""Urban-macro air-to-ground uplink model.

Pure evaluation of the UAV-to-BS link on one subcarrier: ``rate_at``
carries the whole chain from 3D/horizontal distances through the LoS
probability, average pathloss and SNR to the per-slot achievable rate.
Beside it sit the gradient of that rate (which the leg planner's
detours follow), an upper bound of the rate over a straight segment
(which lets the leg planner skip candidates), and a numpy screen of the
average pathloss over arrays (which orders the start's altitude grid).
All dBm-to-linear conversions happen once when the parameter set is
constructed; everything on the hot path is plain float math in linear
milliwatts.

Small-scale fading is deliberately absent: the rate is a deterministic
function of geometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "ChannelDomainError",
    "Position3",
    "ChannelParams",
    "rate_at",
    "rate_gradient_at",
    "screened_pathloss",
    "segment_rate_ceiling",
]

_LOG10 = math.log10
_EXP = math.exp
_LN10 = math.log(10.0)
_RATE_PER_DB = _LN10 / (10.0 * math.log(2.0))  # -d log2(1 + gamma) / d pl at gamma >> 1
_CEILING_SLACK_M = 1e-6  # m; waypoints may sit this far off their segment by rounding
_CEILING_MARGIN = 1e-6  # relative headroom of a rate ceiling over float rounding
_SCREEN_MIN_SNR_DB = -60.0  # below it the screen does not order points


class ChannelDomainError(ValueError):
    """Geometry outside the model's domain (z <= 0, coincident BS, non-finite)."""


class Position3(NamedTuple):
    """Point in meters.  z is altitude above ground (tasks sit at z = 0)."""

    x: float
    y: float
    z: float

    def dist(self, other: "Position3") -> float:
        return math.sqrt(
            (self.x - other.x) ** 2
            + (self.y - other.y) ** 2
            + (self.z - other.z) ** 2
        )


@dataclass(frozen=True)
class ChannelParams:
    """Link parameters.  Powers are configured in dBm, frequency in GHz.

    Derived quantities are cached at construction: ``tx_mw`` /
    ``noise_mw`` (milliwatts), the two constant dB terms of the pathloss
    expressions and ``bs_position``, the BS antenna at (0, 0, H).
    """

    bs_height: float = 25.0  # H, meters
    carrier_freq: float = 2.0  # f_c, GHz
    subcarrier_bandwidth: float = 1e6  # W_B, Hz
    noise_power: float = -96.0  # sigma^2, dBm
    tx_power: float = 23.0  # P_U, dBm
    slot_duration: float = 1.0  # seconds; the paper leaves this open, 1 s default

    tx_mw: float = field(init=False, repr=False)
    noise_mw: float = field(init=False, repr=False)
    _fc_db: float = field(init=False, repr=False)
    _nlos_db: float = field(init=False, repr=False)
    bs_position: Position3 = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.bs_height > 0 and self.carrier_freq > 0):
            raise ValueError("bs_height and carrier_freq must be positive")
        if not (self.subcarrier_bandwidth > 0 and self.slot_duration > 0):
            raise ValueError("subcarrier_bandwidth and slot_duration must be positive")
        object.__setattr__(self, "tx_mw", 10.0 ** (self.tx_power / 10.0))
        object.__setattr__(self, "noise_mw", 10.0 ** (self.noise_power / 10.0))
        object.__setattr__(self, "_fc_db", 20.0 * _LOG10(self.carrier_freq))
        object.__setattr__(
            self, "_nlos_db", 20.0 * _LOG10(40.0 * math.pi * self.carrier_freq / 3.0)
        )
        object.__setattr__(self, "bs_position", Position3(0.0, 0.0, self.bs_height))


def rate_at(x: float, y: float, z: float, params: ChannelParams) -> float:
    """Achievable bits per slot of a UAV at (x, y, z) that holds a subcarrier.

    The model's one implementation: the LoS probability (1 up to the
    altitude-dependent breakpoint d1, decaying beyond it) mixes the LoS and
    NLoS pathlosses into the average pathloss, whose SNR gives the Shannon
    rate.  All logs are base 10 and the carrier frequency is in GHz.

    A point the model has no value at (not finite, on the BS itself, at
    z <= 0, or beyond the LoS breakpoint at an altitude where the LoS scale
    ``4300 log10 z - 3800`` is 0 or so near it that the decay term
    overflows) raises
    ``ChannelDomainError`` naming the point.
    """
    try:
        log_z = _LOG10(z)
        d1 = 460.0 * log_z - 700.0
        if d1 < 18.0:
            d1 = 18.0
        d_h = math.hypot(x, y)
        dz = z - params.bs_height
        d = math.sqrt(x * x + y * y + dz * dz)
        if not math.isfinite(d):
            raise ValueError("the distance to the BS is not finite")
        log_d = _LOG10(d)
        pl_los = 28.0 + 22.0 * log_d + params._fc_db
        if d_h <= d1:
            pl = pl_los
        else:
            p0 = 4300.0 * log_z - 3800.0
            p_los = d1 / d_h + _EXP((-d_h / p0) * (1.0 - d1 / d_h))
            if p_los >= 1.0:
                pl = pl_los
            else:
                pl_nlos = -17.5 + (46.0 - 7.0 * log_z) * log_d + params._nlos_db
                pl = p_los * pl_los + (1.0 - p_los) * pl_nlos
        gamma = params.tx_mw / (10.0 ** (pl / 10.0)) / params.noise_mw
        return params.subcarrier_bandwidth * math.log2(1.0 + gamma) * params.slot_duration
    except (ValueError, ArithmeticError) as exc:
        raise ChannelDomainError(
            f"no channel rate at ({x!r}, {y!r}, {z!r}) with the BS at height "
            f"{params.bs_height!r}: {exc}"
        ) from exc


def screened_pathloss(x: np.ndarray, y: np.ndarray, z: np.ndarray,
                      params: ChannelParams) -> np.ndarray:
    """The average pathloss of ``rate_at``, in dB, over broadcast arrays.

    A screen, not a second channel: numpy's logs and exponentials differ
    from ``math``'s in the last bits, so it only orders points, and the rate
    falls strictly as the pathloss rises.  Its value is NaN wherever
    ``rate_at`` raises, and where the SNR is below ``_SCREEN_MIN_SNR_DB``,
    where ``rate_at``'s rounding may tie rates this screen tells apart.
    numpy's floating-point warnings are silenced inside.
    """
    with np.errstate(all="ignore"):
        log_z = np.log10(z)
        d1 = np.maximum(460.0 * log_z - 700.0, 18.0)
        d_h = np.hypot(x, y)
        dz = z - params.bs_height
        log_d = np.log10(np.sqrt(x * x + y * y + dz * dz))
        pl_los = 28.0 + 22.0 * log_d + params._fc_db
        p0 = 4300.0 * log_z - 3800.0
        e = np.exp((-d_h / p0) * (1.0 - d1 / d_h))
        p_los = d1 / d_h + e
        pl_nlos = -17.5 + (46.0 - 7.0 * log_z) * log_d + params._nlos_db
        los = (d_h <= d1) | (p_los >= 1.0)
        pl = np.where(los, pl_los, p_los * pl_los + (1.0 - p_los) * pl_nlos)
        valid = (np.isfinite(log_z) & np.isfinite(pl)
                 & ((d_h <= d1) | ((p0 != 0.0) & np.isfinite(e)))
                 & (pl <= params.tx_power - params.noise_power - _SCREEN_MIN_SNR_DB))
    return np.where(valid, pl, np.nan)


def rate_gradient_at(x: float, y: float, z: float,
                     params: ChannelParams) -> tuple[float, float, float]:
    """Gradient of ``rate_at`` at raw coordinates, in bits per slot per meter.

    The derivative of the formula ``rate_at`` evaluates, branch by branch:
    the LoS pathloss alone inside the breakpoint (``d_h <= d1``) and where
    the LoS probability saturates at 1, the LoS/NLoS mixture beyond it.  The
    breakpoint ``d1`` is constant in z where its 18 m floor holds.  On a
    branch boundary it is the derivative of the branch ``rate_at`` takes
    there.  The rate falls strictly as the average pathloss ``pl`` rises, so
    the gradient is ``-grad pl`` times a positive factor.  Raises
    ``ChannelDomainError`` wherever ``rate_at`` does.
    """
    try:
        log_z = _LOG10(z)
        dlog_z = 1.0 / (z * _LN10)  # d log10(z) / dz
        d1 = 460.0 * log_z - 700.0
        if d1 < 18.0:
            d1, d1_z = 18.0, 0.0
        else:
            d1_z = 460.0 * dlog_z
        d_h = math.hypot(x, y)
        dz = z - params.bs_height
        d = math.sqrt(x * x + y * y + dz * dz)
        if not math.isfinite(d):
            raise ValueError("the distance to the BS is not finite")
        log_d = _LOG10(d)
        pl_los = 28.0 + 22.0 * log_d + params._fc_db
        # grad pl = pl_d * grad log10(d) + pl_h * grad d_h + (0, 0, pl_z)
        pl_d, pl_h, pl_z = 22.0, 0.0, 0.0
        if d_h <= d1:
            pl = pl_los
        else:
            p0 = 4300.0 * log_z - 3800.0
            e = _EXP((-d_h / p0) * (1.0 - d1 / d_h))
            p_los = d1 / d_h + e
            if p_los >= 1.0:
                pl = pl_los
            else:
                p_h = -d1 / (d_h * d_h) - e / p0
                p_z = d1_z / d_h + e * (d1_z / p0 + (d_h - d1) * 4300.0 * dlog_z / (p0 * p0))
                slope = 46.0 - 7.0 * log_z
                pl_nlos = -17.5 + slope * log_d + params._nlos_db
                pl = p_los * pl_los + (1.0 - p_los) * pl_nlos
                gap = pl_los - pl_nlos
                pl_d = 22.0 * p_los + slope * (1.0 - p_los)
                pl_h = gap * p_h
                pl_z = gap * p_z - (1.0 - p_los) * 7.0 * dlog_z * log_d
        gamma = params.tx_mw / (10.0 ** (pl / 10.0)) / params.noise_mw
        scale = (-params.subcarrier_bandwidth * params.slot_duration * _RATE_PER_DB
                 * gamma / (1.0 + gamma))  # d rate / d pl
        k = pl_d / (d * d * _LN10)
        h = pl_h / d_h if pl_h else 0.0
        return (scale * (k * x + h * x), scale * (k * y + h * y), scale * (k * dz + pl_z))
    except (ValueError, ArithmeticError) as exc:
        raise ChannelDomainError(
            f"no channel rate gradient at ({x!r}, {y!r}, {z!r}) with the BS at height "
            f"{params.bs_height!r}: {exc}"
        ) from exc


def segment_rate_ceiling(a: Position3, b: Position3, params: ChannelParams) -> float:
    """Upper bound on ``rate_at`` at every point of the segment a-b.

    The average pathloss mixes the LoS and NLoS pathlosses with a weight in
    [0, 1], so it is at least the smaller of the two.  Both grow with the
    distance to the BS, so both are bounded below at the segment's least
    distance d_min; the NLoS slope ``46 - 7 log10 z`` is taken at the
    segment's highest altitude when log10 d_min >= 0 and at its lowest
    otherwise.  The rate falls with the pathloss.  Waypoints computed in
    floating point may sit a few ulps off the segment, so d_min is shrunk by
    ``_CEILING_SLACK_M`` and the bound raised by ``_CEILING_MARGIN``.
    Returns inf where no finite bound follows: d_min not positive, an
    altitude not positive, or an NLoS pathloss that falls with distance.
    """
    ux, uy, uz = b.x - a.x, b.y - a.y, b.z - a.z
    wx, wy, wz = -a.x, -a.y, params.bs_height - a.z
    span2 = ux * ux + uy * uy + uz * uz
    t = 0.0 if span2 <= 0.0 else min(1.0, max(0.0, (wx * ux + wy * uy + wz * uz) / span2))
    dx, dy, dz = t * ux - wx, t * uy - wy, t * uz - wz
    d_min = math.sqrt(dx * dx + dy * dy + dz * dz) - _CEILING_SLACK_M
    z_lo, z_hi = min(a.z, b.z), max(a.z, b.z)
    if not (d_min > 0.0 and z_lo > 0.0):
        return math.inf
    slope_lo = 46.0 - 7.0 * math.log10(z_hi)  # the least NLoS slope on the segment
    if slope_lo < 0.0:
        return math.inf
    log_d = math.log10(d_min)
    slope = slope_lo if log_d >= 0.0 else 46.0 - 7.0 * math.log10(z_lo)
    pl = min(28.0 + 22.0 * log_d + params._fc_db, -17.5 + slope * log_d + params._nlos_db)
    if pl < -3000.0:  # 10 ** (-pl / 10) would overflow
        return math.inf
    gamma = params.tx_mw * 10.0 ** (-pl / 10.0) / params.noise_mw
    rate = params.subcarrier_bandwidth * math.log2(1.0 + gamma) * params.slot_duration
    return rate * (1.0 + _CEILING_MARGIN)

"""Link-model tests.

``channel.rate_at`` is the model's one implementation.  The reference
functions below restate its chain step by step (LoS probability, average
pathloss, rate) as the test-side oracle that ``rate_at`` is checked
against.  Golden values were computed with a standalone scalar script
evaluating the model formulas directly (independent of the package) and
are frozen here.
"""

import math
import re

import numpy as np
import pytest

from uavsense.channel import (
    ChannelDomainError,
    ChannelParams,
    Position3,
    rate_at,
    rate_gradient_at,
    screened_pathloss,
)

CP = ChannelParams()  # table defaults: H=25, 2 GHz, 1 MHz, -96 dBm, 23 dBm, 1 s


def los_probability(uav: Position3, params: ChannelParams) -> float:
    """LoS probability of the UAV-BS link, clamped to [0, 1]."""
    d_h = math.hypot(uav.x, uav.y)
    log_z = math.log10(uav.z)
    d1 = max(460.0 * log_z - 700.0, 18.0)
    if d_h <= d1:
        return 1.0
    p0 = 4300.0 * log_z - 3800.0
    raw = d1 / d_h + math.exp((-d_h / p0) * (1.0 - d1 / d_h))
    if raw < 0.0:
        return 0.0
    return raw if raw < 1.0 else 1.0


def average_pathloss(uav: Position3, params: ChannelParams) -> float:
    """LoS/NLoS pathlosses in dB mixed by the LoS probability."""
    d = math.sqrt(uav.x * uav.x + uav.y * uav.y + (uav.z - params.bs_height) ** 2)
    p_los = los_probability(uav, params)
    log_d = math.log10(d)
    pl_los = 28.0 + 22.0 * log_d + params._fc_db
    if p_los >= 1.0:
        return pl_los
    pl_nlos = -17.5 + (46.0 - 7.0 * math.log10(uav.z)) * log_d + params._nlos_db
    return p_los * pl_los + (1.0 - p_los) * pl_nlos


def link_rate(uav: Position3, params: ChannelParams) -> float:
    """Bits per slot of a scheduled UAV: Shannon rate at the average pathloss."""
    return rate_from_pathloss(average_pathloss(uav, params), params)


def rate_from_pathloss(pl_db: float, params: ChannelParams) -> float:
    gamma = params.tx_mw / (10.0 ** (pl_db / 10.0)) / params.noise_mw
    return params.subcarrier_bandwidth * math.log2(1.0 + gamma) * params.slot_duration


class TestLosProbability:
    def test_inside_breakpoint_is_one(self):
        # z=100: d1 = 460*log10(100) - 700 = 220 >= 10
        assert los_probability(Position3(10, 0, 100), CP) == 1.0

    def test_directly_overhead_is_one(self):
        for z in (10, 25, 50, 100, 300):
            assert los_probability(Position3(0, 0, z), CP) == 1.0

    def test_beyond_breakpoint_clamped(self):
        # raw value 220/500 + exp((-500/4800)(1-220/500)) = 1.3833354498734922
        assert los_probability(Position3(500, 0, 100), CP) == 1.0

    def test_low_altitude_mixes_nlos(self):
        # z=10: d1=18, p0=500; d_h=300 -> 0.06 + exp(-0.6*0.94)
        expected = 18 / 300 + math.exp((-300 / 500) * (1 - 18 / 300))
        assert los_probability(Position3(300, 0, 10), CP) == pytest.approx(expected, rel=1e-12)
        assert expected < 1.0

    def test_piecewise_continuity_at_breakpoint(self):
        rng = np.random.default_rng(7)
        eps = 1e-6
        for z in rng.uniform(10.0, 300.0, size=100):
            d1 = max(460 * math.log10(z) - 700, 18.0)
            lo = los_probability(Position3(d1 - eps, 0, z), CP)
            hi = los_probability(Position3(d1 + eps, 0, z), CP)
            assert abs(lo - hi) < 1e-6

    def test_domain_errors(self):
        with pytest.raises(ChannelDomainError):
            rate_at(10, 0, 0.0, CP)
        with pytest.raises(ChannelDomainError):
            rate_at(float("nan"), 0, 10, CP)


class TestAveragePathloss:
    def test_los_collapse(self):
        # P_L = 1 forced by small horizontal distance -> PL_a == PL_L exactly
        pos = Position3(10, 0, 100)
        d = math.sqrt(10**2 + (100 - 25) ** 2)
        pl_los = 28 + 22 * math.log10(d) + 20 * math.log10(2.0)
        assert average_pathloss(pos, CP) == pytest.approx(pl_los, rel=1e-12)

    def test_golden_value(self):
        # frozen from the oracle script
        pl = 75.35613031441082
        assert average_pathloss(Position3(10, 0, 100), CP) == pytest.approx(pl, abs=1e-9)
        assert rate_at(10, 0, 100, CP) == pytest.approx(rate_from_pathloss(pl, CP), rel=1e-12)

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = rng.uniform(10, 120)
            x = rng.uniform(30, 400)
            near = average_pathloss(Position3(x, 0, z), CP)
            far = average_pathloss(Position3(2 * x, 0, z), CP)
            assert far > near

    def test_coincident_bs_rejected(self):
        with pytest.raises(ChannelDomainError):
            rate_at(0, 0, CP.bs_height, CP)


class TestLinkRate:
    def test_golden_operating_point(self):
        # frozen from the oracle: chain of distance/pathloss/SNR/Shannon
        assert rate_at(100, 0, 50, CP) == pytest.approx(13516975.997860484, rel=1e-12)

    def test_mirror_symmetry(self):
        a = rate_at(120, 80, 60, CP)
        b = rate_at(-120, -80, 60, CP)
        assert a == b

    def test_rate_decreases_with_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = rng.uniform(10, 100)
            x = rng.uniform(20, 200)
            assert rate_at(x, 0, z, CP) > rate_at(x * 2, 0, z, CP)

    def test_pure_function(self):
        vals = {rate_at(77.7, -13.5, 42.0, CP) for _ in range(10)}
        assert len(vals) == 1

    def test_fast_path_matches_public_op(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            x, y = rng.uniform(-400, 400, size=2)
            z = rng.uniform(5, 150)
            assert rate_at(x, y, z, CP) == link_rate(Position3(x, y, z), CP)

    @pytest.mark.parametrize("z", [10 ** (38 / 43), 7.651])
    def test_zero_los_scale_is_a_domain_error(self, z):
        # beyond the LoS breakpoint the decay divides by 4300 log10 z - 3800,
        # which is 0 at the first altitude and overflows exp at the second
        with pytest.raises(ChannelDomainError, match=rf"\(100, 0, {re.escape(repr(z))}\)"):
            rate_at(100, 0, z, CP)

    @pytest.mark.parametrize("fn", [rate_at, rate_gradient_at])
    @pytest.mark.parametrize("point", [(math.nan, 0, 10), (math.inf, 0, 10), (0, 0, math.inf)])
    def test_non_finite_point_is_a_domain_error(self, fn, point):
        x, y, z = point
        with pytest.raises(ChannelDomainError, match=re.escape(f"({x!r}, {y!r}, {z!r})")):
            fn(x, y, z, CP)


class TestScreenedPathloss:
    """``screened_pathloss`` orders points by ``rate_at``'s average pathloss
    and is NaN wherever ``rate_at`` has no value."""

    def test_rates_from_the_screen_agree_with_rate_at(self):
        rng = np.random.default_rng(35)
        n = 100_000
        x = rng.uniform(-700.0, 700.0, n)
        y = rng.uniform(-700.0, 700.0, n)
        # half over the whole altitude range, half around the 18 m floor of d1
        z = np.concatenate([rng.uniform(10.0, 200.0, n // 2), rng.uniform(35.0, 38.0, n // 2)])
        pl = screened_pathloss(x, y, z, CP)
        assert np.isfinite(pl).all()
        worst = max(abs(rate_from_pathloss(p, CP) / rate_at(a, b, c, CP) - 1.0)
                    for a, b, c, p in zip(x.tolist(), y.tolist(), z.tolist(), pl.tolist()))
        assert worst <= 1e-11
        # every branch of the formula is covered
        d_h = np.hypot(x, y)
        d1 = 460.0 * np.log10(z) - 700.0
        beyond = d_h > np.maximum(d1, 18.0)
        p0 = 4300.0 * np.log10(z) - 3800.0
        d1c = np.maximum(d1, 18.0)
        p_los = d1c / d_h + np.exp((-d_h / p0) * (1.0 - d1c / d_h))
        assert (~beyond).sum() > 1000  # inside the breakpoint
        assert (beyond & (p_los >= 1.0)).sum() > 1000  # saturated LoS probability
        assert (beyond & (p_los < 1.0)).sum() > 1000  # LoS/NLoS mixture
        assert (d1 < 18.0).sum() > 1000 and (d1 > 18.0).sum() > 1000

    def test_broadcasts_a_grid_per_row(self):
        x, y = np.array([[120.0], [-40.0]]), np.array([[80.0], [300.0]])
        z = np.linspace(10.0, 90.0, 9)
        pl = screened_pathloss(x, y, z, CP)
        assert pl.shape == (2, 9)
        for i in range(2):
            for j in range(9):
                rate = rate_at(float(x[i, 0]), float(y[i, 0]), float(z[j]), CP)
                assert rate_from_pathloss(float(pl[i, j]), CP) == pytest.approx(rate, rel=1e-11)

    @pytest.mark.parametrize("point", [
        (0.0, 0.0, 25.0),  # on the BS
        (10.0, 0.0, 0.0),  # on the ground
        (10.0, 0.0, -5.0),
        (100.0, 0.0, 10 ** (38 / 43)),  # LoS scale 0 beyond the breakpoint
        (100.0, 0.0, 7.651),  # decay term overflows
        (math.inf, 0.0, 10.0),
        (math.nan, 0.0, 10.0),
    ])
    def test_nan_wherever_rate_at_raises(self, point):
        with pytest.raises(ChannelDomainError):
            rate_at(*point, CP)
        with np.errstate(all="raise"):  # the screen silences its own warnings
            pl = screened_pathloss(*(np.array([c]) for c in point), CP)
        assert np.isnan(pl).all()

    def test_nan_where_the_rate_is_too_flat_to_order(self):
        # an SNR below -60 dB: rate_at's rounding may tie what the screen orders
        pl = screened_pathloss(np.array([1e4, 1e6]), np.array([0.0, 0.0]), np.array(50.0), CP)
        assert np.isfinite(pl[0]) and np.isnan(pl[1])


class TestChannelParams:
    def test_dbm_conversion_cached(self):
        assert CP.tx_mw == pytest.approx(10 ** 2.3)
        assert CP.noise_mw == pytest.approx(10 ** -9.6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(bs_height=0)
        with pytest.raises(ValueError):
            ChannelParams(slot_duration=0)

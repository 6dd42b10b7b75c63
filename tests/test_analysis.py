"""Sensitivity-formula tests: frozen goldens and the finite-difference identity."""

import math

import pytest

from uavsense.analysis import SensitivityInputs, dTmax_dPRth, dTmax_dq
from uavsense.sensing import SensingParams, required_sensing_radius

TABLE_POINT = SensitivityInputs(q=4, pr_th=0.9, lam=0.01, n_tasks_per_uav=4, v_max=50.0)


def radius(q: float, pr_th: float, lam: float = 0.01) -> float:
    return -math.log(1.0 - (1.0 - pr_th) ** (1.0 / q)) / lam


class TestGroupSizeSensitivity:
    def test_golden_value(self):
        # frozen from the oracle script
        assert dTmax_dq(TABLE_POINT) == pytest.approx(-1.4792792044176595, rel=1e-12)

    def test_always_negative(self):
        for q in range(1, 12):
            for pr in (0.3, 0.6, 0.9, 0.99):
                inp = SensitivityInputs(q, pr, 0.01, 4, 50.0)
                assert dTmax_dq(inp) < 0

    def test_matches_finite_differences(self):
        h = 1e-5
        for q in (2, 4, 8):
            for pr in (0.5, 0.9):
                inp = SensitivityInputs(q, pr, 0.01, 4, 50.0)
                fd = -(4 / 50.0) * (radius(q + h, pr) - radius(q - h, pr)) / (2 * h)
                assert dTmax_dq(inp) == pytest.approx(fd, rel=1e-4)

    def test_diminishing_marginal_gain(self):
        # the magnitude peaks at q=2 and shrinks monotonically beyond it
        mags = [abs(dTmax_dq(SensitivityInputs(q, 0.9, 0.01, 4, 50.0)))
                for q in range(2, 10)]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_large_group_limit(self):
        sp = SensingParams(0.01, 0.9)
        assert required_sensing_radius(64, sp) > required_sensing_radius(8, sp)
        mags = [abs(dTmax_dq(SensitivityInputs(q, 0.9, 0.01, 4, 50.0)))
                for q in (8, 16, 32, 64)]
        assert all(b < a for a, b in zip(mags, mags[1:]))
        # roughly a 1/q tail: by q=64 only a small fraction of the peak remains
        assert mags[-1] < 0.1 * abs(dTmax_dq(SensitivityInputs(2, 0.9, 0.01, 4, 50.0)))


class TestThresholdSensitivity:
    def test_golden_value(self):
        assert dTmax_dPRth(TABLE_POINT) == pytest.approx(25.69771182691288, rel=1e-12)

    def test_always_positive(self):
        for q in range(1, 12):
            for pr in (0.3, 0.6, 0.9, 0.99):
                assert dTmax_dPRth(SensitivityInputs(q, pr, 0.01, 4, 50.0)) > 0

    def test_matches_finite_differences(self):
        h = 1e-7
        for q in (1, 4, 8):
            for pr in (0.5, 0.9):
                inp = SensitivityInputs(q, pr, 0.01, 4, 50.0)
                fd = -(4 / 50.0) * (radius(q, pr + h) - radius(q, pr - h)) / (2 * h)
                assert dTmax_dPRth(inp) == pytest.approx(fd, rel=1e-4)

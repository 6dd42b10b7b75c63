"""Sensing-model tests: frozen closed-form values and inverse consistency."""

import math

import numpy as np
import pytest

from uavsense.channel import Position3
from uavsense.sensing import (
    SensingParams,
    Task,
    min_cooperative_uavs,
    required_sensing_radius,
    sensing_success_coop,
)

SP = SensingParams()  # lam=0.01, pr_th=0.9


class TestSingle:
    """A group of one senses with probability exp(-lam * d)."""

    def test_zero_distance(self):
        assert sensing_success_coop([0.0], SP) == 1.0

    def test_e_minus_one(self):
        assert sensing_success_coop([100.0], SP) == pytest.approx(
            0.36787944117144233, rel=1e-12)

    def test_inverted_point(self):
        # -ln(0.1)/0.01 = 230.2585...
        assert sensing_success_coop([230.2585], SP) == pytest.approx(0.1, abs=1e-7)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            sensing_success_coop([-1.0], SP)


class TestCoop:
    def test_zero_distance_member_guarantees(self):
        assert sensing_success_coop([500.0, 0.0, 900.0], SP) == 1.0

    def test_four_at_hundred(self):
        assert sensing_success_coop([100.0] * 4, SP) == pytest.approx(
            0.8403386998488147, rel=1e-12)

    def test_single_element_matches_single(self):
        assert sensing_success_coop([42.0], SP) == pytest.approx(
            math.exp(-SP.lam * 42.0), rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sensing_success_coop([], SP)

    def test_monotone_in_distance_and_size(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            ds = list(rng.uniform(0, 400, size=rng.integers(1, 8)))
            base = sensing_success_coop(ds, SP)
            k = rng.integers(0, len(ds))
            worse = list(ds)
            worse[k] += rng.uniform(1, 100)
            assert sensing_success_coop(worse, SP) <= base + 1e-15
            assert sensing_success_coop(ds + [rng.uniform(0, 400)], SP) >= base - 1e-15


class TestRadius:
    def test_single_uav(self):
        assert required_sensing_radius(1, SP) == pytest.approx(
            10.536051565782628, rel=1e-12)

    def test_four_uavs(self):
        assert required_sensing_radius(4, SP) == pytest.approx(
            82.63159536596733, rel=1e-12)

    def test_round_trip(self):
        for q in range(1, 11):
            d0 = required_sensing_radius(q, SP)
            assert sensing_success_coop([d0] * q, SP) == pytest.approx(SP.pr_th, abs=1e-9)

    def test_monotone_grid(self):
        for pr in (0.5, 0.7, 0.9, 0.99):
            sp = SensingParams(0.01, pr)
            radii = [required_sensing_radius(q, sp) for q in range(1, 9)]
            assert all(b > a for a, b in zip(radii, radii[1:]))
        for q in (1, 3, 6):
            vals = [required_sensing_radius(q, SensingParams(0.01, pr))
                    for pr in (0.5, 0.6, 0.7, 0.8, 0.9)]
            assert all(b < a for a, b in zip(vals, vals[1:]))


class TestMinUavs:
    def test_loose_threshold_needs_one(self):
        assert min_cooperative_uavs(10.0, SensingParams(0.01, 1 - 1e-1)) == 1

    def test_tight_threshold_needs_six(self):
        assert min_cooperative_uavs(10.0, SensingParams(0.01, 1 - 1e-6)) == 6

    def test_zero_distance_needs_one(self):
        for pr in (0.5, 0.9, 0.999999):
            assert min_cooperative_uavs(0.0, SensingParams(0.01, pr)) == 1

    def test_inverse_consistency_with_radius(self):
        for q in range(1, 11):
            d0 = required_sensing_radius(q, SP)
            assert min_cooperative_uavs(d0, SP) == q


class TestTypes:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            SensingParams(lam=0.0)
        with pytest.raises(ValueError):
            SensingParams(pr_th=1.0)

    def test_task_validation(self):
        loc = Position3(10, 20, 0)
        Task(0, loc, 1e6, (1, 2))
        with pytest.raises(ValueError):
            Task(0, Position3(1, 2, 3), 1e6, (1,))
        with pytest.raises(ValueError):
            Task(0, loc, 0.0, (1,))
        with pytest.raises(ValueError):
            Task(0, loc, 1e6, (1, 1))

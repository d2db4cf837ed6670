"""Numeric kernel tests with pinned tolerances."""

import math
import random

import numpy as np
import pytest

from spliceops.errors import DomainError, PoleError
from spliceops.geom import (
    bump,
    moebius_scale,
    selftest,
    selftest_text,
    shrink,
    stereo,
    stereo_inv,
    unit_point,
)


def sphere(rng, dim):
    v = np.array([rng.gauss(0, 1) for _ in range(dim + 1)])
    return v / np.linalg.norm(v)


class TestBump:
    def test_endpoints_exact(self):
        assert bump(0.0) == 0.0
        assert bump(1.0) == 1.0
        assert bump(1.5) == 1.0
        assert bump(-2.0) == 1.0

    def test_even_and_interior(self):
        assert bump(-0.3) == bump(0.3)
        assert 0.0 < bump(0.3) < 1.0

    def test_monotone_on_grid(self):
        xs = [i / 10000 for i in range(10001)]
        vals = [bump(x) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_core_derivative_matches_finite_difference(self):
        # d/ds exp(-1/s) = exp(-1/s) / s^2, checked away from s = 0
        for s in (0.2, 0.5, 0.9, 1.5):
            h = 1e-6
            fd = (math.exp(-1 / (s + h)) - math.exp(-1 / (s - h))) / (2 * h)
            exact = math.exp(-1 / s) / (s * s)
            assert abs(fd - exact) / exact < 1e-5


class TestShrink:
    def test_identity_at_t_one(self):
        x = np.array([0.3, -0.2])
        v = np.array([0.5, 0.1])
        ox, ov = shrink(1.0, x, v)
        assert np.array_equal(ox, x) and np.array_equal(ov, v)

    def test_identity_outside_unit_cube(self):
        x = np.array([2.0])
        v = np.array([0.7])
        _, ov = shrink(0.3, x, v)
        assert np.array_equal(ov, v)

    def test_collapse_at_origin(self):
        _, ov = shrink(0.0, np.zeros(2), np.array([0.5, 0.5]))
        assert np.array_equal(ov, np.zeros(2))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            shrink(0.5, np.zeros(1), np.array([1.5]))

    def test_injective_for_positive_t(self):
        rng = random.Random(0)
        for _ in range(300):
            t = rng.uniform(0.05, 1.0)
            x = np.array([rng.uniform(-2, 2)])
            v1 = np.array([rng.uniform(-1, 1)])
            v2 = np.array([rng.uniform(-1, 1)])
            _, o1 = shrink(t, x, v1)
            _, o2 = shrink(t, x, v2)
            assert np.linalg.norm(o1 - o2) >= t * np.linalg.norm(v1 - v2) - 1e-12


class TestMoebiusScale:
    def test_scale_one_is_identity(self):
        rng = random.Random(1)
        for _ in range(100):
            p, q = sphere(rng, 2), sphere(rng, 2)
            assert np.max(np.abs(moebius_scale(p, 1.0, q) - q)) < 1e-12

    def test_fixed_points(self):
        rng = random.Random(2)
        for _ in range(100):
            p = sphere(rng, 3)
            t = math.exp(rng.uniform(-1, 1))
            assert np.max(np.abs(moebius_scale(p, t, p) - p)) < 1e-12
            assert np.max(np.abs(moebius_scale(p, t, -p) + p)) < 1e-12

    def test_half_angle_halved_at_t_two(self):
        # on the circle with p = (1,0): tan(theta'/2) = tan(theta/2) / 2
        p = np.array([1.0, 0.0])
        for k in range(1, 100):
            theta = k * (2 * math.pi / 101) - math.pi + 1e-3
            q = np.array([math.cos(theta), math.sin(theta)])
            out = moebius_scale(p, 2.0, q)
            theta_out = math.atan2(out[1], out[0])
            assert abs(math.tan(theta_out / 2) - math.tan(theta / 2) / 2) < 1e-9

    def test_unit_norm_raw(self):
        rng = random.Random(3)
        for _ in range(200):
            p, q = sphere(rng, 2), sphere(rng, 2)
            t = math.exp(rng.uniform(-1.5, 1.5))
            raw = moebius_scale(p, t, q, renormalize=False)
            assert abs(np.linalg.norm(raw) - 1.0) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            moebius_scale(np.array([2.0, 0.0]), 1.0, np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            moebius_scale(np.array([1.0, 0.0]), -1.0, np.array([1.0, 0.0]))


class TestStereo:
    def test_center(self):
        a = np.array([0.0, 1.0])
        assert np.max(np.abs(stereo(a, a))) == 0.0

    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(200):
            a, q = sphere(rng, 2), sphere(rng, 2)
            if 1 + float(np.dot(a, q)) < 1e-3:
                continue
            back = stereo_inv(a, stereo(a, q))
            assert np.max(np.abs(back - q)) < 1e-10

    def test_pole_error(self):
        a = np.array([1.0, 0.0])
        with pytest.raises(PoleError):
            stereo(a, -a)

    def test_conjugation_to_scalar(self):
        rng = random.Random(5)
        for _ in range(200):
            a, q = sphere(rng, 3), sphere(rng, 3)
            if 1 + float(np.dot(a, q)) < 1e-3:
                continue
            t = math.exp(rng.uniform(-1, 1))
            lhs = stereo(a, moebius_scale(a, t, q))
            rhs = stereo(a, q) / t
            assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestPointValidation:
    def test_renormalizes_small_drift(self):
        q = unit_point(np.array([1.0 + 5e-10, 0.0]))
        assert abs(np.linalg.norm(q) - 1.0) < 1e-15

    def test_rejects_large_drift(self):
        with pytest.raises(DomainError):
            unit_point(np.array([1.1, 0.0]))


def test_selftest_passes():
    text, ok = selftest_text(seed=7, samples=500)
    assert ok
    assert "result: OK" in text
    errs = selftest(seed=7, samples=500)
    assert errs["unit_norm"] < 1e-12


@pytest.mark.parametrize("samples", [0, -5])
def test_selftest_rejects_zero_samples(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        selftest(seed=7, samples=samples)

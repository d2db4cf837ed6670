"""Numeric kernel tests with pinned tolerances."""

import math
import random

import pytest

from spliceops import geom
from spliceops.cli import main as cli_main
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
    v = [rng.gauss(0, 1) for _ in range(dim + 1)]
    nrm = math.hypot(*v)
    return tuple(x / nrm for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def gap(a, b):
    """The largest coordinate difference."""
    return max(abs(x - y) for x, y in zip(a, b))


def minus(a):
    return tuple(-x for x in a)


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
        x = (0.3, -0.2)
        v = (0.5, 0.1)
        ox, ov = shrink(1.0, x, v)
        assert ox == x and ov == v

    def test_identity_outside_unit_cube(self):
        x = (2.0,)
        v = (0.7,)
        _, ov = shrink(0.3, x, v)
        assert ov == v

    def test_collapse_at_origin(self):
        _, ov = shrink(0.0, (0.0, 0.0), (0.5, 0.5))
        assert ov == (0.0, 0.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            shrink(0.5, (0.0,), (1.5,))

    def test_injective_for_positive_t(self):
        rng = random.Random(0)
        for _ in range(300):
            t = rng.uniform(0.05, 1.0)
            x = (rng.uniform(-2, 2),)
            v1 = (rng.uniform(-1, 1),)
            v2 = (rng.uniform(-1, 1),)
            _, o1 = shrink(t, x, v1)
            _, o2 = shrink(t, x, v2)
            assert math.dist(o1, o2) >= t * math.dist(v1, v2) - 1e-12


class TestMoebiusScale:
    def test_scale_one_is_identity(self):
        rng = random.Random(1)
        for _ in range(100):
            p, q = sphere(rng, 2), sphere(rng, 2)
            assert gap(moebius_scale(p, 1.0, q), q) < 1e-12

    def test_fixed_points(self):
        rng = random.Random(2)
        for _ in range(100):
            p = sphere(rng, 3)
            t = math.exp(rng.uniform(-1, 1))
            assert gap(moebius_scale(p, t, p), p) < 1e-12
            assert gap(moebius_scale(p, t, minus(p)), minus(p)) < 1e-12

    def test_half_angle_halved_at_t_two(self):
        # on the circle with p = (1,0): tan(theta'/2) = tan(theta/2) / 2
        p = (1.0, 0.0)
        for k in range(1, 100):
            theta = k * (2 * math.pi / 101) - math.pi + 1e-3
            q = (math.cos(theta), math.sin(theta))
            out = moebius_scale(p, 2.0, q)
            theta_out = math.atan2(out[1], out[0])
            assert abs(math.tan(theta_out / 2) - math.tan(theta / 2) / 2) < 1e-9

    def test_unit_norm_raw(self):
        rng = random.Random(3)
        for _ in range(200):
            p, q = sphere(rng, 2), sphere(rng, 2)
            t = math.exp(rng.uniform(-1.5, 1.5))
            raw = moebius_scale(p, t, q, renormalize=False)
            assert abs(math.hypot(*raw) - 1.0) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            moebius_scale((2.0, 0.0), 1.0, (1.0, 0.0))
        with pytest.raises(DomainError):
            moebius_scale((1.0, 0.0), -1.0, (1.0, 0.0))


class TestStereo:
    def test_center(self):
        a = (0.0, 1.0)
        assert max(map(abs, stereo(a, a))) == 0.0

    def test_round_trip(self):
        rng = random.Random(4)
        for _ in range(200):
            a, q = sphere(rng, 2), sphere(rng, 2)
            if 1 + dot(a, q) < 1e-3:
                continue
            back = stereo_inv(a, stereo(a, q))
            assert gap(back, q) < 1e-10

    def test_pole_error(self):
        a = (1.0, 0.0)
        with pytest.raises(PoleError):
            stereo(a, minus(a))

    def test_conjugation_to_scalar(self):
        rng = random.Random(5)
        for _ in range(200):
            a, q = sphere(rng, 3), sphere(rng, 3)
            if 1 + dot(a, q) < 1e-3:
                continue
            t = math.exp(rng.uniform(-1, 1))
            lhs = stereo(a, moebius_scale(a, t, q))
            rhs = tuple(x / t for x in stereo(a, q))
            assert gap(lhs, rhs) < 1e-9


class TestPointValidation:
    def test_renormalizes_small_drift(self):
        q = unit_point((1.0 + 5e-10, 0.0))
        assert abs(math.hypot(*q) - 1.0) < 1e-15

    def test_rejects_large_drift(self):
        with pytest.raises(DomainError):
            unit_point((1.1, 0.0))


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


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFinite:
    """Every kernel raises DomainError on a NaN or infinite coordinate or
    parameter; only bump takes +-inf, where it is 1."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_unit_point(self, bad):
        for q in ((bad, 0.0), (0.0, bad), (bad, bad)):
            with pytest.raises(DomainError):
                unit_point(q)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_shrink(self, bad):
        for args in ((bad, (0.0,), (0.5,)), (0.5, (bad,), (0.5,)), (0.5, (0.0,), (bad,))):
            with pytest.raises(DomainError):
                shrink(*args)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_moebius_scale(self, bad):
        p, q = (1.0, 0.0), (0.0, 1.0)
        for args in (((bad, 0.0), 2.0, q), (p, bad, q), (p, 2.0, (0.0, bad))):
            with pytest.raises(DomainError):
                moebius_scale(*args)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_stereo(self, bad):
        a, q = (1.0, 0.0), (0.0, 1.0)
        for args in (((bad, 0.0), q), (a, (0.0, bad))):
            with pytest.raises(DomainError):
                stereo(*args)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_stereo_inv(self, bad):
        a, w = (1.0, 0.0), (0.0, 0.5)
        for args in (((bad, 0.0), w), (a, (0.0, bad))):
            with pytest.raises(DomainError):
                stereo_inv(*args)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_bump(self, bad):
        # shrink of a finite x reaches bump(inf) when |x|^2 overflows
        if math.isnan(bad):
            with pytest.raises(DomainError):
                bump(bad)
        else:
            assert bump(bad) == 1.0
            assert shrink(0.5, (1e200,), (0.5,)) == ((1e200,), (0.5,))


def test_selftest_negative_control(monkeypatch, capsys):
    # a scale off by one part in 10^6 must fail exactly the properties that depend on its value
    exact = geom.moebius_scale

    def skewed(p, t, q, renormalize=True):
        return exact(p, t * (1 + 1e-6), q, renormalize)

    monkeypatch.setattr(geom, "moebius_scale", skewed)
    text, ok = selftest_text(seed=0, samples=200)
    assert not ok and text.endswith("result: FAIL\n")
    rows = text.splitlines()[1:-1]
    failed = {row.split(":")[0].strip() for row in rows if row.endswith(" FAIL")}
    assert failed == {"semigroup", "scale_one_identity", "conjugation"}
    assert cli_main(["geom", "selftest", "--samples", "200"]) == 1
    assert "result: FAIL" in capsys.readouterr().out

"""Numeric kernels: smooth bump, the standard shrinking map, stereographic
projection, and conformal scaling of the sphere toward a fixed point.

Double precision only; each property quoted in the test suite carries an
explicit tolerance.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import DomainError, PoleError, SingularityError

UNIT_TOL = 1e-9


def unit_point(q) -> np.ndarray:
    """Validate and renormalize a sphere point (norm within 1e-9 of one)."""
    q = np.asarray(q, dtype=float)
    nrm = float(np.linalg.norm(q))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise DomainError(f"not a unit vector (norm {nrm})")
    return q / nrm


def _g(s: float) -> float:
    return math.exp(-1.0 / s) if s > 0 else 0.0


def bump(t: float) -> float:
    """Smooth step: 0 at 0, 1 for |t| >= 1, even, strictly increasing between."""
    s = t * t
    g1 = _g(s)
    g2 = _g(1.0 - s)
    return g1 / (g1 + g2)


def shrink(t: float, x, v) -> tuple[np.ndarray, np.ndarray]:
    """(x, v) -> (x, (t + (1-t) * bump(|x|^2)) * v); the identity at t = 1 and
    wherever |x| >= 1."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if float(np.linalg.norm(v)) > 1.0 + UNIT_TOL:
        raise DomainError("the second factor must lie in the unit disc")
    factor = t + (1.0 - t) * bump(float(np.dot(x, x)))
    return x, factor * v


def moebius_scale(p, t: float, q, renormalize: bool = True) -> np.ndarray:
    """Conformal scaling of the sphere toward p: multiplication by 1/t in the
    stereographic chart at p (projection from the antipode), fixing p and -p.

        q -> (((t-1)^2 (q.p) + t^2 - 1) p + 2 t q) / ((t^2-1)(q.p) + t^2 + 1)
    """
    if t <= 0:
        raise DomainError("the scale parameter must be positive")
    p = unit_point(p)
    q = unit_point(q)
    c = float(np.dot(q, p))
    den = (t * t - 1.0) * c + t * t + 1.0
    if abs(den) < 1e-12:
        raise SingularityError("conformal scaling denominator vanished")
    out = (((t - 1.0) ** 2 * c + t * t - 1.0) * p + 2.0 * t * q) / den
    if renormalize:
        out = out / float(np.linalg.norm(out))
    return out


def stereo(a, q) -> np.ndarray:
    """Stereographic projection from the antipode of a onto the tangent space
    at a: q -> 2 (q - (q.a) a) / (1 + q.a)."""
    a = unit_point(a)
    q = unit_point(q)
    d = 1.0 + float(np.dot(q, a))
    if d < 1e-12:
        raise PoleError("point too close to the projection pole")
    return 2.0 * (q - float(np.dot(q, a)) * a) / d


def stereo_inv(a, w) -> np.ndarray:
    """Inverse of stereo: tangent vector w at a back to the sphere."""
    a = unit_point(a)
    w = np.asarray(w, dtype=float)
    ww = float(np.dot(w, w))
    c = (4.0 - ww) / (4.0 + ww)
    return c * a + 0.5 * (1.0 + c) * w


# ---------------------------------------------------------------------------
# self test


def _rand_sphere(rng: random.Random, dim: int) -> np.ndarray:
    while True:
        v = np.array([rng.gauss(0, 1) for _ in range(dim + 1)])
        nrm = float(np.linalg.norm(v))
        if nrm > 1e-6:
            return v / nrm


def selftest(seed: int = 0, samples: int = 1000) -> dict:
    """Run the full numeric property grid; returns max observed errors."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = random.Random(f"geom:{seed}")
    errs = {
        "unit_norm": 0.0,
        "semigroup": 0.0,
        "scale_one_identity": 0.0,
        "fixed_points": 0.0,
        "conjugation": 0.0,
        "stereo_round_trip": 0.0,
        "shrink_gap": 0.0,
    }
    for _ in range(samples):
        dim = rng.randint(1, 3)
        p = _rand_sphere(rng, dim)
        q = _rand_sphere(rng, dim)
        t = math.exp(rng.uniform(-1.5, 1.5))
        s = math.exp(rng.uniform(-1.5, 1.5))

        raw = moebius_scale(p, t, q, renormalize=False)
        errs["unit_norm"] = max(errs["unit_norm"], abs(float(np.linalg.norm(raw)) - 1.0))

        two_step = moebius_scale(p, s, moebius_scale(p, t, q))
        one_step = moebius_scale(p, s * t, q)
        errs["semigroup"] = max(errs["semigroup"], float(np.max(np.abs(two_step - one_step))))

        errs["scale_one_identity"] = max(
            errs["scale_one_identity"], float(np.max(np.abs(moebius_scale(p, 1.0, q) - q)))
        )
        errs["fixed_points"] = max(
            errs["fixed_points"],
            float(np.max(np.abs(moebius_scale(p, t, p) - p))),
            float(np.max(np.abs(moebius_scale(p, t, -p) + p))),
        )

        if 1.0 + float(np.dot(q, p)) > 1e-3:
            lhs = stereo(p, moebius_scale(p, t, q))
            rhs = stereo(p, q) / t
            errs["conjugation"] = max(errs["conjugation"], float(np.max(np.abs(lhs - rhs))))
            errs["stereo_round_trip"] = max(
                errs["stereo_round_trip"],
                float(np.max(np.abs(stereo_inv(p, stereo(p, q)) - q))),
            )

        # shrink: injectivity gap on the disc factor when the cube factor agrees
        tt = rng.random()
        x = np.array([rng.uniform(-2, 2) for _ in range(dim)])
        v1 = _rand_sphere(rng, dim - 1) * rng.random()
        v2 = _rand_sphere(rng, dim - 1) * rng.random()
        if tt > 0:
            _, o1 = shrink(tt, x, v1)
            _, o2 = shrink(tt, x, v2)
            gap = float(np.linalg.norm(o1 - o2)) - tt * float(np.linalg.norm(v1 - v2))
            errs["shrink_gap"] = max(errs["shrink_gap"], max(0.0, -gap))
    return errs


def selftest_text(seed: int = 0, samples: int = 1000) -> tuple[str, bool]:
    """Formatted report plus overall pass flag at the documented tolerances."""
    errs = selftest(seed, samples)
    budgets = {
        "unit_norm": 1e-12,
        "semigroup": 1e-9,
        "scale_one_identity": 1e-12,
        "fixed_points": 1e-12,
        "conjugation": 1e-9,
        "stereo_round_trip": 1e-10,
        "shrink_gap": 1e-12,
    }
    lines = [f"geometry self test: seed={seed} samples={samples}"]
    ok = True
    for name in sorted(errs):
        good = errs[name] <= budgets[name]
        ok = ok and good
        lines.append(
            f"  {name}: max error {errs[name]:.3e} (budget {budgets[name]:.0e}) "
            f"{'ok' if good else 'FAIL'}"
        )
    lines.append("result: " + ("OK" if ok else "FAIL"))
    return "\n".join(lines) + "\n", ok

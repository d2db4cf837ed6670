"""Numeric kernels: smooth bump, the standard shrinking map, stereographic
projection, and conformal scaling of the sphere toward a fixed point.

Points and vectors are tuples of floats.  The kernels accept any sequence of
numbers and raise DomainError on a NaN or infinite coordinate or parameter;
only bump takes +-inf, where it is 1.  Double precision only; each property
quoted in the test suite carries an explicit tolerance.
"""

from __future__ import annotations

import math
import random

from .errors import DomainError, PoleError, SingularityError

UNIT_TOL = 1e-9

# the self test's properties and the largest error each may show
_BUDGETS = {
    "unit_norm": 1e-12,
    "semigroup": 1e-9,
    "scale_one_identity": 1e-12,
    "fixed_points": 1e-12,
    "conjugation": 1e-9,
    "stereo_round_trip": 1e-10,
    "shrink_gap": 1e-12,
}


def _finite(v) -> tuple[float, ...]:
    v = tuple(map(float, v))
    if not all(map(math.isfinite, v)):
        raise DomainError(f"non-finite coordinate in {v}")
    return v


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b, strict=True))


def _gap(a, b) -> float:
    """The largest coordinate difference |a_i - b_i|."""
    return max(abs(x - y) for x, y in zip(a, b, strict=True))


def _scaled(v, r: float) -> tuple[float, ...]:
    return tuple(r * x for x in v)


def unit_point(q) -> tuple[float, ...]:
    """Validate and renormalize a sphere point (norm within 1e-9 of one)."""
    q = _finite(q)
    nrm = math.hypot(*q)
    if not abs(nrm - 1.0) <= UNIT_TOL:
        raise DomainError(f"not a unit vector (norm {nrm})")
    return tuple(x / nrm for x in q)


def _g(s: float) -> float:
    return math.exp(-1.0 / s) if s > 0 else 0.0


def bump(t: float) -> float:
    """Smooth step: 0 at 0, 1 for |t| >= 1, even, strictly increasing between."""
    if math.isnan(t):
        raise DomainError("the bump parameter is NaN")
    s = t * t
    g1 = _g(s)
    g2 = _g(1.0 - s)
    return g1 / (g1 + g2)


def shrink(t: float, x, v) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(x, v) -> (x, (t + (1-t) * bump(|x|^2)) * v); the identity at t = 1 and
    wherever |x| >= 1."""
    x, v = _finite(x), _finite(v)
    if not math.isfinite(t):
        raise DomainError("the shrink parameter must be finite")
    if not math.hypot(*v) <= 1.0 + UNIT_TOL:
        raise DomainError("the second factor must lie in the unit disc")
    factor = t + (1.0 - t) * bump(_dot(x, x))
    return x, _scaled(v, factor)


def moebius_scale(p, t: float, q, renormalize: bool = True) -> tuple[float, ...]:
    """Conformal scaling of the sphere toward p: multiplication by 1/t in the
    stereographic chart at p (projection from the antipode), fixing p and -p.

        q -> (((t-1)^2 (q.p) + t^2 - 1) p + 2 t q) / ((t^2-1)(q.p) + t^2 + 1)
    """
    if not 0 < t < math.inf:
        raise DomainError("the scale parameter must be positive and finite")
    p = unit_point(p)
    q = unit_point(q)
    c = _dot(q, p)
    den = (t * t - 1.0) * c + t * t + 1.0
    if abs(den) < 1e-12:
        raise SingularityError("conformal scaling denominator vanished")
    a = (t - 1.0) ** 2 * c + t * t - 1.0
    out = tuple((a * pi + 2.0 * t * qi) / den for pi, qi in zip(p, q, strict=True))
    if renormalize:
        nrm = math.hypot(*out)
        out = tuple(x / nrm for x in out)
    return out


def stereo(a, q) -> tuple[float, ...]:
    """Stereographic projection from the antipode of a onto the tangent space
    at a: q -> 2 (q - (q.a) a) / (1 + q.a)."""
    a = unit_point(a)
    q = unit_point(q)
    c = _dot(q, a)
    if 1.0 + c < 1e-12:
        raise PoleError("point too close to the projection pole")
    return tuple(2.0 * (qi - c * ai) / (1.0 + c) for qi, ai in zip(q, a, strict=True))


def stereo_inv(a, w) -> tuple[float, ...]:
    """Inverse of stereo: tangent vector w at a back to the sphere."""
    a = unit_point(a)
    w = _finite(w)
    ww = _dot(w, w)
    c = (4.0 - ww) / (4.0 + ww)
    return tuple(c * ai + 0.5 * (1.0 + c) * wi for ai, wi in zip(a, w, strict=True))


# ---------------------------------------------------------------------------
# self test


def _rand_sphere(rng: random.Random, dim: int) -> tuple[float, ...]:
    while True:
        v = [rng.gauss(0, 1) for _ in range(dim + 1)]
        nrm = math.hypot(*v)
        if nrm > 1e-6:
            return tuple(x / nrm for x in v)


def selftest(seed: int = 0, samples: int = 1000) -> dict:
    """Run the full numeric property grid; returns each property's max observed
    error, or NaN, which fails every budget, for a property no sample checked."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = random.Random(f"geom:{seed}")
    errs = dict.fromkeys(_BUDGETS, 0.0)
    checked = dict.fromkeys(_BUDGETS, 0)

    def note(name, *found):
        errs[name] = max(errs[name], *found)
        checked[name] += 1

    for _ in range(samples):
        dim = rng.randint(1, 3)
        p = _rand_sphere(rng, dim)
        q = _rand_sphere(rng, dim)
        t = math.exp(rng.uniform(-1.5, 1.5))
        s = math.exp(rng.uniform(-1.5, 1.5))

        note("unit_norm", abs(math.hypot(*moebius_scale(p, t, q, renormalize=False)) - 1.0))
        two_step = moebius_scale(p, s, moebius_scale(p, t, q))
        note("semigroup", _gap(two_step, moebius_scale(p, s * t, q)))
        note("scale_one_identity", _gap(moebius_scale(p, 1.0, q), q))
        anti = tuple(-x for x in p)
        note("fixed_points", _gap(moebius_scale(p, t, p), p), _gap(moebius_scale(p, t, anti), anti))

        if 1.0 + _dot(q, p) > 1e-3:
            lhs = stereo(p, moebius_scale(p, t, q))
            note("conjugation", _gap(lhs, tuple(x / t for x in stereo(p, q))))
            note("stereo_round_trip", _gap(stereo_inv(p, stereo(p, q)), q))

        # shrink: injectivity gap on the disc factor when the cube factor agrees
        tt = rng.random()
        x = tuple(rng.uniform(-2, 2) for _ in range(dim))
        v1 = _scaled(_rand_sphere(rng, dim - 1), rng.random())
        v2 = _scaled(_rand_sphere(rng, dim - 1), rng.random())
        if tt > 0:
            _, o1 = shrink(tt, x, v1)
            _, o2 = shrink(tt, x, v2)
            note("shrink_gap", tt * math.dist(v1, v2) - math.dist(o1, o2))
    return {name: err if checked[name] else math.nan for name, err in errs.items()}


def selftest_text(seed: int = 0, samples: int = 1000) -> tuple[str, bool]:
    """Formatted report plus overall pass flag at the documented tolerances."""
    errs = selftest(seed, samples)
    lines = [f"geometry self test: seed={seed} samples={samples}"]
    ok = True
    for name in sorted(errs):
        err, budget = errs[name], _BUDGETS[name]
        good = err <= budget
        ok = ok and good
        shown = "not checked on any sample" if math.isnan(err) else f"max error {err:.3e}"
        lines.append(f"  {name}: {shown} (budget {budget:.0e}) {'ok' if good else 'FAIL'}")
    lines.append("result: " + ("OK" if ok else "FAIL"))
    return "\n".join(lines) + "\n", ok

"""Seeded random instance generators and operad axiom suites.

Every suite is deterministic in its seed and reports pass counts plus the
first counterexample, so a run can be reproduced byte for byte.  All suites
share one trial loop, ``_run``: trial t of a suite with seed s draws from its
own ``random.Random(f"{key}:{s}:{t}")``, where the key is
``axioms:<operad>``, ``assoc`` or ``equiv``, so trials are independent of one
another and of the trial count.

A trial draws all of its inputs first, in a fixed order, then runs its suite's
own associativity step, then its laws.  Each law is one row (name, where,
sides) of the law table: ``sides(op, t)`` is the pair that must agree on trial
t, computed in an operad record op (compose, permute, unit, differ, failure)
that the suite builds per trial from the module names, so a rebinding of them
(a tracer, a test double) is seen.  ``differ`` is None when the sides agree,
else the end of the failure text, which the format string ``failure`` completes
with the law's name and ``where``; one runner, ``_first_failure``, formats it.

The cube generators draw integers and build each axis as an exact triple
(s, o, d), the map x -> (s*x + o)/d, checked by ``cubes``, with the same
``rng`` calls as the rational arithmetic they replaced.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass
from types import SimpleNamespace

from .cubes import CubesElement, LittleCube, cube_compose, permute_cubes
from .overlap import OverlapElement, overlap_canonical, overlap_compose, permute_overlap
from .perm import Perm, WreathElement, block_perm
from .splice import (
    SpliceElement,
    act_perm,
    act_wreath,
    block_diag_wreath,
    compare_elements,
    identity_element,
    outer_act,
    splice_compose,
    splice_element,
    verify_associativity,
)
from .words import FREE_WORDS, GroupWord, gsym, knot, puck

# ---------------------------------------------------------------------------
# random element generators


def rand_perm(rng: random.Random, n: int) -> Perm:
    return Perm(rng.sample(range(1, n + 1), n))


def _interval_axis(rng: random.Random) -> tuple[int, int, int]:
    """Draw a, b, c: scale a/b, offset (1 - a/b)*c/3, as the triple (3a, (b-a)c, 3b)."""
    a = rng.randint(1, 2)
    b = rng.choice((2, 3, 4))
    c = rng.randint(-3, 3)
    return 3 * a, (b - a) * c, 3 * b


def rand_cube(rng: random.Random, dim: int) -> LittleCube:
    return LittleCube.from_axes([_interval_axis(rng) for _ in range(dim)])


def rand_disjoint_element(rng: random.Random, dim: int, arity: int) -> CubesElement:
    """Stack the cubes in disjoint slabs along one axis, then shuffle.

    Slab i of n is centred at (2i + 1)/n - 1 with scale 1/(nr) and wiggle
    (1/n - 1/(nr))*w/2 for drawn r and w; the other axes are random
    intervals.  An interval is drawn for the slab axis too and discarded, so
    the seeded streams stay as they are."""
    if arity == 0:
        return CubesElement(dim, ())
    axis = rng.randrange(dim)
    cubes = []
    for slab in range(arity):
        r = rng.randint(1, 2)
        w = rng.randint(-2, 2)
        axes = [_interval_axis(rng) for _ in range(dim)]
        axes[axis] = (2, 2 * r * (2 * slab + 1 - arity) + (r - 1) * w, 2 * arity * r)
        cubes.append(LittleCube.from_axes(axes))
    rng.shuffle(cubes)
    return CubesElement(dim, cubes)


def rand_overlap_element(rng: random.Random, dim: int, arity: int) -> OverlapElement:
    cubes = [rand_cube(rng, dim) for _ in range(arity)]
    return overlap_canonical(cubes, rand_perm(rng, arity), dim=dim)


_WORD_POOL = ("f1", "f2", "f3", "g1", "g2")


def rand_word(rng: random.Random, max_len: int = 2, min_len: int = 0) -> GroupWord:
    n = rng.randint(min_len, max_len)
    letters = []
    for _ in range(n):
        name = rng.choice(_WORD_POOL)
        mk = knot if name.startswith("f") else gsym
        letters.append(mk(name, rng.choice((1, -1))))
    return GroupWord(letters)


def rand_constraints(rng: random.Random, arity: int, sigma: Perm) -> set:
    """A random subset of pairs, oriented consistently with sigma."""
    height = sigma.inverse()
    out = set()
    for i in range(1, arity + 1):
        for k in range(i + 1, arity + 1):
            if rng.random() < 0.5:
                out.add((i, k) if height(i) < height(k) else ((k, i)))
    return out


def rand_splice_element(rng: random.Random, arity: int, tag: str, nonempty_base=False) -> SpliceElement:
    sigma = rand_perm(rng, arity)
    pucks = [GroupWord.of(puck(f"{tag}s{i}")) for i in range(1, arity + 1)]
    base = rand_word(rng, min_len=1 if nonempty_base else 0)
    return splice_element(base, pucks, rand_constraints(rng, arity, sigma), sigma)


def rand_word_wreath(rng: random.Random, arity: int, with_outer=True) -> WreathElement:
    outer = rand_word(rng) if with_outer else GroupWord.empty()
    inner = tuple([rand_word(rng) for _ in range(arity)])
    return WreathElement(outer, rand_perm(rng, arity), inner, FREE_WORDS)


# ---------------------------------------------------------------------------
# single-trial axiom checks; each returns None or a failure description


_Operad = namedtuple("_Operad", "compose permute unit differ failure")
_SPLICE_FAILURE = "{law} failed{where}: {end}"


def _equal(lhs, rhs) -> str | None:
    return None if lhs == rhs else ""


def _compare(lhs, rhs) -> str | None:
    cmp = compare_elements(lhs, rhs)
    return None if cmp.ok else cmp.detail


def _inner_equivariance(op: _Operad, t):
    beta, back = t.gamma.perm, t.gamma.perm.inverse()
    left = op.compose(act_wreath(t.outer, t.gamma), t.mids)
    moved = [outer_act(g, m) for g, m in zip(back.gather(t.gamma.inner), back.gather(t.mids))]
    bp = block_perm(beta, [m.arity for m in moved], [Perm.identity(m.arity) for m in moved])
    return left, op.permute(outer_act(t.gamma.outer.inverse(), op.compose(t.outer, moved)), bp)


# the law table; t.composite is outer . mids
_SYMMETRY = ("symmetry", " with sigma={t.sigma.images}", lambda op, t: (
    op.compose(op.permute(t.outer, t.sigma), t.sigma.gather(t.mids)),
    op.permute(t.composite, block_perm(t.sigma, t.arities, [Perm.identity(j) for j in t.arities])),
))
_SLOTWISE_SYMMETRY = ("slotwise symmetry", "", lambda op, t: (
    op.compose(t.outer, [op.permute(m, th) for m, th in zip(t.mids, t.thetas)]),
    op.permute(t.composite, block_perm(Perm.identity(len(t.mids)), t.arities, t.thetas)),
))
_RIGHT_IDENTITY = ("right identity", "", lambda op, t: (op.compose(t.outer, [op.unit] * len(t.mids)), t.outer))
_LEFT_IDENTITY = ("left identity", "", lambda op, t: (op.compose(op.unit, [t.outer]), t.outer))
_INNER_EQUIVARIANCE = ("inner equivariance", "", _inner_equivariance)
_OUTER_EQUIVARIANCE = ("outer equivariance", "", lambda op, t: (
    op.compose(t.outer, [act_wreath(m, g) for m, g in zip(t.mids, t.slot_gs)]),
    act_wreath(op.compose(t.outer, t.mids), block_diag_wreath(t.slot_gs)),
))


def _first_failure(op: _Operad, laws, t) -> str | None:
    """The failure text of the first law whose two sides differ, or None."""
    for law, where, sides in laws:
        end = op.differ(*sides(op, t))
        if end is not None:
            return op.failure.format(law=law, where=where.format(t=t), end=end, t=t)
    return None


def _check_cube_operad(rng, corrupt, max_dim, rand_element, compose, permute, identity) -> str | None:
    """Associativity (with the transposition control), then the four laws."""
    dim = rng.randint(1, max_dim)
    k = rng.randint(1, 3)
    outer = rand_element(rng, dim, k)
    mids = [rand_element(rng, dim, rng.randint(0, 3)) for _ in range(k)]
    inners = [rand_element(rng, dim, rng.randint(0, 2)) for m in mids for _ in range(m.arity)]
    arities = [m.arity for m in mids]
    t = SimpleNamespace(outer=outer, mids=mids, arities=arities, sigma=rand_perm(rng, k))
    t.thetas = [rand_perm(rng, j) for j in arities]

    t.composite = step = compose(outer, mids)
    if corrupt and step.arity >= 2:
        step = permute(step, Perm.transposition(1, 2, step.arity))
    pos, stages = 0, []
    for m in mids:
        stages.append(compose(m, inners[pos : pos + m.arity]))
        pos += m.arity
    if compose(step, inners) != compose(outer, stages):
        return f"associativity failed on {outer!r} . {mids!r} . {inners!r}"
    op = _Operad(compose, permute, identity(dim), _equal, "{law} failed on {t.outer!r}{where}")
    return _first_failure(op, (_SYMMETRY, _SLOTWISE_SYMMETRY, _RIGHT_IDENTITY, _LEFT_IDENTITY), t)


def check_cubes_instance(rng: random.Random, corrupt: bool = False) -> str | None:
    return _check_cube_operad(
        rng, corrupt, 3, rand_disjoint_element, cube_compose, permute_cubes, CubesElement.identity
    )


def check_overlap_instance(rng: random.Random, corrupt: bool = False) -> str | None:
    return _check_cube_operad(
        rng, corrupt, 2, rand_overlap_element, overlap_compose, permute_overlap, OverlapElement.identity
    )


def _rand_splice_triple(rng: random.Random, max_mid_arity: int):
    """(k, outer, mids, inners): a random three-level splicing composite."""
    k = rng.randint(1, 3)
    outer = rand_splice_element(rng, k, "J", nonempty_base=True)
    mids = [
        rand_splice_element(rng, rng.randint(0, max_mid_arity), f"L{a}", nonempty_base=True)
        for a in range(k)
    ]
    inners = [
        rand_splice_element(rng, rng.randint(0, 2), f"M{a}{b}")
        for a, m in enumerate(mids)
        for b in range(m.arity)
    ]
    return k, outer, mids, inners


def check_assoc_instance(rng: random.Random, corrupt: bool = False) -> str | None:
    _, outer, mids, inners = _rand_splice_triple(rng, 2)
    report = verify_associativity(outer, mids, inners, corrupt=corrupt)
    return None if report.ok else report.detail


def check_splice_instance(rng: random.Random, corrupt: bool = False) -> str | None:
    k, outer, mids, inners = _rand_splice_triple(rng, 3)
    t = SimpleNamespace(outer=outer, mids=mids, arities=[m.arity for m in mids], sigma=rand_perm(rng, k))
    report = verify_associativity(outer, mids, inners, corrupt=corrupt)
    if not report.ok:
        return f"associativity failed: {report.detail}"
    t.composite = splice_compose(outer, mids)
    op = _Operad(splice_compose, act_perm, identity_element(), _compare, _SPLICE_FAILURE)
    return _first_failure(op, (_SYMMETRY, _RIGHT_IDENTITY, _LEFT_IDENTITY), t)


def check_equivariance_instance(rng: random.Random) -> str | None:
    k = rng.randint(1, 3)
    outer = rand_splice_element(rng, k, "J", nonempty_base=True)
    mids = [rand_splice_element(rng, rng.randint(0, 2), f"L{a}") for a in range(k)]
    t = SimpleNamespace(outer=outer, mids=mids, gamma=rand_word_wreath(rng, k))
    t.slot_gs = [rand_word_wreath(rng, m.arity, with_outer=False) for m in mids]
    op = _Operad(splice_compose, act_perm, None, _compare, _SPLICE_FAILURE)
    return _first_failure(op, (_INNER_EQUIVARIANCE, _OUTER_EQUIVARIANCE), t)


# ---------------------------------------------------------------------------
# suites


@dataclass
class Report:
    suite: str
    seed: int
    trials: int
    passes: int
    first_failure: str | None = None
    first_failure_trial: int | None = None

    @property
    def ok(self) -> bool:
        return self.passes == self.trials

    def text(self) -> str:
        lines = [
            f"suite: {self.suite}",
            f"seed: {self.seed}",
            f"trials: {self.trials}",
            f"passes: {self.passes}",
        ]
        if self.ok:
            lines.append("result: OK")
        else:
            lines.append(f"result: FAIL at trial {self.first_failure_trial}")
            lines.append(f"counterexample: {self.first_failure}")
        return "\n".join(lines) + "\n"


_CHECKS = {
    "cubes": check_cubes_instance,
    "overlap": check_overlap_instance,
    "splice": check_splice_instance,
}


def _run(suite: str, key: str, check, trials: int, seed: int) -> Report:
    """The one trial loop: trial t draws from Random(f"{key}:{seed}:{t}")."""
    if trials < 1:
        raise ValueError(f"{suite}: trials must be at least 1, got {trials}")
    passes, first, first_trial = 0, None, None
    for trial in range(trials):
        failure = check(random.Random(f"{key}:{seed}:{trial}"))
        if failure is None:
            passes += 1
        elif first is None:
            first, first_trial = failure, trial
    return Report(suite, seed, trials, passes, first, first_trial)


def run_axioms(operad: str, trials: int, seed: int, corrupt: bool = False) -> Report:
    """Run associativity + symmetry + identity checks on seeded random instances."""
    if operad not in _CHECKS:
        raise ValueError(f"unknown operad suite {operad!r}")
    check = _CHECKS[operad]
    suite = f"{operad} axioms" + (" (corrupted)" if corrupt else "")
    return _run(suite, f"axioms:{operad}", lambda rng: check(rng, corrupt=corrupt), trials, seed)


def run_splice_associativity(trials: int, seed: int, corrupt: bool = False) -> Report:
    """The mechanized cancellation check alone, at higher volume."""
    suite = "splice associativity" + (" (corrupted)" if corrupt else "")
    return _run(suite, "assoc", lambda rng: check_assoc_instance(rng, corrupt=corrupt), trials, seed)


def run_equivariance(trials: int, seed: int) -> Report:
    return _run("wreath equivariance", "equiv", check_equivariance_instance, trials, seed)

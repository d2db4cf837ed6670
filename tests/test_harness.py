"""The cube generators of harness and oracles against the Fraction generators they replaced.

The generators draw integer (s, o, d) triples directly.  The reference below
is the earlier Fraction arithmetic, kept verbatim apart from the switch of
the negative control: on seeded streams, among
them the criterion-1 streams, each generator must return an equal element
(same triples, same repr) and leave its random stream in the same state, so
every seeded report stays byte-identical.
"""

import hashlib
import random
import re
from fractions import Fraction

import pytest

from spliceops import harness
from spliceops.cubes import CubesElement, LittleCube, LittleInterval, cube_compose
from spliceops.errors import StructuralError
from spliceops.overlap import overlap_canonical
from spliceops.perm import Perm, block_perm
from spliceops.splice import compare_elements, identity_element, splice_compose, splice_element
from spliceops.words import GroupWord, knot

import oracles

# ---------------------------------------------------------------------------
# the reference: the Fraction generators


def _ref_rand_little_interval(rng):
    scale = Fraction(rng.randint(1, 2), rng.choice((2, 3, 4)))
    if scale > 1:
        scale = Fraction(1)
    room = 1 - scale
    offset = room * Fraction(rng.randint(-3, 3), 3)
    return LittleInterval(scale, offset)


def _ref_rand_cube(rng, dim):
    return LittleCube(_ref_rand_little_interval(rng) for _ in range(dim))


def _ref_rand_disjoint_element(rng, dim, arity, w_first=False):
    """``w_first`` draws the wiggle before the scale: the negative control."""
    if arity == 0:
        return CubesElement(dim, ())
    axis = rng.randrange(dim)
    half = Fraction(1, arity)
    cubes = []
    for slab in range(arity):
        center = Fraction(2 * slab + 1, arity) - 1
        if w_first:
            w = Fraction(rng.randint(-2, 2), 2)
            scale = half * Fraction(1, rng.randint(1, 2))
        else:
            scale = half * Fraction(1, rng.randint(1, 2))
            w = Fraction(rng.randint(-2, 2), 2)
        wiggle = (half - scale) * w
        factors = [_ref_rand_little_interval(rng) for _ in range(dim)]
        factors[axis] = LittleInterval(scale, center + wiggle)
        cubes.append(LittleCube(factors))
    rng.shuffle(cubes)
    return CubesElement(dim, cubes)


def _ref_rand_overlap_element(rng, dim, arity):
    cubes = [_ref_rand_cube(rng, dim) for _ in range(arity)]
    return overlap_canonical(cubes, harness.rand_perm(rng, arity), dim=dim)


def _ref_anchored_interval(rng):
    scale = Fraction(1, rng.choice((2, 3, 4)))
    return LittleInterval(scale, 1 - scale)


REFERENCE = {
    "interval": _ref_rand_little_interval,
    "anchored": _ref_anchored_interval,
    "cube": _ref_rand_cube,
    "disjoint": _ref_rand_disjoint_element,
    "overlap": _ref_rand_overlap_element,
}

GENERATORS = {
    "interval": oracles.rand_little_interval,
    "anchored": oracles.anchored_interval,
    "cube": harness.rand_cube,
    "disjoint": harness.rand_disjoint_element,
    "overlap": harness.rand_overlap_element,
}

# ---------------------------------------------------------------------------
# the draws

STREAMS = (
    [f"axioms:cubes:2026:{t}" for t in range(700)]
    + [f"axioms:overlap:2026:{t}" for t in range(700)]
    + [f"harness:{t}" for t in range(700)]
)
DRAWS_PER_STREAM = 10
# sha256 over the reprs of every draw, computed with the Fraction generators
# of the harness before they drew integer triples
PINNED_REPRS = "866083d49b80583eaefabf04203c026c0ab8deec43d67037c8e54a64a96fa418"


def _plan():
    """(stream, [(generator, args), ...]) per stream; dims 1-3 and arities 0-16."""
    out = []
    for stream in STREAMS:
        planner = random.Random(f"plan:{stream}")
        steps = []
        for _ in range(DRAWS_PER_STREAM):
            name = planner.choice(sorted(GENERATORS))
            dim = planner.randint(1, 3)
            if name in ("interval", "anchored"):
                args = ()
            elif name == "cube":
                args = (dim,)
            else:
                args = (dim, planner.randint(0, 16))
            steps.append((name, args))
        out.append((stream, steps))
    return out


PLAN = _plan()


def _triples(x):
    if isinstance(x, (LittleInterval, LittleCube)):
        return x._axes
    return tuple(c._axes for c in x.cubes)


def _compare(generators, reference, plan=PLAN):
    """(None or 'draw N: ...' locating the first draw that differs, sha256 of the
    reference reprs so far).

    Both sides draw in lockstep from their own copy of each stream, so a
    later draw also sees whether an earlier one left the stream in step."""
    h = hashlib.sha256()
    n = 0
    for stream, steps in plan:
        new_rng, ref_rng = random.Random(stream), random.Random(stream)
        for name, args in steps:
            got = generators[name](new_rng, *args)
            want = reference[name](ref_rng, *args)
            h.update(repr(want).encode())
            h.update(b"\0")
            where = f"draw {n}: {name}{args} in stream {stream!r}"
            if _triples(got) != _triples(want):
                return f"{where}: triples {_triples(got)} != {_triples(want)}", h.hexdigest()
            if repr(got) != repr(want):
                return f"{where}: {got!r} != {want!r}", h.hexdigest()
            if new_rng.getstate() != ref_rng.getstate():
                return f"{where}: the random streams diverge", h.hexdigest()
            n += 1
    return None, h.hexdigest()


def test_plan_covers_every_generator_dim_and_arity():
    steps = [step for _, s in PLAN for step in s]
    assert len(steps) >= 20_000
    assert {name for name, _ in steps} == set(GENERATORS)
    assert {args[0] for _, args in steps if args} == {1, 2, 3}
    for name in ("disjoint", "overlap"):
        assert {args[1] for n, args in steps if n == name} == set(range(17))


def test_generators_match_fraction_reference():
    mismatch, digest = _compare(GENERATORS, REFERENCE)
    assert mismatch is None
    assert digest == PINNED_REPRS


def test_negative_control_w_before_r_is_located():
    swapped = dict(REFERENCE, disjoint=lambda rng, dim, arity: _ref_rand_disjoint_element(rng, dim, arity, True))
    msg, _ = _compare(GENERATORS, swapped)
    assert msg is not None
    assert re.match(r"^draw \d+: disjoint\(\d, \d+\) in stream '[^']+': ", msg), msg


def test_generators_go_through_the_validating_constructor(monkeypatch):
    def refuse(*args):
        raise StructuralError("checked")

    monkeypatch.setattr("spliceops.cubes._little_axis", refuse)
    rng = random.Random(0)
    for name, args in (("interval", ()), ("anchored", ()), ("cube", (2,)), ("disjoint", (2, 3)), ("overlap", (2, 3))):
        with pytest.raises(StructuralError, match="^checked$"):
            GENERATORS[name](rng, *args)


# ---------------------------------------------------------------------------
# per-law negative controls: one fault per law, patched over a name the suite
# looks up at call time, must fail the suite at a located trial with that
# law's failure text.  Each entry is (suite, patch, the full first failure as
# a regex, (passes, failing trial, sha256 of the report)); the pins were taken
# before the laws became one table, and a law dropped from the table fails
# its control.


def _half_unit(cls, dim):
    """A unit that is not one: the cube of half size about the centre."""
    return CubesElement(dim, [LittleCube.from_axes([(1, 0, 2)] * dim)])


def _cube_compose_ignoring_left_unit(outer, inners):
    if outer == CubesElement.identity(outer.dim):
        return outer
    return cube_compose(outer, inners)


def _splice_compose_ignoring_left_unit(outer, inners):
    if compare_elements(outer, identity_element()).ok:
        return outer
    return splice_compose(outer, inners)


def _block_perm_without_inner(outer, arities, inner):
    return block_perm(outer, arities, [Perm.identity(j) for j in arities])


LAW_CONTROLS = {
    "cubes symmetry": (
        "cubes",
        lambda mp: mp.setattr(harness, "permute_cubes", lambda elem, sigma: elem),
        r"symmetry failed on CubesElement\(.+\) with sigma=\((\d+, )+\d+\)",
        (22, 0, "f7e1e7ac18649933f123664b5ba1bbd45ade15268f41d602d94af197ce81a255"),
    ),
    "cubes slotwise symmetry": (
        "cubes",
        lambda mp: mp.setattr(harness, "block_perm", _block_perm_without_inner),
        r"slotwise symmetry failed on CubesElement\(.+\)",
        (20, 0, "5cead404ca2818a30d93102b182f0fbd5481ba6de709322826720d586b273285"),
    ),
    "cubes right identity": (
        "cubes",
        lambda mp: mp.setattr(CubesElement, "identity", classmethod(_half_unit)),
        r"right identity failed on CubesElement\(.+\)",
        (0, 0, "c287939cd77989ebf3d61c894db6bd489ade93aca04362025f8d9fcff46310a0"),
    ),
    "cubes left identity": (
        "cubes",
        lambda mp: mp.setattr(harness, "cube_compose", _cube_compose_ignoring_left_unit),
        r"left identity failed on CubesElement\(.+\)",
        (0, 0, "fdaa84d0b27c41ad7c3eec3c435962498938a1faab581c28fbc4d3084a0fe9a2"),
    ),
    "splice symmetry": (
        "splice",
        lambda mp: mp.setattr(harness, "act_perm", lambda elem, sigma: elem),
        r"symmetry failed with sigma=\((\d+, )+\d+\): \S.*",
        (24, 1, "041876f3314efa2d23fed5d8a781aa757698c04d50585fdeca679dbf4ec0533e"),
    ),
    "splice right identity": (
        "splice",
        lambda mp: mp.setattr(
            harness, "identity_element", lambda: splice_element(GroupWord.of(knot("u")), [GroupWord.empty()])
        ),
        r"right identity failed: \S.*",
        (0, 0, "df723713c4a1e97b54731cbd95839a3f906a29e2d64f39f740341095bd6efa24"),
    ),
    "splice left identity": (
        "splice",
        lambda mp: mp.setattr(harness, "splice_compose", _splice_compose_ignoring_left_unit),
        r"left identity failed: \S.*",
        (0, 0, "0b45a4afde262f1c8e60a424470bf1cc2588a277ec66a0e88a08b98be41b5183"),
    ),
}


@pytest.mark.parametrize("control", sorted(LAW_CONTROLS))
def test_every_law_has_a_negative_control(monkeypatch, control):
    operad, patch, pattern, pinned = LAW_CONTROLS[control]
    patch(monkeypatch)
    rep = harness.run_axioms(operad, 40, 11)
    assert not rep.ok and rep.first_failure_trial is not None
    assert re.fullmatch(pattern, rep.first_failure), rep.first_failure
    assert f"result: FAIL at trial {rep.first_failure_trial}" in rep.text()
    digest = hashlib.sha256(rep.text().encode()).hexdigest()
    assert (rep.passes, rep.first_failure_trial, digest) == pinned

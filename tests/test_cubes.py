import random
import re
from fractions import Fraction

import pytest

from spliceops import cubes
from spliceops.cubes import (
    AffineMap,
    CubesElement,
    LittleCube,
    LittleInterval,
    cube_compose,
    cubes_from_json,
    cubes_to_json,
    format_cube,
    graft_cubes,
    interiors_intersect,
    parse_cube,
    permute_cubes,
)
from spliceops.errors import StructuralError
from spliceops.harness import rand_cube, rand_disjoint_element, rand_perm
from spliceops.perm import Perm


def interval(a, b):
    return LittleInterval(Fraction(a), Fraction(b))


class TestLittleInterval:
    def test_invariants(self):
        with pytest.raises(StructuralError):
            interval(0, 0)
        with pytest.raises(StructuralError):
            interval("1/2", "3/4")  # |b| + a > 1

    def test_symbolic_composition(self):
        # (x/2 - 1/2) o (x/2 + 1/2) = x/4 - 1/4, image [-1/2, 0]
        left = interval("1/2", "-1/2")
        right = interval("1/2", "1/2")
        comp = left.compose(right)
        assert comp == interval("1/4", "-1/4")
        assert comp.image() == (Fraction(-1, 2), Fraction(0))

    def test_text_round_trip(self):
        rnd = random.Random(0)
        for _ in range(50):
            scale = Fraction(1, rnd.randint(1, 5))
            offset = (1 - scale) * Fraction(rnd.randint(-2, 2), 2)
            f = LittleInterval(scale, offset)
            cube = LittleCube([f, f])
            assert parse_cube(format_cube(cube)) == cube


class TestIntegerConstructors:
    """LittleInterval(scale, offset) and the triple constructors share one check."""

    @pytest.mark.parametrize(
        "triple, scale, offset",
        [((2, 2, 4), "1/2", "1/2"), ((-3, 0, -6), "1/2", "0"), ((6, -3, 12), "1/2", "-1/4"), ((1, 0, 1), "1", "0")],
    )
    def test_normalized(self, triple, scale, offset):
        f = LittleInterval.from_axis(*triple)
        assert f == interval(scale, offset)
        assert f._axes == interval(scale, offset)._axes
        assert LittleCube.from_axes([triple, triple]) == LittleCube([f, f])

    @pytest.mark.parametrize(
        "triple, scale, offset",
        [
            ((0, 0, 1), 0, 0),
            ((-1, 0, 2), "-1/2", 0),
            ((1, 2, 2), "1/2", 1),
            ((2, -7, 8), "1/4", "-7/8"),
            ((3, 2, 4), "3/4", "1/2"),
            ((2, 0, 1), 2, 0),
        ],
    )
    def test_same_messages(self, triple, scale, offset):
        with pytest.raises(StructuralError) as public:
            interval(scale, offset)
        for build in (lambda: LittleInterval.from_axis(*triple), lambda: LittleCube.from_axes([(1, 0, 1), triple])):
            with pytest.raises(StructuralError) as err:
                build()
            assert str(err.value) == str(public.value)

    def test_zero_denominator(self):
        with pytest.raises(StructuralError, match="^interval denominator must be nonzero$"):
            LittleInterval.from_axis(1, 0, 0)
        with pytest.raises(StructuralError, match="^interval denominator must be nonzero$"):
            LittleCube.from_axes([(0, 0, 0)])


class TestDisjointness:
    def test_touching_boundaries_allowed(self):
        c1 = LittleCube([interval("1/2", "-1/2")])  # image [-1, 0]
        c2 = LittleCube([interval("1/2", "1/2")])  # image [0, 1]
        CubesElement(1, [c1, c2])

    def test_interior_overlap_rejected(self):
        c1 = LittleCube([interval("1/2", 0)])
        c2 = LittleCube([interval("1/2", "1/4")])
        with pytest.raises(StructuralError):
            CubesElement(1, [c1, c2])

    def test_one_axis_disjoint_suffices(self):
        c1 = LittleCube([interval("1/2", "-1/2"), interval(1, 0)])
        c2 = LittleCube([interval("1/2", "1/2"), interval(1, 0)])
        assert not interiors_intersect(c1, c2)
        CubesElement(2, [c1, c2])

    def test_empty_element(self):
        assert CubesElement(2, ()).arity == 0


class TestOperadStructure:
    def test_identity_axioms(self):
        rnd = random.Random(1)
        for _ in range(25):
            elem = rand_disjoint_element(rnd, 2, rnd.randint(0, 3))
            k = elem.arity
            assert cube_compose(elem, [CubesElement.identity(2)] * k) == elem
            assert cube_compose(CubesElement.identity(2), [elem]) == elem

    def test_composition_example(self):
        outer = CubesElement(1, [LittleCube([interval("1/2", "-1/2")])])
        arg = CubesElement(1, [LittleCube([interval("1/2", "1/2")])])
        out = cube_compose(outer, [arg])
        assert out.cubes[0].factors[0] == interval("1/4", "-1/4")

    def test_composition_preserves_disjointness(self):
        rnd = random.Random(2)
        for _ in range(50):
            outer = rand_disjoint_element(rnd, 2, rnd.randint(1, 3))
            args = [rand_disjoint_element(rnd, 2, rnd.randint(0, 3)) for _ in range(outer.arity)]
            out = cube_compose(outer, args)
            assert CubesElement(2, out.cubes) == out  # the validating constructor accepts it

    def test_permutation_action_is_action(self):
        rnd = random.Random(3)
        for _ in range(50):
            elem = rand_disjoint_element(rnd, 2, 3)
            s, t = rand_perm(rnd, 3), rand_perm(rnd, 3)
            assert permute_cubes(permute_cubes(elem, s), t) == permute_cubes(elem, s * t)
            assert permute_cubes(elem, Perm.identity(3)) == elem
            sigma = rand_perm(rnd, 3)
            assert permute_cubes(permute_cubes(elem, sigma), sigma.inverse()) == elem

    def test_arity_mismatch(self):
        outer = CubesElement.identity(1)
        with pytest.raises(StructuralError):
            cube_compose(outer, [])
        with pytest.raises(StructuralError):
            cube_compose(outer, [CubesElement.identity(2)])


class TestAffineMap:
    def test_inverse(self):
        m = AffineMap([(Fraction(1, 2), Fraction(1, 4)), (Fraction(3), Fraction(-1))])
        assert m.compose(m.inverse()).is_identity()
        assert m.inverse().compose(m).is_identity()

    def test_little_cube_embedding(self):
        cube = LittleCube([interval("1/2", "1/4")])
        assert cube.as_affine() == AffineMap([(Fraction(1, 2), Fraction(1, 4))])


def test_json_round_trip():
    rnd = random.Random(4)
    for _ in range(20):
        elem = rand_disjoint_element(rnd, 2, rnd.randint(0, 3))
        assert cubes_from_json(cubes_to_json(elem)) == elem


def test_json_input_is_validated():
    # outside input still goes through the disjointness check
    text = '{"cubes": [[["1/2", "0"]], [["1/2", "1/4"]]], "dim": 1}'
    with pytest.raises(StructuralError, match="cubes 1 and 2 have intersecting interiors"):
        cubes_from_json(text)


# ---------------------------------------------------------------------------
# the trusted structure maps against the validating constructor they bypass


def _reference_cube_compose(outer, args):
    return CubesElement(outer.dim, graft_cubes(outer, args))


def _reference_permute_cubes(elem, sigma):
    return CubesElement(elem.dim, sigma.gather(elem.cubes))


def structure_map_mismatch(compose=cube_compose, permute=permute_cubes, trials=2000):
    """None, or the first seeded trial where a structure map and its
    reference differ by ==, repr or hash."""
    rng = random.Random("trusted-cubes")
    for trial in range(trials):
        dim = rng.randint(1, 3)
        outer = rand_disjoint_element(rng, dim, rng.randint(0, 4))
        args = [rand_disjoint_element(rng, dim, rng.randint(0, 3)) for _ in range(outer.arity)]
        sigma = rand_perm(rng, outer.arity)
        for name, got, want in (
            ("cube_compose", compose(outer, args), _reference_cube_compose(outer, args)),
            ("permute_cubes", permute(outer, sigma), _reference_permute_cubes(outer, sigma)),
        ):
            if (got, repr(got), hash(got)) != (want, repr(want), hash(want)):
                return f"trial {trial}: {name} gave {got!r}, reference {want!r}"
    return None


def test_structure_maps_match_reference():
    assert structure_map_mismatch() is None


def test_structure_map_negative_control():
    """Permuting by the inverse is wrong for every non-involution."""
    failure = structure_map_mismatch(permute=lambda elem, sigma: permute_cubes(elem, sigma.inverse()))
    assert failure is not None
    assert re.match(r"trial \d+: permute_cubes gave ", failure), failure


def test_operad_axioms_randomized():
    from spliceops.harness import check_cubes_instance

    rnd = random.Random("cubes-module")
    for _ in range(100):
        assert check_cubes_instance(rnd) is None


# ---------------------------------------------------------------------------
# the integer kernel against a plain Fraction model: a map is a tuple of
# (scale, offset) Fraction pairs, one per axis


def model_compose(f, g):
    return tuple((a1 * a2, a1 * b2 + b1) for (a1, b1), (a2, b2) in zip(f, g))


def model_inverse(f):
    return tuple((1 / a, -b / a) for a, b in f)


def model_is_identity(f):
    return all(a == 1 and b == 0 for a, b in f)


def model_inside(f):
    return all(b - a >= -1 and b + a <= 1 for a, b in f)


def model_meet(f, g):
    return all(b1 - a1 < b2 + a2 and b2 - a2 < b1 + a1 for (a1, b1), (a2, b2) in zip(f, g))


def cube_model(c):
    return tuple((f.scale, f.offset) for f in c.factors)


def unequal_by_class(*maps):
    """No two of ``maps`` compare equal, either way round."""
    return all(x != y for x in maps for y in maps if x is not y)


def rand_affine_pairs(rng, dim):
    """Raw (scale, offset) pairs: plain ints where the value is whole, so int
    and Fraction inputs meet; scales above 1 and offsets outside [-1, 1] too."""
    pairs = []
    for _ in range(dim):
        a = Fraction(rng.randint(1, 6), rng.choice((1, 2, 3, 4, 6)))
        b = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
        pairs.append(tuple(int(x) if x.denominator == 1 and rng.random() < 0.5 else x for x in (a, b)))
    return pairs


def kernel_mismatch(trials=300):
    """The first place where the kernel and the model disagree, named by trial
    and check, or None.  Trial t draws from the criterion 1 cube seeds."""
    for t in range(trials):
        rng = random.Random(f"axioms:cubes:2026:{t}")
        dim = rng.randint(1, 3)
        c1, c2, c3 = (rand_cube(rng, dim) for _ in range(3))
        raw_f, raw_g = rand_affine_pairs(rng, dim), rand_affine_pairs(rng, dim)
        f, g = AffineMap(raw_f), AffineMap(raw_g)
        mf = tuple((Fraction(a), Fraction(b)) for a, b in raw_f)
        mg = tuple((Fraction(a), Fraction(b)) for a, b in raw_g)
        ident = AffineMap.identity(dim)
        mc12 = model_compose(cube_model(c1), cube_model(c2))

        def same(x, y):
            return x == y and hash(x) == hash(y)

        checks = [
            ("affine value", f.axes == mf, f, raw_f),
            ("int/Fraction eq/hash", same(f, AffineMap(mf)), f, mf),
            ("compose value", f.compose(g).axes == model_compose(mf, mg), f, g),
            ("compose eq/hash", same(f.compose(g), AffineMap(model_compose(mf, mg))), f, g),
            ("inverse value", f.inverse().axes == model_inverse(mf), f, None),
            ("inverse eq/hash", same(f.inverse(), AffineMap(model_inverse(mf))), f, None),
            ("chain eq/hash", same(g.compose(f).compose(f.inverse()), g), f, g),
            ("identity eq/hash", same(f.inverse().compose(f), ident), f, None),
            ("is_identity", f.is_identity() == model_is_identity(mf), f, None),
            ("is_identity", f.compose(f.inverse()).is_identity(), f, None),
            ("cube compose value", cube_model(c1.compose(c2)) == model_compose(cube_model(c1), cube_model(c2)), c1, c2),
            (
                "cube compose eq/hash",
                same(
                    c1.compose(c2),
                    LittleCube(LittleInterval(a, b) for a, b in model_compose(cube_model(c1), cube_model(c2))),
                ),
                c1,
                c2,
            ),
            ("cube chain eq/hash", same(c1.compose(c2).compose(c3), c1.compose(c2.compose(c3))), c1, c2),
            ("cube affine eq/hash", same(c1.compose(c2).as_affine(), c1.as_affine().compose(c2.as_affine())), c1, c2),
            ("interiors_intersect", interiors_intersect(c1, c2) == model_meet(cube_model(c1), cube_model(c2)), c1, c2),
            ("cube is_identity", c1.is_identity() == model_is_identity(cube_model(c1)), c1, None),
            ("unequal by class", unequal_by_class(c1, c1.as_affine(), *(c1.factors if dim == 1 else ())), c1, None),
            (
                "interval compose value",
                tuple((h.scale, h.offset) for h in map(LittleInterval.compose, c1.factors, c2.factors)) == mc12,
                c1,
                c2,
            ),
            (
                "interval compose eq/hash",
                all(same(p.compose(q), LittleInterval(*m)) for p, q, m in zip(c1.factors, c2.factors, mc12)),
                c1,
                c2,
            ),
        ]
        for a, b in raw_f:
            try:
                LittleInterval(a, b)
                inside = True
            except StructuralError:
                inside = False
            checks.append(("containment", inside == model_inside([(Fraction(a), Fraction(b))]), (a, b), None))
        for name, ok, x, y in checks:
            if not ok:
                return f"trial {t}: {name} disagrees with the Fraction model on {x!r} and {y!r}"
    return None


def test_kernel_matches_fraction_model():
    assert kernel_mismatch() is None


def test_kernel_negative_control(monkeypatch):
    """A compose that skips the gcd gives right values in wrong terms: the
    eq/hash checks must catch it and say where."""

    def compose_without_gcd(f, g):
        s1, o1, d1 = f
        s2, o2, d2 = g
        return s1 * s2, s1 * o2 + o1 * d2, d1 * d2

    monkeypatch.setattr(cubes, "_axis_compose", compose_without_gcd)
    failure = kernel_mismatch()
    assert failure is not None
    assert failure.startswith("trial ") and "eq/hash disagrees" in failure, failure


def test_fraction_boundary():
    f = LittleInterval(Fraction(2, 4), 0)
    assert (f.scale, f.offset, f.lo, f.hi) == (Fraction(1, 2), 0, Fraction(-1, 2), Fraction(1, 2))
    assert all(type(x) is Fraction for x in (f.scale, f.offset, f.lo, f.hi, f(1)))
    assert repr(f) == "LittleInterval(1/2, 0)"
    m = AffineMap([(2, -1)])
    assert m == AffineMap([(Fraction(4, 2), Fraction(-1))]) and hash(m) == hash(AffineMap([("2", "-1")]))
    assert repr(m) == "AffineMap(((Fraction(2, 1), Fraction(-1, 1)),))"
    assert repr(LittleCube([f])) == "LittleCube([LittleInterval(1/2, 0)])"


def test_public_constructors_validate():
    with pytest.raises(StructuralError):
        AffineMap([(0, 1)])
    with pytest.raises(StructuralError):
        LittleInterval(Fraction(1, 2), Fraction(3, 4))
    with pytest.raises(StructuralError):
        LittleCube([(Fraction(1, 2), 0)])

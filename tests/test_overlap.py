"""Overlapping-cubes element tests.

The equivalence oracle is the defining relation itself: two inputs are
equivalent when the cubes agree and the height orders agree on every pair
whose interiors intersect, which overlap_canonical converts to constraint
sets that equality compares verbatim.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

from spliceops.cubes import CubesElement, LittleCube, LittleInterval, cube_compose, graft_cubes
from spliceops.errors import StructuralError
from spliceops.harness import (
    rand_cube,
    rand_disjoint_element,
    rand_overlap_element,
    rand_perm,
)
from spliceops.overlap import (
    OverlapElement,
    least_linearization,
    overlap_canonical,
    overlap_compose,
    overlap_to_json,
    permute_overlap,
    project_to_overlap,
)
from spliceops.perm import Perm, block_constraints, block_perm


def interval(a, b):
    return LittleInterval(Fraction(a), Fraction(b))


def box(*axes):
    return LittleCube([interval(a, b) for a, b in axes])


LEFT = box(("1/2", "-1/2"))
RIGHT = box(("1/2", "1/2"))
FULL = box((1, 0))


class TestCanonical:
    def test_disjoint_cubes_forget_the_order(self):
        for sigma in (Perm.identity(2), Perm((2, 1))):
            elem = overlap_canonical([LEFT, RIGHT], sigma)
            assert elem.constraints == frozenset()
            assert elem.witness == Perm.identity(2)
        assert overlap_canonical([LEFT, RIGHT], Perm((2, 1))) == overlap_canonical(
            [LEFT, RIGHT], Perm.identity(2)
        )

    def test_identical_cubes_force_the_order(self):
        elem = overlap_canonical([FULL, FULL], Perm.identity(2))
        assert elem.constraints == frozenset({(1, 2)})
        flipped = overlap_canonical([FULL, FULL], Perm((2, 1)))
        assert flipped.constraints == frozenset({(2, 1)})
        assert elem != flipped

    def test_only_intersecting_pair_is_recorded(self):
        # cubes 2 and 3 overlap each other, cube 1 is off to the side
        c1 = box(("1/4", "-3/4"))
        c2 = box(("1/4", "1/2"))
        c3 = box(("1/4", "1/4"))
        for sigma in (Perm.identity(3), Perm((2, 1, 3)), Perm((1, 2, 3))):
            elem = overlap_canonical([c1, c2, c3], sigma)
            assert {tuple(sorted(p)) for p in elem.constraints} == {(2, 3)}

    def test_witness_is_least_linearization(self):
        elem = overlap_canonical([FULL, FULL], Perm((2, 1)))
        assert elem.witness == Perm((2, 1))
        rnd = random.Random(0)
        for _ in range(100):
            e = rand_overlap_element(rnd, 1, rnd.randint(1, 4))
            w = e.witness
            height = w.inverse()
            for low, high in e.constraints:
                assert height(low) < height(high)
            assert w == least_linearization(e.arity, e.constraints)

    def test_equivalence_oracle_exhaustive(self):
        # brute force over all orders of three cubes with mixed overlaps
        cubes = [box(("1/2", "-1/2")), box(("1/2", "0")), box(("1/4", "3/4"))]
        elems = {}
        for sigma in map(Perm, itertools.permutations((1, 2, 3))):
            elems[sigma] = overlap_canonical(cubes, sigma)
        for s1, e1 in elems.items():
            for s2, e2 in elems.items():
                h1, h2 = s1.inverse(), s2.inverse()
                agree = all(
                    (h1(i) < h1(k)) == (h2(i) < h2(k))
                    for i, k in itertools.combinations(range(1, 4), 2)
                    if any(tuple(sorted((i, k))) == tuple(sorted(p)) for p in e1.constraints)
                )
                assert (e1 == e2) == agree

    def test_eq_is_equivalence(self):
        rnd = random.Random(1)
        elems = [rand_overlap_element(rnd, 1, 3) for _ in range(30)]
        for e in elems:
            assert e == e
        for a, b in itertools.combinations(elems, 2):
            assert (a == b) == (b == a)


class TestCompose:
    def test_identity(self):
        rnd = random.Random(2)
        for _ in range(25):
            elem = rand_overlap_element(rnd, 2, rnd.randint(0, 3))
            k = elem.arity
            assert overlap_compose(elem, [OverlapElement.identity(2)] * k) == elem
            assert overlap_compose(OverlapElement.identity(2), [elem]) == elem

    def test_grafting_preserves_inner_constraints(self):
        rnd = random.Random(3)
        for _ in range(50):
            outer = overlap_canonical([rand_cube(rnd, 1)], Perm.identity(1))
            inner = rand_overlap_element(rnd, 1, 3)
            out = overlap_compose(outer, [inner])
            assert out.constraints == inner.constraints

    def test_well_defined_on_classes(self):
        rnd = random.Random(4)
        for _ in range(100):
            cubes = [rand_cube(rnd, 1) for _ in range(3)]
            s1, s2 = rand_perm(rnd, 3), rand_perm(rnd, 3)
            e1 = overlap_canonical(cubes, s1)
            e2 = overlap_canonical(cubes, s2)
            if e1 != e2:
                continue
            args = [rand_overlap_element(rnd, 1, rnd.randint(0, 2)) for _ in range(3)]
            assert overlap_compose(e1, args) == overlap_compose(e2, args)

    def test_multiplicative_suboperad_closed(self):
        # tuples of identity cubes with no constraints compose to the same shape
        def assoc_elem(k):
            return overlap_canonical([LittleCube.identity(1)] * k, Perm.identity(k))

        out = overlap_compose(assoc_elem(2), [assoc_elem(3), assoc_elem(1)])
        want = assoc_elem(4)
        assert out == want
        # identical cubes all overlap, so the order is fully constrained
        assert out.witness == Perm.identity(4)


class TestProjection:
    def test_single_cube(self):
        elem = CubesElement(2, [box(("1/2", 0), ("1/2", "1/2"))])
        out = project_to_overlap(elem)
        assert out.dim == 1
        assert out.cubes == (box(("1/2", 0)),)
        assert out.witness == Perm.identity(1)

    def test_disjoint_projections_forget_height(self):
        # first-axis interiors disjoint, second-axis heights differ
        hi = box(("1/2", "-1/2"), ("1/4", "1/2"))
        lo = box(("1/2", "1/2"), ("1/4", "-1/2"))
        elem = CubesElement(2, [hi, lo])
        out = project_to_overlap(elem)
        assert out.constraints == frozenset()
        assert out == OverlapElement(1, (LEFT, RIGHT), frozenset())

    def test_overlapping_projections_keep_height(self):
        # both project onto overlapping intervals; cube 1 sits above cube 2
        hi = box(("1/2", 0), ("1/4", "1/2"))
        lo = box(("1/2", "1/4"), ("1/4", "-1/2"))
        elem = CubesElement(2, [hi, lo])
        out = project_to_overlap(elem)
        assert out.constraints == frozenset({(2, 1)})
        reversed_out = overlap_canonical([c for c in out.cubes], Perm.identity(2))
        assert out != reversed_out

    def test_projection_is_operad_map(self):
        rnd = random.Random(5)
        for _ in range(200):
            outer = rand_disjoint_element(rnd, 2, rnd.randint(1, 3))
            args = [rand_disjoint_element(rnd, 2, rnd.randint(0, 2)) for _ in range(outer.arity)]
            lhs = project_to_overlap(cube_compose(outer, args))
            rhs = overlap_compose(project_to_overlap(outer), [project_to_overlap(a) for a in args])
            assert lhs == rhs

    def test_matches_fraction_formula(self):
        """Bottoms read from the triples agree with the offset - scale of the
        public factors, and the projected cubes with the revalidated ones."""
        rnd = random.Random("projection")
        for trial in range(500):
            dim = rnd.randint(1, 3)
            elem = rand_disjoint_element(rnd, dim, rnd.randint(0, 8))
            bottoms = [c.factors[-1].offset - c.factors[-1].scale for c in elem.cubes]
            want = overlap_canonical(
                [LittleCube(c.factors[:-1]) for c in elem.cubes], Perm.sorting(bottoms), dim=dim - 1
            )
            got = project_to_overlap(elem)
            assert (got, repr(got), overlap_to_json(got)) == (want, repr(want), overlap_to_json(want)), trial

    def test_tie_break_is_stable(self):
        a = box(("1/4", 0), ("1/4", "1/2"))
        b = box(("1/4", "1/2"), ("1/4", "1/2"))
        out = project_to_overlap(CubesElement(2, [a, b]))
        assert out.witness == Perm.identity(2)


class TestEmitters:
    def test_json_contains_constraints(self):
        elem = overlap_canonical([FULL, FULL], Perm.identity(2))
        assert '"constraints": [[1, 2]]' in overlap_to_json(elem)


def test_cycle_in_constraints_rejected():
    with pytest.raises(StructuralError):
        least_linearization(2, {(1, 2), (2, 1)})


# ---------------------------------------------------------------------------
# blockwise structure maps against the pairwise canonicalization they replaced


def _reference_overlap_compose(outer, args):
    beta = block_perm(outer.witness, [a.arity for a in args], [a.witness for a in args])
    return overlap_canonical(graft_cubes(outer, args), beta, dim=outer.dim)


def _reference_permute_overlap(elem, sigma):
    return overlap_canonical(sigma.gather(elem.cubes), sigma.inverse() * elem.witness, dim=elem.dim)


def structure_map_mismatch(compose=overlap_compose, permute=permute_overlap, trials=2000):
    """None, or the first seeded trial where a structure map and its
    reference differ by ==, repr (which shows the witness) or hash."""
    rng = random.Random("blockwise-overlap")
    for trial in range(trials):
        dim = rng.randint(1, 3)
        outer = rand_overlap_element(rng, dim, rng.randint(0, 4))
        args = [rand_overlap_element(rng, dim, rng.randint(0, 3)) for _ in range(outer.arity)]
        sigma = rand_perm(rng, outer.arity)
        for name, got, want in (
            ("overlap_compose", compose(outer, args), _reference_overlap_compose(outer, args)),
            ("permute_overlap", permute(outer, sigma), _reference_permute_overlap(outer, sigma)),
        ):
            if (got, repr(got), hash(got)) != (want, repr(want), hash(want)):
                extra = sorted(got.constraints - want.constraints)
                missing = sorted(want.constraints - got.constraints)
                return f"trial {trial}: {name} has extra pairs {extra}, missing pairs {missing}: {got!r}"
    return None


def test_structure_maps_match_reference():
    assert structure_map_mismatch() is None


def test_structure_map_negative_control():
    """Without the intersection test, cross pairs of cubes that no longer
    meet are kept, and the mismatch names them."""

    def compose_without_keep(outer, args):
        inners = [a.constraints for a in args]
        constraints = block_constraints(outer.constraints, [a.arity for a in args], inners)
        return OverlapElement(outer.dim, graft_cubes(outer, args), constraints)

    failure = structure_map_mismatch(compose=compose_without_keep)
    assert failure is not None
    assert re.match(r"trial \d+: overlap_compose has extra pairs \[\(\d+, \d+\).*, missing pairs \[\]", failure), failure


def test_operad_axioms_randomized():
    from spliceops.harness import check_overlap_instance

    rnd = random.Random("overlap-module")
    for _ in range(100):
        assert check_overlap_instance(rnd) is None

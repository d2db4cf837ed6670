"""Permutation, signed permutation and wreath product tests.

Expected values for block permutations are frozen from an independent
enumeration oracle: list the pairs (a,b) lexicographically, reorder them by
(outer^{-1}(a), inner_a^{-1}(b)), and read the bijection off the two lists.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from spliceops import perm
from spliceops.errors import StructuralError
from spliceops.perm import (
    Perm,
    SignedCycleType,
    SignedPerm,
    WreathElement,
    Z2,
    block_perm,
    mulclose,
    parse_perm,
    parse_signed_perm,
)
from spliceops.words import FREE_WORDS

from oracles import permutation_model


def oracle_block_perm(outer, arities, inners):
    """Brute-force block permutation via pair enumeration and stable reordering."""
    pairs = [(a, b) for a in range(1, outer.degree + 1) for b in range(1, arities[a - 1] + 1)]
    outer_inv = outer.inverse()
    ranked = sorted(pairs, key=lambda ab: (outer_inv(ab[0]), inners[ab[0] - 1].inverse()(ab[1])))
    lex_pos = {ab: i + 1 for i, ab in enumerate(pairs)}
    # beta maps the height rank of a pair to its lexicographic position
    return Perm(lex_pos[ab] for ab in ranked)


def all_perms(n):
    return [Perm(p) for p in itertools.permutations(range(1, n + 1))]


def all_signed_perms(n):
    out = []
    for p in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(SignedPerm(s * x for s, x in zip(signs, p)))
    return out


perms_small = st.integers(1, 4).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(Perm)
)


class TestPerm:
    def test_rejects_non_bijection(self):
        with pytest.raises(StructuralError):
            Perm((1, 1, 3))

    @given(perms_small)
    def test_inverse(self, p):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()

    @given(perms_small, st.randoms(use_true_random=False))
    def test_composition_matches_pointwise(self, p, rnd):
        q = Perm(rnd.sample(range(1, p.degree + 1), p.degree))
        pq = p * q
        for i in range(1, p.degree + 1):
            assert pq(i) == p(q(i))

    def test_sorting_is_stable(self):
        assert Perm.sorting([3, 1, 1, 2]).images == (2, 3, 4, 1)

    def test_cycle_round_trip(self):
        for p in all_perms(4):
            assert parse_perm(p.cycle_string(), degree=4) == p

    def test_cycle_string_example(self):
        assert parse_perm("(1 2 3)(4)").cycle_string() == "(1 2 3)(4)"


def cross_class_mismatch():
    """None, or the first image tuple where a Perm and a SignedPerm with those
    images compare equal (either way round) or print other than by class name."""
    for n in range(4):
        for images in itertools.permutations(range(1, n + 1)):
            p, w = Perm(images), SignedPerm(images)
            if p == w or w == p or not (p != w and w != p):
                return f"{images}: a Perm and a SignedPerm compare equal"
            if (repr(p), repr(w)) != (f"Perm{images!r}", f"SignedPerm{images!r}"):
                return f"{images}: reprs {p!r} and {w!r}"
    return None


def _key(w):
    return w, repr(w), hash(w)


class TestKernel:
    def test_perm_never_equals_signed_perm(self):
        assert cross_class_mismatch() is None

    def test_isinstance_equality_is_caught(self, monkeypatch):
        def loose_eq(self, other):
            return isinstance(other, perm._ImagePerm) and self.images == other.images

        monkeypatch.setattr(perm._ImagePerm, "__eq__", loose_eq)
        failure = cross_class_mismatch()
        assert failure is not None and "compare equal" in failure, failure

    def test_signed_results_match_the_validating_constructor(self):
        for n in range(4):
            group = all_signed_perms(n)
            assert _key(SignedPerm.identity(n)) == _key(SignedPerm(range(1, n + 1)))
            for v in group:
                inv = SignedPerm(
                    j if v(j) == i else -j
                    for i in range(1, n + 1)
                    for j in range(1, n + 1)
                    if abs(v(j)) == i
                )
                assert _key(v.inverse()) == _key(inv)
                for w in group:
                    assert _key(v * w) == _key(SignedPerm(v(w(i)) for i in range(1, n + 1)))

    def test_signed_results_skip_the_validating_constructor(self, monkeypatch):
        v, w = SignedPerm((2, -1, 3)), SignedPerm((-3, 1, 2))

        def refuse(self, images):
            raise AssertionError("SignedPerm.__init__ called")

        monkeypatch.setattr(SignedPerm, "__init__", refuse)
        with pytest.raises(AssertionError, match="__init__ called"):
            SignedPerm((1,))
        assert (v * w).images == (-3, 2, -1)
        assert v.inverse().images == (-2, 1, 3)
        assert SignedPerm.identity(3).images == (1, 2, 3)

    @pytest.mark.parametrize(
        "parse, text, degree, largest",
        [
            (parse_perm, "(1 2)", 0, 2),
            (parse_perm, "(1 2)(3 4)", -5, 4),
            (parse_perm, "(1 2)", 1, 2),
            (parse_perm, "()", -1, 0),
            (parse_signed_perm, "(1 2)+", 0, 2),
            (parse_signed_perm, "(1 -3)-", 2, 3),
            (parse_signed_perm, "()", -2, 0),
        ],
    )
    def test_parsers_reject_a_degree_below_the_largest_entry(self, parse, text, degree, largest):
        message = f"^degree {degree} is below the largest entry {largest}: "
        with pytest.raises(StructuralError, match=message):
            parse(text, degree=degree)

    def test_parsers_pad_up_to_the_given_degree(self):
        assert parse_perm("(1 2)", degree=3) == Perm((2, 1, 3))
        assert parse_perm("()", degree=0) == Perm(())
        assert parse_signed_perm("(1 -3)-", degree=4) == SignedPerm((-3, 2, 1, 4))


class TestBlockPerm:
    def test_identity_case(self):
        outer = Perm.identity(3)
        arities = [2, 1, 3]
        inners = [Perm.identity(j) for j in arities]
        assert block_perm(outer, arities, inners).is_identity()

    def test_transposition_example(self):
        # frozen via oracle_block_perm: k=2, outer=(1 2), arities (1,2)
        outer = Perm.transposition(1, 2, 2)
        inners = [Perm.identity(1), Perm.identity(2)]
        beta = block_perm(outer, (1, 2), inners)
        assert beta.inverse().images == (3, 1, 2)
        assert beta == oracle_block_perm(outer, (1, 2), inners)

    def test_singleton_blocks_reduce_to_outer(self):
        outer = Perm((2, 3, 1))
        inners = [Perm.identity(1)] * 3
        assert block_perm(outer, (1, 1, 1), inners) == outer
        assert block_perm(outer, (1, 1, 1), inners) == oracle_block_perm(outer, (1, 1, 1), inners)

    def test_against_oracle_exhaustive_small(self):
        for k in (1, 2, 3):
            for outer in all_perms(k):
                for arities in itertools.product((0, 1, 2), repeat=k):
                    inner_choices = [all_perms(j) if j else [Perm.identity(0)] for j in arities]
                    for inners in itertools.product(*inner_choices):
                        assert block_perm(outer, arities, inners) == oracle_block_perm(
                            outer, arities, inners
                        )

    def test_functoriality(self):
        # composing two outer-only block permutations equals the block
        # permutation of the composite, with arities read off the first reorder
        rnd = random.Random(7)
        for _ in range(200):
            k = rnd.randint(1, 3)
            arities = [rnd.randint(0, 3) for _ in range(k)]
            s = Perm(rnd.sample(range(1, k + 1), k))
            t = Perm(rnd.sample(range(1, k + 1), k))
            ids = [Perm.identity(j) for j in arities]
            lhs = block_perm(s, arities, ids) * block_perm(
                t, s.gather(arities), [Perm.identity(j) for j in s.gather(arities)]
            )
            rhs = block_perm(s * t, arities, ids)
            assert lhs == rhs

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            block_perm(Perm.identity(2), (1,), [Perm.identity(1)])
        with pytest.raises(StructuralError):
            block_perm(Perm.identity(1), (2,), [Perm.identity(1)])


class TestSignedPerm:
    def test_identity_type(self):
        t = SignedPerm.identity(4).signed_cycle_type()
        assert t == SignedCycleType.of([(1, 1)] * 4)

    def test_five_cycle_with_one_flip(self):
        w = parse_signed_perm("(1 2 3 4 5)-")
        assert w.images == (2, 3, 4, 5, -1)
        assert w.signed_cycle_type() == SignedCycleType.of([(5, -1)])
        assert w.order() == 10

    def test_six_one_cycle_type(self):
        w = parse_signed_perm("(1 2 3 4 5 6)+ (7)+")
        assert w.signed_cycle_type() == SignedCycleType.of([(6, 1), (1, 1)])
        assert w.order() == 6

    def test_round_trip(self):
        rnd = random.Random(3)
        for _ in range(100):
            n = rnd.randint(1, 6)
            w = rnd.choice(all_signed_perms(n)) if n <= 3 else SignedPerm(
                s * x for s, x in zip((rnd.choice((1, -1)) for _ in range(n)),
                                      rnd.sample(range(1, n + 1), n))
            )
            assert parse_signed_perm(w.cycle_string(), degree=n) == w

    def test_order_law(self):
        for w in all_signed_perms(3):
            k, acc = 1, w
            while not acc.is_identity():
                acc = acc * w
                k += 1
            assert k == w.order()

    def test_group_law_matches_semidirect_product(self):
        def signed(perm, target_signs):
            """w(i) = s[p(i)] * p(i) from a permutation and target-indexed signs."""
            return SignedPerm([target_signs[perm(i) - 1] * perm(i) for i in range(1, perm.degree + 1)])

        rnd = random.Random(11)
        for _ in range(200):
            n = rnd.randint(1, 5)
            p = Perm(rnd.sample(range(1, n + 1), n))
            q = Perm(rnd.sample(range(1, n + 1), n))
            s = [rnd.choice((1, -1)) for _ in range(n)]
            t = [rnd.choice((1, -1)) for _ in range(n)]
            v = signed(p, s)
            w = signed(q, t)
            pinv = p.inverse()
            combined = [s[m - 1] * t[pinv(m) - 1] for m in range(1, n + 1)]
            assert v * w == signed(p * q, combined)

    def test_conjugacy_iff_same_type_exhaustive(self):
        for n in (2, 3, 4):
            group = all_signed_perms(n)
            by_type = {}
            for w in group:
                by_type.setdefault(w.signed_cycle_type(), set()).add(w)
            for w in group:
                orbit = {g * w * g.inverse() for g in group}
                assert orbit == by_type[w.signed_cycle_type()]

    def test_signed_cycle_type_parse(self):
        assert SignedCycleType.parse("(5)- (1)+") == SignedCycleType.of([(5, -1), (1, 1)])
        assert str(SignedCycleType.of([(1, 1), (5, -1)])) == "(5)- (1)+"
        # the empty type prints as the degree-0 permutations do, and reads back
        assert str(SignedCycleType(())) == "()" == Perm.identity(0).cycle_string() == SignedPerm(()).cycle_string()
        assert SignedCycleType.parse(" () ") == SignedCycleType.parse("") == SignedCycleType(())

    @pytest.mark.parametrize("pairs", [[], [(1, 1)], [(5, -1), (2, 1), (2, 1)]])
    def test_signed_cycle_type_round_trip(self, pairs):
        t = SignedCycleType.of(pairs)
        assert SignedCycleType.parse(str(t)) == t

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_perm, "(1 2)({})"),
            (parse_signed_perm, "(1 -{})+"),
            (SignedCycleType.parse, "(3)+ ({})-"),
        ],
    )
    def test_entry_past_the_int_string_limit(self, parse, text):
        with pytest.raises(StructuralError, match="^cycle entry too long$"):
            parse(text.format("9" * 5000))


class TestWreath:
    def rand_element(self, rnd, k, group):
        return WreathElement(
            rnd.randrange(group.order),
            Perm(rnd.sample(range(1, k + 1), k)),
            tuple(rnd.randrange(group.order) for _ in range(k)),
            group,
        )

    def test_identity_neutral(self):
        rnd = random.Random(5)
        e = WreathElement.identity(3, Z2)
        for _ in range(50):
            g = self.rand_element(rnd, 3, Z2)
            assert g * e == g
            assert e * g == g

    def test_inverse(self):
        rnd = random.Random(6)
        for _ in range(50):
            g = self.rand_element(rnd, 3, Z2)
            assert g * g.inverse() == WreathElement.identity(3, Z2)

    def test_associative(self):
        rnd = random.Random(8)
        for _ in range(100):
            g, h, f = (self.rand_element(rnd, 2, Z2) for _ in range(3))
            assert (g * h) * f == g * (h * f)

    def test_multiplication_matches_permutation_model(self):
        # the faithful model lives on (k+1)*|G| = 8 points for k=3, G=Z2
        rnd = random.Random(9)
        for _ in range(200):
            g = self.rand_element(rnd, 3, Z2)
            h = self.rand_element(rnd, 3, Z2)
            assert permutation_model(g * h) == permutation_model(g) * permutation_model(h)

    def test_permutation_model_faithful(self):
        seen = {}
        for outer in range(2):
            for p in all_perms(2):
                for inner in itertools.product(range(2), repeat=2):
                    g = WreathElement(outer, p, inner, Z2)
                    key = permutation_model(g)
                    assert key not in seen
                    seen[key] = g

    def test_free_word_entries_have_no_permutation_model(self):
        g = WreathElement.identity(2, FREE_WORDS)
        with pytest.raises(StructuralError):
            permutation_model(g)

    def test_arity_mismatch(self):
        g = WreathElement.identity(2, Z2)
        h = WreathElement.identity(3, Z2)
        with pytest.raises(StructuralError):
            g * h

    def test_mulclose(self):
        flip = WreathElement(1, Perm.identity(2), (0, 0), Z2)
        swap = WreathElement(0, Perm((2, 1)), (0, 0), Z2)
        els = mulclose([flip, swap])
        assert len(els) == 4  # outer flip and slot swap commute


def _reference_mulclose(generators, cap=10000):
    """The closure mulclose replaced: every element times every new one,
    O(|G|^2) products."""
    els = set(generators)
    frontier = list(els)
    while frontier:
        new = []
        for a in list(els):
            for b in frontier:
                c = a * b
                if c not in els:
                    els.add(c)
                    new.append(c)
                if len(els) > cap:
                    raise StructuralError("group closure exceeded cap")
        frontier = new
    return els


def _full_slot_group(n):
    """Generators of the whole signed slot group on n slots with the outer flip:
    2 * 2^n * n! elements."""
    rest = list(range(3, n + 1))
    return [
        WreathElement(1, Perm.identity(n), (0,) * n, Z2),
        WreathElement(0, Perm([2, 1, *rest]), (0,) * n, Z2),
        WreathElement(0, Perm([*range(2, n + 1), 1]), (0,) * n, Z2),
        WreathElement(0, Perm.identity(n), (1,) + (0,) * (n - 1), Z2),
        WreathElement.identity(n, Z2),
    ]


class TestMulclose:
    def test_matches_the_reference_on_the_bundled_links(self):
        from spliceops import tree

        with open(tree._BUNDLED_CATALOGUE, encoding="utf-8") as fh:
            links = json.load(fh)["links"]
        for raw in links:
            name, arity = raw["name"], raw["arity"]
            gens = [tree._symmetry_from_json(name, arity, g) for g in raw["symmetries"]]
            gens.append(WreathElement.identity(arity, Z2))
            assert mulclose(gens) == _reference_mulclose(gens) == tree.load_catalogue().link(name).symmetries

    def test_matches_the_reference_on_four_slots(self):
        gens = _full_slot_group(4)
        els = mulclose(gens)
        assert len(els) == 768
        assert els == _reference_mulclose(gens)

    def test_five_slots_take_at_most_one_product_per_element_and_generator(self, monkeypatch):
        gens = _full_slot_group(5)
        products = 0
        mul = WreathElement.__mul__

        def counted(a, b):
            nonlocal products
            products += 1
            return mul(a, b)

        monkeypatch.setattr(WreathElement, "__mul__", counted)
        els = mulclose(gens)
        assert len(els) == 7680
        assert products <= len(els) * len(gens)

    def test_cap(self):
        with pytest.raises(StructuralError, match="group closure exceeded cap"):
            mulclose(_full_slot_group(4), cap=100)


class TestFiniteGroup:
    def test_z2(self):
        assert Z2.order == 2
        assert Z2.mul(1, 1) == 0
        assert Z2.inv(1) == 1
        assert Z2.identity == 0 and repr(Z2) == "Z2"
        assert all(Z2.mul(a, b) == (a + b) % 2 for a in range(2) for b in range(2))

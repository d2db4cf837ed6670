"""Splice-tree canonical form, complexity and additivity tests."""

import random

import pytest

from spliceops import tree
from spliceops.errors import NotCanonicalError, ReducibilityError, StructuralError
from spliceops.expr import MAX_DEPTH, parse_expr, print_expr
from spliceops.harness import rand_prime_tree, rand_tree
from spliceops.tree import (
    ADDITIVE,
    Cable,
    DEGENERATE_A,
    DEGENERATE_B,
    HypLeaf,
    HypSatellite,
    Keychain,
    TorusLeaf,
    UNKNOT,
    canonicalize,
    canonicalize_random,
    check_additivity,
    complexity,
    connect_sum,
    default_catalogue,
    hopf_gen,
    hyperbolic_gen,
    keychain_gen,
    mirror_tree,
    reverse_tree,
    seifert_gen,
    sort_key,
    splice_graft,
    torus,
    tree_from_json,
    tree_to_dot,
    tree_to_json,
)

CAT = default_catalogue()
TREFOIL = TorusLeaf(2, 3)
CINQ = TorusLeaf(2, 5)
FIG8 = HypLeaf("fig8")


class TestNodeValidation:
    def test_torus_params(self):
        with pytest.raises(StructuralError):
            TorusLeaf(2, 4)
        with pytest.raises(StructuralError):
            TorusLeaf(3, 2)
        assert torus(3, 2) == TorusLeaf(2, 3)
        assert torus(-2, 3) == TorusLeaf(2, 3, -1)
        assert torus(-2, -3) == TorusLeaf(2, 3, 1)

    def test_cable_params(self):
        with pytest.raises(StructuralError):
            Cable(1, 5, False, TREFOIL)  # p divides everything
        with pytest.raises(StructuralError):
            Cable(2, 4, False, TREFOIL)  # not coprime
        with pytest.raises(StructuralError):
            Cable(2, 0, False, TREFOIL)
        assert Cable(-2, 3, False, TREFOIL).p == 2
        assert Cable(-2, 3, False, TREFOIL).q == -3


class TestConnectSum:
    def test_unit(self):
        assert connect_sum([TREFOIL, UNKNOT]) == TREFOIL
        assert connect_sum([UNKNOT, UNKNOT]) == UNKNOT
        assert connect_sum([]) == UNKNOT

    def test_commutative(self):
        assert connect_sum([TREFOIL, FIG8]) == connect_sum([FIG8, TREFOIL])

    def test_associative_flattening(self):
        lhs = connect_sum([connect_sum([TREFOIL, CINQ]), FIG8])
        rhs = connect_sum([TREFOIL, connect_sum([CINQ, FIG8])])
        flat = connect_sum([TREFOIL, CINQ, FIG8])
        assert lhs == rhs == flat
        assert isinstance(flat, Keychain) and len(flat.children) == 3

    def test_free_commutative_monoid(self):
        # equal multisets of primes give equal sums, distinct multisets distinct sums
        rnd = random.Random(0)
        seen = {}
        for _ in range(200):
            primes = [rand_prime_tree(rnd, 1) for _ in range(rnd.randint(1, 4))]
            shuffled = primes[:]
            rnd.shuffle(shuffled)
            # random bracketing
            while len(shuffled) > 1:
                i = rnd.randrange(len(shuffled) - 1)
                shuffled[i : i + 2] = [connect_sum(shuffled[i : i + 2])]
            total = canonicalize(shuffled[0])
            key = tuple(sorted(sort_key(p) for p in primes))
            if key in seen:
                assert seen[key] == total
            seen[key] = total
        forms = list(seen.values())
        assert len(set(map(sort_key, forms))) == len(forms)


class TestCanonicalize:
    def test_idempotent(self):
        rnd = random.Random(1)
        for _ in range(200):
            t = rand_tree(rnd, 2)
            assert canonicalize(t) == t

    def test_flag_dropping(self):
        assert canonicalize(reverse_tree(FIG8)) == FIG8
        assert canonicalize(mirror_tree(FIG8)) == FIG8
        assert canonicalize(mirror_tree(HypLeaf("k5_2"))) == HypLeaf("k5_2", mirror=True)
        assert canonicalize(reverse_tree(HypLeaf("k9_32"))) == HypLeaf("k9_32", reverse=True)

    def test_cable_of_unknot_is_torus(self):
        assert canonicalize(Cable(2, 3, False, UNKNOT)) == TorusLeaf(2, 3)
        assert canonicalize(Cable(2, -3, False, UNKNOT)) == TorusLeaf(2, 3, -1)
        assert canonicalize(Cable(2, 1, False, UNKNOT)) == UNKNOT
        assert canonicalize(Cable(3, -1, False, UNKNOT)) == UNKNOT

    def test_satellite_rejects_unknot(self):
        with pytest.raises(ReducibilityError):
            canonicalize(HypSatellite("whitehead", False, ((1, UNKNOT),)))

    def test_satellite_arity_checked(self):
        with pytest.raises(StructuralError):
            canonicalize(HypSatellite("borromean", False, ((1, TREFOIL),)))

    def test_slot_signs_pushed(self):
        node = HypSatellite("whitehead", False, ((-1, HypLeaf("k5_2")),))
        out = canonicalize(node)
        assert all(s == 1 for s, _ in out.slots)

    def test_borromean_slots_unordered(self):
        a = HypSatellite("borromean", False, ((1, TREFOIL), (1, FIG8)))
        b = HypSatellite("borromean", False, ((1, FIG8), (1, TREFOIL)))
        assert canonicalize(a) == canonicalize(b)

    def test_symmetry_quotient_stable_under_group(self):
        rnd = random.Random(2)
        for _ in range(100):
            name = rnd.choice(sorted(CAT.links))
            entry = CAT.links[name]
            kids = tuple(rand_prime_tree(rnd, 1) for _ in range(entry.arity))
            node = HypSatellite(name, rnd.random() < 0.5, tuple((1, c) for c in kids))
            base = canonicalize(node)
            for g in entry.symmetries:
                moved = HypSatellite(
                    node.name,
                    node.mirror ^ (g.outer == 1),
                    tuple(
                        (1 if g.inner[a - 1] == 0 else -1, kids[g.perm(a) - 1])
                        for a in range(1, entry.arity + 1)
                    ),
                )
                assert canonicalize(moved) == base

    def test_keychain_children_sorted_and_flat(self):
        t = canonicalize(Keychain((FIG8, Keychain((TREFOIL, CINQ)), UNKNOT)))
        assert isinstance(t, Keychain)
        assert [sort_key(c) for c in t.children] == sorted(sort_key(c) for c in t.children)
        assert not any(isinstance(c, (Keychain,)) for c in t.children)

    def test_confluence_random_rule_order(self):
        rnd = random.Random(3)
        for _ in range(100):
            t = rand_tree(rnd, 2)
            messy = Keychain(
                (
                    reverse_tree(t),
                    Keychain((mirror_tree(FIG8), UNKNOT)),
                    HypSatellite("whitehead", True, ((-1, mirror_tree(TREFOIL)),)),
                    Cable(2, 3, False, UNKNOT),
                )
            )
            want = canonicalize(messy)
            for _ in range(3):
                assert canonicalize_random(messy, rnd) == want


def _whitehead_chain(depth):
    return parse_expr("splice(whitehead; " * depth + "T(2,3)" + ")" * depth)


class TestNestedSatellites:
    """Each whitehead level rewrites its slot child twice, once flipped; the
    canonical forms of repeated subtrees are memoized, so the work grows
    linearly with the depth instead of doubling at every level."""

    def test_slot_flips_linear_in_depth(self, monkeypatch):
        calls = []
        real = tree.slot_flip
        monkeypatch.setattr(tree, "slot_flip", lambda t: calls.append(1) or real(t))
        counts = {}
        for depth in (8, 16):
            calls.clear()
            canonicalize(_whitehead_chain(depth))
            counts[depth] = len(calls)
        assert counts[16] <= 2 * 16
        assert counts[16] <= 2 * counts[8] + 1

    def test_deepest_parsable_chain(self):
        c = canonicalize(_whitehead_chain(MAX_DEPTH))
        assert complexity(c) == MAX_DEPTH + 1
        assert canonicalize(parse_expr(print_expr(c))) == c


class TestComplexity:
    def test_anchors(self):
        assert complexity(UNKNOT) == 0
        assert complexity(TREFOIL) == 1
        assert complexity(FIG8) == 1

    def test_requires_canonical(self):
        with pytest.raises(NotCanonicalError):
            complexity(Keychain((TREFOIL,)))

    def test_connect_sum_count(self):
        assert complexity(connect_sum([TREFOIL, TREFOIL])) == 3

    def test_graft_examples(self):
        assert complexity(splice_graft(seifert_gen(2, 3), [CINQ])) == 2
        assert complexity(splice_graft(hyperbolic_gen("whitehead"), [TREFOIL])) == 2
        kc = splice_graft(keychain_gen(2), [TREFOIL, CINQ])
        assert kc == connect_sum([TREFOIL, CINQ])
        assert complexity(kc) == 3


class TestAdditivity:
    def test_keychain_prime_children_additive(self):
        assert check_additivity(keychain_gen(2), [TREFOIL, CINQ]) == ADDITIVE
        out = splice_graft(keychain_gen(2), [TREFOIL, CINQ])
        assert complexity(out) == 1 + complexity(TREFOIL) + complexity(CINQ)

    def test_keychain_merge_degenerate(self):
        child = connect_sum([TREFOIL, CINQ])
        assert check_additivity(keychain_gen(2), [child, FIG8]) == DEGENERATE_B
        out = splice_graft(keychain_gen(2), [child, FIG8])
        assert complexity(out) == 4  # not 5: one keychain level merged

    def test_hopf_is_identity(self):
        assert check_additivity(hopf_gen(), [TREFOIL]) == DEGENERATE_A
        assert splice_graft(hopf_gen(), [TREFOIL]) == TREFOIL

    def test_verdicts_match_complexity(self):
        rnd = random.Random(4)
        gens = []
        for _ in range(300):
            roll = rnd.random()
            if roll < 0.4:
                gen = keychain_gen(rnd.randint(2, 3))
            elif roll < 0.7:
                from spliceops.harness import rand_cable_params

                gen = seifert_gen(*rand_cable_params(rnd))
            elif roll < 0.95:
                gen = hyperbolic_gen(rnd.choice(sorted(CAT.links)))
            else:
                gen = hopf_gen()
            children = [rand_tree(rnd, 1, allow_unknot=False) for _ in range(gen.k)]
            gens.append((gen, children))
        for gen, children in gens:
            verdict = check_additivity(gen, children)
            out = splice_graft(gen, children)
            total = complexity(out)
            parts = sum(complexity(c) for c in children)
            if verdict == ADDITIVE:
                assert total == 1 + parts
            elif verdict == DEGENERATE_A:
                assert total == parts  # identity splice
            else:
                merged = sum(1 for c in children if isinstance(c, Keychain))
                collapse = 1 if sum(
                    len(c.children) if isinstance(c, Keychain) else 1 for c in children
                ) <= 1 else 0
                assert total == 1 + parts - merged - collapse

    def test_unknot_children_under_keychain(self):
        assert check_additivity(keychain_gen(2), [TREFOIL, UNKNOT]) == DEGENERATE_B
        assert splice_graft(keychain_gen(2), [TREFOIL, UNKNOT]) == TREFOIL


class TestUniqueDecomposition:
    def test_random_reexpressions_agree(self):
        # every canonical tree is the graft of its root generator onto its
        # children, with node mirror flags realized by the induced mirror map
        rnd = random.Random(5)
        for _ in range(150):
            t = rand_tree(rnd, 2, allow_unknot=False)
            if isinstance(t, Keychain):
                rebuilt = splice_graft(keychain_gen(len(t.children)), list(t.children))
            elif isinstance(t, Cable):
                child = canonicalize(mirror_tree(t.child)) if t.mirror else t.child
                core = splice_graft(seifert_gen(t.p, t.q), [child])
                rebuilt = canonicalize(mirror_tree(core)) if t.mirror else core
            elif isinstance(t, HypSatellite):
                kids = [c for _, c in t.slots]
                if t.mirror:
                    kids = [canonicalize(mirror_tree(c)) for c in kids]
                core = splice_graft(hyperbolic_gen(t.name), kids)
                rebuilt = canonicalize(mirror_tree(core)) if t.mirror else core
            else:
                rebuilt = canonicalize(t)
            assert rebuilt == t

    def test_distinct_primes_distinct_forms(self):
        forms = {
            sort_key(t)
            for t in (
                TREFOIL,
                TorusLeaf(2, 3, -1),
                CINQ,
                FIG8,
                HypLeaf("k5_2"),
                HypLeaf("k5_2", mirror=True),
                splice_graft(seifert_gen(2, 3), [TREFOIL]),
                splice_graft(hyperbolic_gen("whitehead"), [TREFOIL]),
            )
        }
        assert len(forms) == 8


class TestEmitters:
    def test_json_round_trip(self):
        rnd = random.Random(6)
        for _ in range(100):
            t = rand_tree(rnd, 2)
            assert tree_from_json(tree_to_json(t)) == t

    def test_dot_output(self):
        dot = tree_to_dot(connect_sum([TREFOIL, FIG8]))
        assert dot.startswith("digraph")
        assert "sum" in dot and "fig8" in dot


# ---------------------------------------------------------------------------
# hypothesis properties over raw (not pre-canonicalized) trees

from hypothesis import assume, given, settings, strategies as st

_leaves = st.sampled_from(
    [
        UNKNOT,
        TorusLeaf(2, 3),
        TorusLeaf(2, 3, -1),
        TorusLeaf(3, 5),
        HypLeaf("fig8", True, False),
        HypLeaf("k5_2", True, True),
        HypLeaf("k9_32", False, True),
    ]
)


def _extend(children):
    return st.one_of(
        st.lists(children, min_size=0, max_size=3).map(lambda cs: Keychain(tuple(cs))),
        st.tuples(st.sampled_from([(2, 3), (3, 2), (2, -3), (2, 7)]), st.booleans(), children).map(
            lambda t: Cable(t[0][0], t[0][1], t[1], t[2])
        ),
        st.tuples(st.booleans(), st.sampled_from((1, -1)), children).map(
            lambda t: HypSatellite("whitehead", t[0], ((t[1], t[2]),))
        ),
        children.map(mirror_tree),
        children.map(reverse_tree),
    )


raw_trees = st.recursive(_leaves, _extend, max_leaves=8)


@given(raw_trees)
@settings(max_examples=150)
def test_canonicalize_idempotent_on_raw_trees(t):
    try:
        c = canonicalize(t)
    except ReducibilityError:
        assume(False)
    assert canonicalize(c) == c
    assert complexity(c) >= 0


@given(raw_trees, st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_randomized_rules_agree_on_raw_trees(t, rnd):
    try:
        want = canonicalize(t)
    except ReducibilityError:
        assume(False)
    assert canonicalize_random(t, rnd) == want


@given(raw_trees)
@settings(max_examples=100)
def test_mirror_is_involution_on_canonical_forms(t):
    try:
        c = canonicalize(t)
    except ReducibilityError:
        assume(False)
    assert canonicalize(mirror_tree(canonicalize(mirror_tree(c)))) == c

"""Splice-tree canonical form, complexity and additivity tests."""

import dataclasses
import functools
import itertools
import json
import random
import re
import sys
from importlib import resources

import pytest

from spliceops import expr, tree
from spliceops.errors import NotCanonicalError, ParseError, ReducibilityError, StructuralError
from spliceops.expr import MAX_DEPTH, parse_expr, print_expr
from spliceops.tree import (
    ADDITIVE,
    Unknot,
    Cable,
    Catalogue,
    DEGENERATE_A,
    DEGENERATE_B,
    HypLeaf,
    HypSatellite,
    Keychain,
    KnotEntry,
    TorusLeaf,
    UNKNOT,
    canonicalize,
    check_additivity,
    complexity,
    connect_sum,
    hopf_gen,
    hyperbolic_gen,
    keychain_gen,
    load_catalogue,
    mirror_tree,
    reverse_tree,
    seifert_gen,
    slot_flip,
    sort_key,
    splice_graft,
    torus,
    tree_to_dot,
    tree_to_json,
)

from oracles import (
    canonicalize_random,
    rand_cable_params,
    rand_prime_tree,
    rand_tree,
    reference_parse_expr,
    tree_from_json,
)
from test_expr import compare_canonical_parse, depth2_corpus

CAT = load_catalogue()
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

    # the checking constructors are the only gate: the passes build their
    # nodes unchecked, from the fields of checked nodes
    @pytest.mark.parametrize(
        "make",
        [
            lambda: HypSatellite("borromean", False, ((1.7, TREFOIL), ("-1", TREFOIL))),
            lambda: HypSatellite("whitehead", False, ((True, TREFOIL),)),
            lambda: HypSatellite("whitehead", 1, ((1, TREFOIL),)),
            lambda: Cable(2.5, 3, False, TREFOIL),
            lambda: Cable(2, 3, 0, TREFOIL),
            lambda: TorusLeaf(2.0, 3),
            lambda: TorusLeaf(2, 3, True),
            lambda: HypLeaf("fig8", 1, 0),
        ],
        ids=["float-sign", "bool-sign", "int-mirror", "float-cable", "int-cable-mirror", "float-torus",
             "bool-chirality", "int-leaf-flags"],
    )
    def test_mistyped_fields_are_rejected(self, make):
        with pytest.raises(StructuralError):
            make()


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
    return reference_parse_expr("splice(whitehead; " * depth + "T(2,3)" + ")" * depth)


class TestNestedSatellites:
    """Each whitehead level needs its slot child canonical and flipped; the
    bottom-up pass carries both forms of every subtree, so each node is
    rewritten once and nothing is memoized."""

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
        assert canonicalize(reference_parse_expr(print_expr(c))) == c
        assert parse_expr(print_expr(c)) == c

    def test_one_canon_step_per_node(self, monkeypatch):
        calls = []
        for cls in (HypSatellite, TorusLeaf):
            real = cls.canon
            monkeypatch.setattr(
                cls, "canon", lambda self, pairs, cat, real=real: calls.append(self) or real(self, pairs, cat)
            )
        t = _whitehead_chain(16)
        canonicalize(t)
        assert len(calls) == tree._node_count(t) == 17

    # == on trees this deep recurses too far, so the results are compared
    # through their JSON.
    def test_deep_whitehead_chain(self):
        chain = TREFOIL
        for _ in range(300):
            chain = HypSatellite("whitehead", False, ((1, chain),))
        c = canonicalize(chain)
        assert tree._node_count(c) == 301
        assert tree_to_json(c) == tree_to_json(chain)  # already canonical

    def test_deep_mirrored_twisted_borromean_chain(self):
        chain, want = TREFOIL, HypSatellite("borromean", False, ((1, TREFOIL), (1, FIG8)))
        for level in range(300):
            chain = HypSatellite("borromean", True, ((-1, chain), (1, FIG8)))
            if level:  # fig8 is amphichiral and invertible, and sorts first
                want = HypSatellite("borromean", False, ((1, FIG8), (1, want)))
        c = canonicalize(chain)
        assert tree._node_count(c) == 601
        assert tree_to_json(c) == tree_to_json(want)

    def test_deep_cable_chain(self):
        chain = UNKNOT
        for level in range(800):
            chain = Cable(2, 3, level % 2 == 0, chain)
        assert tree._node_count(canonicalize(chain)) == 800  # the innermost is a torus leaf


class TestErrorOrder:
    """Canonicalization is post-order: a child's fault is raised before its
    parent's arity or unknot-slot fault."""

    def test_child_fault_before_unknot_slot(self):
        bad_child = HypSatellite("whitehead", False, ((1, TREFOIL), (1, TREFOIL)))
        t = HypSatellite("borromean", False, ((1, UNKNOT), (1, bad_child)))
        with pytest.raises(StructuralError, match="^whitehead takes 1 companions, got 2$"):
            canonicalize(t)

    def test_child_fault_before_arity(self):
        t = HypSatellite("borromean", False, ((1, HypLeaf("nosuch")),))
        with pytest.raises(StructuralError, match="^unknown hyperbolic knot 'nosuch'$"):
            canonicalize(t)


# ---------------------------------------------------------------------------
# reference: the recursive canonicalization the bottom-up pass replaced, an
# isinstance ladder that canonicalizes flipped slot children again, with a
# table of satellite forms owned by the outermost satellite


def _reference_canonicalize(t, cat, memo=None):
    if isinstance(t, Unknot):
        return UNKNOT
    if isinstance(t, TorusLeaf):
        return t
    if isinstance(t, HypLeaf):
        entry = cat.knot(t.name)
        return HypLeaf(t.name, t.mirror and not entry.amphichiral, t.reverse and not entry.invertible)
    if isinstance(t, Keychain):
        kids = []
        for c in t.children:
            c = _reference_canonicalize(c, cat, memo)
            if isinstance(c, Unknot):
                continue
            if isinstance(c, Keychain):
                kids.extend(c.children)
            else:
                kids.append(c)
        if not kids:
            return UNKNOT
        if len(kids) == 1:
            return kids[0]
        return Keychain(tuple(sorted(kids, key=sort_key)))
    if isinstance(t, Cable):
        child = _reference_canonicalize(t.child, cat, memo)
        if isinstance(child, Unknot):
            if abs(t.q) < 2:
                return UNKNOT
            leaf = torus(t.p, t.q)
            return mirror_tree(leaf) if t.mirror else leaf
        return Cable(t.p, t.q, t.mirror, child)
    if isinstance(t, HypSatellite):
        if memo is None:  # the outermost satellite owns the table
            return _reference_satellite(t, cat, {})
        try:
            canon = memo.get(t)
        except TypeError:  # an unhashable non-node below t, which the rewrite rejects
            return _reference_satellite(t, cat, memo)
        if canon is None:
            canon = memo[t] = _reference_satellite(t, cat, memo)
        return canon
    tree._node(t)


def _reference_satellite(t, cat, memo):
    entry = cat.link(t.name)
    if len(t.slots) != entry.arity:
        raise StructuralError(f"{t.name} takes {entry.arity} companions, got {len(t.slots)}")
    kids = []
    for sign, c in t.slots:
        c = _reference_canonicalize(slot_flip(c) if sign == -1 else c, cat, memo)
        if isinstance(c, Unknot):
            raise ReducibilityError(f"satellite slot of {t.name} received the unknot")
        kids.append(c)
    candidates = []
    for g in entry.symmetries:
        moved = []
        for a in range(1, g.degree + 1):
            c = kids[g.perm(a) - 1]
            if g.inner[a - 1] == 1:
                c = _reference_canonicalize(slot_flip(c), cat, memo)
            moved.append((1, c))
        candidates.append(HypSatellite(t.name, t.mirror ^ (g.outer == 1), tuple(moved)))
    return min(candidates, key=sort_key)


_RAW_LEAVES = [
    UNKNOT,
    TorusLeaf(2, 3),
    TorusLeaf(2, 3, -1),
    TorusLeaf(3, 5),
    TorusLeaf(2, 7, -1),
]


def _raw_tree(rnd, depth):
    """A random raw tree: mirrored and reversed nodes, twisted slots, nested
    keychains, unknot slots, cables of the unknot and, rarely, unknown names
    and wrong arities."""
    roll = rnd.random()
    if depth == 0 or roll < 0.3:
        if rnd.random() < 0.5:
            return rnd.choice(_RAW_LEAVES)
        name = "nosuch" if rnd.random() < 0.02 else rnd.choice(sorted(CAT.knots))
        return HypLeaf(name, rnd.random() < 0.5, rnd.random() < 0.5)
    if roll < 0.45:
        return Keychain(tuple(_raw_tree(rnd, depth - 1) for _ in range(rnd.randint(0, 3))))
    if roll < 0.6:
        p, q = rnd.choice([(2, 3), (3, 2), (2, -3), (2, 1), (3, -1), (2, 5), (3, -4)])
        child = UNKNOT if rnd.random() < 0.25 else _raw_tree(rnd, depth - 1)
        return Cable(p, q, rnd.random() < 0.5, child)
    if roll < 0.9:
        name = "nolink" if rnd.random() < 0.02 else rnd.choice(sorted(CAT.links))
        arity = CAT.links[name].arity if name in CAT.links else 1
        if rnd.random() < 0.03:
            arity += rnd.choice((-1, 1))
        slots = tuple((rnd.choice((1, -1)), _raw_tree(rnd, depth - 1)) for _ in range(arity))
        return HypSatellite(name, rnd.random() < 0.5, slots)
    wrap = rnd.choice((mirror_tree, reverse_tree, slot_flip))
    return wrap(_raw_tree(rnd, depth - 1))


def _is_unit(t):
    """Whether t canonicalizes to the unknot, read off its structure."""
    if isinstance(t, Keychain):
        return all(map(_is_unit, t.children))
    if isinstance(t, Cable):
        return abs(t.q) < 2 and _is_unit(t.child)
    return isinstance(t, Unknot)


def _faults(t):
    """The number of nodes of t that canonicalization rejects."""
    n = sum(map(_faults, tree._children_of(t)))
    if isinstance(t, HypLeaf):
        return n + (t.name not in CAT.knots)
    if isinstance(t, HypSatellite):
        if t.name not in CAT.links:
            return n + 1
        n += len(t.slots) != CAT.links[t.name].arity
        n += sum(_is_unit(c) for _, c in t.slots)
    return n


def _outcome(canon, t, cat=CAT):
    try:
        return "ok", tree_to_json(canon(t, cat))
    except (StructuralError, ReducibilityError) as exc:
        return type(exc).__name__, str(exc)


def _compare_with_reference(trees, cat=CAT):
    """Compare canonicalize against the reference tree by tree; a mismatch
    fails with the index of the tree.  Returns counts of the outcomes."""
    counts = {"accepted": 0, "rejected": 0, "single_fault": 0}
    for i, t in enumerate(trees):
        want = _outcome(_reference_canonicalize, t, cat)
        got = _outcome(canonicalize, t, cat)
        single = _faults(t) == 1
        if (want[0] == "ok") != (got[0] == "ok") or (want[0] == "ok" or single) and want != got:
            raise AssertionError(f"tree {i}: {t!r}: reference {want}, got {got}")
        counts["accepted" if want[0] == "ok" else "rejected"] += 1
        counts["single_fault"] += want[0] != "ok" and single
    return counts


ORACLE_SEED = 2026


@functools.cache
def _oracle_corpus():
    rnd = random.Random(ORACLE_SEED)
    return tuple(_raw_tree(rnd, rnd.randint(1, 4)) for _ in range(20000))


class TestReferenceOracle:
    def test_matches_recursive_reference(self):
        counts = _compare_with_reference(_oracle_corpus())
        assert counts["accepted"] >= 10000
        assert counts["single_fault"] >= 1000
        assert counts["rejected"] > counts["single_fault"]

    def test_negative_control(self, monkeypatch):
        def broken(self, pairs, cat):  # the twin keeps the mirror flag
            ((child, twin),) = pairs
            form, _ = Cable._checked_canon(self.p, self.q, self.mirror, (child, child))
            flip, _ = Cable._checked_canon(self.p, self.q, self.mirror, (twin, twin))
            return form, flip

        monkeypatch.setattr(Cable, "canon", broken)
        with pytest.raises(AssertionError, match=r"^tree \d+: "):
            _compare_with_reference(_oracle_corpus())


def _variant_catalogue(tmp_path):
    """The bundled catalogue with borromean reduced to its slot swap and
    chain4 to the trivial group: neither holds the total slot flip."""
    data = json.loads(resources.files("spliceops").joinpath("data/catalogue.json").read_text())
    for link in data["links"]:
        if link["name"] == "borromean":
            link["symmetries"] = [{"outer": 0, "perm": [2, 1], "signs": [0, 0]}]
        elif link["name"] == "chain4":
            link["symmetries"] = []
    path = tmp_path / "variant.json"
    path.write_text(json.dumps(data))
    return tree.load_catalogue(str(path))


def _compare_on_oracle(cat):
    try:
        return _compare_with_reference(_oracle_corpus(), cat)
    except AssertionError as exc:
        raise AssertionError(f"seed {ORACLE_SEED}, {exc}") from None


class TestSelfTwinSatellites:
    """A satellite whose link's symmetry group holds the total slot flip is
    its own twin: the flipped body lies in the orbit of the body.  Links
    without the flip take the twin's orbit minimum."""

    def test_bundled_links_hold_the_flip(self):
        assert {name: e.flip_closed for name, e in CAT.links.items()} == dict.fromkeys(CAT.links, True)

    # under the bundled catalogue, TestReferenceOracle makes the comparison
    def test_variant_matches_reference(self, tmp_path):
        variant = _variant_catalogue(tmp_path)
        flags = {name: e.flip_closed for name, e in variant.links.items()}
        assert flags == {"whitehead": True, "borromean": False, "chain4": False}
        assert _compare_on_oracle(variant)["accepted"] >= 10000

    def test_negative_control(self, tmp_path):
        variant = _variant_catalogue(tmp_path)
        for entry in variant.links.values():  # force the shortcut
            object.__setattr__(entry, "flip_closed", True)
        with pytest.raises(AssertionError, match=rf"^seed {ORACLE_SEED}, tree \d+: "):
            _compare_on_oracle(variant)


# every (invertible, amphichiral) combination, one knot each
_FOUR_KINDS = [KnotEntry(f"inv{i:d}_amph{a:d}", i, a) for i, a in itertools.product((False, True), repeat=2)]


class TestLeafTables:
    """The leaf tables hold the keyed (form, twin) pair of each leaf's canon
    step, and the parser and canonicalize both read them."""

    @pytest.mark.parametrize("knots", [CAT.knots.values(), _FOUR_KINDS], ids=["bundled", "four_kinds"])
    def test_hyperbolic_table_is_the_leaf_step(self, knots):
        cat = Catalogue(knots, CAT.links.values())  # its table starts empty
        for name, mirror, reverse in itertools.product(cat.knots, (False, True), (False, True)):
            leaf = HypLeaf(name, mirror, reverse)
            form, twin = _reference_canonicalize(leaf, cat), _reference_canonicalize(slot_flip(leaf), cat)
            pair = cat.leaves[name, mirror, reverse]
            assert pair == ((form, sort_key(form)), (twin, sort_key(twin)))
            entry = cat.knot(name)  # the twin is the form, one object, when the knot is its own flip
            assert (pair[0] is pair[1]) == (entry.invertible and entry.amphichiral)
            assert canonicalize(leaf, cat) is parse_expr(print_expr(leaf), cat) is pair[0][0]
        assert len(cat.leaves) == 4 * len(cat.knots)

    def test_an_unknown_knot_is_not_stored(self):
        cat = Catalogue(_FOUR_KINDS, ())
        for _ in range(2):
            with pytest.raises(StructuralError, match="^unknown hyperbolic knot 'fig8'$"):
                canonicalize(HypLeaf("fig8", True), cat)
        assert len(cat.leaves) == 0

    def test_torus_table_is_the_leaf_step(self):
        for p, q, c in itertools.product(range(-12, 13), range(-12, 13), (1, -1)):
            try:
                leaf = torus(p, q, c)
            except StructuralError as exc:
                for _ in range(2):  # an error is never stored
                    with pytest.raises(StructuralError, match=f"^{re.escape(str(exc))}$"):
                        tree._torus_pair(p, q, c)
                continue
            flip = mirror_tree(leaf)
            pair = tree._torus_pair(p, q, c)
            assert pair == ((leaf, sort_key(leaf)), (flip, sort_key(flip)))
            assert leaf.canon((), CAT) is tree._torus_pair(leaf.p, leaf.q, leaf.chirality)


# ---------------------------------------------------------------------------
# references: the recursive emitters and sort key that the explicit-stack
# passes replaced, one isinstance rung per node kind


def _reference_sort_key(t):
    if isinstance(t, Unknot):
        return (0,)
    if isinstance(t, TorusLeaf):
        return (1, t.p, t.q, t.chirality)
    if isinstance(t, HypLeaf):
        return (2, t.name, t.mirror, t.reverse)
    if isinstance(t, Cable):
        return (3, t.p, t.q, t.mirror, _reference_sort_key(t.child))
    if isinstance(t, HypSatellite):
        return (4, t.name, t.mirror, tuple((s, _reference_sort_key(c)) for s, c in t.slots))
    return (5, len(t.children), tuple(map(_reference_sort_key, t.children)))


def _reference_print(t):
    if isinstance(t, Unknot):
        return "unknot"
    if isinstance(t, TorusLeaf):
        body = f"T({t.p},{t.q})"
        return body if t.chirality == 1 else f"mirror({body})"
    if isinstance(t, HypLeaf):
        body = f"mirror({t.name})" if t.mirror else t.name
        return f"rev({body})" if t.reverse else body
    if isinstance(t, Keychain):
        return "sum(" + ",".join(map(_reference_print, t.children)) + ")"
    if t.mirror:  # a mirrored cable or satellite prints as mirror of its mirror image
        return f"mirror({_reference_print(mirror_tree(t))})"
    if isinstance(t, Cable):
        return f"cable({t.p},{t.q};{_reference_print(t.child)})"
    parts = [_reference_print(c if s == 1 else slot_flip(c)) for s, c in t.slots]
    return f"splice({t.name};" + ",".join(parts) + ")"


def _reference_data(t):
    if isinstance(t, Keychain):
        return {"kind": t.kind, "children": list(map(_reference_data, t.children))}
    if isinstance(t, Cable):
        return {"kind": t.kind, **vars(t), "child": _reference_data(t.child)}
    if isinstance(t, HypSatellite):
        slots = [{"sign": s, "child": _reference_data(c)} for s, c in t.slots]
        return {"kind": t.kind, "name": t.name, "mirror": t.mirror, "slots": slots}
    return {"kind": t.kind, **vars(t)}


def _reference_dot(t):
    lines = ["digraph splice_tree {"]
    counter = [0]

    def walk(node):
        idx = counter[0]
        counter[0] += 1
        lines.append(f'  n{idx} [label="{node.label()}"];')
        for child in tree._children_of(node):
            cidx = walk(child)
            lines.append(f"  n{idx} -> n{cidx};")
        return idx

    walk(t)
    lines.append("}")
    return "\n".join(lines)


_EMITTERS = (
    ("print_expr", print_expr, _reference_print),
    ("tree_to_dot", tree_to_dot, _reference_dot),
    ("tree_data", tree._tree_data, _reference_data),
    ("sort_key", sort_key, _reference_sort_key),
)


def _compare_emitters(trees):
    """Compare each pass with its reference tree by tree; a mismatch fails
    with the index of the first tree that differs and the pass."""
    for i, t in enumerate(trees):
        for name, new, reference in _EMITTERS:
            want, got = reference(t), new(t)
            if want != got:
                raise AssertionError(f"tree {i}: {name}: reference {want!r}, got {got!r}")


class TestReferenceEmitters:
    def test_match_recursive_references(self):
        _compare_emitters(_oracle_corpus())

    def test_negative_control(self, monkeypatch):
        def broken(self, m, r):  # the child keeps the printer's mirror flag
            mirror = self.mirror != m
            body = [f"cable({self.p},{self.q};", (self.child, m, r), ")"]
            return ["mirror(", *body, ")"] if mirror else body

        monkeypatch.setattr(Cable, "expr", broken)
        with pytest.raises(AssertionError, match=r"^tree \d+: print_expr: "):
            _compare_emitters(_oracle_corpus())


def _printed_oracle(trees):
    """The printed trees, each followed by one of its mirror and reverse
    wrappings in turn."""
    texts = []
    for i, t in enumerate(trees):
        text = print_expr(t)
        texts += [text, ("mirror({})", "rev({})", "mirror(rev({}))")[i % 3].format(text)]
    return texts


def _missing_an_action(cat):
    """cat with each link's actions built from its group minus one element
    that is not the identity."""
    links = []
    for entry in cat.links.values():
        entry = dataclasses.replace(entry)
        identity = (False, tuple((i, 0) for i in range(entry.arity)))
        others = [a for a in entry.actions if a != identity]
        object.__setattr__(entry, "actions", (identity, *others[1:]))
        links.append(entry)
    return tree.Catalogue(cat.knots.values(), links)


class TestOnePassCanonicalParseOnOracle:
    """parse_expr's one-pass canonical parse against canonicalize after the
    raw parser, on the printed oracle trees, under the bundled
    catalogue and under the variant, where borromean and chain4 satellites
    take the twin's own orbit minimum."""

    def test_printed_oracle_trees(self, tmp_path):
        texts = _printed_oracle(_oracle_corpus())
        assert compare_canonical_parse(texts, (CAT, _variant_catalogue(tmp_path))) >= len(texts) // 2

    def test_negative_control(self):
        texts = _printed_oracle(_oracle_corpus())
        broken = _missing_an_action(CAT)
        with pytest.raises(AssertionError, match=r"^input \d+: .*: catalogue 0: two passes "):
            compare_canonical_parse(texts, one_pass=lambda text, cat: parse_expr(text, broken))


class TestNoPassReentersAnother:
    """canonicalize, print_expr and parse_expr are one traversal each: none
    calls a module-level pass, so no subtree is walked twice."""

    PASSES = ("sort_key", "mirror_tree", "reverse_tree", "slot_flip")

    def test_call_counts(self, monkeypatch):
        texts = depth2_corpus() + _printed_oracle(_oracle_corpus()[:4000])
        trees = [reference_parse_expr(text) for text in depth2_corpus()]
        trees += _oracle_corpus()[:4000]
        calls = dict.fromkeys(self.PASSES, 0)
        for name in self.PASSES:
            real = getattr(tree, name)

            def counted(t, name=name, real=real):
                calls[name] += 1
                return real(t)

            for module in (tree, expr):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counted)
        tree.slot_flip(FIG8)  # the counters see calls made through the module
        assert calls == {"sort_key": 0, "mirror_tree": 1, "reverse_tree": 1, "slot_flip": 1}
        calls.update(dict.fromkeys(self.PASSES, 0))
        accepted = 0
        for t in trees:
            try:
                canonicalize(t)
                accepted += 1
            except (StructuralError, ReducibilityError):
                pass
        assert accepted >= 2000
        assert calls == dict.fromkeys(self.PASSES, 0)
        for t in trees:
            print_expr(t)
        assert calls == dict.fromkeys(self.PASSES, 0)
        parsed = 0
        for text in texts:
            try:
                parse_expr(text)
                parsed += 1
            except (ParseError, ReducibilityError):
                pass
        assert parsed >= 6000
        assert calls == dict.fromkeys(self.PASSES, 0)

    def test_the_canonical_parse_makes_no_fold(self, monkeypatch):
        folds = []
        real = tree._fold
        monkeypatch.setattr(tree, "_fold", lambda *args: folds.append(args) or real(*args))
        canonicalize(FIG8)
        assert len(folds) == 1  # the counter sees the folds
        accepted = 0
        for text in depth2_corpus() + _printed_oracle(_oracle_corpus()[:2000]):
            try:
                parse_expr(text)
                accepted += 1
            except (ParseError, ReducibilityError):
                pass
        assert accepted >= 2000
        assert len(folds) == 1


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


class TestTreeEquality:
    """complexity, is_canonical and tree._same_tree on two canonical forms
    compare trees on an explicit stack; the dataclass == recurses and fails
    near 200 levels of satellites."""

    @pytest.mark.parametrize("depth", [200, 320])
    def test_deep_whitehead_chains(self, depth):
        def chain(bottom):
            for _ in range(depth):
                bottom = HypSatellite("whitehead", False, ((1, bottom),))
            return bottom

        assert complexity(canonicalize(chain(TREFOIL))) == depth + 1
        assert tree.is_canonical(chain(TREFOIL))
        assert not tree.is_canonical(chain(Keychain((TREFOIL,))))
        same_knot = lambda a, b: tree._same_tree(canonicalize(a), canonicalize(b))  # noqa: E731
        assert same_knot(chain(TREFOIL), chain(Keychain((TREFOIL, UNKNOT))))
        assert not same_knot(chain(TREFOIL), chain(CINQ))

    def test_agrees_with_dataclass_eq(self):
        rnd = random.Random("same-tree")
        trees = [_raw_tree(rnd, 4) for _ in range(2000)]
        equal = 0
        for a, b in zip(trees, trees[1:]):
            for x, y in ((a, b), (a, mirror_tree(mirror_tree(a))), (a, reverse_tree(a))):
                assert tree._same_tree(x, y) == (x == y), (x, y)
                equal += x == y
        assert equal >= 2000


# ---------------------------------------------------------------------------
# chains far deeper than the Python stack


DEEP = 10_000


def _flat(x):
    """The atoms of nested tuples in order, on an explicit stack: == and repr
    of tuples this deep recurse too far."""
    atoms, todo = [], [x]
    while todo:
        x = todo.pop()
        if isinstance(x, tuple):
            todo.extend(reversed(x))
        else:
            atoms.append(x)
    return atoms


def _preorder(t):
    nodes, todo = [], [t]
    while todo:
        t = todo.pop()
        nodes.append(t)
        todo.extend(reversed(tree._children_of(t)))
    return nodes


def _data_kinds(d):
    """The node kinds of a tree's JSON data, in pre-order."""
    kinds, todo = [], [d]
    while todo:
        d = todo.pop()
        kinds.append(d["kind"])
        if "child" in d:
            kids = [d["child"]]
        else:
            kids = d.get("children") or [s["child"] for s in d.get("slots", ())]
        todo.extend(reversed(kids))
    return kinds


def _deep_chain(name):
    """A raw chain DEEP levels deep built in the library, its canonical form
    built directly, and what the passes must give on that form: its sort key
    flattened, its printed text and its complexity."""
    if name == "cables":  # alternating mirror flags over the unknot
        chain, want = UNKNOT, TorusLeaf(2, 3, -1)  # the bottom cable is a mirrored trefoil
        for level in range(DEEP):
            chain = Cable(2, 3, level % 2 == 0, chain)
            if level:
                want = Cable(2, 3, level % 2 == 0, want)
        keys = [(3, 2, 3, level % 2 == 0) for level in reversed(range(1, DEEP))] + [(1, 2, 3, -1)]
        # the top cable is plain, and every cable below it is mirrored relative
        # to the flag handed down to it, so the printer alternates the flag
        text = ["cable(2,3;"] + ["mirror(cable(2,3;"] * (DEEP - 2) + ["mirror(T(2,3))"]
        text += ["))"] * (DEEP - 2) + [")"]
        size = DEEP
    elif name == "whitehead":  # twisted slots and mirror flags
        chain, want = TREFOIL, TorusLeaf(2, 3, -1)  # the bottom level picks the mirrored trefoil
        for level in range(DEEP):
            chain = HypSatellite("whitehead", level % 3 == 0, ((-1 if level % 2 else 1, chain),))
            want = HypSatellite("whitehead", False, ((1, want),))
        keys = [(4, "whitehead", False, 1)] * DEEP + [(1, 2, 3, -1)]
        text = ["splice(whitehead;"] * DEEP + ["mirror(T(2,3))"] + [")"] * DEEP
        size = DEEP + 1
    else:  # keychain and cable levels in alternation, with units and nesting
        chain, want = TREFOIL, TREFOIL
        for level in range(DEEP):
            if level % 2:
                chain = Keychain((UNKNOT, chain, Keychain((FIG8, CINQ))))
                want = Keychain((CINQ, FIG8, want))
            else:
                chain = Cable(2, 3, False, chain)
                want = Cable(2, 3, False, want)
        keys = [(5, 3, 1, 2, 5, 1, 2, "fig8", False, False), (3, 2, 3, False)] * (DEEP // 2)
        keys.append((1, 2, 3, 1))
        text = ["sum(T(2,5),fig8,cable(2,3;"] * (DEEP // 2) + ["T(2,3)"] + ["))"] * (DEEP // 2)
        size = 2 * DEEP + 1
    return chain, want, [atom for atoms in keys for atom in atoms], "".join(text), size


@pytest.mark.parametrize("name", ["cables", "whitehead", "keychains"])
def test_every_pass_on_deep_chains(name):
    """Every tree pass takes a chain 10^4 levels deep on the main thread under
    the default recursion limit: they fold or emit on explicit stacks."""
    assert sys.getrecursionlimit() <= 1000
    chain, want, key, text, size = _deep_chain(name)
    c = canonicalize(chain)
    assert tree._same_tree(c, want)
    assert complexity(c) == size
    assert _flat(sort_key(c)) == key
    assert print_expr(c) == text
    nodes = _preorder(c)
    assert _data_kinds(tree._tree_data(c)) == [n.kind for n in nodes]
    dot = tree_to_dot(c).split("\n")
    labels = [line for line in dot if "[label=" in line]
    assert labels == [f'  n{i} [label="{n.label()}"];' for i, n in enumerate(nodes)]
    last = len(nodes) - len(_preorder(nodes[0].kids[-1]))  # the root's last child
    assert dot[-2] == f"  n0 -> n{last};"  # its edge follows that child's subtree
    assert len(dot) == 2 * len(nodes) + 1
    flipped = slot_flip(c)  # mirror_tree, then reverse_tree
    assert not tree._same_tree(flipped, c)
    assert tree._same_tree(slot_flip(flipped), c)


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
        # the Hopf link is the keychain with one slot
        assert hopf_gen() == Keychain((UNKNOT,))
        for child in (TREFOIL, FIG8, connect_sum([TREFOIL, CINQ]), UNKNOT):
            assert splice_graft(hopf_gen(), [child]) == child
            assert check_additivity(hopf_gen(), [child]) == DEGENERATE_A

    def test_generators_are_nodes_over_placeholder_slots(self):
        assert keychain_gen(3) == Keychain((UNKNOT,) * 3)
        assert seifert_gen(-2, 3) == Cable(2, -3, False, UNKNOT)
        assert hyperbolic_gen("borromean") == HypSatellite("borromean", False, ((1, UNKNOT), (1, UNKNOT)))

    @pytest.mark.parametrize(
        "make",
        [lambda: keychain_gen(2), lambda: seifert_gen(2, 3), lambda: hyperbolic_gen("borromean"), hopf_gen],
        ids=["keychain", "seifert", "hyperbolic", "hopf"],
    )
    def test_child_count_is_checked(self, make):
        gen = make()
        slots = len(gen.kids)
        for children in ([TREFOIL] * (slots - 1), [TREFOIL] * (slots + 1)):
            with pytest.raises(StructuralError, match=f"generator takes {slots} children, got {len(children)}"):
                check_additivity(gen, children)
            with pytest.raises(StructuralError, match=f"generator takes {slots} children, got {len(children)}"):
                splice_graft(gen, children)

    @pytest.mark.parametrize("p, q", [(2, 1), (2, -1), (3, 1), (3, -1)])
    def test_unit_parameter_cable_of_the_unknot_is_degenerate(self, p, q):
        # a (p, +-1)-curve on the unknotted torus is unknotted
        assert check_additivity(seifert_gen(p, q), [UNKNOT]) == DEGENERATE_A
        assert splice_graft(seifert_gen(p, q), [UNKNOT]) == UNKNOT

    def test_other_cable_of_the_unknot_is_additive(self):
        assert check_additivity(seifert_gen(2, 3), [UNKNOT]) == ADDITIVE

    def test_verdicts_match_complexity(self):
        rnd = random.Random(4)
        gens = []
        for _ in range(300):
            roll = rnd.random()
            if roll < 0.4:
                gen = keychain_gen(rnd.randint(2, 3))
            elif roll < 0.7:
                gen = seifert_gen(*rand_cable_params(rnd))
            elif roll < 0.95:
                gen = hyperbolic_gen(rnd.choice(sorted(CAT.links)))
            else:
                gen = hopf_gen()
            children = [rand_tree(rnd, 1, allow_unknot=False) for _ in range(len(gen.kids))]
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
        # raw trees also hold twisted slots, mirrored cables and satellites
        # and reversed leaves, so every node kind's data step is read back
        # with each of its flags set
        seen = set()
        for _ in range(300):
            t = _raw_tree(rnd, 3)
            assert tree_from_json(tree_to_json(t)) == t
            for node in _preorder(t):
                if isinstance(node, HypSatellite) and any(s == -1 for s, _ in node.slots):
                    seen.add("twisted slot")
                if isinstance(node, (Cable, HypSatellite)) and node.mirror:
                    seen.add(f"mirrored {node.kind}")
                if isinstance(node, HypLeaf) and node.reverse:
                    seen.add("reversed leaf")
        assert seen == {"twisted slot", "mirrored cable", "mirrored satellite", "reversed leaf"}

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


@given(raw_trees)
@settings(max_examples=150)
def test_canonicalize_commutes_with_slot_flip(t):
    try:
        c = canonicalize(t)
    except ReducibilityError:
        assume(False)
    assert canonicalize(slot_flip(t)) == canonicalize(slot_flip(c))

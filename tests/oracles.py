"""Test oracles: for splice trees, a canonicalization that applies local
rewrites in random order, the reader of the JSON form ``tree_to_json``
writes and a parser that builds the raw tree an expression spells; for
wreath products, the faithful permutation model.  The library has no use for
any of them; the tests compare them with ``canonicalize``, with the emitter,
with ``parse_expr`` and with ``WreathElement`` products.

Beside them live the seeded generators that only tests draw from: random
canonical splice trees, and the little intervals and overlap elements of the
pinned draw plan in ``tests/test_harness.py``."""

import json
import math
import random

from spliceops.cubes import LittleCube, LittleInterval
from spliceops.errors import ParseError, ReducibilityError, StructuralError
from spliceops.expr import MAX_DEPTH
from spliceops.harness import _interval_axis, rand_perm
from spliceops.overlap import OverlapElement, overlap_canonical
from spliceops.perm import Perm
from spliceops.tree import (
    UNKNOT,
    Cable,
    HypLeaf,
    HypSatellite,
    Keychain,
    TorusLeaf,
    Unknot,
    _children_of,
    canonicalize,
    is_canonical,
    load_catalogue,
    mirror_tree,
    reverse_tree,
    sort_key,
    torus,
)

# ---------------------------------------------------------------------------
# randomized-rule-order canonicalization (confluence checking)


def _replace_child(t, idx, new):
    kids = _children_of(t)
    kids[idx] = new
    return t.rebuild(kids)


def _subtree(t, path):
    for idx in path:
        t = _children_of(t)[idx]
    return t


def _replace(t, path, new):
    if not path:
        return new
    child = _replace(_children_of(t)[path[0]], path[1:], new)
    return _replace_child(t, path[0], child)


def _local_redex(t, cat):
    """One applicable local rewrite at the root of t, or None."""
    if isinstance(t, HypLeaf):
        fixed = canonicalize(t, cat)
        if fixed != t:
            return lambda: fixed
        return None
    if isinstance(t, Keychain):
        for i, c in enumerate(t.children):
            if isinstance(c, Keychain):
                kids = t.children[:i] + c.children + t.children[i + 1 :]
                return lambda kids=kids: Keychain(kids)
            if isinstance(c, Unknot):
                kids = t.children[:i] + t.children[i + 1 :]
                return lambda kids=kids: Keychain(kids)
        if len(t.children) == 0:
            return lambda: UNKNOT
        if len(t.children) == 1:
            return lambda: t.children[0]
        ordered = tuple(sorted(t.children, key=sort_key))
        if ordered != t.children:
            return lambda: Keychain(ordered)
        return None
    if isinstance(t, Cable) and isinstance(t.child, Unknot):
        return lambda: canonicalize(t, cat)
    if isinstance(t, HypSatellite):
        if any(isinstance(c, Unknot) for _, c in t.slots):
            raise ReducibilityError(f"satellite slot of {t.name} received the unknot")
        if all(is_canonical(c, cat) for _, c in t.slots):
            fixed = canonicalize(t, cat)
            if fixed != t:
                return lambda: fixed
        return None
    return None


def canonicalize_random(t, rng, cat=None, max_steps: int = 20000):
    """Apply local rewrites in random order until none applies.

    Confluence means this always lands on canonicalize(t).
    """
    cat = cat or load_catalogue()
    for _ in range(max_steps):
        redexes = []
        stack = [()]
        while stack:
            path = stack.pop()
            node = _subtree(t, path)
            rewrite = _local_redex(node, cat)
            if rewrite is not None:
                redexes.append((path, rewrite))
            for i in range(len(_children_of(node))):
                stack.append(path + (i,))
        if not redexes:
            return t
        path, rewrite = redexes[rng.randrange(len(redexes))]
        t = _replace(t, path, rewrite())
    raise RuntimeError("randomized canonicalization did not terminate")


# ---------------------------------------------------------------------------
# the JSON reader


def tree_from_json(text: str):
    return _decode(json.loads(text))


def _decode(d):
    """The tree of one node's JSON data, dispatched on its kind."""
    kind = d["kind"]
    if kind == "unknot":
        return UNKNOT
    if kind == "torus":
        return TorusLeaf(d["p"], d["q"], d["chirality"])
    if kind == "hyp_knot":
        return HypLeaf(d["name"], d["mirror"], d["reverse"])
    if kind == "sum":
        return Keychain(tuple(map(_decode, d["children"])))
    if kind == "cable":
        return Cable(d["p"], d["q"], d["mirror"], _decode(d["child"]))
    if kind == "satellite":
        slots = tuple((s["sign"], _decode(s["child"])) for s in d["slots"])
        return HypSatellite(d["name"], d["mirror"], slots)
    raise StructuralError(f"unknown tree kind {kind!r}")


# ---------------------------------------------------------------------------
# the raw parser: a recursive-descent reader of the grammar that builds the
# tree the text spells, with no canon step.  It reads one character at a time
# and rebuilds the subtree under each mirror( and rev( with mirror_tree and
# reverse_tree


class _ReferenceScanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message, pos=None):
        pos = self.pos if pos is None else pos
        line = self.text.count("\n", 0, pos) + 1
        return ParseError(message, line, pos - self.text.rfind("\n", 0, pos))

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            got = self.text[self.pos] if self.pos < len(self.text) else "end of input"
            raise self.error(f"expected {ch!r}, got {got!r}")
        self.pos += 1

    def name(self):
        self.skip_ws()
        start = self.pos
        if self.pos >= len(self.text) or not (self.text[self.pos].isalpha() or self.text[self.pos] == "_"):
            raise self.error("expected a name")
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "_"):
            self.pos += 1
        return self.text[start : self.pos]

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if self.pos >= len(self.text) or not self.text[self.pos].isdecimal():
            raise self.error("expected an integer")
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        try:
            return int(self.text[start : self.pos])
        except ValueError:
            raise self.error("integer too long", start) from None

    def at_end(self):
        self.skip_ws()
        return self.pos >= len(self.text)


def reference_parse_expr(text, cat=None):
    """The raw splice tree the text spells: no canon step runs."""
    cat = cat or load_catalogue()
    sc = _ReferenceScanner(text)
    tree = _reference_knot(sc, cat, 0)
    if not sc.at_end():
        raise sc.error(f"unexpected trailing input {sc.text[sc.pos:]!r}")
    return tree


def _reference_knot(sc, cat, depth):
    sc.skip_ws()
    start = sc.pos
    if depth > MAX_DEPTH:
        raise sc.error(f"knots nested deeper than {MAX_DEPTH} levels")
    word = sc.name()
    if word == "unknot":
        return UNKNOT
    if word == "T":
        sc.expect("(")
        p = sc.integer()
        sc.expect(",")
        q = sc.integer()
        sc.expect(")")
        if abs(p) < 2 or abs(q) < 2:
            raise sc.error(f"torus knot needs |p|, |q| >= 2: T({p},{q})", start)
        try:
            return torus(p, q)
        except StructuralError as exc:
            raise sc.error(str(exc), start)
    if word == "sum":
        sc.expect("(")
        return Keychain(_reference_knots(sc, cat, depth + 1))
    if word == "cable":
        sc.expect("(")
        p = sc.integer()
        sc.expect(",")
        q = sc.integer()
        sc.expect(";")
        child = _reference_knot(sc, cat, depth + 1)
        sc.expect(")")
        try:
            return Cable(p, q, False, child)
        except StructuralError as exc:
            raise sc.error(str(exc), start)
    if word == "splice":
        sc.expect("(")
        name_pos = sc.pos
        name = sc.name()
        if name not in cat.links:
            raise sc.error(f"unknown hyperbolic link {name!r}", name_pos)
        entry = cat.links[name]
        sc.expect(";")
        children = _reference_knots(sc, cat, depth + 1)
        if len(children) != entry.arity:
            raise sc.error(f"{name} takes {entry.arity} companions, got {len(children)}", start)
        return HypSatellite(name, False, tuple((1, c) for c in children))
    if word in ("mirror", "rev"):
        sc.expect("(")
        child = _reference_knot(sc, cat, depth + 1)
        sc.expect(")")
        return mirror_tree(child) if word == "mirror" else reverse_tree(child)
    if word in cat.knots:
        return HypLeaf(word)
    raise sc.error(f"unknown generator {word!r}", start)


def _reference_knots(sc, cat, depth):
    knots = [_reference_knot(sc, cat, depth)]
    while sc.peek() == ",":
        sc.expect(",")
        knots.append(_reference_knot(sc, cat, depth))
    sc.expect(")")
    return tuple(knots)


# ---------------------------------------------------------------------------
# the permutation model of a wreath product element


def permutation_model(g) -> Perm:
    """Faithful permutation picture of the ``WreathElement`` g on
    (k+1)*|group| points: pairs (slot, v) with slot 0 carrying the outer
    element.  Slot b, element v sits at point b*|G| + v + 1; g sends (b, v)
    to (perm(b), v * g_b^-1).  The group needs a finite ``order``, which
    only ``Z2`` has.
    """
    group = g.group
    n = getattr(group, "order", None)
    if n is None:
        raise StructuralError(f"{group!r} has no finite order, so no permutation model")
    k = g.degree
    slot_elem = (g.outer,) + g.inner
    images = [0] * ((k + 1) * n)
    for b in range(k + 1):
        tb = g.perm(b) if b > 0 else 0
        gb_inv = group.inv(slot_elem[b])
        for v in range(n):
            images[b * n + v] = tb * n + group.mul(v, gb_inv) + 1
    return Perm(images)


# ---------------------------------------------------------------------------
# random splice trees


def rand_torus_leaf(rng: random.Random) -> TorusLeaf:
    while True:
        p = rng.randint(2, 4)
        q = rng.randint(2, 7)
        if p < q and math.gcd(p, q) == 1:
            return TorusLeaf(p, q, rng.choice((1, -1)))


def rand_cable_params(rng: random.Random) -> tuple[int, int]:
    while True:
        p = rng.randint(2, 3)
        q = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
        if math.gcd(p, abs(q)) == 1 and abs(q) % p != 0:
            return p, q


def rand_prime_tree(rng: random.Random, depth: int = 2, cat=None):
    """A random canonical tree that is prime for connected sum (not a keychain)."""
    cat = cat or load_catalogue()
    kinds = ["torus", "hyp"]
    if depth > 0:
        kinds += ["cable", "satellite"]
    kind = rng.choice(kinds)
    if kind == "torus":
        return rand_torus_leaf(rng)
    if kind == "hyp":
        name = rng.choice(sorted(cat.knots))
        leaf = HypLeaf(name, rng.random() < 0.3, rng.random() < 0.3)
        return canonicalize(leaf, cat)
    if kind == "cable":
        p, q = rand_cable_params(rng)
        return canonicalize(
            Cable(p, q, rng.random() < 0.2, rand_tree(rng, depth - 1, cat, allow_unknot=False)),
            cat,
        )
    name = rng.choice(sorted(cat.links))
    arity = cat.links[name].arity
    node = HypSatellite(
        name,
        rng.random() < 0.2,
        tuple((rng.choice((1, -1)), rand_tree(rng, depth - 1, cat, allow_unknot=False)) for _ in range(arity)),
    )
    return canonicalize(node, cat)


def rand_tree(rng: random.Random, depth: int = 2, cat=None, allow_unknot: bool = True):
    """A random canonical tree (possibly a keychain or the unknot)."""
    cat = cat or load_catalogue()
    roll = rng.random()
    if allow_unknot and roll < 0.1:
        return UNKNOT
    if depth > 0 and roll < 0.35:
        k = rng.randint(2, 3)
        kids = tuple(rand_prime_tree(rng, depth - 1, cat) for _ in range(k))
        return canonicalize(Keychain(kids), cat)
    return rand_prime_tree(rng, depth, cat)


# ---------------------------------------------------------------------------
# pinned-draw generators: keys of the draw plan in tests/test_harness.py


def rand_little_interval(rng: random.Random) -> LittleInterval:
    return LittleInterval.from_axis(*_interval_axis(rng))


def _anchored_axis(rng: random.Random) -> tuple[int, int, int]:
    """Scale 1/b, offset 1 - 1/b: right endpoint pinned at 1."""
    b = rng.choice((2, 3, 4))
    return 1, b - 1, b


def anchored_interval(rng: random.Random) -> LittleInterval:
    """Right endpoint pinned at 1, so any two such intervals overlap."""
    return LittleInterval.from_axis(*_anchored_axis(rng))


def anchored_overlap_element(rng: random.Random, dim: int, arity: int) -> OverlapElement:
    cubes = [LittleCube.from_axes([_anchored_axis(rng) for _ in range(dim)]) for _ in range(arity)]
    return overlap_canonical(cubes, rand_perm(rng, arity), dim=dim)

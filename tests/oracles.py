"""Test oracles: for splice trees, a canonicalization that applies local
rewrites in random order and the reader of the JSON form ``tree_to_json``
writes; for wreath products, the faithful permutation model.  The library
has no use for any of them; the tests compare them with ``canonicalize``,
with the emitter and with ``WreathElement`` products."""

import json

from spliceops.errors import ReducibilityError, StructuralError
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
    sort_key,
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

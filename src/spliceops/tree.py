"""Splice trees for long knots and their canonical forms.

A splice tree builds a knot from a catalogue of generators: torus and
hyperbolic knot leaves, keychain nodes (connected sum), cable nodes (one
companion slot) and hyperbolic satellite nodes (several slots).  Canonical
forms realize the unique-decomposition picture: keychains flatten and sort,
unit children vanish, cables of the unknot become torus leaves, leaf flags
drop according to invertibility/amphichirality data, and satellite slots are
quotiented by the catalogue's slot-symmetry group.

The complexity of a canonical tree counts its nodes (the unknot counts zero),
and grafting a generator onto children is additive in complexity except in
the two degenerate situations the checker reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Sequence

from .errors import NotCanonicalError, ReducibilityError, StructuralError
from .perm import Perm, WreathElement, Z2, mulclose

# ---------------------------------------------------------------------------
# tree nodes


@dataclass(frozen=True)
class Unknot:
    pass


@dataclass(frozen=True)
class TorusLeaf:
    p: int
    q: int
    chirality: int = 1

    def __post_init__(self):
        if not (2 <= self.p < self.q) or math.gcd(self.p, self.q) != 1:
            raise StructuralError(f"torus parameters must be 2 <= p < q coprime: {(self.p, self.q)}")
        if self.chirality not in (1, -1):
            raise StructuralError("chirality must be +1 or -1")


@dataclass(frozen=True)
class HypLeaf:
    name: str
    mirror: bool = False
    reverse: bool = False


@dataclass(frozen=True)
class Keychain:
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


@dataclass(frozen=True)
class Cable:
    p: int
    q: int
    mirror: bool
    child: object

    def __post_init__(self):
        p, q = _cable_params(self.p, self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class HypSatellite:
    name: str
    mirror: bool
    slots: tuple  # pairs (sign, child) with sign in {+1, -1}

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple((int(s), c) for s, c in self.slots))
        if any(s not in (1, -1) for s, _ in self.slots):
            raise StructuralError("slot signs must be +1 or -1")


UNKNOT = Unknot()


def _cable_params(p: int, q: int) -> tuple[int, int]:
    """Normalize and validate cable parameters: negating both fixes the same
    curve, the winding must be at least 2, and p may not divide q."""
    if p < 0:
        p, q = -p, -q
    if p < 2:
        raise StructuralError(f"cable winding must satisfy |p| >= 2: {(p, q)}")
    if math.gcd(p, abs(q)) != 1 or abs(q) % p == 0:
        raise StructuralError(f"cable parameters need gcd(p,q) = 1 and p not dividing q: {(p, q)}")
    return p, q


def torus(p: int, q: int, chirality: int = 1) -> TorusLeaf:
    """Normalize arbitrary integer parameters into the canonical leaf form."""
    if p * q < 0:
        chirality = -chirality
    p, q = sorted((abs(p), abs(q)))
    return TorusLeaf(p, q, chirality)


# ---------------------------------------------------------------------------
# catalogue


@dataclass(frozen=True)
class KnotEntry:
    name: str
    invertible: bool
    amphichiral: bool
    notes: str = ""


@dataclass(frozen=True)
class LinkEntry:
    name: str
    arity: int
    symmetries: frozenset  # closed subgroup of wreath elements over Z2
    notes: str = ""


_RESERVED = {"unknot", "sum", "cable", "splice", "mirror", "rev", "T", "hopf"}


class Catalogue:
    """Named hyperbolic knots and links with their symmetry data."""

    def __init__(self, knots: Iterable[KnotEntry], links: Iterable[LinkEntry]):
        self.knots = {e.name: e for e in knots}
        self.links = {e.name: e for e in links}
        for name in list(self.knots) + list(self.links):
            if name in _RESERVED or not name.isidentifier():
                raise StructuralError(f"bad catalogue name {name!r}")
        overlap = set(self.knots) & set(self.links)
        if overlap:
            raise StructuralError(f"names used for both knots and links: {sorted(overlap)}")

    def knot(self, name: str) -> KnotEntry:
        if name not in self.knots:
            raise StructuralError(f"unknown hyperbolic knot {name!r}")
        return self.knots[name]

    def link(self, name: str) -> LinkEntry:
        if name not in self.links:
            raise StructuralError(f"unknown hyperbolic link {name!r}")
        return self.links[name]


def _symmetry_from_json(arity: int, raw: dict) -> WreathElement:
    outer = int(raw.get("outer", 0))
    perm = Perm(raw.get("perm", range(1, arity + 1)))
    signs = tuple(int(s) for s in raw.get("signs", [0] * arity))
    if perm.degree != arity or len(signs) != arity:
        raise StructuralError(f"symmetry data does not match arity {arity}: {raw}")
    if outer not in (0, 1) or any(s not in (0, 1) for s in signs):
        raise StructuralError(f"symmetry signs live in Z2 as 0/1: {raw}")
    return WreathElement(outer, perm, signs, Z2)


def load_catalogue(path: str | None = None) -> Catalogue:
    """Load the generator catalogue from JSON (the bundled file by default).

    A file that cannot be read, is not JSON or lacks a field raises
    StructuralError.
    """
    try:
        if path is None:
            text = resources.files("spliceops").joinpath("data/catalogue.json").read_text()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        data = json.loads(text)
        knots = [
            KnotEntry(k["name"], bool(k["invertible"]), bool(k["amphichiral"]), k.get("notes", ""))
            for k in data.get("knots", [])
        ]
        links = []
        for entry in data.get("links", []):
            arity = int(entry["arity"])
            if arity < 1:
                raise StructuralError(f"link arity must be >= 1: {entry}")
            gens = [_symmetry_from_json(arity, raw) for raw in entry.get("symmetries", [])]
            group = mulclose(gens + [WreathElement.identity(arity, Z2)])
            links.append(LinkEntry(entry["name"], arity, frozenset(group), entry.get("notes", "")))
        return Catalogue(knots, links)
    except OSError as exc:
        raise StructuralError(f"cannot read catalogue {path}: {exc.strerror}") from exc
    except KeyError as exc:
        raise StructuralError(f"bad catalogue {path}: an entry lacks the field {exc}") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise StructuralError(f"bad catalogue {path}: {exc}") from exc


_DEFAULT_CATALOGUE: Catalogue | None = None


def default_catalogue() -> Catalogue:
    global _DEFAULT_CATALOGUE
    if _DEFAULT_CATALOGUE is None:
        _DEFAULT_CATALOGUE = load_catalogue()
    return _DEFAULT_CATALOGUE


# ---------------------------------------------------------------------------
# involutions


def mirror_tree(t):
    """Formal mirror: flips torus chirality, toggles node mirror flags, recurses."""
    if isinstance(t, Unknot):
        return t
    if isinstance(t, TorusLeaf):
        return TorusLeaf(t.p, t.q, -t.chirality)
    if isinstance(t, HypLeaf):
        return HypLeaf(t.name, not t.mirror, t.reverse)
    if isinstance(t, Keychain):
        return Keychain(tuple(mirror_tree(c) for c in t.children))
    if isinstance(t, Cable):
        return Cable(t.p, t.q, not t.mirror, mirror_tree(t.child))
    if isinstance(t, HypSatellite):
        return HypSatellite(t.name, not t.mirror, tuple((s, mirror_tree(c)) for s, c in t.slots))
    raise StructuralError(f"not a tree node: {t!r}")


def reverse_tree(t):
    """Formal string-orientation reversal; torus leaves are invertible."""
    if isinstance(t, (Unknot, TorusLeaf)):
        return t
    if isinstance(t, HypLeaf):
        return HypLeaf(t.name, t.mirror, not t.reverse)
    if isinstance(t, Keychain):
        return Keychain(tuple(reverse_tree(c) for c in t.children))
    if isinstance(t, Cable):
        return Cable(t.p, t.q, t.mirror, reverse_tree(t.child))
    if isinstance(t, HypSatellite):
        return HypSatellite(t.name, t.mirror, tuple((s, reverse_tree(c)) for s, c in t.slots))
    raise StructuralError(f"not a tree node: {t!r}")


def slot_flip(t):
    """The slot twist: both factor orientations reversed, i.e. reverse + mirror."""
    return reverse_tree(mirror_tree(t))


# ---------------------------------------------------------------------------
# order and canonical form


def sort_key(t):
    """Structural total order on trees (lexicographic in kind, parameters, children)."""
    if isinstance(t, Unknot):
        return (0,)
    if isinstance(t, TorusLeaf):
        return (1, t.p, t.q, t.chirality)
    if isinstance(t, HypLeaf):
        return (2, t.name, t.mirror, t.reverse)
    if isinstance(t, Cable):
        return (3, t.p, t.q, t.mirror, sort_key(t.child))
    if isinstance(t, HypSatellite):
        return (4, t.name, t.mirror, tuple((s, sort_key(c)) for s, c in t.slots))
    if isinstance(t, Keychain):
        return (5, len(t.children), tuple(sort_key(c) for c in t.children))
    raise StructuralError(f"not a tree node: {t!r}")


def _apply_symmetry(g: WreathElement, mirror: bool, children: Sequence, cat: Catalogue):
    """One slot-symmetry rewrite of a satellite body (children already canonical)."""
    new_mirror = mirror ^ (g.outer == 1)
    new_children = []
    for a in range(1, g.degree + 1):
        c = children[g.perm(a) - 1]
        if g.inner[a - 1] == 1:
            c = canonicalize(slot_flip(c), cat)
        new_children.append(c)
    return new_mirror, tuple(new_children)


def _satellite_orbit_min(name, mirror, children, cat: Catalogue):
    entry = cat.link(name)
    best = None
    for g in entry.symmetries:
        m, kids = _apply_symmetry(g, mirror, children, cat)
        cand = HypSatellite(name, m, tuple((1, c) for c in kids))
        key = sort_key(cand)
        if best is None or key < best[0]:
            best = (key, cand)
    return best[1]


def canonicalize(t, cat: Catalogue | None = None):
    """Rewrite a tree to its canonical form (idempotent, order-independent)."""
    if cat is None:
        cat = default_catalogue()
    if isinstance(t, Unknot):
        return UNKNOT
    if isinstance(t, TorusLeaf):
        return t
    if isinstance(t, HypLeaf):
        entry = cat.knot(t.name)
        return HypLeaf(
            t.name,
            t.mirror and not entry.amphichiral,
            t.reverse and not entry.invertible,
        )
    if isinstance(t, Keychain):
        kids = []
        for c in t.children:
            c = canonicalize(c, cat)
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
        child = canonicalize(t.child, cat)
        if isinstance(child, Unknot):
            if abs(t.q) < 2:
                return UNKNOT  # a (p, +-1)-curve on the unknotted torus is unknotted
            leaf = torus(t.p, t.q)
            return mirror_tree(leaf) if t.mirror else leaf
        return Cable(t.p, t.q, t.mirror, child)
    if isinstance(t, HypSatellite):
        entry = cat.link(t.name)
        if len(t.slots) != entry.arity:
            raise StructuralError(
                f"{t.name} takes {entry.arity} companions, got {len(t.slots)}"
            )
        kids = []
        for sign, c in t.slots:
            c = canonicalize(slot_flip(c) if sign == -1 else c, cat)
            if isinstance(c, Unknot):
                raise ReducibilityError(f"satellite slot of {t.name} received the unknot")
            kids.append(c)
        return _satellite_orbit_min(t.name, t.mirror, kids, cat)
    raise StructuralError(f"not a tree node: {t!r}")


def is_canonical(t, cat: Catalogue | None = None) -> bool:
    return canonicalize(t, cat) == t


def tree_eq(a, b, cat: Catalogue | None = None) -> bool:
    """Equality of the knots described: equality of canonical forms."""
    return canonicalize(a, cat) == canonicalize(b, cat)


# ---------------------------------------------------------------------------
# complexity


def complexity(t, cat: Catalogue | None = None) -> int:
    """Number of pieces of the underlying decomposition: nodes of the canonical tree."""
    if not is_canonical(t, cat):
        raise NotCanonicalError("complexity is defined on canonical trees; canonicalize first")
    return _node_count(t)


def _node_count(t) -> int:
    if isinstance(t, Unknot):
        return 0
    if isinstance(t, (TorusLeaf, HypLeaf)):
        return 1
    if isinstance(t, Keychain):
        return 1 + sum(_node_count(c) for c in t.children)
    if isinstance(t, Cable):
        return 1 + _node_count(t.child)
    if isinstance(t, HypSatellite):
        return 1 + sum(_node_count(c) for _, c in t.slots)
    raise StructuralError(f"not a tree node: {t!r}")


# ---------------------------------------------------------------------------
# generators, grafting, additivity


@dataclass(frozen=True)
class Generator:
    """A splice-tree generator: keychain KC(k), Seifert S(p,q), a named
    hyperbolic link, or the Hopf link (the identity splice)."""

    kind: str  # "keychain" | "seifert" | "hyperbolic" | "hopf"
    k: int = 0
    p: int = 0
    q: int = 0
    name: str = ""


def keychain_gen(k: int) -> Generator:
    if k < 2:
        raise StructuralError("keychain generators need at least two slots")
    return Generator("keychain", k=k)


def seifert_gen(p: int, q: int) -> Generator:
    p, q = _cable_params(p, q)
    return Generator("seifert", k=1, p=p, q=q)


def hyperbolic_gen(name: str, cat: Catalogue | None = None) -> Generator:
    cat = cat or default_catalogue()
    return Generator("hyperbolic", k=cat.link(name).arity, name=name)


def hopf_gen() -> Generator:
    return Generator("hopf", k=1)


def splice_graft(gen: Generator, children: Sequence, cat: Catalogue | None = None):
    """Build the node for a generator over canonical children, then canonicalize."""
    cat = cat or default_catalogue()
    if len(children) != gen.k:
        raise StructuralError(f"generator takes {gen.k} children, got {len(children)}")
    if gen.kind == "hopf":
        return canonicalize(children[0], cat)
    if gen.kind == "keychain":
        return canonicalize(Keychain(tuple(children)), cat)
    if gen.kind == "seifert":
        return canonicalize(Cable(gen.p, gen.q, False, children[0]), cat)
    if gen.kind == "hyperbolic":
        node = HypSatellite(gen.name, False, tuple((1, c) for c in children))
        return canonicalize(node, cat)
    raise StructuralError(f"unknown generator kind {gen.kind!r}")


ADDITIVE = "additive"
DEGENERATE_A = "degenerate-a"
DEGENERATE_B = "degenerate-b"


def check_additivity(gen: Generator, children: Sequence, cat: Catalogue | None = None) -> str:
    """Classify a graft: additive, or one of the two degenerate situations.

    Degenerate (a): the generator is the Hopf link, whose splice is the
    identity.  (A unit-parameter cable of the unknot collapses the same way
    and is reported under (a) as well.)  Degenerate (b): the generator has
    parallel companion slots (the keychain family) and some companion is not
    prime for connected sum, so keychain levels merge.
    """
    cat = cat or default_catalogue()
    kids = [canonicalize(c, cat) for c in children]
    if gen.kind == "hopf":
        return DEGENERATE_A
    if gen.kind == "keychain":
        if any(isinstance(c, (Keychain, Unknot)) for c in kids):
            return DEGENERATE_B
        return ADDITIVE
    if gen.kind == "seifert":
        if isinstance(kids[0], Unknot) and abs(gen.q) < 2:
            return DEGENERATE_A
        return ADDITIVE
    return ADDITIVE


def connect_sum(trees: Sequence, cat: Catalogue | None = None):
    """Connected sum as the canonical keychain; the unknot is the unit."""
    return canonicalize(Keychain(tuple(trees)), cat or default_catalogue())


# ---------------------------------------------------------------------------
# randomized-rule-order canonicalization (confluence checking)


def _children_of(t):
    if isinstance(t, Keychain):
        return list(t.children)
    if isinstance(t, Cable):
        return [t.child]
    if isinstance(t, HypSatellite):
        return [c for _, c in t.slots]
    return []


def _replace_child(t, idx, new):
    if isinstance(t, Keychain):
        kids = list(t.children)
        kids[idx] = new
        return Keychain(tuple(kids))
    if isinstance(t, Cable):
        return Cable(t.p, t.q, t.mirror, new)
    if isinstance(t, HypSatellite):
        slots = list(t.slots)
        slots[idx] = (slots[idx][0], new)
        return HypSatellite(t.name, t.mirror, tuple(slots))
    raise StructuralError("node has no children")


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


def canonicalize_random(t, rng, cat: Catalogue | None = None, max_steps: int = 20000):
    """Apply local rewrites in random order until none applies.

    Confluence means this always lands on canonicalize(t); the deterministic
    and the randomized normal forms are compared in the test suite.
    """
    cat = cat or default_catalogue()
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
# emitters


def tree_to_json(t) -> str:
    return json.dumps(_tree_data(t), sort_keys=True)


def _tree_data(t):
    if isinstance(t, Unknot):
        return {"kind": "unknot"}
    if isinstance(t, TorusLeaf):
        return {"kind": "torus", "p": t.p, "q": t.q, "chirality": t.chirality}
    if isinstance(t, HypLeaf):
        return {"kind": "hyp_knot", "name": t.name, "mirror": t.mirror, "reverse": t.reverse}
    if isinstance(t, Keychain):
        return {"kind": "sum", "children": [_tree_data(c) for c in t.children]}
    if isinstance(t, Cable):
        return {
            "kind": "cable",
            "p": t.p,
            "q": t.q,
            "mirror": t.mirror,
            "child": _tree_data(t.child),
        }
    if isinstance(t, HypSatellite):
        return {
            "kind": "satellite",
            "name": t.name,
            "mirror": t.mirror,
            "slots": [{"sign": s, "child": _tree_data(c)} for s, c in t.slots],
        }
    raise StructuralError(f"not a tree node: {t!r}")


def tree_from_json(text: str):
    return _tree_from_data(json.loads(text))


def _tree_from_data(d):
    kind = d["kind"]
    if kind == "unknot":
        return UNKNOT
    if kind == "torus":
        return TorusLeaf(d["p"], d["q"], d.get("chirality", 1))
    if kind == "hyp_knot":
        return HypLeaf(d["name"], d.get("mirror", False), d.get("reverse", False))
    if kind == "sum":
        return Keychain(tuple(_tree_from_data(c) for c in d["children"]))
    if kind == "cable":
        return Cable(d["p"], d["q"], d.get("mirror", False), _tree_from_data(d["child"]))
    if kind == "satellite":
        return HypSatellite(
            d["name"],
            d.get("mirror", False),
            tuple((s["sign"], _tree_from_data(s["child"])) for s in d["slots"]),
        )
    raise StructuralError(f"unknown tree kind {kind!r}")


def _node_label(t) -> str:
    if isinstance(t, Unknot):
        return "unknot"
    if isinstance(t, TorusLeaf):
        return f"T({t.p},{t.q}){'' if t.chirality == 1 else ' mirrored'}"
    if isinstance(t, HypLeaf):
        flags = ("m" if t.mirror else "") + ("r" if t.reverse else "")
        return t.name + (f" [{flags}]" if flags else "")
    if isinstance(t, Keychain):
        return "sum"
    if isinstance(t, Cable):
        return f"cable({t.p},{t.q}){' mirrored' if t.mirror else ''}"
    if isinstance(t, HypSatellite):
        return f"splice {t.name}{' mirrored' if t.mirror else ''}"
    raise StructuralError(f"not a tree node: {t!r}")


def tree_to_dot(t) -> str:
    lines = ["digraph splice_tree {"]
    counter = [0]

    def walk(node):
        idx = counter[0]
        counter[0] += 1
        lines.append(f'  n{idx} [label="{_node_label(node)}"];')
        for child in _children_of(node):
            cidx = walk(child)
            lines.append(f"  n{idx} -> n{cidx};")
        return idx

    walk(t)
    lines.append("}")
    return "\n".join(lines)

"""Splice trees for long knots and their canonical forms.

A splice tree builds a knot from a catalogue of generators: torus and
hyperbolic knot leaves, keychain nodes (connected sum), cable nodes (one
companion slot) and hyperbolic satellite nodes (several slots).  Canonical
forms realize the unique-decomposition picture: keychains flatten and sort,
unit children vanish, cables of the unknot become torus leaves, leaf flags
drop according to invertibility/amphichirality data, and satellite slots are
quotiented by the catalogue's slot-symmetry group.

Every node kind follows one protocol: ``kids`` is its tuple of subtrees,
``rebuild(kids)`` the same node over new subtrees, and the kind owns its
step of each structural pass: ``mirrored``, ``reversed``, ``key`` (sort
order), ``weight`` (complexity), ``data`` (JSON) and ``canon`` (canonical
form).  A step receives the results of the pass on the node's subtrees, in
order, and never calls a pass itself: ``_fold`` runs the steps bottom-up on
an explicit stack, so every pass is one ``_fold`` call, no pass re-walks a
subtree, and the depth of a tree is bounded by memory, not by the Python
stack.  ``_node`` is the one check that rejects a value that is not a node;
the fold applies it as it reaches each subtree, so faults surface in
post-order.

A ``canon`` step receives, for each subtree, its canonical form and the
canonical form of its slot flip, each keyed by its sort key, and returns that
pair for its own node: a satellite's orbit minimum needs both forms of each
slot child, and since canonicalization commutes with the slot flip one
bottom-up pass yields both.  Keychains sort, and satellites pick their least
image, by the carried keys.

The printers run the other way, top-down: ``expr(m, r)`` (the grammar of
``expr.py``) renders the node mirrored when m and reversed when r as text
pieces, passing each subtree on as a ``(child, mirror, reverse)`` item, so a
mirrored cable or satellite and a twisted slot print by flag, with no tree
rebuilt; ``label`` names the node in DOT.

The complexity of a canonical tree counts its nodes (the unknot counts zero),
and grafting a generator onto children is additive in complexity except in
the two degenerate situations the checker reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from importlib import resources
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import NotCanonicalError, ReducibilityError, StructuralError
from .perm import Perm, WreathElement, Z2, mulclose

# ---------------------------------------------------------------------------
# tree nodes


class _Node:
    kind: str  # the name of the node kind in the JSON form
    kids = ()  # the subtrees, in order

    def rebuild(self, kids):
        return self

    def mirrored(self, kids):
        return self.rebuild(kids)

    def reversed(self, kids):
        return self.rebuild(kids)

    def weight(self, weights):  # the complexity of a subtree counts its nodes
        return 1 + sum(weights)

    def label(self):
        return self.kind

    def data(self, kids):  # a leaf's JSON form is its fields
        return {"kind": self.kind, **vars(self)}

    @classmethod
    def from_data(cls, d, load):
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def _keyed(node, keys=()):
    """A node paired with its sort key, given the keys of its subtrees."""
    return node, node.key(keys)


def _listed(items):
    """Text pieces: the items separated by commas."""
    pieces = []
    for item in items:
        pieces += (",", item)
    return pieces[1:]


@dataclass(frozen=True)
class Unknot(_Node):
    kind = "unknot"

    def weight(self, weights):
        return 0

    def canon(self, pairs, cat):
        return _KEYED_UNKNOT, _KEYED_UNKNOT

    def key(self, keys):
        return (0,)

    def expr(self, m, r):
        return ("unknot",)


@dataclass(frozen=True)
class TorusLeaf(_Node):
    kind = "torus"
    p: int
    q: int
    chirality: int = 1

    def __post_init__(self):
        if not (2 <= self.p < self.q) or math.gcd(self.p, self.q) != 1:
            raise StructuralError(f"torus parameters must be 2 <= p < q coprime: {(self.p, self.q)}")
        if self.chirality not in (1, -1):
            raise StructuralError("chirality must be +1 or -1")

    def mirrored(self, kids):
        return TorusLeaf(self.p, self.q, -self.chirality)

    def canon(self, pairs, cat):  # torus knots are invertible: the flip is the mirror
        return _keyed(self), _keyed(self.mirrored(()))

    def key(self, keys):
        return (1, self.p, self.q, self.chirality)

    def expr(self, m, r):
        body = f"T({self.p},{self.q})"
        return (body if (self.chirality == 1) != m else f"mirror({body})",)

    def label(self):
        return f"T({self.p},{self.q}){'' if self.chirality == 1 else ' mirrored'}"


@dataclass(frozen=True)
class HypLeaf(_Node):
    kind = "hyp_knot"
    name: str
    mirror: bool = False
    reverse: bool = False

    def mirrored(self, kids):
        return HypLeaf(self.name, not self.mirror, self.reverse)

    def reversed(self, kids):
        return HypLeaf(self.name, self.mirror, not self.reverse)

    def canon(self, pairs, cat):  # a flag drops when the knot has that symmetry
        entry = cat.knot(self.name)
        m, r = not entry.amphichiral, not entry.invertible
        return (
            _keyed(HypLeaf(self.name, self.mirror and m, self.reverse and r)),
            _keyed(HypLeaf(self.name, not self.mirror and m, not self.reverse and r)),
        )

    def key(self, keys):
        return (2, self.name, self.mirror, self.reverse)

    def expr(self, m, r):
        body = f"mirror({self.name})" if self.mirror != m else self.name
        return (f"rev({body})" if self.reverse != r else body,)

    def label(self):
        flags = ("m" if self.mirror else "") + ("r" if self.reverse else "")
        return self.name + (f" [{flags}]" if flags else "")


@dataclass(frozen=True)
class Keychain(_Node):
    kind = "sum"
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    kids = property(lambda self: self.children)

    def rebuild(self, kids):
        return Keychain(kids)

    def canon(self, pairs, cat):
        return self._sum(c for c, _ in pairs), self._sum(f for _, f in pairs)

    @staticmethod
    def _sum(summands):
        """The connected sum of keyed canonical summands, keyed: flattened,
        units dropped, sorted by key."""
        primes = []
        for c, k in summands:
            if isinstance(c, Keychain):
                primes.extend(zip(c.children, k[2]))  # a keychain's key holds its children's
            elif not isinstance(c, Unknot):
                primes.append((c, k))
        if len(primes) < 2:
            return primes[0] if primes else _KEYED_UNKNOT
        primes.sort(key=itemgetter(1))
        trees, keys = zip(*primes)
        return _keyed(Keychain(trees), keys)

    def key(self, keys):
        return (5, len(self.children), tuple(keys))

    def data(self, kids):
        return {"kind": self.kind, "children": kids}

    def expr(self, m, r):
        return ["sum(", *_listed((c, m, r) for c in self.children), ")"]

    @classmethod
    def from_data(cls, d, load):
        return cls(tuple(map(load, d["children"])))


@dataclass(frozen=True)
class Cable(_Node):
    kind = "cable"
    p: int
    q: int
    mirror: bool
    child: object

    def __post_init__(self):
        p, q = _cable_params(self.p, self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    kids = property(lambda self: (self.child,))

    def rebuild(self, kids):
        (child,) = kids
        return Cable(self.p, self.q, self.mirror, child)

    def mirrored(self, kids):
        (child,) = kids
        return Cable(self.p, self.q, not self.mirror, child)

    def canon(self, pairs, cat):
        ((child, twin),) = pairs
        return self._over(self.mirror, child), self._over(not self.mirror, twin)

    def _over(self, mirror, child):
        """This cable with the given mirror flag over a keyed canonical child,
        canonical and keyed."""
        c, k = child
        if not isinstance(c, Unknot):
            return _keyed(Cable(self.p, self.q, mirror, c), (k,))
        if abs(self.q) < 2:
            return _KEYED_UNKNOT  # a (p, +-1)-curve on the unknotted torus is unknotted
        return _keyed(torus(self.p, self.q, -1 if mirror else 1))

    def key(self, keys):
        (child,) = keys
        return (3, self.p, self.q, self.mirror, child)

    def data(self, kids):
        (child,) = kids
        return {"kind": self.kind, **vars(self), "child": child}

    def expr(self, m, r):
        mirror = self.mirror != m  # only leaves carry a mirror flag in the grammar
        body = [f"cable({self.p},{self.q};", (self.child, m != mirror, r), ")"]
        return ["mirror(", *body, ")"] if mirror else body

    def label(self):
        return f"cable({self.p},{self.q}){' mirrored' if self.mirror else ''}"

    @classmethod
    def from_data(cls, d, load):
        return cls(d["p"], d["q"], d.get("mirror", False), load(d["child"]))


@dataclass(frozen=True)
class HypSatellite(_Node):
    kind = "satellite"
    name: str
    mirror: bool
    slots: tuple  # pairs (sign, child) with sign in {+1, -1}

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple((int(s), c) for s, c in self.slots))
        if any(s not in (1, -1) for s, _ in self.slots):
            raise StructuralError("slot signs must be +1 or -1")

    kids = property(lambda self: tuple([c for _, c in self.slots]))

    def rebuild(self, kids):
        return HypSatellite(self.name, self.mirror, tuple(zip((s for s, _ in self.slots), kids)))

    def mirrored(self, kids):
        return HypSatellite(self.name, not self.mirror, tuple(zip((s for s, _ in self.slots), kids)))

    def canon(self, pairs, cat):
        entry = cat.link(self.name)
        if len(pairs) != entry.arity:
            raise StructuralError(f"{self.name} takes {entry.arity} companions, got {len(pairs)}")
        # a twisted slot holds the flip of its child
        pairs = [p if s == 1 else p[::-1] for (s, _), p in zip(self.slots, pairs)]
        if any(isinstance(c, Unknot) for (c, _), _ in pairs):
            raise ReducibilityError(f"satellite slot of {self.name} received the unknot")
        form = self._orbit_min(entry, self.mirror, pairs)
        return form, self._orbit_min(entry, not self.mirror, [p[::-1] for p in pairs])

    def _orbit_min(self, entry, mirror, pairs):
        """The least image of a satellite body under the slot-symmetry group,
        keyed.  Slot a holds pairs[a][0], keyed and canonical, and pairs[a][1]
        is its keyed flip; the images are compared by key and only the least
        is built."""
        best = None
        for g in entry.symmetries:
            slots = [pairs[g.perm(a) - 1][g.inner[a - 1]] for a in range(1, g.degree + 1)]
            key = (4, self.name, mirror ^ (g.outer == 1), tuple((1, k) for _, k in slots))
            if best is None or key < best[0]:
                best = key, slots
        key, slots = best
        return HypSatellite(self.name, key[2], tuple((1, c) for c, _ in slots)), key

    def key(self, keys):
        return (4, self.name, self.mirror, tuple(zip((s for s, _ in self.slots), keys)))

    def data(self, kids):
        slots = [{"sign": s, "child": d} for (s, _), d in zip(self.slots, kids)]
        return {"kind": self.kind, "name": self.name, "mirror": self.mirror, "slots": slots}

    def expr(self, m, r):
        mirror = self.mirror != m  # only leaves carry a mirror flag in the grammar
        m = m != mirror
        # slot twists have no syntax: a twisted slot prints its flipped child
        items = [(c, m, r) if s == 1 else (c, not m, not r) for s, c in self.slots]
        body = [f"splice({self.name};", *_listed(items), ")"]
        return ["mirror(", *body, ")"] if mirror else body

    def label(self):
        return f"splice {self.name}{' mirrored' if self.mirror else ''}"

    @classmethod
    def from_data(cls, d, load):
        slots = tuple((s["sign"], load(s["child"])) for s in d["slots"])
        return cls(d["name"], d.get("mirror", False), slots)


UNKNOT = Unknot()
_KEYED_UNKNOT = _keyed(UNKNOT)


def _node(t):
    """t itself when it is a tree node: the one place a non-node is rejected."""
    if isinstance(t, _Node):
        return t
    raise StructuralError(f"not a tree node: {t!r}")


def _fold(t, step, *args):
    """The pass named step, run bottom-up over t on an explicit stack: each
    node's step receives the results for its subtrees, in order, then args.
    Subtrees are visited left to right and each is checked by _node when it
    is reached, so a fault below a node is raised before the node's step."""
    done = []  # results of the finished subtrees, in order
    todo = [(t, None)]
    while todo:
        t, kids = todo.pop()
        if kids is None:
            node = _node(t)
            kids = node.kids
            if kids:
                todo.append((node, kids))
                todo.extend([(c, None) for c in reversed(kids)])
                continue
            done.append(getattr(node, step)([], *args))
        else:
            n = len(kids)
            results = done[-n:]
            del done[-n:]
            done.append(getattr(t, step)(results, *args))
    return done[0]


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


_DEFAULT_CATALOGUE: Catalogue | None = None


def load_catalogue(path: str | None = None) -> Catalogue:
    """Load the generator catalogue from a JSON file, or the bundled one.

    Without a path it returns the bundled catalogue, read once per process
    and shared with default_catalogue(); a path is read afresh on every call.
    A file that cannot be read, is not JSON or lacks a field raises
    StructuralError.
    """
    global _DEFAULT_CATALOGUE
    if path is not None:
        return _read_catalogue(path)
    if _DEFAULT_CATALOGUE is None:
        _DEFAULT_CATALOGUE = _read_catalogue(None)
    return _DEFAULT_CATALOGUE


def _read_catalogue(path: str | None) -> Catalogue:
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


def default_catalogue() -> Catalogue:
    """The bundled catalogue; the same object as ``load_catalogue()``."""
    if _DEFAULT_CATALOGUE is None:
        return load_catalogue()
    return _DEFAULT_CATALOGUE


# ---------------------------------------------------------------------------
# involutions


def mirror_tree(t):
    """Formal mirror: flips torus chirality and toggles every node mirror flag."""
    return _fold(t, "mirrored")


def reverse_tree(t):
    """Formal string-orientation reversal; torus leaves are invertible."""
    return _fold(t, "reversed")


def slot_flip(t):
    """The slot twist: both factor orientations reversed, i.e. reverse + mirror."""
    return reverse_tree(mirror_tree(t))


# ---------------------------------------------------------------------------
# order and canonical form


def sort_key(t):
    """Structural total order on trees (lexicographic in kind, parameters, children)."""
    return _fold(t, "key")


def canonicalize(t, cat: Catalogue | None = None):
    """Rewrite a tree to its canonical form (idempotent, order-independent)."""
    (form, _), _ = _fold(t, "canon", cat or default_catalogue())
    return form


def _same_tree(a, b) -> bool:
    """a == b, compared on an explicit stack: the dataclass == recurses through
    nested fields and runs out of Python stack near 200 levels.  Nodes must be
    of one kind; their fields are pushed in pairs, tuples (children, slots)
    element by element, and every other field compares with ==."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if isinstance(x, _Node):
            if type(x) is not type(y):
                return False
            stack.extend(zip(vars(x).values(), vars(y).values()))
        elif isinstance(x, tuple):
            if not isinstance(y, tuple) or len(x) != len(y):
                return False
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def is_canonical(t, cat: Catalogue | None = None) -> bool:
    return _same_tree(canonicalize(t, cat), t)


def tree_eq(a, b, cat: Catalogue | None = None) -> bool:
    """Equality of the knots described: equality of canonical forms."""
    return _same_tree(canonicalize(a, cat), canonicalize(b, cat))


# ---------------------------------------------------------------------------
# complexity


def complexity(t, cat: Catalogue | None = None) -> int:
    """Number of pieces of the underlying decomposition: nodes of the canonical tree."""
    if not is_canonical(t, cat):
        raise NotCanonicalError("complexity is defined on canonical trees; canonicalize first")
    return _node_count(t)


def _node_count(t) -> int:
    return _fold(t, "weight")


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
    return list(_node(t).kids)


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
    return _fold(t, "data")


def tree_from_json(text: str):
    return _tree_from_data(json.loads(text))


_KINDS = {cls.kind: cls for cls in (Unknot, TorusLeaf, HypLeaf, Keychain, Cable, HypSatellite)}


def _tree_from_data(d):
    kind = d["kind"]
    if kind not in _KINDS:
        raise StructuralError(f"unknown tree kind {kind!r}")
    return _KINDS[kind].from_data(d, _tree_from_data)


def tree_to_dot(t) -> str:
    """The tree as a DOT digraph, emitted top-down on an explicit stack: nodes
    are numbered in pre-order, and each edge follows its child's subtree."""
    lines = ["digraph splice_tree {"]
    todo = [(t, None)]  # (subtree, parent number) items and edge lines
    idx = 0
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        node, parent = item
        lines.append(f'  n{idx} [label="{_node(node).label()}"];')
        if parent is not None:
            todo.append(f"  n{parent} -> n{idx};")
        todo.extend([(c, idx) for c in reversed(_children_of(node))])
        idx += 1
    lines.append("}")
    return "\n".join(lines)

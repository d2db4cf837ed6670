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
an explicit stack, so every pass over a tree is one ``_fold`` call, no pass
re-walks a subtree, and the depth of a tree is bounded by memory, not by the
Python stack.  ``_node`` is the one check that rejects a value that is not a
node; the fold applies it as it reaches each subtree, so faults surface in
post-order.  Text takes no fold to its canonical form: ``expr.parse_expr``
runs the ``canon`` steps itself, as each construct closes, and returns the
canonical tree.  The steps it runs need no node: ``Keychain.canon``,
``HypSatellite._untwisted_canon`` and ``Cable._checked_canon``, which takes
parameters ``_cable_params`` has checked.

A leaf's ``canon`` step is a table lookup, and the parser and ``_fold`` read
the same tables, so each leaf is built and keyed once, not once per token:
each ``Catalogue`` holds ``leaves``, which maps a hyperbolic leaf's (name,
mirror, reverse) to its keyed pair and fills on first use, at most four
entries per knot; ``_torus_pair``, a fixed-size ``lru_cache``, maps a torus
leaf's (p, q, chirality) to its keyed pair and stores no error.  Nodes are
immutable, so trees share the leaves the tables hold.

The checking constructors are the only gate for outside values; the steps
build their nodes with ``_trusted``, from fields of nodes already checked.

A ``canon`` step receives, for each subtree, its canonical form and the
canonical form of its slot flip, each keyed by its sort key, and returns that
pair for its own node: a satellite's orbit minimum needs both forms of each
slot child, and since canonicalization commutes with the slot flip one
bottom-up pass yields both.  Keychains sort, and satellites pick their least
image, by the carried keys.  The twin is the form itself, the same keyed
pair, for the unknot; for a hyperbolic leaf that is invertible and
amphichiral; for a satellite whose link's symmetry group holds the total
slot flip (outer 1, identity permutation, every slot flipped), since the
flipped body then lies in the orbit of the body and has the same least
image (``LinkEntry.flip_closed``, decided when the catalogue is loaded);
and for a keychain whose every summand is its own twin.  Every other node
builds its twin separately.  The orbit minimum reads each symmetry as
``LinkEntry.actions``, worked out with ``flip_closed`` when the catalogue is
loaded: which slot's child, or its flip, each slot of the image takes.

The printers run the other way, top-down: ``expr(m, r)`` (the grammar of
``expr.py``) renders the node mirrored when m and reversed when r as text
pieces, passing each subtree on as a ``(child, mirror, reverse)`` item, so a
mirrored cable or satellite and a twisted slot print by flag, with no tree
rebuilt; ``label`` names the node in DOT.

``tree_to_json`` writes the ``data`` pass as JSON; nothing reads tree JSON
back, since no verb takes it.  Every function with an optional catalogue
defaults to ``load_catalogue()``, the bundled catalogue read once per process.

A generator is its node over ``UNKNOT`` placeholder slots: ``keychain_gen``
a keychain, ``seifert_gen`` an unmirrored cable, ``hyperbolic_gen`` a
satellite with untwisted slots, and ``hopf_gen`` the Hopf link, the keychain
with one slot, whose canonical form is its summand.  Grafting is ``rebuild``
over the children, then ``canonicalize``.  The complexity of a canonical tree
counts its nodes (the unknot counts zero), and grafting a generator onto
children is additive in complexity except in the two degenerate situations
the checker reports.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field
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


# The canon, mirrored and reversed steps build their nodes with the kind's
# _trusted constructor, from fields of nodes that were already checked: it
# skips the checks and the frozen dataclass's setattr calls, and sets the
# fields in declaration order, since _same_tree zips vars() values.
_new = object.__new__


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
        if type(self.p) is not int or type(self.q) is not int:
            raise StructuralError(f"torus parameters must be integers: {(self.p, self.q)!r}")
        if not (2 <= self.p < self.q) or math.gcd(self.p, self.q) != 1:
            raise StructuralError(f"torus parameters must be 2 <= p < q coprime: {(self.p, self.q)}")
        if type(self.chirality) is not int or self.chirality not in (1, -1):
            raise StructuralError("chirality must be +1 or -1")

    @classmethod
    def _trusted(cls, p, q, chirality):
        node = _new(cls)
        fields = node.__dict__
        fields["p"], fields["q"], fields["chirality"] = p, q, chirality
        return node

    def mirrored(self, kids):
        return TorusLeaf._trusted(self.p, self.q, -self.chirality)

    def canon(self, pairs, cat):
        return _torus_pair(self.p, self.q, self.chirality)

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

    def __post_init__(self):
        _check_flag(self.mirror)
        _check_flag(self.reverse)

    @classmethod
    def _trusted(cls, name, mirror, reverse):
        node = _new(cls)
        fields = node.__dict__
        fields["name"], fields["mirror"], fields["reverse"] = name, mirror, reverse
        return node

    def mirrored(self, kids):
        return HypLeaf._trusted(self.name, not self.mirror, self.reverse)

    def reversed(self, kids):
        return HypLeaf._trusted(self.name, self.mirror, not self.reverse)

    def canon(self, pairs, cat):
        return cat.leaves[self.name, self.mirror, self.reverse]

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

    @classmethod
    def _trusted(cls, children):
        node = _new(cls)
        node.__dict__["children"] = children
        return node

    kids = property(lambda self: self.children)

    def rebuild(self, kids):
        return Keychain(kids)

    @staticmethod
    def canon(pairs, cat):  # reads no field: the parser runs it with no node
        form = Keychain._sum(c for c, _ in pairs)
        if all(c is f for c, f in pairs):
            return form, form
        return form, Keychain._sum(f for _, f in pairs)

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
        return _keyed(Keychain._trusted(trees), keys)

    def key(self, keys):
        return (5, len(self.children), tuple(keys))

    def data(self, kids):
        return {"kind": self.kind, "children": kids}

    def expr(self, m, r):
        return ["sum(", *_listed((c, m, r) for c in self.children), ")"]


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
        _check_flag(self.mirror)

    @classmethod
    def _trusted(cls, p, q, mirror, child):
        node = _new(cls)
        fields = node.__dict__
        fields["p"], fields["q"], fields["mirror"], fields["child"] = p, q, mirror, child
        return node

    kids = property(lambda self: (self.child,))

    def rebuild(self, kids):
        (child,) = kids
        return Cable(self.p, self.q, self.mirror, child)

    def mirrored(self, kids):
        (child,) = kids
        return Cable._trusted(self.p, self.q, not self.mirror, child)

    def canon(self, pairs, cat):
        (pair,) = pairs
        return Cable._checked_canon(self.p, self.q, self.mirror, pair)

    @staticmethod
    def _checked_canon(p, q, mirror, pair):
        """The canon step of a cable with parameters p, q, already checked by
        _cable_params, mirrored when mirror, over the keyed pair of its
        companion: the step the parser runs, with no node, as a cable(...)
        construct closes."""
        (c, k), (f, fk) = pair
        if not isinstance(c, Unknot):
            return _keyed(Cable._trusted(p, q, mirror, c), (k,)), _keyed(Cable._trusted(p, q, not mirror, f), (fk,))
        if abs(q) < 2:
            return _KEYED_UNKNOT, _KEYED_UNKNOT  # a (p, +-1)-curve on the unknotted torus is unknotted
        return _torus_pair(p, q, -1 if mirror else 1)  # the flip of the unknot is the unknot

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


@dataclass(frozen=True)
class HypSatellite(_Node):
    kind = "satellite"
    name: str
    mirror: bool
    slots: tuple  # pairs (sign, child) with sign in {+1, -1}

    def __post_init__(self):
        slots = tuple(self.slots)
        if any(type(s) is not int or s not in (1, -1) for s, _ in slots):
            raise StructuralError("slot signs must be +1 or -1")
        object.__setattr__(self, "slots", slots)
        _check_flag(self.mirror)

    @classmethod
    def _trusted(cls, name, mirror, slots):
        node = _new(cls)
        fields = node.__dict__
        fields["name"], fields["mirror"], fields["slots"] = name, mirror, slots
        return node

    kids = property(lambda self: tuple([c for _, c in self.slots]))

    def rebuild(self, kids):
        return HypSatellite(self.name, self.mirror, tuple(zip((s for s, _ in self.slots), kids)))

    def mirrored(self, kids):
        return HypSatellite._trusted(self.name, not self.mirror, tuple(zip((s for s, _ in self.slots), kids)))

    def canon(self, pairs, cat):
        entry = cat.link(self.name)
        if len(pairs) != entry.arity:
            raise StructuralError(f"{self.name} takes {entry.arity} companions, got {len(pairs)}")
        # a twisted slot holds the flip of its child
        pairs = [p if s == 1 else p[::-1] for (s, _), p in zip(self.slots, pairs)]
        return HypSatellite._untwisted_canon(entry, self.mirror, pairs)

    @staticmethod
    def _untwisted_canon(entry, mirror, pairs):
        """The canon step of a satellite on entry's link, mirrored when mirror,
        whose slots are untwisted and hold the keyed pairs: the step the
        parser runs, with no node, as a splice(...) construct closes."""
        if any(isinstance(c, Unknot) for (c, _), _ in pairs):
            raise ReducibilityError(f"satellite slot of {entry.name} received the unknot")
        form = HypSatellite._orbit_min(entry, mirror, pairs)
        if entry.flip_closed:  # the flipped body lies in the same orbit
            return form, form
        return form, HypSatellite._orbit_min(entry, not mirror, [p[::-1] for p in pairs])

    @staticmethod
    def _orbit_min(entry, mirror, pairs):
        """The least image of a satellite body under the slot-symmetry group,
        keyed.  Slot a holds pairs[a][0], keyed and canonical, and pairs[a][1]
        is its keyed flip; the images are compared by key and only the least
        is built."""
        best = None
        for outer, action in entry.actions:
            key = (4, entry.name, mirror ^ outer, tuple([(1, pairs[i][f][1]) for i, f in action]))
            if best is None or key < best[0]:
                best = key, action
        key, action = best
        slots = tuple([(1, pairs[i][f][0]) for i, f in action])
        return HypSatellite._trusted(entry.name, key[2], slots), key

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


UNKNOT = Unknot()
_KEYED_UNKNOT = _keyed(UNKNOT)


def _node(t):
    """t itself when it is a tree node: the one place a non-node is rejected."""
    if isinstance(t, _Node):
        return t
    raise StructuralError(f"not a tree node: {t!r}")


def _children_of(t):
    return list(_node(t).kids)


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


def _check_flag(flag) -> None:
    """Reject a mirror or reverse flag that is not a bool: the JSON form would
    print it as it is."""
    if type(flag) is not bool:
        raise StructuralError(f"node flags must be booleans: {flag!r}")


def _cable_params(p: int, q: int) -> tuple[int, int]:
    """Normalize and validate cable parameters: negating both fixes the same
    curve, the winding must be at least 2, and p may not divide q."""
    if type(p) is not int or type(q) is not int:
        raise StructuralError(f"cable parameters must be integers: {(p, q)!r}")
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


@functools.lru_cache(maxsize=1024)  # bounded: torus parameters come from outside
def _torus_pair(p: int, q: int, chirality: int):
    """The keyed (form, twin) pair of the canon step of torus(p, q,
    chirality), for integers p, q and chirality +1 or -1.  Torus knots are
    invertible, so the twin is the mirror.  Invalid parameters raise torus's
    StructuralError, and an error is never stored."""
    leaf = torus(p, q, chirality)
    return _keyed(leaf), _keyed(leaf.mirrored(()))


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
    # whether the symmetries hold the total slot flip: outer 1, identity
    # permutation, every slot flipped; decided once, when the entry is made
    flip_closed: bool = field(init=False, repr=False, compare=False)
    # each symmetry as it acts on a satellite body: (outer flip, ((i, f), ...))
    # where slot a of the image takes slot i's child, flipped when f is 1
    actions: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        flip = WreathElement(1, Perm.identity(self.arity), (1,) * self.arity, Z2)
        object.__setattr__(self, "flip_closed", flip in self.symmetries)
        actions = tuple(
            (g.outer == 1, tuple(zip([i - 1 for i in g.perm.images], g.inner))) for g in self.symmetries
        )
        object.__setattr__(self, "actions", actions)


_RESERVED = {"unknot", "sum", "cable", "splice", "mirror", "rev", "T", "hopf"}


class Catalogue:
    """Named hyperbolic knots and links with their symmetry data; each name
    names one entry."""

    def __init__(self, knots: Iterable[KnotEntry], links: Iterable[LinkEntry]):
        self.knots, self.links = {}, {}
        for entries, named in ((knots, self.knots), (links, self.links)):
            for e in entries:
                if e.name in _RESERVED or not e.name.isidentifier():
                    raise StructuralError(f"bad catalogue name {e.name!r}")
                if e.name in named:
                    raise StructuralError(f"duplicate catalogue name {e.name!r}")
                named[e.name] = e
        overlap = set(self.knots) & set(self.links)
        if overlap:
            raise StructuralError(f"names used for both knots and links: {sorted(overlap)}")
        self.leaves = _LeafTable(self)

    def knot(self, name: str) -> KnotEntry:
        if name not in self.knots:
            raise StructuralError(f"unknown hyperbolic knot {name!r}")
        return self.knots[name]

    def link(self, name: str) -> LinkEntry:
        if name not in self.links:
            raise StructuralError(f"unknown hyperbolic link {name!r}")
        return self.links[name]


class _LeafTable(dict):
    """(name, mirror, reverse) -> the keyed (form, twin) pair of the canon step
    of that hyperbolic knot leaf, filled on first lookup: at most four
    entries for each knot of the catalogue.  A flag drops when the knot has
    that symmetry.  An unknown name raises the catalogue's StructuralError,
    and nothing is stored."""

    __slots__ = ("cat",)

    def __init__(self, cat: Catalogue):
        super().__init__()
        self.cat = cat

    def __missing__(self, leaf):
        name, mirror, reverse = leaf
        entry = self.cat.knot(name)
        m, r = not entry.amphichiral, not entry.invertible
        form = _keyed(HypLeaf._trusted(name, mirror and m, reverse and r))
        twin = _keyed(HypLeaf._trusted(name, not mirror and m, not reverse and r)) if m or r else form
        self[leaf] = form, twin
        return form, twin


def _typed(name, key: str, value, kind: type):
    """value when its JSON type is kind (bool, int or str; a JSON boolean is
    not an integer), else a StructuralError that names the catalogue entry."""
    if type(value) is not kind:
        what = {bool: "boolean", int: "integer", str: "string"}[kind]
        raise StructuralError(f"catalogue entry {name!r}: {key} must be a JSON {what}, got {value!r}")
    return value


def _symmetry_from_json(name: str, arity: int, raw: dict) -> WreathElement:
    outer = _typed(name, "outer", raw.get("outer", 0), int)
    perm = Perm([_typed(name, "perm", i, int) for i in raw.get("perm", range(1, arity + 1))])
    signs = tuple(_typed(name, "signs", s, int) for s in raw.get("signs", [0] * arity))
    if perm.degree != arity or len(signs) != arity:
        raise StructuralError(f"symmetry data does not match arity {arity}: {raw}")
    if outer not in (0, 1) or any(s not in (0, 1) for s in signs):
        raise StructuralError(f"symmetry signs live in Z2 as 0/1: {raw}")
    return WreathElement(outer, perm, signs, Z2)


# the most companion slots a catalogue link may have: each symmetry is a tuple
# of arity entries, and a link holds at most 10,000 symmetries (mulclose's cap)
MAX_LINK_ARITY = 64
_DEFAULT_CATALOGUE: Catalogue | None = None
# read by path, not importlib.resources, whose import costs more than this module
_BUNDLED_CATALOGUE = os.path.join(os.path.dirname(__file__), "data", "catalogue.json")


def load_catalogue(path: str | None = None) -> Catalogue:
    """Load the generator catalogue from a JSON file, or the bundled one.

    Without a path it returns the bundled catalogue, read once per process
    and shared by every caller that passes no catalogue; a path is read
    afresh on every call.  A file that cannot be read, is not a JSON object,
    lacks a field, holds a field of the wrong JSON type or gives two entries
    one name raises StructuralError.
    """
    global _DEFAULT_CATALOGUE
    if path is not None:
        return _read_catalogue(path)
    if _DEFAULT_CATALOGUE is None:
        _DEFAULT_CATALOGUE = _read_catalogue(None)
    return _DEFAULT_CATALOGUE


def _read_catalogue(path: str | None) -> Catalogue:
    try:
        with open(_BUNDLED_CATALOGUE if path is None else path, "r", encoding="utf-8") as fh:
            text = fh.read()
        data = json.loads(text)
        if type(data) is not dict:
            raise StructuralError("the top level must be a JSON object")
        knots = []
        for k in data.get("knots", []):
            name = _typed(k["name"], "name", k["name"], str)
            flags = [_typed(name, key, k[key], bool) for key in ("invertible", "amphichiral")]
            knots.append(KnotEntry(name, *flags, k.get("notes", "")))
        links = []
        for entry in data.get("links", []):
            name = _typed(entry["name"], "name", entry["name"], str)
            arity = _typed(name, "arity", entry["arity"], int)
            if arity < 1:
                raise StructuralError(f"catalogue entry {name!r}: arity must be at least 1, got {arity}")
            if arity > MAX_LINK_ARITY:
                raise StructuralError(f"catalogue entry {name!r}: arity must be at most {MAX_LINK_ARITY}, got {arity}")
            gens = [_symmetry_from_json(name, arity, raw) for raw in entry.get("symmetries", [])]
            group = mulclose(gens + [WreathElement.identity(arity, Z2)])
            links.append(LinkEntry(name, arity, frozenset(group), entry.get("notes", "")))
        return Catalogue(knots, links)
    except OSError as exc:
        raise StructuralError(f"cannot read catalogue {path}: {exc.strerror}") from exc
    except KeyError as exc:
        raise StructuralError(f"bad catalogue {path}: an entry lacks the field {exc}") from exc
    except (ValueError, TypeError, AttributeError) as exc:
        raise StructuralError(f"bad catalogue {path}: {exc}") from exc


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
    (form, _), _ = _fold(t, "canon", cat or load_catalogue())
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
# generators, grafting, additivity: a generator is its node over UNKNOT
# placeholder slots, and the Hopf link is the keychain with one slot


def keychain_gen(k: int) -> Keychain:
    if k < 2:
        raise StructuralError("keychain generators need at least two slots")
    return Keychain((UNKNOT,) * k)


def seifert_gen(p: int, q: int) -> Cable:
    return Cable(p, q, False, UNKNOT)


def hyperbolic_gen(name: str, cat: Catalogue | None = None) -> HypSatellite:
    cat = cat or load_catalogue()
    return HypSatellite(name, False, ((1, UNKNOT),) * cat.link(name).arity)


def hopf_gen() -> Keychain:
    return Keychain((UNKNOT,))


def _check_slots(gen, children: Sequence) -> None:
    if len(children) != len(gen.kids):
        raise StructuralError(f"generator takes {len(gen.kids)} children, got {len(children)}")


def splice_graft(gen, children: Sequence, cat: Catalogue | None = None):
    """The generator's node over the children in its slots, canonicalized."""
    _check_slots(gen, children)
    return canonicalize(gen.rebuild(children), cat or load_catalogue())


ADDITIVE = "additive"
DEGENERATE_A = "degenerate-a"
DEGENERATE_B = "degenerate-b"


def check_additivity(gen, children: Sequence, cat: Catalogue | None = None) -> str:
    """Classify a graft: additive, or one of the two degenerate situations.

    Degenerate (a): the generator is the Hopf link, whose splice is the
    identity.  (A unit-parameter cable of the unknot collapses the same way
    and is reported under (a) as well.)  Degenerate (b): the generator has
    parallel companion slots (the keychain family) and some companion is not
    prime for connected sum, so keychain levels merge.
    """
    _check_slots(gen, children)
    cat = cat or load_catalogue()
    kids = [canonicalize(c, cat) for c in children]
    if isinstance(gen, Keychain):
        if len(kids) == 1:  # the Hopf link
            return DEGENERATE_A
        if any(isinstance(c, (Keychain, Unknot)) for c in kids):
            return DEGENERATE_B
    elif isinstance(gen, Cable) and isinstance(kids[0], Unknot) and abs(gen.q) < 2:
        return DEGENERATE_A
    return ADDITIVE


def connect_sum(trees: Sequence, cat: Catalogue | None = None):
    """Connected sum as the canonical keychain; the unknot is the unit."""
    return canonicalize(Keychain(tuple(trees)), cat or load_catalogue())


# ---------------------------------------------------------------------------
# emitters


def tree_to_json(t) -> str:
    return json.dumps(_tree_data(t), sort_keys=True)


def _tree_data(t):
    return _fold(t, "data")


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

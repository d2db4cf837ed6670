"""Exact algebra of permutations, block permutations, signed permutations and wreath products.

Everything is 1-indexed.  ``Perm`` and ``SignedPerm`` share one image-tuple
kernel, ``_ImagePerm``.  A block permutation is the map induced on
{1..j_1+...+j_k} by an outer permutation of k blocks of sizes j_1..j_k
together with an inner permutation inside each block; it is the glue in
every operad structure map of this package.  Height-order constraint sets
are composed by ``block_constraints`` and moved along a permutation by
``transport_constraints``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .errors import StructuralError

_CYCLE_RE = re.compile(r"\(\s*((?:-?\d+\s*)*)\)\s*([+-]?)\s*")


def _scan_cycles(text: str, error: str):
    """Yield (integer entries, sign suffix) for each cycle of stripped ``text``;
    raise StructuralError(error) where no cycle starts, and StructuralError
    for an entry with more digits than the interpreter converts."""
    pos = 0
    while pos < len(text):
        m = _CYCLE_RE.match(text, pos)
        if m is None:
            raise StructuralError(error)
        try:
            entries = [int(tok) for tok in m.group(1).split()]
        except ValueError:
            raise StructuralError("cycle entry too long") from None
        yield entries, m.group(2)
        pos = m.end()


def _walk_cycles(w):
    """Each cycle of ``w`` (a Perm or SignedPerm) once, from its least positive
    element: its entries a, w(a), w(w(a)), ... and the sign s with
    w(last) = s*a, the product of the signs around the cycle (1 for a Perm)."""
    seen = [False] * w.degree
    for start in range(1, w.degree + 1):
        if seen[start - 1]:
            continue
        entries = [start]
        seen[start - 1] = True
        cur = w(start)
        while abs(cur) != start:
            entries.append(cur)
            seen[abs(cur) - 1] = True
            cur = w(cur)
        yield entries, 1 if cur > 0 else -1


class _ImagePerm:
    """The kernel that Perm and SignedPerm share: an image tuple (w(1),...,w(n)),
    compared and hashed by exact class, so a Perm never equals a SignedPerm."""

    __slots__ = ("images",)

    @classmethod
    def _trusted(cls, images: tuple[int, ...]):
        """Wrap an image tuple already known to be valid for ``cls``."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int):
        return cls._trusted(tuple(range(1, n + 1)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))

    def __eq__(self, other):
        return type(other) is type(self) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"{type(self).__name__}{self.images!r}"


class Perm(_ImagePerm):
    """A permutation of {1..n} stored as its image tuple (p(1),...,p(n))."""

    __slots__ = ()

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise StructuralError(f"not a bijection of 1..{len(images)}: {images!r}")
        self.images = images

    @classmethod
    def transposition(cls, i: int, j: int, n: int) -> "Perm":
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(images)

    @classmethod
    def sorting(cls, keys: Sequence) -> "Perm":
        """The permutation p with key[p(1)] <= key[p(2)] <= ..., ties kept in input order."""
        order = sorted(range(len(keys)), key=lambda i: keys[i])
        return cls(i + 1 for i in order)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition self(other(i))."""
        if self.degree != other.degree:
            raise StructuralError("degree mismatch in composition")
        images = self.images
        return Perm._trusted(tuple([images[j - 1] for j in other.images]))

    def inverse(self) -> "Perm":
        inv = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Perm._trusted(tuple(inv))

    def gather(self, seq: Sequence) -> tuple:
        """Right action on tuples: result[i] = seq[p(i+1)-1]."""
        if len(seq) != self.degree:
            raise StructuralError("length mismatch in permutation action")
        # Hot tuples are built from lists, at their exact size.  tuple() of a
        # generator allocates ten slots and then shrinks, so each tuple made
        # that way adds a block to the interpreter's per-size tuple free list,
        # where it stays until a full garbage collection.
        return tuple([seq[i - 1] for i in self.images])

    def cycle_string(self) -> str:
        if self.degree == 0:
            return "()"
        return "".join(f"({' '.join(map(str, entries))})" for entries, _ in _walk_cycles(self))


def _images_of(entries: dict[int, int], seen_max: int, degree: int | None, text: str) -> list[int]:
    """Images of parsed cycles on 1..degree (default: the largest entry)."""
    if degree is None:
        degree = seen_max
    elif degree < seen_max:  # seen_max >= 0, so a negative degree fails too
        raise StructuralError(f"degree {degree} is below the largest entry {seen_max}: {text!r}")
    return [entries.get(i, i) for i in range(1, degree + 1)]


def parse_perm(text: str, degree: int | None = None) -> Perm:
    """Parse cycle notation such as "(1 3 2)(4)"."""
    entries: dict[int, int] = {}
    seen_max = 0
    rest = text.strip()
    if rest == "()":
        rest = ""
    for elems, sign in _scan_cycles(rest, f"bad cycle notation: {text!r}"):
        if sign:
            raise StructuralError(f"bad cycle notation: {text!r}")
        if any(e <= 0 for e in elems):
            raise StructuralError(f"cycle entries must be positive: {text!r}")
        for a, b in zip(elems, elems[1:] + elems[:1]):
            if a in entries:
                raise StructuralError(f"repeated entry {a} in {text!r}")
            entries[a] = b
        seen_max = max([seen_max] + elems)
    return Perm(_images_of(entries, seen_max, degree, text))


def block_perm(outer: Perm, arities: Sequence[int], inners: Sequence[Perm]) -> Perm:
    """The permutation of {1..j_1+...+j_k} induced by permuting k blocks of sizes
    j_1..j_k by ``outer`` and block a internally by ``inners[a-1]``.

    Pairs (a,b) with 1 <= a <= k, 1 <= b <= j_a are matched with
    {1..sum(j)} lexicographically; the result beta satisfies

        beta^{-1}(sum_{i<a} j_i + b) = sum_{i < outer^{-1}(a)} j_{outer(i)} + inners[a]^{-1}(b)

    i.e. beta sends height ranks back to lexicographic positions.
    """
    k = outer.degree
    if len(arities) != k or len(inners) != k:
        raise StructuralError("block_perm: outer degree, arities and inners must agree")
    if any(j < 0 for j in arities):
        raise StructuralError("block_perm: arities must be non-negative")
    for j, inner in zip(arities, inners):
        if inner.degree != j:
            raise StructuralError("block_perm: inner permutation degree mismatch")
    return _block_perm(outer, arities, inners)


def _block_perm(outer: Perm, arities: Sequence[int], inners: Sequence[Perm]) -> Perm:
    """``block_perm`` without its checks, for callers whose inner degrees
    equal the arities by construction (a structure map's witnesses)."""
    # Height slot h holds block outer(h), whose c-th rank is the lexicographic
    # position of (outer(h), inner(c)); the blocks fill 1..sum(j) in slot order,
    # so beta is a bijection by construction.
    lex_off = [0, *accumulate(arities)]
    return Perm._trusted(
        tuple([lex_off[a - 1] + b for a in outer.images for b in inners[a - 1].images])
    )


def block_constraints(outer, arities: Sequence[int], inners, keep=None) -> frozenset:
    """(below, above) pairs on {1..j_1+...+j_k}: each ``inners[a-1]`` pair shifted
    into block a, and for each outer pair (a, b) every pair from block a to
    block b that ``keep(x, y)`` accepts (all of them when ``keep`` is None)."""
    offsets = [0, *accumulate(arities)]
    pairs = [(off + low, off + high) for off, inner in zip(offsets, inners) for low, high in inner]
    blocks = [range(lo + 1, hi + 1) for lo, hi in zip(offsets, offsets[1:])]
    cross = [(x, y) for a, b in outer for x in blocks[a - 1] for y in blocks[b - 1]]
    if keep is not None:
        cross = [(x, y) for x, y in cross if keep(x, y)]
    return frozenset(pairs + cross)


def transport_constraints(pairs, sigma_inv: Perm) -> frozenset:
    """(below, above) pairs moved by the right action of sigma: (i, k) becomes
    (sigma^-1(i), sigma^-1(k)).  The caller inverts sigma once per action."""
    return frozenset([(sigma_inv(i), sigma_inv(k)) for i, k in pairs])


@dataclass(frozen=True)
class SignedCycleType:
    """Multiset of (length, sign) pairs; the conjugacy invariant of a signed permutation."""

    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "SignedCycleType":
        pairs = tuple(sorted(((int(l), int(s)) for l, s in pairs), key=lambda p: (-p[0], -p[1])))
        for l, s in pairs:
            if l < 1 or s not in (1, -1):
                raise StructuralError(f"bad cycle type entry {(l, s)}")
        return cls(pairs)

    @property
    def total(self) -> int:
        return sum(l for l, _ in self.pairs)

    def __str__(self):  # the empty type prints as (), as cycle_string does in degree 0
        return " ".join(f"({l}){'+' if s == 1 else '-'}" for l, s in self.pairs) or "()"

    @classmethod
    def parse(cls, text: str) -> "SignedCycleType":
        pairs = []
        text = text.strip()
        if text == "()":
            text = ""
        for elems, sign in _scan_cycles(text, f"bad signed cycle type: {text!r}"):
            if len(elems) != 1:
                raise StructuralError(f"cycle types list lengths, one integer per cycle: {text!r}")
            pairs.append((elems[0], -1 if sign == "-" else 1))
        return cls.of(pairs)


class SignedPerm(_ImagePerm):
    """A signed permutation of {1..n}: a bijection w of {-n..-1,1..n} with w(-i) = -w(i).

    Stored as the signed image tuple (w(1),...,w(n)).  A signed k-cycle that
    reverses the sign an odd number of times around the cycle has order 2k.
    """

    __slots__ = ()

    def __init__(self, images: Iterable[int]):
        images = tuple(int(x) for x in images)
        if sorted(abs(x) for x in images) != list(range(1, len(images) + 1)) or 0 in images:
            raise StructuralError(f"not a signed permutation: {images!r}")
        self.images = images

    def __call__(self, i: int) -> int:
        if i > 0:
            return self.images[i - 1]
        return -self.images[-i - 1]

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        if self.degree != other.degree:
            raise StructuralError("degree mismatch in composition")
        return SignedPerm._trusted(tuple([self(j) for j in other.images]))

    def inverse(self) -> "SignedPerm":
        inv = [0] * self.degree
        for i, img in enumerate(self.images, start=1):
            inv[abs(img) - 1] = i if img > 0 else -i
        return SignedPerm._trusted(tuple(inv))

    def signed_cycle_type(self) -> SignedCycleType:
        """(length, product of signs) over the cycles of the underlying permutation."""
        return SignedCycleType.of((len(entries), sign) for entries, sign in _walk_cycles(self))

    def order(self) -> int:
        n = 1
        for length, sign in self.signed_cycle_type().pairs:
            n = math.lcm(n, length if sign == 1 else 2 * length)
        return n

    def cycle_string(self) -> str:
        """Cycles with signed entries: (a b c)s means a -> b -> c -> s*a.

        Each cycle starts at its least positive element, so the text is a
        faithful encoding, e.g. "(1 2 3)- (4)+".
        """
        if self.degree == 0:
            return "()"
        return " ".join(
            f"({' '.join(map(str, entries))}){'+' if sign == 1 else '-'}"
            for entries, sign in _walk_cycles(self)
        )


def parse_signed_perm(text: str, degree: int | None = None) -> SignedPerm:
    """Parse signed cycle notation such as "(1 2 3)- (4)+" or "(1 -3 -2)+".

    Entries are signed images; the suffix gives the sign on the closing step
    back to the first entry.
    """
    entries: dict[int, int] = {}

    def record(src, img):
        if src < 0:
            src, img = -src, -img
        if src in entries:
            raise StructuralError(f"repeated entry {src} in {text!r}")
        entries[src] = img

    seen_max = 0
    text = text.strip()
    if text == "()":
        text = ""
    for elems, suffix in _scan_cycles(text, f"bad signed cycle notation: {text!r}"):
        if not elems or elems[0] <= 0 or any(e == 0 for e in elems):
            raise StructuralError(f"bad signed cycle notation: {text!r}")
        sign = -1 if suffix == "-" else 1
        for a, b in zip(elems, elems[1:]):
            record(a, b)
        record(elems[-1], sign * elems[0])
        seen_max = max([seen_max] + [abs(e) for e in elems])
    return SignedPerm(_images_of(entries, seen_max, degree, text))


class _Z2:
    """The group of order two on {0, 1}, written additively; 0 is the identity."""

    order = 2
    identity = 0

    def mul(self, a: int, b: int) -> int:
        return a ^ b

    def inv(self, a: int) -> int:
        return a

    def __repr__(self):
        return "Z2"


Z2 = _Z2()


@dataclass(frozen=True)
class WreathElement:
    """An element (outer; perm; inner_1..inner_k) of the wreath product with a
    distinguished 0-slot: permutations of {0..k} fixing 0, with a group element
    attached to every slot.

    ``group`` only needs ``mul``/``inv``/``identity``; ``Z2`` and the
    free-word group both qualify.
    """

    outer: object
    perm: Perm
    inner: tuple
    group: object

    def __post_init__(self):
        if len(self.inner) != self.perm.degree:
            raise StructuralError("wreath element: inner length must match permutation degree")

    @classmethod
    def identity(cls, k: int, group) -> "WreathElement":
        e = group.identity
        return cls(e, Perm.identity(k), (e,) * k, group)

    @property
    def degree(self) -> int:
        return self.perm.degree

    def __mul__(self, other: "WreathElement") -> "WreathElement":
        """Product arranged so slotwise right actions compose: (x.g).h = x.(g*h)."""
        if self.group is not other.group or self.degree != other.degree:
            raise StructuralError("wreath product factors do not match")
        g = self.group
        inner = tuple(
            [
                g.mul(self.inner[other.perm(m) - 1], other.inner[m - 1])
                for m in range(1, self.degree + 1)
            ]
        )
        return WreathElement(g.mul(self.outer, other.outer), self.perm * other.perm, inner, g)

    def inverse(self) -> "WreathElement":
        g = self.group
        perm_inv = self.perm.inverse()
        inner = tuple([g.inv(self.inner[perm_inv(m) - 1]) for m in range(1, self.degree + 1)])
        return WreathElement(g.inv(self.outer), perm_inv, inner, g)

    def __repr__(self):
        return f"WreathElement(outer={self.outer!r}, perm={self.perm.images!r}, inner={self.inner!r})"


def mulclose(generators: Iterable, cap: int = 10000) -> set:
    """Close a set of group elements under multiplication.

    Each element found is multiplied on the right by the generators alone:
    every element of a finite group is a product of generators, so this
    reaches the whole group in at most |G| * |generators| products."""
    gens = list(dict.fromkeys(generators))
    els = set(gens)
    frontier = gens
    while frontier:
        new = []
        for a in frontier:
            for b in gens:
                c = a * b
                if c not in els:
                    els.add(c)
                    new.append(c)
                if len(els) > cap:
                    raise StructuralError("group closure exceeded cap")
        frontier = new
    return els

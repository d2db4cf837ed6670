"""Words in a free product of formal symbols and exact affine maps.

Letters are puck, knot or group symbols (free, cancelling only against their
own inverses) or exact affine cubes (which multiply by composition instead of
concatenating).  Words model composites of re-embedding maps symbolically:
conjugation is formal, and products of conjugated maps (the splice stack that
``splice.splice_compose`` folds) can be compared letter for letter.  Every
word is reduced when it is built, so equal elements have equal letters.  One
seam walk (``_seam``) is the only rule for how two letters meet: construction
checks each raw letter and pushes it through the walk (``_reduce_letters``),
a reduced letter list is multiplied in place by it (``push_letters``), a
product of two reduced words walks only the seam where they cancel and joins
the untouched ends as tuple slices (when one factor is empty it returns the
other factor itself), and ``quotient_letters`` forms prev^-1 * c by cutting
the common prefix of prev and c whole, found by a binary search over tuple
slices, then finishes with the walk.  Inverting a word maps its letters, in
reverse, through one module table from each symbol letter to its inverse;
the table fills on first use and holds at most two entries per symbol name
and kind.  Cube letters are inverted on every call and never stored, since
their number is unbounded.  Construction matches each symbol name against
the name syntax of the text form once, and keeps the names that match in a
module set, so every word prints as text that ``parse_word`` reads back as
the same word.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .cubes import AffineMap, format_affine, parse_affine
from .errors import StructuralError

PUCK = "P"
KNOT = "K"
GROUP = "G"
CUBE = "C"

_SYMBOL_KINDS = frozenset((PUCK, KNOT, GROUP))
_NAME = r"[A-Za-z_][A-Za-z0-9_']*"  # a symbol name, as parse_word reads it
_NAME_RE = re.compile(_NAME)
_SYMBOL_RE = re.compile(rf"^([PKG])\.({_NAME})(\^-1)?$")
# The symbol names that construction has matched against _NAME, so each name
# is matched once; like the inverse table, it holds one entry per name in use.
_NAMES: set[str] = set()


class Letter(NamedTuple):
    kind: str
    name: str | None
    exp: int
    cube: AffineMap | None

    def inverse(self) -> "Letter":
        if self.kind == CUBE:
            # a cube letter with exponent -1 stands for the inverse map
            return Letter(CUBE, None, 1, self.cube.inverse() if self.exp == 1 else self.cube)
        return Letter(self.kind, self.name, -self.exp, None)


class _InverseTable(dict):
    """Symbol letter -> inverse letter, filled on first lookup.  A symbol miss
    stores the pair both ways; a cube letter is inverted and not stored."""

    __slots__ = ()

    def __missing__(self, lt: Letter) -> Letter:
        inv = lt.inverse()
        if lt.kind != CUBE:
            self[lt] = inv
            self[inv] = lt
        return inv


_INVERSE = _InverseTable()


def _exponent_error(exp) -> StructuralError:
    return StructuralError(f"letter exponent must be 1 or -1, got {exp!r}")


def _symbol(kind: str, name: str, exp: int) -> Letter:
    if exp not in (1, -1):
        raise _exponent_error(exp)
    return Letter(kind, name, exp, None)


def puck(name: str, exp: int = 1) -> Letter:
    return _symbol(PUCK, name, exp)


def knot(name: str, exp: int = 1) -> Letter:
    return _symbol(KNOT, name, exp)


def gsym(name: str, exp: int = 1) -> Letter:
    return _symbol(GROUP, name, exp)


def cube_letter(m: AffineMap) -> Letter:
    return Letter(CUBE, None, 1, m)


def _readable_name(name: str) -> bool:
    """Whether ``parse_word`` reads name as one symbol name; a name that it
    does is kept in _NAMES."""
    if _NAME_RE.fullmatch(name) is None:
        return False
    _NAMES.add(name)
    return True


def _reduce_letters(letters) -> tuple[Letter, ...]:
    """Reduce raw ``letters`` by pushing each one through the seam walk.  It
    is the one place raw letters enter a word, so it checks each letter once:
    an exponent of 1 or -1 (P.a^2 would print as P.a, yet cancel P.a), a known
    kind (X.a would print as a word ``parse_word`` rejects), a ``str`` symbol
    name (P.None would read back as the symbol "None") that ``parse_word``
    reads as one name (P.a b would not read back), no cube on a symbol (P.a
    carrying a map would print as P.a, yet differ from it) and an
    ``AffineMap`` cube.  A cube letter is read as the map it stands for;
    identities drop.  So every word prints as text that reads back as it."""
    out = []
    for lt in letters:
        kind, name, exp, cube = lt
        if exp not in (1, -1):
            raise _exponent_error(exp)
        if kind == CUBE:
            if not isinstance(cube, AffineMap):
                raise StructuralError(f"cube letter must hold an AffineMap, got {cube!r}")
            if exp == -1:
                cube = cube.inverse()
            if cube.is_identity():
                continue
            lt = cube_letter(cube)
        elif kind not in _SYMBOL_KINDS:
            raise StructuralError(f"unknown letter kind {kind!r}")
        elif not isinstance(name, str):
            raise StructuralError(f"symbol letter name must be a str, got {name!r}")
        elif name not in _NAMES and not _readable_name(name):
            raise StructuralError(f"symbol letter name must match {_NAME}, got {name!r}")
        elif cube is not None:
            raise StructuralError(f"symbol letter {kind}.{name} must carry no cube, got {cube!r}")
        push_letters(out, (lt,))
    return tuple(out)


def _seam(left, right) -> tuple[int, tuple, int]:
    """Walk the seam of reduced ``left`` and ``right`` (tuples or lists):
    their product is ``left[:i] + mid + right[j:]`` for the returned
    (i, mid, j).  Both factors are reduced, so letters can cancel only at the
    seam: the walk goes inwards from the end of left and the start of right
    while inverse symbols meet or cubes merge to the identity.  A cube merge
    that is not the identity ends the walk, and ``mid`` holds its one cube
    letter; otherwise ``mid`` is empty.  The one rule for how two letters
    meet: construction, products, pushes and quotient steps all read it.
    Letters are indexed as (kind, name, exp, cube)."""
    i, j, n = len(left), 0, len(right)
    while i and j < n:
        x, y = left[i - 1], right[j]
        if x[0] != y[0]:
            break
        if x[0] == CUBE:
            cube = x[3].compose(y[3])
            if not cube.is_identity():
                return i - 1, (cube_letter(cube),), j + 1
        elif x[1] != y[1] or x[2] == y[2]:
            break
        i -= 1
        j += 1
    return i, (), j


def push_letters(acc: list, right: tuple) -> None:
    """Multiply the reduced letter list ``acc`` in place by the reduced
    letters ``right``: the seam walk, then one slice assignment."""
    i, mid, j = _seam(acc, right)
    acc[i:] = mid + right[j:]


def inverse_letters(letters) -> tuple[Letter, ...]:
    """The letters of the inverse word: ``letters`` in reverse, each mapped
    through the inverse table.  Built through a list so the tuple has its
    exact size (see Perm.gather): tuple(map(...)) raised axioms peak RSS by
    about 1 MB."""
    return tuple([*map(_INVERSE.__getitem__, reversed(letters))])


def common_prefix(a: tuple, b: tuple) -> int:
    """The length of the longest common prefix of two letter tuples, found by
    a binary search over slice equality.  Tuple comparison runs in C and
    tries identity first, so letters shared by reference compare at once."""
    hi = min(len(a), len(b))
    if not hi or a[0] != b[0]:
        return 0
    lo = 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def quotient_letters(prev: tuple, c: tuple) -> tuple[Letter, ...]:
    """The reduced letters of prev^-1 * c, for reduced letter tuples.  The
    common prefix of length L cancels whole, so the product is the inverse of
    prev[L:] times c[L:]; their seam holds no cancelling symbols (prev[L] and
    c[L] differ), so the seam walk merges prev[L]^-1 and c[L] when both are
    cubes and otherwise stops at once.  An empty ``prev`` returns ``c``
    itself."""
    if not prev:
        return c
    n = common_prefix(prev, c)
    head, tail = inverse_letters(prev[n:]), c[n:]
    i, mid, j = _seam(head, tail)
    return head[:i] + mid + tail[j:]


class GroupWord:
    """A reduced word of letters, read left to right as a composite (leftmost
    outermost).  Building one reduces the given letters, so no two adjacent
    letters cancel or are both cubes, and no cube letter is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        self.letters = _reduce_letters(letters)

    @classmethod
    def _trusted(cls, letters: tuple[Letter, ...]) -> "GroupWord":
        """Wrap letters already known to be reduced."""
        w = object.__new__(cls)
        w.letters = letters
        return w

    @classmethod
    def of(cls, *letters: Letter) -> "GroupWord":
        return cls(letters)

    @classmethod
    def empty(cls) -> "GroupWord":
        return cls._trusted(())

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        # An empty factor returns the other one itself; otherwise the seam
        # walk says which ends of the factors survive.
        left, right = self.letters, other.letters
        if not left:
            return other
        if not right:
            return self
        i, mid, j = _seam(left, right)
        return GroupWord._trusted(left[:i] + mid + right[j:])

    def inverse(self) -> "GroupWord":
        return GroupWord._trusted(inverse_letters(self.letters))

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"GroupWord({format_word(self)!r})"


def reduce_word(w: GroupWord) -> GroupWord:
    """Normal form: no adjacent inverse symbol pairs, adjacent cubes merged.
    Words are reduced on construction, so this returns ``w`` itself."""
    return w


def conjugate(a: GroupWord, w: GroupWord) -> GroupWord:
    """a * w * a^-1, reduced like every word; the empty word when w is."""
    if not w.letters:
        return w
    return a * w * a.inverse()


class FreeWordGroup:
    """Group protocol adapter so wreath elements can carry word entries: the
    identity, ``mul`` and ``inv``.  Free words have no finite order, so it
    has no ``order`` attribute, unlike ``perm.Z2``."""

    identity = GroupWord.empty()

    @staticmethod
    def mul(a: GroupWord, b: GroupWord) -> GroupWord:
        return a * b

    @staticmethod
    def inv(a: GroupWord) -> GroupWord:
        return a.inverse()


FREE_WORDS = FreeWordGroup()


# ---------------------------------------------------------------------------
# text form


def format_letter(lt: Letter) -> str:
    if lt.kind == CUBE:
        return "[" + format_affine(lt.cube) + "]"
    suffix = "^-1" if lt.exp == -1 else ""
    return f"{lt.kind}.{lt.name}{suffix}"


def format_word(w: GroupWord) -> str:
    if not w.letters:
        return "e"
    return " ".join(format_letter(lt) for lt in w.letters)


def parse_word(text: str) -> GroupWord:
    text = text.strip()
    if text in ("", "e"):
        return GroupWord.empty()
    letters = []
    for tok in text.split():
        if tok.startswith("["):
            if not tok.endswith("]"):
                raise StructuralError(f"unterminated cube letter: {tok!r}")
            letters.append(cube_letter(parse_affine(tok[1:-1])))
            continue
        m = _SYMBOL_RE.match(tok)
        if m is None:
            raise StructuralError(f"bad letter: {tok!r}")
        letters.append(Letter(m.group(1), m.group(2), -1 if m.group(3) else 1, None))
    return GroupWord(letters)

"""Words in a free product of formal symbols and exact affine maps.

Letters are puck, knot or group symbols (free, cancelling only against their
own inverses) or exact affine cubes (which multiply by composition instead of
concatenating).  Words model composites of re-embedding maps symbolically:
conjugation is formal, and products of conjugated maps (the splice stack that
``splice.splice_compose`` folds) can be compared letter for letter.  Every
word is reduced when it is built, so equal elements have equal letters.  A
product of two reduced words walks only the seam where they cancel and joins
the untouched ends as tuple slices; when one factor is empty it returns the
other factor itself.  Inverting a word maps its letters, in reverse, through
one module table from each symbol letter to its inverse; the table fills on
first use and holds at most two entries per symbol name and kind.  Cube
letters are inverted on every call and never stored, since their number is
unbounded.
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

_SYMBOL_RE = re.compile(r"^([PKG])\.([A-Za-z_][A-Za-z0-9_']*)(\^-1)?$")


class Letter(NamedTuple):
    kind: str
    name: str | None
    exp: int
    cube: AffineMap | None

    def inverse(self) -> "Letter":
        if self.kind == CUBE:
            return Letter(CUBE, None, 1, self.cube.inverse())
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


def _symbol(kind: str, name: str, exp: int) -> Letter:
    if exp not in (1, -1):
        raise StructuralError(f"letter exponent must be 1 or -1, got {exp!r}")
    return Letter(kind, name, exp, None)


def puck(name: str, exp: int = 1) -> Letter:
    return _symbol(PUCK, name, exp)


def knot(name: str, exp: int = 1) -> Letter:
    return _symbol(KNOT, name, exp)


def gsym(name: str, exp: int = 1) -> Letter:
    return _symbol(GROUP, name, exp)


def cube_letter(m: AffineMap) -> Letter:
    return Letter(CUBE, None, 1, m)


def _reduce_letters(letters) -> tuple[Letter, ...]:
    """Reduce raw ``letters`` on a stack, cancelling inverse symbol pairs and
    merging adjacent cubes as they meet; the one reducer."""
    out = []
    for lt in letters:
        if lt.kind == CUBE:
            cube = lt.cube if lt.exp == 1 else lt.cube.inverse()
            if out and out[-1].kind == CUBE:
                cube = out[-1].cube.compose(cube)
                out.pop()
            if not cube.is_identity():
                out.append(Letter(CUBE, None, 1, cube))
            continue
        if out:
            top = out[-1]
            if top.kind == lt.kind and top.name == lt.name and top.exp == -lt.exp:
                out.pop()
                continue
        out.append(lt)
    return tuple(out)


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
        # An empty factor returns the other one itself.  Otherwise both
        # factors are reduced, so letters can cancel only at the seam: walk
        # inwards from the end of left and the start of right while inverse
        # symbols meet or cubes merge to the identity.  A cube merge that is
        # not the identity ends the walk, and its cube sits between the
        # untouched ends.  Letters are indexed as (kind, name, exp, cube).
        left, right = self.letters, other.letters
        if not left:
            return other
        if not right:
            return self
        i, j, n = len(left), 0, len(right)
        while i and j < n:
            x, y = left[i - 1], right[j]
            if x[0] != y[0]:
                break
            if x[0] == CUBE:
                cube = x[3].compose(y[3])
                if not cube.is_identity():
                    return GroupWord._trusted(left[: i - 1] + (cube_letter(cube),) + right[j + 1 :])
            elif x[1] != y[1] or x[2] == y[2]:
                break
            i -= 1
            j += 1
        return GroupWord._trusted(left[:i] + right[j:])

    def inverse(self) -> "GroupWord":
        # Built through a list so the tuple has its exact size (see
        # Perm.gather): tuple(map(...)) raised axioms peak RSS by about 1 MB.
        return GroupWord._trusted(tuple([*map(_INVERSE.__getitem__, reversed(self.letters))]))

    def is_empty(self) -> bool:
        return not self.letters

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
    """Group protocol adapter so wreath elements can carry word entries.

    Free words have no finite order, so it has no ``order`` attribute and such
    wreath elements have no permutation model."""

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

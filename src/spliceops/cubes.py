"""Little cubes with exact rational coefficients.

A little interval is an increasing affine map of [-1,1] into itself; a little
n-cube is an axiswise product of little intervals.  Tuples of little cubes
with pairwise disjoint interiors compose by affine substitution and carry a
right symmetric-group action, all over exact rationals.

Inside, every axis is one integer triple (s, o, d) in lowest terms with
d > 0, the map x -> (s*x + o)/d.  ``AffineMap``, ``LittleInterval`` (one
axis) and ``LittleCube`` are subclasses of one kernel class, ``_AxisMap``: a
tuple of such triples with one copy of composition, the identity, equality
and hashing, so equal maps have equal triples and comparisons are integer
comparisons.  Each subclass adds only its validating constructors and what
it shows.  One kernel function, ``_little_axis``, checks that a triple is a
little interval; the public constructor and the integer ones
(``LittleInterval.from_axis``, ``LittleCube.from_axes``) all go through it.
``Fraction`` appears only at the boundary: the public attributes, the reprs
and the text and JSON forms, which one formatter writes for all three.
``CubesElement(dim, cubes)`` checks disjointness for outside input; composites
and permutations are disjoint by construction and skip it (``_trusted``).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import starmap
from math import gcd
from typing import Iterable, Sequence

from .errors import StructuralError
from .perm import Perm

_INTERVAL_RE = re.compile(r"^\s*(-?\d+(?:/\d+)?)\s*\*\s*x\s*([+-])\s*(\d+(?:/\d+)?)\s*$")

# ---------------------------------------------------------------------------
# the per-axis kernel: (s, o, d) means x -> (s*x + o)/d, gcd(s, o, d) = 1, d > 0

_IDENTITY_AXIS = (1, 0, 1)


def _axis_of(scale, offset) -> tuple[int, int, int]:
    """The triple of x -> scale*x + offset; ints and Fractions are read as they are."""
    if not isinstance(scale, (int, Fraction)):
        scale = Fraction(scale)
    if not isinstance(offset, (int, Fraction)):
        offset = Fraction(offset)
    s, sd = scale.numerator, scale.denominator
    o, od = offset.numerator, offset.denominator
    if sd == od:
        return s, o, sd
    # over the least common denominator no prime divides all three
    d = sd // gcd(sd, od) * od
    return s * (d // sd), o * (d // od), d


def _axis_compose(f, g) -> tuple[int, int, int]:
    """f after g: (s1*(s2*x + o2)/d2 + o1)/d1, brought to lowest terms by one gcd."""
    s1, o1, d1 = f
    s2, o2, d2 = g
    s, o, d = s1 * s2, s1 * o2 + o1 * d2, d1 * d2
    c = gcd(s, o, d)
    if c == 1:
        return s, o, d
    return s // c, o // c, d // c


def _axis_inverse(f) -> tuple[int, int, int]:
    """x -> (d*x - o)/s; lowest terms already, and s > 0 for every stored scale."""
    s, o, d = f
    return d, -o, s


def _little_axis(s: int, o: int, d: int) -> tuple[int, int, int]:
    """The triple (s, o, d) in lowest terms with d > 0, checked to be a little
    interval: positive scale and image [(o - s)/d, (o + s)/d] inside [-1, 1]."""
    if d == 0:
        raise StructuralError("interval denominator must be nonzero")
    c = gcd(s, o, d)
    if d < 0:
        c = -c
    if c != 1:
        s, o, d = s // c, o // c, d // c
    if s <= 0:
        raise StructuralError("interval scale must be positive")
    if o - s < -d or o + s > d:
        scale, offset = Fraction(s, d), Fraction(o, d)
        raise StructuralError(f"interval {scale}*x+{offset} does not map [-1,1] into itself")
    return s, o, d


def _axis_fractions(f) -> tuple[Fraction, Fraction]:
    """(scale, offset) of a triple, as the Fractions the public attributes show."""
    s, o, d = f
    return Fraction(s, d), Fraction(o, d)


class _AxisMap:
    """The kernel the axis maps share: ``_axes``, one triple per axis.

    Subclasses differ only in how they validate outside input and in what
    they show; equality is by exact class, so a little cube, its affine map
    and its one-axis factor stay unequal.
    """

    __slots__ = ("_axes",)
    _kind: str  # names the class in dimension errors

    @classmethod
    def _trusted(cls, axes: tuple):
        """Wrap triples already known to be valid for ``cls``."""
        m = object.__new__(cls)
        m._axes = axes
        return m

    @classmethod
    def identity(cls, dim: int = 1):
        """The identity on ``dim`` axes; a little interval has one."""
        return cls._trusted((_IDENTITY_AXIS,) * dim)

    @property
    def dim(self) -> int:
        return len(self._axes)

    def compose(self, other):
        """self after other, axiswise: a1*(a2*x + b2) + b1."""
        if len(self._axes) != len(other._axes):
            raise StructuralError(f"dimension mismatch in {self._kind} composition")
        return self._trusted(tuple(map(_axis_compose, self._axes, other._axes)))

    def is_identity(self) -> bool:
        return all(f == _IDENTITY_AXIS for f in self._axes)

    def __eq__(self, other):
        return type(other) is type(self) and self._axes == other._axes

    def __hash__(self):
        return hash(self._axes)


class AffineMap(_AxisMap):
    """An axiswise affine map x -> a*x + b with positive rational scales.

    The group closure of little cubes under composition and inversion; no
    containment constraint is imposed.
    """

    __slots__ = ()
    _kind = "affine"
    # bound here too: perfbench's layer tracer wraps only methods in the class's own __dict__
    compose = _AxisMap.compose

    def __init__(self, axes: Iterable[tuple[Fraction, Fraction]]):
        axes = tuple(_axis_of(a, b) for a, b in axes)
        if any(s <= 0 for s, _, _ in axes):
            raise StructuralError("affine scales must be positive")
        self._axes = axes

    @property
    def axes(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple(map(_axis_fractions, self._axes))

    def inverse(self) -> "AffineMap":
        return AffineMap._trusted(tuple(map(_axis_inverse, self._axes)))

    def __repr__(self):
        return f"AffineMap({self.axes!r})"


class LittleInterval(_AxisMap):
    """x -> scale*x + offset with scale > 0 and image inside [-1,1]; one axis."""

    __slots__ = ()
    _kind = "interval"
    # bound here too: perfbench's layer tracer wraps only methods in the class's own __dict__
    compose = _AxisMap.compose

    def __init__(self, scale, offset):
        self._axes = (_little_axis(*_axis_of(scale, offset)),)

    @classmethod
    def from_axis(cls, s: int, o: int, d: int) -> "LittleInterval":
        """The interval x -> (s*x + o)/d from any integer triple, checked."""
        return cls._trusted((_little_axis(s, o, d),))

    @property
    def scale(self) -> Fraction:
        s, _, d = self._axes[0]
        return Fraction(s, d)

    @property
    def offset(self) -> Fraction:
        _, o, d = self._axes[0]
        return Fraction(o, d)

    @property
    def lo(self) -> Fraction:
        s, o, d = self._axes[0]
        return Fraction(o - s, d)

    @property
    def hi(self) -> Fraction:
        s, o, d = self._axes[0]
        return Fraction(o + s, d)

    def __call__(self, x):
        return self.scale * Fraction(x) + self.offset

    def image(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi

    def __repr__(self):
        return f"LittleInterval({self.scale}, {self.offset})"


class LittleCube(_AxisMap):
    """A product of little intervals, one per axis, stored as their triples."""

    __slots__ = ()
    _kind = "cube"

    def __init__(self, factors: Iterable[LittleInterval]):
        factors = tuple(factors)
        if not all(isinstance(f, LittleInterval) for f in factors):
            raise StructuralError("cube factors must be little intervals")
        self._axes = tuple(f._axes[0] for f in factors)

    @classmethod
    def from_axes(cls, axes: Iterable[tuple[int, int, int]]) -> "LittleCube":
        """The cube with one factor x -> (s*x + o)/d per integer triple, each checked."""
        return cls._trusted(tuple(starmap(_little_axis, axes)))

    @property
    def factors(self) -> tuple[LittleInterval, ...]:
        return tuple([LittleInterval._trusted((f,)) for f in self._axes])

    def as_affine(self) -> AffineMap:
        return AffineMap._trusted(self._axes)

    def __repr__(self):
        return f"LittleCube({list(self.factors)!r})"


def interiors_intersect(c1: LittleCube, c2: LittleCube) -> bool:
    """Exact test: open boxes meet iff the open interval images meet on every
    axis; the endpoints (o -+ s)/d are compared cross-multiplied."""
    for (s1, o1, d1), (s2, o2, d2) in zip(c1._axes, c2._axes):
        if not ((o1 - s1) * d2 < (o2 + s2) * d1 and (o2 - s2) * d1 < (o1 + s1) * d2):
            return False
    return True


class CubesElement:
    """A tuple of little cubes of one dimension with pairwise disjoint interiors."""

    __slots__ = ("dim", "cubes")

    def __init__(self, dim: int, cubes: Iterable[LittleCube]):
        cubes = tuple(cubes)
        if any(c.dim != dim for c in cubes):
            raise StructuralError("all cubes must share the element dimension")
        for i in range(len(cubes)):
            for k in range(i + 1, len(cubes)):
                if interiors_intersect(cubes[i], cubes[k]):
                    raise StructuralError(f"cubes {i + 1} and {k + 1} have intersecting interiors")
        self.dim = dim
        self.cubes = cubes

    @classmethod
    def _trusted(cls, dim: int, cubes: tuple) -> "CubesElement":
        """Wrap a tuple of dim-dimensional cubes already known to be disjoint."""
        e = object.__new__(cls)
        e.dim = dim
        e.cubes = cubes
        return e

    @classmethod
    def identity(cls, dim: int) -> "CubesElement":
        return cls(dim, [LittleCube.identity(dim)])

    @property
    def arity(self) -> int:
        return len(self.cubes)

    def __eq__(self, other):
        return (
            isinstance(other, CubesElement)
            and self.dim == other.dim
            and self.cubes == other.cubes
        )

    def __hash__(self):
        return hash((self.dim, self.cubes))

    def __repr__(self):
        return f"CubesElement(dim={self.dim}, cubes={list(self.cubes)!r})"


def graft_cubes(outer, args) -> tuple[LittleCube, ...]:
    """The cubes of args[a] mapped into cube a of outer, for any cube-like operad."""
    if len(args) != outer.arity:
        raise StructuralError(f"expected {outer.arity} arguments, got {len(args)}")
    if any(a.dim != outer.dim for a in args):
        raise StructuralError("dimension mismatch in composition")
    return tuple([big.compose(small) for big, arg in zip(outer.cubes, args) for small in arg.cubes])


def cube_compose(outer: CubesElement, args: Sequence[CubesElement]) -> CubesElement:
    """Operad structure map: graft args[a] into the a-th cube of outer."""
    return CubesElement._trusted(outer.dim, graft_cubes(outer, args))


def permute_cubes(elem: CubesElement, sigma: Perm) -> CubesElement:
    """Right symmetric-group action: cube i of the result is cube sigma(i)."""
    if sigma.degree != elem.arity:
        raise StructuralError("permutation degree must match arity")
    return CubesElement._trusted(elem.dim, sigma.gather(elem.cubes))


# ---------------------------------------------------------------------------
# text and JSON forms


def _format_axes(m: _AxisMap) -> str:
    """The text of an interval, cube or affine map: ``a*x+b`` or ``a*x-b`` per axis, comma-joined."""
    return ",".join(
        f"{scale}*x{'+' if offset >= 0 else '-'}{abs(offset)}"
        for scale, offset in map(_axis_fractions, m._axes)
    )


format_interval = format_cube = format_affine = _format_axes


def _parse_axis(text: str, what: str) -> tuple[Fraction, Fraction]:
    """(scale, offset) from ``a*x+b`` or ``a*x-b`` text; ``what`` names the form in errors."""
    m = _INTERVAL_RE.match(text)
    if m is None:
        raise StructuralError(f"bad {what} text: {text!r}")
    offset = Fraction(m.group(3))
    return Fraction(m.group(1)), -offset if m.group(2) == "-" else offset


def parse_interval(text: str) -> LittleInterval:
    return LittleInterval(*_parse_axis(text, "interval"))


def parse_cube(text: str) -> LittleCube:
    parts = text.split(",") if text else []
    return LittleCube(parse_interval(p) for p in parts)


def parse_affine(text: str) -> AffineMap:
    return AffineMap(_parse_axis(part, "affine") for part in (text.split(",") if text else []))


def cube_array(cubes: Iterable[LittleCube]) -> list:
    """The JSON array of cubes: one [scale, offset] string pair per axis per cube."""
    return [[[str(a), str(b)] for a, b in map(_axis_fractions, c._axes)] for c in cubes]


def cubes_to_json(elem: CubesElement) -> str:
    data = {"dim": elem.dim, "cubes": cube_array(elem.cubes)}
    return json.dumps(data, sort_keys=True)


def cubes_from_json(text: str) -> CubesElement:
    data = json.loads(text)
    cubes = [
        LittleCube(LittleInterval(Fraction(a), Fraction(b)) for a, b in axes)
        for axes in data["cubes"]
    ]
    return CubesElement(data["dim"], cubes)

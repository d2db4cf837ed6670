"""Little cubes with exact rational coefficients.

A little interval is an increasing affine map of [-1,1] into itself; a little
n-cube is an axiswise product of little intervals.  Tuples of little cubes
with pairwise disjoint interiors compose by affine substitution and carry a
right symmetric-group action, all over exact rationals.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import StructuralError
from .perm import Perm

_INTERVAL_RE = re.compile(r"^\s*(-?\d+(?:/\d+)?)\s*\*\s*x\s*([+-])\s*(\d+(?:/\d+)?)\s*$")


class AffineMap:
    """An axiswise affine map x -> a*x + b with positive rational scales.

    The group closure of little cubes under composition and inversion; no
    containment constraint is imposed.
    """

    __slots__ = ("axes",)

    def __init__(self, axes: Iterable[tuple[Fraction, Fraction]]):
        axes = tuple(
            (a if isinstance(a, Fraction) else Fraction(a), b if isinstance(b, Fraction) else Fraction(b))
            for a, b in axes
        )
        if any(a <= 0 for a, _ in axes):
            raise StructuralError("affine scales must be positive")
        self.axes = axes

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(((Fraction(1), Fraction(0)),) * dim)

    @property
    def dim(self) -> int:
        return len(self.axes)

    def compose(self, other: "AffineMap") -> "AffineMap":
        """self after other, axiswise: a1*(a2*x + b2) + b1."""
        if self.dim != other.dim:
            raise StructuralError("dimension mismatch in affine composition")
        return AffineMap(
            (a1 * a2, a1 * b2 + b1) for (a1, b1), (a2, b2) in zip(self.axes, other.axes)
        )

    def inverse(self) -> "AffineMap":
        return AffineMap((1 / a, -b / a) for a, b in self.axes)

    def is_identity(self) -> bool:
        return all(a == 1 and b == 0 for a, b in self.axes)

    def __eq__(self, other):
        return isinstance(other, AffineMap) and self.axes == other.axes

    def __hash__(self):
        return hash(self.axes)

    def __repr__(self):
        return f"AffineMap({self.axes!r})"


class LittleInterval:
    """x -> scale*x + offset with scale > 0 and image inside [-1,1]."""

    __slots__ = ("scale", "offset", "lo", "hi")

    def __init__(self, scale, offset):
        if not isinstance(scale, Fraction):
            scale = Fraction(scale)
        if not isinstance(offset, Fraction):
            offset = Fraction(offset)
        if scale <= 0:
            raise StructuralError("interval scale must be positive")
        self.scale = scale
        self.offset = offset
        self.lo = offset - scale
        self.hi = offset + scale
        if self.lo < -1 or self.hi > 1:
            raise StructuralError(f"interval {scale}*x+{offset} does not map [-1,1] into itself")

    @classmethod
    def identity(cls) -> "LittleInterval":
        return cls(1, 0)

    def __call__(self, x):
        return self.scale * Fraction(x) + self.offset

    def image(self) -> tuple[Fraction, Fraction]:
        return self.lo, self.hi

    def compose(self, other: "LittleInterval") -> "LittleInterval":
        return LittleInterval(self.scale * other.scale, self.scale * other.offset + self.offset)

    def is_identity(self) -> bool:
        return self.scale == 1 and self.offset == 0

    def __eq__(self, other):
        return (
            isinstance(other, LittleInterval)
            and self.scale == other.scale
            and self.offset == other.offset
        )

    def __hash__(self):
        return hash((self.scale, self.offset))

    def __repr__(self):
        return f"LittleInterval({self.scale}, {self.offset})"


class LittleCube:
    """A product of little intervals, one per axis."""

    __slots__ = ("factors",)

    def __init__(self, factors: Iterable[LittleInterval]):
        self.factors = tuple(factors)

    @classmethod
    def identity(cls, dim: int) -> "LittleCube":
        return cls(LittleInterval.identity() for _ in range(dim))

    @property
    def dim(self) -> int:
        return len(self.factors)

    def compose(self, other: "LittleCube") -> "LittleCube":
        if self.dim != other.dim:
            raise StructuralError("dimension mismatch in cube composition")
        return LittleCube(f.compose(g) for f, g in zip(self.factors, other.factors))

    def is_identity(self) -> bool:
        return all(f.is_identity() for f in self.factors)

    def as_affine(self) -> AffineMap:
        return AffineMap((f.scale, f.offset) for f in self.factors)

    def __eq__(self, other):
        return isinstance(other, LittleCube) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"LittleCube({list(self.factors)!r})"


def interiors_intersect(c1: LittleCube, c2: LittleCube) -> bool:
    """Exact test: open boxes meet iff the open interval images meet on every axis."""
    for f, g in zip(c1.factors, c2.factors):
        if not (f.lo < g.hi and g.lo < f.hi):
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


def graft_cubes(outer, args) -> list[LittleCube]:
    """The cubes of args[a] mapped into cube a of outer, for any cube-like operad."""
    if len(args) != outer.arity:
        raise StructuralError(f"expected {outer.arity} arguments, got {len(args)}")
    if any(a.dim != outer.dim for a in args):
        raise StructuralError("dimension mismatch in composition")
    return [big.compose(small) for big, arg in zip(outer.cubes, args) for small in arg.cubes]


def cube_compose(outer: CubesElement, args: Sequence[CubesElement]) -> CubesElement:
    """Operad structure map: graft args[a] into the a-th cube of outer."""
    return CubesElement(outer.dim, graft_cubes(outer, args))


def permute_cubes(elem: CubesElement, sigma: Perm) -> CubesElement:
    """Right symmetric-group action: cube i of the result is cube sigma(i)."""
    if sigma.degree != elem.arity:
        raise StructuralError("permutation degree must match arity")
    return CubesElement(elem.dim, sigma.gather(elem.cubes))


# ---------------------------------------------------------------------------
# text and JSON forms


def _format_axis(scale: Fraction, offset: Fraction) -> str:
    sign = "+" if offset >= 0 else "-"
    return f"{scale}*x{sign}{abs(offset)}"


def _parse_axis(text: str, what: str) -> tuple[Fraction, Fraction]:
    """(scale, offset) from ``a*x+b`` or ``a*x-b`` text; ``what`` names the form in errors."""
    m = _INTERVAL_RE.match(text)
    if m is None:
        raise StructuralError(f"bad {what} text: {text!r}")
    offset = Fraction(m.group(3))
    return Fraction(m.group(1)), -offset if m.group(2) == "-" else offset


def format_interval(f: LittleInterval) -> str:
    return _format_axis(f.scale, f.offset)


def parse_interval(text: str) -> LittleInterval:
    return LittleInterval(*_parse_axis(text, "interval"))


def format_cube(cube: LittleCube) -> str:
    return ",".join(format_interval(f) for f in cube.factors)


def parse_cube(text: str) -> LittleCube:
    parts = text.split(",") if text else []
    return LittleCube(parse_interval(p) for p in parts)


def format_affine(m: AffineMap) -> str:
    return ",".join(_format_axis(a, b) for a, b in m.axes)


def parse_affine(text: str) -> AffineMap:
    return AffineMap(_parse_axis(part, "affine") for part in (text.split(",") if text else []))


def cube_array(cubes: Iterable[LittleCube]) -> list:
    """The JSON array of cubes: one [scale, offset] string pair per axis per cube."""
    return [[[str(f.scale), str(f.offset)] for f in c.factors] for c in cubes]


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

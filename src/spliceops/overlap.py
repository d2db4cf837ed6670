"""Overlapping cubes: tuples of little cubes with a height order recorded only
where it matters.

An element is a tuple of cubes (interiors may now intersect) together with the
set of order constraints "i strictly below k", one for each pair of cubes
whose image interiors intersect.  Two height permutations that agree on all
such pairs describe the same element, so equality compares cubes and
constraints; a canonical witness permutation (the lexicographically least
linearization of the constraints) makes every element hashable and printable.
"""

from __future__ import annotations

import heapq
import json
from fractions import Fraction
from typing import Iterable, Sequence

from .cubes import (
    CubesElement,
    LittleCube,
    cube_array,
    format_cube,
    graft_cubes,
    interiors_intersect,
)
from .errors import StructuralError
from .perm import Perm, block_perm


def least_linearization(n: int, constraints) -> Perm:
    """Lexicographically least topological order of {1..n} under (below, above) pairs."""
    succ = [[] for _ in range(n + 1)]
    indeg = [0] * (n + 1)
    for low, high in constraints:
        succ[low].append(high)
        indeg[high] += 1
    heap = [i for i in range(1, n + 1) if indeg[i] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        i = heapq.heappop(heap)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(heap, j)
    if len(order) != n:
        raise StructuralError("constraints contain a cycle")
    return Perm(order)


class OverlapElement:
    """Cubes plus exact order constraints on interior-intersecting pairs."""

    __slots__ = ("dim", "cubes", "constraints", "witness")

    def __init__(self, dim, cubes, constraints, witness):
        self.dim = dim
        self.cubes = cubes
        self.constraints = constraints
        self.witness = witness

    @classmethod
    def identity(cls, dim: int) -> "OverlapElement":
        return overlap_canonical([LittleCube.identity(dim)], Perm.identity(1), dim=dim)

    @property
    def arity(self) -> int:
        return len(self.cubes)

    def __eq__(self, other):
        return (
            isinstance(other, OverlapElement)
            and self.dim == other.dim
            and self.cubes == other.cubes
            and self.constraints == other.constraints
        )

    def __hash__(self):
        return hash((self.dim, self.cubes, self.constraints))

    def __repr__(self):
        return (
            f"OverlapElement(dim={self.dim}, cubes={list(self.cubes)!r}, "
            f"constraints={sorted(self.constraints)!r}, witness={self.witness.images!r})"
        )


def overlap_canonical(
    cubes: Iterable[LittleCube], sigma: Perm, dim: int | None = None
) -> OverlapElement:
    """Canonical form of (cubes, height permutation).

    Cube i is at height sigma^{-1}(i); a constraint (i, k) is recorded exactly
    when the interiors of cubes i and k intersect and i sits strictly below k.
    The stored witness is the least linearization, so equivalent inputs give
    identical objects.
    """
    cubes = tuple(cubes)
    if dim is None:
        if not cubes:
            raise StructuralError("dimension required for the empty element")
        dim = cubes[0].dim
    if any(c.dim != dim for c in cubes):
        raise StructuralError("all cubes must share one dimension")
    j = len(cubes)
    if sigma.degree != j:
        raise StructuralError("permutation degree must match the number of cubes")
    height = sigma.inverse()
    constraints = set()
    for i in range(1, j + 1):
        for k in range(i + 1, j + 1):
            if interiors_intersect(cubes[i - 1], cubes[k - 1]):
                if height(i) < height(k):
                    constraints.add((i, k))
                else:
                    constraints.add((k, i))
    return OverlapElement(dim, cubes, frozenset(constraints), least_linearization(j, constraints))


def overlap_compose(outer: OverlapElement, args: Sequence[OverlapElement]) -> OverlapElement:
    """Operad structure map: affine grafting with the induced block permutation,
    re-canonicalized so the result is independent of witness choices."""
    cubes = graft_cubes(outer, args)
    beta = block_perm(outer.witness, [a.arity for a in args], [a.witness for a in args])
    return overlap_canonical(cubes, beta, dim=outer.dim)


def permute_overlap(elem: OverlapElement, sigma: Perm) -> OverlapElement:
    """Right symmetric-group action on an overlapping-cubes element."""
    if sigma.degree != elem.arity:
        raise StructuralError("permutation degree must match arity")
    cubes = sigma.gather(elem.cubes)
    return overlap_canonical(cubes, sigma.inverse() * elem.witness, dim=elem.dim)


def from_cubes_element(elem: CubesElement, sigma: Perm | None = None) -> OverlapElement:
    """View disjoint cubes as an overlapping element (constraints are empty)."""
    if sigma is None:
        sigma = Perm.identity(elem.arity)
    return overlap_canonical(elem.cubes, sigma, dim=elem.dim)


def project_to_overlap(elem: CubesElement) -> OverlapElement:
    """Flatten an (n+1)-dimensional element to an n-dimensional overlapping one.

    The last axis is dropped; cubes are ordered by the value of the last-axis
    interval at -1, ascending, ties broken by index, and only the order of
    interior-intersecting projected pairs survives canonicalization.
    """
    if elem.dim < 1:
        raise StructuralError("projection needs at least one axis")
    bottoms = [Fraction(o - s, d) for s, o, d in (c._axes[-1] for c in elem.cubes)]
    sigma = Perm.sorting(bottoms)
    projected = [LittleCube._trusted(c._axes[:-1]) for c in elem.cubes]
    return overlap_canonical(projected, sigma, dim=elem.dim - 1)


# ---------------------------------------------------------------------------
# emitters


def overlap_to_json(elem: OverlapElement) -> str:
    data = {
        "dim": elem.dim,
        "cubes": cube_array(elem.cubes),
        "constraints": sorted(list(p) for p in elem.constraints),
        "witness": list(elem.witness.images),
    }
    return json.dumps(data, sort_keys=True)


def overlap_to_dot(elem: OverlapElement) -> str:
    """DOT digraph of the constraint relation, one node per cube, edge low -> high."""
    lines = ["digraph height_order {"]
    for i, cube in enumerate(elem.cubes, start=1):
        lines.append(f'  c{i} [label="{i}: {format_cube(cube)}"];')
    for low, high in sorted(elem.constraints):
        lines.append(f"  c{low} -> c{high};")
    lines.append("}")
    return "\n".join(lines)

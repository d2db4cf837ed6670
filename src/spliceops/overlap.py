"""Overlapping cubes: tuples of little cubes with a height order recorded only
where it matters.

An element is a tuple of cubes (interiors may now intersect) together with the
set of order constraints "i strictly below k", one for each pair of cubes
whose image interiors intersect.  Two height permutations that agree on all
such pairs describe the same element, so equality compares cubes and
constraints; the canonical witness permutation (the lexicographically least
linearization of the constraints) is derived when read.  ``overlap_canonical``
tests every pair for outside input; composites inherit their constraints
blockwise (``perm.block_constraints``) and permutations transport them
(``perm.transport_constraints``).
"""

from __future__ import annotations

import heapq
import json
from typing import Iterable, Sequence

from .cubes import (
    CubesElement,
    LittleCube,
    cube_array,
    graft_cubes,
    interiors_intersect,
)
from .errors import StructuralError
from .perm import Perm, block_constraints, transport_constraints


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
    """Cubes (a tuple) plus exact order constraints on interior-intersecting pairs."""

    __slots__ = ("dim", "cubes", "constraints")

    def __init__(self, dim, cubes, constraints):
        self.dim = dim
        self.cubes = cubes
        self.constraints = constraints

    @classmethod
    def identity(cls, dim: int) -> "OverlapElement":
        return overlap_canonical([LittleCube.identity(dim)], Perm.identity(1), dim=dim)

    @property
    def arity(self) -> int:
        return len(self.cubes)

    @property
    def witness(self) -> Perm:
        return least_linearization(len(self.cubes), self.constraints)

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
    Equivalent inputs give equal elements with the same witness.
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
    return OverlapElement(dim, cubes, frozenset(constraints))


def overlap_compose(outer: OverlapElement, args: Sequence[OverlapElement]) -> OverlapElement:
    """Operad structure map: affine grafting, constraints inherited blockwise.

    Exact because grafting is injective and increasing on each axis: two cubes
    of one block meet exactly when they met in their argument; cubes of blocks
    a != b meet only if outer cubes a and b do, and are then ordered as that
    outer pair is.  So composites (and permutations) of disjoint elements are
    disjoint, and only cross pairs of an ordered outer pair need testing.
    """
    cubes = graft_cubes(outer, args)
    meet = lambda x, y: interiors_intersect(cubes[x - 1], cubes[y - 1])  # noqa: E731
    inners = [a.constraints for a in args]
    constraints = block_constraints(outer.constraints, [a.arity for a in args], inners, meet)
    return OverlapElement(outer.dim, cubes, constraints)


def permute_overlap(elem: OverlapElement, sigma: Perm) -> OverlapElement:
    """Right symmetric-group action; the constraints are transported along sigma."""
    if sigma.degree != elem.arity:
        raise StructuralError("permutation degree must match arity")
    constraints = transport_constraints(elem.constraints, sigma.inverse())
    return OverlapElement(elem.dim, sigma.gather(elem.cubes), constraints)


def project_to_overlap(elem: CubesElement) -> OverlapElement:
    """Flatten an (n+1)-dimensional element to an n-dimensional overlapping one.

    The last axis is dropped; cubes are ordered by the value of the last-axis
    interval at -1, ascending, ties broken by index, and only the order of
    interior-intersecting projected pairs survives canonicalization.
    """
    if elem.dim < 1:
        raise StructuralError("projection needs at least one axis")
    factors = [c.factors for c in elem.cubes]
    sigma = Perm.sorting([f[-1].lo for f in factors])
    projected = [LittleCube(f[:-1]) for f in factors]
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


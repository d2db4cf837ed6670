"""Symbolic splicing elements and their operad structure maps.

A splicing element is a base word (the long slot), one word per puck, and a
height order on the pucks: a constraint set recording which pairs of pucks
have a forced relative order, plus a witness permutation for the heights of
everything else.  Pucks are formal, so the constraint set is declared data;
composites inherit constraints blockwise (``perm.block_constraints``).

The structure map and the action stack each argument, conjugated by its
puck, onto the base in one fold from the top of the height order down
(``_fold_stack``).  The fold keeps the running product as one mutable reduced
letter list and a pending conjugator, and steps from one conjugator to the
next by their quotient, which cancels their common prefix whole: the pucks of
one block share a long stem, and no letter of it is walked.  Every slot takes
the same step, whether its word is empty or not, and the composite's pucks
over it, its stem (everything stacked above it, then its puck) times each
argument puck, are read off that list on the way down, so no stack of partial
products or stems is stored and the fold builds no word product.
Reduced words in a free product are unique, so regrouping the product changes
no output letter.

Two elements are equal when base, pucks and constraints agree: the witness is
representative data, transported through every structure map by the induced
block permutation so that composites of composites stay aligned.  The word
engine then verifies associativity and equivariance letter for letter, which
mechanizes the usual cancellation argument.  ``splice_element`` validates
outside input; the structure maps build ``SpliceElement`` directly, since
their order data agrees by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import StructuralError
from .overlap import OverlapElement, least_linearization
from .perm import (
    Perm,
    WreathElement,
    _block_perm,
    block_constraints,
    block_perm,
    transport_constraints,
)
from .words import (
    FREE_WORDS,
    GroupWord,
    _seam,
    cube_letter,
    format_word,
    parse_word,
    push_letters,
    quotient_letters,
)


class SpliceElement:
    """(base, puck_1..puck_k, order constraints, height witness)."""

    __slots__ = ("base", "pucks", "constraints", "witness")

    def __init__(self, base, pucks, constraints, witness):
        self.base = base
        self.pucks = pucks
        self.constraints = constraints
        self.witness = witness

    @property
    def arity(self) -> int:
        return len(self.pucks)

    def __eq__(self, other):
        return (
            isinstance(other, SpliceElement)
            and self.base == other.base
            and self.pucks == other.pucks
            and self.constraints == other.constraints
        )

    def __hash__(self):
        return hash((self.base, self.pucks, self.constraints))

    def __repr__(self):
        return (
            f"SpliceElement(base={format_word(self.base)!r}, "
            f"pucks={[format_word(p) for p in self.pucks]!r}, "
            f"constraints={sorted(self.constraints)!r}, "
            f"witness={self.witness.images!r})"
        )


def splice_element(
    base: GroupWord,
    pucks: Sequence[GroupWord],
    constraints=(),
    witness: Perm | None = None,
) -> SpliceElement:
    """Build an element; the words are stored as given (every word is reduced
    on construction) and the witness defaults to the least linearization."""
    pucks = tuple(pucks)
    k = len(pucks)
    cset = set()
    for low, high in constraints:
        if not (1 <= low <= k and 1 <= high <= k) or low == high:
            raise StructuralError(f"constraint {(low, high)} out of range for arity {k}")
        if (high, low) in cset:
            raise StructuralError(f"contradictory constraints on pair {(low, high)}")
        cset.add((low, high))
    if witness is None:
        witness = least_linearization(k, cset)
    else:
        if witness.degree != k:
            raise StructuralError("witness degree must match arity")
        height = witness.inverse().images
        for low, high in cset:
            if height[low - 1] >= height[high - 1]:
                raise StructuralError(f"witness violates constraint {(low, high)}")
    return SpliceElement(base, pucks, frozenset(cset), witness)


def identity_element() -> SpliceElement:
    return splice_element(GroupWord.empty(), [GroupWord.empty()])


def _fold_stack(witness: Perm, conjugators, words, base, pucks) -> tuple[GroupWord, tuple]:
    """The running product of the conjugates c_i * w_i * c_i^-1, folded from
    the top of the height order (``witness`` sends heights to indices) down,
    times ``base``; and the composite's pucks: for each slot i in order, its
    stem times each of its argument pucks ``pucks[i - 1]``.

    The product is one reduced letter list ``acc`` and a pending conjugator
    ``prev``: the product so far is acc * prev^-1.  Every slot steps the same
    way: it pushes prev^-1 * c for its conjugator c, which cancels the common
    prefix of prev and c whole (``quotient_letters``); the list is then slot
    i's stem, and each puck p of the slot is read off it as stem * p (the
    seam walk, then slices), so a slot with no pucks copies nothing; then it
    pushes w_i.  The last step is from prev to ``base``.
    """
    acc, prev = [], ()
    slots = [()] * len(words)
    for i in reversed(witness.images):
        c = conjugators[i - 1].letters
        push_letters(acc, quotient_letters(prev, c))
        if pucks[i - 1]:
            stem = tuple(acc)
            read = slots[i - 1] = []
            for p in pucks[i - 1]:
                n, mid, j = _seam(stem, p.letters)
                read.append(GroupWord._trusted(stem[:n] + mid + p.letters[j:]))
        push_letters(acc, words[i - 1].letters)
        prev = c
    push_letters(acc, quotient_letters(prev, base.letters))
    return GroupWord._trusted(tuple(acc)), tuple([p for read in slots for p in read])


def splice_act(elem: SpliceElement, words: Sequence[GroupWord]) -> GroupWord:
    """Conjugate word i into puck i and stack top-down onto the base word."""
    if len(words) != elem.arity:
        raise StructuralError(f"expected {elem.arity} words, got {len(words)}")
    product, _ = _fold_stack(elem.witness, elem.pucks, words, elem.base, [()] * len(words))
    return product


def splice_compose(
    outer: SpliceElement, args: Sequence[SpliceElement], corrupt: bool = False
) -> SpliceElement:
    """Operad structure map.

    One fold (``_fold_stack``) walks the outer slots from the top of the
    height order down, keeping the product of the argument bases stacked so
    far, each base conjugated by its outer puck, and reads off slot a's stem:
    that product times outer puck a, before slot a's own conjugate joins it.
    The new base is the whole product over the old base; puck (a, b) is stem
    a times inner puck (a, b).  Constraints are inherited blockwise; the
    witness is the induced block permutation.  ``corrupt`` reruns the fold
    with the top slot's conjugator emptied and takes the base from that run
    (a negative control).
    """
    k = len(outer.pucks)
    if len(args) != k:
        raise StructuralError(f"expected {k} arguments, got {len(args)}")
    bases = [a.base for a in args]
    base, pucks = _fold_stack(outer.witness, outer.pucks, bases, outer.base, [a.pucks for a in args])
    if corrupt and k:
        dropped = list(outer.pucks)
        dropped[outer.witness(k) - 1] = GroupWord.empty()
        base, _ = _fold_stack(outer.witness, dropped, bases, outer.base, [()] * k)

    arities = [len(a.pucks) for a in args]
    constraints = block_constraints(outer.constraints, arities, [a.constraints for a in args])
    witness = _block_perm(outer.witness, arities, [a.witness for a in args])
    return SpliceElement(base, pucks, constraints, witness)


def act_perm(elem: SpliceElement, tau: Perm) -> SpliceElement:
    """Right symmetric-group action: pucks reindexed, order transported."""
    if tau.degree != elem.arity:
        raise StructuralError("permutation degree must match arity")
    tau_inv = tau.inverse()
    constraints = transport_constraints(elem.constraints, tau_inv)
    return SpliceElement(elem.base, tau.gather(elem.pucks), constraints, tau_inv * elem.witness)


def outer_act(g: GroupWord, elem: SpliceElement) -> SpliceElement:
    """Preferred-factor action: conjugate the base by g, left-translate the pucks."""
    g_inv = g.inverse()
    return SpliceElement(
        g * elem.base * g_inv,
        tuple([g * p for p in elem.pucks]),
        elem.constraints,
        elem.witness,
    )


def act_wreath(elem: SpliceElement, g: WreathElement) -> SpliceElement:
    """Right action of the wreath product with word entries.

    Sends (L_0, L_1..L_k, order) to (g0^-1 L_0 g0, g0^-1 L_{perm(1)} g_1, ...)
    with the height order transported along the permutation: ``act_perm`` by
    the permutation, then the base and pucks translated by the words.
    """
    if g.degree != elem.arity:
        raise StructuralError("wreath element degree must match arity")
    if g.group is not FREE_WORDS:
        raise StructuralError("splice elements act under word-valued wreath elements")
    moved = act_perm(elem, g.perm)
    g0 = g.outer
    g0_inv = g0.inverse()
    pucks = tuple([g0_inv * p * h for p, h in zip(moved.pucks, g.inner)])
    return SpliceElement(g0_inv * elem.base * g0, pucks, moved.constraints, moved.witness)


def block_diag_wreath(gs: Sequence[WreathElement]) -> WreathElement:
    """Assemble slotwise wreath elements into one on the sum of the slots."""
    arities = [g.degree for g in gs]
    perm = block_perm(Perm.identity(len(gs)), arities, [g.perm for g in gs])
    inner = tuple([x for g in gs for x in g.inner])
    return WreathElement(GroupWord.empty(), perm, inner, FREE_WORDS)


@dataclass(frozen=True)
class AssocReport:
    ok: bool
    detail: str = ""


def compare_elements(lhs: SpliceElement, rhs: SpliceElement) -> AssocReport:
    """Letter-for-letter comparison of every entry plus the order data."""
    if lhs.arity != rhs.arity:
        return AssocReport(False, f"arities differ: {lhs.arity} vs {rhs.arity}")
    if lhs.base != rhs.base:
        return AssocReport(
            False, f"base words differ: {format_word(lhs.base)} vs {format_word(rhs.base)}"
        )
    for i, (p, q) in enumerate(zip(lhs.pucks, rhs.pucks), start=1):
        if p != q:
            return AssocReport(False, f"puck {i} differs: {format_word(p)} vs {format_word(q)}")
    if lhs.constraints != rhs.constraints:
        return AssocReport(
            False,
            f"constraints differ: {sorted(lhs.constraints)} vs {sorted(rhs.constraints)}",
        )
    if lhs.witness != rhs.witness:
        return AssocReport(
            False, f"witnesses differ: {lhs.witness.images} vs {rhs.witness.images}"
        )
    return AssocReport(True)


def verify_associativity(
    outer: SpliceElement,
    mids: Sequence[SpliceElement],
    inners: Sequence[SpliceElement],
    corrupt: bool = False,
) -> AssocReport:
    """Compare both composition orders entry by entry as reduced words.

    ``inners`` is the flat tuple of innermost elements, grouped by the
    arities of ``mids``.  With ``corrupt`` set, one side is computed with a
    conjugator dropped, which must produce a located mismatch.
    """
    if len(mids) != outer.arity:
        raise StructuralError("middle layer arity mismatch")
    if len(inners) != sum(m.arity for m in mids):
        raise StructuralError("inner layer arity mismatch")
    lhs = splice_compose(splice_compose(outer, mids, corrupt=corrupt), inners)
    groups = []
    pos = 0
    for m in mids:
        groups.append(list(inners[pos : pos + m.arity]))
        pos += m.arity
    rhs = splice_compose(outer, [splice_compose(m, g) for m, g in zip(mids, groups)])
    return compare_elements(lhs, rhs)


def include_overlap(elem) -> SpliceElement:
    """View an overlapping-cubes element as a splicing element.

    Each cube becomes a one-letter puck word (its exact affine map), the base
    is trivial, and the order data transfers verbatim.  The splice action of
    the image agrees with the cube action on words; composites agree entry
    for entry.  Their order data can differ: the symbolic composite declares
    every cross pair of an ordered outer pair, while the geometric one keeps
    only the cross pairs whose grafted cubes meet.
    """
    pucks = tuple([GroupWord.of(cube_letter(c.as_affine())) for c in elem.cubes])
    return SpliceElement(GroupWord.empty(), pucks, elem.constraints, elem.witness)


def overlap_act(elem: OverlapElement, words: Sequence[GroupWord]) -> GroupWord:
    """Act by an overlapping-cubes element on a tuple of words: the splice
    action of its image, each word conjugated by the exact affine map of its
    cube and the conjugates stacked from the top cube down."""
    return splice_act(include_overlap(elem), words)


# ---------------------------------------------------------------------------
# JSON form


def splice_to_json(elem: SpliceElement) -> str:
    data = {
        "base": format_word(elem.base),
        "pucks": [format_word(p) for p in elem.pucks],
        "constraints": sorted(list(p) for p in elem.constraints),
        "witness": list(elem.witness.images),
    }
    return json.dumps(data, sort_keys=True)


def splice_from_json(text: str) -> SpliceElement:
    data = json.loads(text)
    return splice_element(
        parse_word(data["base"]),
        [parse_word(p) for p in data["pucks"]],
        [tuple(p) for p in data["constraints"]],
        Perm(data["witness"]) if "witness" in data else None,
    )

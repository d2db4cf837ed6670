"""Admissibility of signed cycle types for finite cyclic symmetry groups.

A cyclic group of order n acting linearly with parameters (p, q) permutes the
companion circles of a link; the induced signed permutation can only contain
five kinds of cycles, whose lengths and signs are pinned down by gcd
conditions between n and the parameters.  This module enumerates the
admissible templates, decides whether a given signed cycle type is realizable
(with per-cycle rule citations), and constructs signed-permutation witnesses.
Merged into (length, sign) classes, the templates leave a cycle a choice of
rule only in one class, (1)+ when gcd(q,n) = n > 1, so a verdict is decided
directly from how many cycles take each rule, with no search.

Which of the two displayed parameters plays the p-role in the gcd conditions
is a documented ambiguity: both conventions are supported via ``swap_roles``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import StructuralError
from .perm import SignedCycleType, SignedPerm

RULE_TEXT = {
    1: "free orbit: length n, sign +",
    2: "orbit linking the q-side singular circle: length n/gcd(q,n), sign +",
    3: "orbit linking the p-side singular circle: length n/gcd(p,n), sign +",
    4: "orbit meeting the p-side singular circle in two points: length n/2, sign - (needs gcd(p,n)=2)",
    5: "a component equal to the q-side singular circle: length 1, sign + (needs gcd(q,n)>1)",
}

# The most cycles that enumerate_admissible lists, summed over all its types.
# With short cycles the number of types grows with k as well as their length,
# so the sum is bounded as the count vectors are drawn.
_ENUMERATE_MAX_CYCLES = 100_000


@dataclass(frozen=True)
class ActionParams:
    """Order n of the cyclic group and the coprime action parameters.

    ``swap_roles`` exchanges which displayed parameter carries the p-role in
    the admissibility conditions.
    """

    n: int
    p: int
    q: int
    swap_roles: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError("the group order n must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise StructuralError(f"action parameters must be coprime: {(self.p, self.q)}")

    @property
    def role_p(self) -> int:
        return self.q if self.swap_roles else self.p

    @property
    def role_q(self) -> int:
        return self.p if self.swap_roles else self.q


def admissible_cycles(a: ActionParams) -> frozenset[tuple[int, int, int]]:
    """All (length, sign, rule) templates available for these parameters; at most five."""
    n = a.n
    gp = math.gcd(abs(a.role_p), n)
    gq = math.gcd(abs(a.role_q), n)
    out = {(n, 1, 1)}
    if gq > 1:
        out.add((n // gq, 1, 2))
        out.add((1, 1, 5))
    if gp > 1:
        out.add((n // gp, 1, 3))
    if gp == 2:
        out.add((n // 2, -1, 4))
    return frozenset(out)


def feasible_k(a: ActionParams, k: int, fixed_component: bool) -> bool:
    """The counting condition on the number of companion circles.

    With a fixed component (rule 5), k-1 must be a non-negative combination
    of n and n/gcd(p,n); otherwise k is a combination of n, n/gcd(q,n) and
    n/gcd(p,n).  Both lengths divide n, so n is redundant, and neither test
    depends on the size of k.
    """
    if k < 0:
        return False
    n = a.n
    gp = math.gcd(abs(a.role_p), n)
    gq = math.gcd(abs(a.role_q), n)
    if fixed_component:
        return gq > 1 and k >= 1 and (k - 1) % (n // gp) == 0
    # k = x*u + y*v with x, y >= 0: once g = gcd(u, v) is divided out, every
    # solution has y = k/v mod u, so the least such y decides.
    u, v = n // gq, n // gp
    g = math.gcd(u, v)
    if k % g:
        return False
    u, v, k = u // g, v // g, k // g
    y = k * pow(v, -1, u) % u
    return y * v <= k


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    assignment: tuple = ()  # (length, sign, rule) per cycle when accepted
    reasons: tuple = ()

    def text(self) -> str:
        lines = ["ACCEPT" if self.accepted else "REJECT"]
        for length, sign, rule in self.assignment:
            s = "+" if sign == 1 else "-"
            lines.append(f"  cycle ({length}){s}: rule {rule} -- {RULE_TEXT[rule]}")
        for reason in self.reasons:
            lines.append(f"  {reason}")
        return "\n".join(lines)


def _rule_classes(a: ActionParams) -> dict[tuple[int, int], tuple[int, ...]]:
    """The admissible templates merged into (length, sign) classes, in
    SignedCycleType order, each with its rules from the highest down.

    The + templates have lengths n (rule 1), n/gcd(q,n) (rule 2),
    n/gcd(p,n) (rule 3) and 1 (rule 5), and gcd(p,q) = 1 makes gcd(p,n) and
    gcd(q,n) coprime.  So two templates share a class only when
    gcd(q,n) = n > 1, and then gcd(p,n) = 1: the classes are (n)+ under
    rule 1 and (1)+ under rules (5, 2).  Every other class has one rule.
    """
    classes = {}
    for length, sign, rule in sorted(admissible_cycles(a), reverse=True):
        classes[length, sign] = classes.get((length, sign), ()) + (rule,)
    return classes


_AT_MOST_ONE = "rule (5) can apply to at most one component"
_EXCLUSIVE = "rules (5) and (2) are exclusive"


def check_representation(
    a: ActionParams, t: SignedCycleType, require_fixed: bool = False
) -> Verdict:
    """Decide whether the signed cycle type can occur, citing a rule per cycle.

    Every cycle must match an admissible template, rule 5 at most once, and
    rules 5 and 2 never together.  The counting condition (``feasible_k``)
    on k = total cycle length then holds: k is a sum of template lengths n,
    n/gcd(q,n), n/gcd(p,n) and n/2 = n/gcd(p,n), and beside a rule-5 cycle,
    which bars rule 2, k-1 is a sum of n and n/gcd(p,n).

    Each cycle is cited under the first rule of its class, so only (1)+
    cycles can have a choice, of rule 5 or 2 (see ``_rule_classes``).  One
    such cycle always holds rule 5: the others are (n)+, so k-1 is a multiple
    of n = n/gcd(p,n).  Two or more cannot share rule 5, nor one take it
    beside rule 2, so all take rule 2 after those two refusals.  Any other
    rule-5 cycle rejects beside a rule-2 cycle ("exclusive") or another
    rule-5 cycle.  The reasons are those a depth-first search over the rules
    in class order meets, in its order.
    """
    classes = _rule_classes(a)
    cited = []
    for length, sign in t.pairs:
        rules = classes.get((length, sign))
        if rules is None:
            return Verdict(
                False,
                reasons=(
                    f"cycle ({length}){'+' if sign == 1 else '-'} matches no admissible type",
                ),
            )
        cited.append((length, sign, rules[0]))
    fives = sum(rule == 5 for _, _, rule in cited)
    reasons = []
    if fives > 1 and len(classes[1, 1]) == 2:
        reasons = [_AT_MOST_ONE, _EXCLUSIVE]
        cited = [(length, sign, 2 if rule == 5 else rule) for length, sign, rule in cited]
        fives = 0
    elif fives and any(rule == 2 for _, _, rule in cited):
        return Verdict(False, reasons=(_EXCLUSIVE,))
    elif fives > 1:
        return Verdict(False, reasons=(_AT_MOST_ONE,))
    if require_fixed and not fives:
        reasons.append("no cycle uses the fixed-component rule (5)")
        return Verdict(False, reasons=tuple(reasons))
    return Verdict(True, tuple(cited))


def build_witness(t: SignedCycleType) -> SignedPerm:
    """A signed permutation with the given cycle type: each cycle consumes a
    fresh block of points, with a single sign flip on sign-reversing cycles."""
    images = []
    base = 0
    for length, sign in t.pairs:
        for i in range(1, length):
            images.append(base + i + 1)
        images.append(sign * (base + 1))
        base += length
    return SignedPerm(images)


def _count_vectors(lengths, total):
    """Every vector c of non-negative counts with sum(c[i] * lengths[i]) ==
    total, lazily in lexicographic order; a length of 0 keeps its count at 0.

    Each count steps only through the values that leave a remainder divisible
    by the gcd of the later lengths, so a branch dies only in the finite gaps
    below a Frobenius number and the cost follows the number of vectors.
    """
    m = len(lengths)
    g = [0] * (m + 1)  # g[i] = gcd(lengths[i:]), and gcd(x, 0) = x
    for i in reversed(range(m)):
        g[i] = math.gcd(lengths[i], g[i + 1])
    if total < 0 or (total % g[0] if g[0] else total):
        return

    def fill(i, rest, counts):
        # invariant: g[i] divides rest (rest == 0 once g[i] == 0)
        if i == m:
            yield counts
            return
        length, later = lengths[i], g[i + 1]
        if not length:
            choices = (0,)
        elif not later:
            choices = (rest // length,)
        else:
            step = later // g[i]
            first = rest // g[i] * pow(length // g[i], -1, step) % step
            choices = range(first, rest // length + 1, step)
        for c in choices:
            yield from fill(i + 1, rest - c * length, counts + (c,))

    yield from fill(0, total, ())


def _counts_avoiding(classes, total, barred):
    """Count vectors over the classes with total cycle length ``total`` that
    use only classes with a rule outside ``barred``."""
    lengths = [length if set(rules) - barred else 0 for (length, _), rules in classes]
    return _count_vectors(lengths, total)


def enumerate_admissible(a: ActionParams, k: int, require_fixed: bool = False):
    """All accepted signed cycle types with total length k, sorted.

    ``check_representation`` accepts a type in one of two rule modes, each
    decided by k and ``require_fixed`` alone: no cycle on rule 5, where every
    class used needs a rule other than 5; or one (1)+ cycle on rule 5, where
    every other cycle needs a rule outside {2, 5}.  Each mode that can hold
    enumerates the count vectors over the classes it allows, so the cost
    follows the number of types.  Count vectors in lexicographic order over
    classes in SignedCycleType order give the types sorted by ``pairs``.

    The count vectors are drawn lazily, and the call raises StructuralError
    as soon as the distinct ones hold more than ``_ENUMERATE_MAX_CYCLES``
    cycles in all, before any type is built.
    """
    rules = _rule_classes(a)
    classes = list(rules.items())
    keys = list(rules)
    modes = []
    if not require_fixed and feasible_k(a, k, fixed_component=False):
        modes.append(_counts_avoiding(classes, k, {5}))
    if 5 in rules.get((1, 1), ()) and feasible_k(a, k, fixed_component=True):
        i = keys.index((1, 1))  # the class of the fixed cycle
        fixed = _counts_avoiding(classes, k - 1, {2, 5})
        modes.append(c[:i] + (c[i] + 1,) + c[i + 1 :] for c in fixed)
    found, cycles = set(), 0
    for counts in itertools.chain(*modes):
        if counts not in found:
            found.add(counts)
            cycles += sum(counts)
            if cycles > _ENUMERATE_MAX_CYCLES:
                raise StructuralError(
                    f"the types for k = {k} have more than {_ENUMERATE_MAX_CYCLES} "
                    "cycles in all, more than are listed"
                )
    return [
        SignedCycleType(sum(((key,) * c for key, c in zip(keys, counts)), ()))
        for counts in sorted(found)
    ]

"""Admissibility of signed cycle types for finite cyclic symmetry groups.

A cyclic group of order n acting linearly with parameters (p, q) permutes the
companion circles of a link; the induced signed permutation can only contain
five kinds of cycles, whose lengths and signs are pinned down by gcd
conditions between n and the parameters.  This module enumerates the
admissible templates, decides whether a given signed cycle type is realizable
(with per-cycle rule citations), and constructs signed-permutation witnesses.

Which of the two displayed parameters plays the p-role in the gcd conditions
is a documented ambiguity: both conventions are supported via ``swap_roles``.
"""

from __future__ import annotations

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


def check_representation(
    a: ActionParams, t: SignedCycleType, require_fixed: bool = False
) -> Verdict:
    """Decide whether the signed cycle type can occur, citing a rule per cycle.

    Every cycle must match an admissible template, rule 5 at most once, rules
    5 and 2 never together, and the counting condition must hold for
    k = total cycle length.
    """
    templates = admissible_cycles(a)
    cycles = list(t.pairs)
    k = t.total
    candidates = []
    for length, sign in cycles:
        rules = tuple(r for l, s, r in templates if l == length and s == sign)
        if not rules:
            return Verdict(
                False,
                reasons=(
                    f"cycle ({length}){'+' if sign == 1 else '-'} matches no admissible type",
                ),
            )
        candidates.append(rules)

    def leaf_failure(used5):
        if require_fixed and not used5:
            return "no cycle uses the fixed-component rule (5)"
        if feasible_k(a, k, fixed_component=used5):
            return None
        if used5:
            return f"k-1 = {k - 1} is not a non-negative combination of n and n/gcd(p,n)"
        return f"k = {k} is not a non-negative combination of n, n/gcd(q,n), n/gcd(p,n)"

    best_failure = []

    def next_rule(rules, used2, used5):
        """The next untried rule that the earlier choices allow, noting each refusal."""
        for rule in rules:
            if rule == 5 and used5:
                best_failure.append("rule (5) can apply to at most one component")
            elif (rule == 5 and used2) or (rule == 2 and used5):
                best_failure.append("rules (5) and (2) are exclusive")
            else:
                return rule
        return None

    # Depth-first over one rule per cycle, in candidate order, on an explicit
    # stack so that no recursion grows with the number of cycles.  Frame i
    # holds the untried rules of cycle i and the flags (rule 2 used, rule 5
    # used) of the choices before it.
    picked, frames = [], []
    used2 = used5 = False
    while True:
        if len(picked) == len(cycles):
            reason = leaf_failure(used5)
            if reason is None:
                return Verdict(True, tuple(picked))
            best_failure.append(reason)
        else:
            frames.append((iter(candidates[len(picked)]), used2, used5))
        while frames:
            rules, used2, used5 = frames[-1]
            i = len(frames) - 1
            del picked[i:]
            rule = next_rule(rules, used2, used5)
            if rule is not None:
                picked.append((*cycles[i], rule))
                used2, used5 = used2 or rule == 2, used5 or rule == 5
                break
            frames.pop()
        else:
            break

    # deduplicate failure reasons, keeping first occurrences
    seen, reasons = set(), []
    for r in best_failure:
        if r not in seen:
            seen.add(r)
            reasons.append(r)
    return Verdict(False, reasons=tuple(reasons) or ("no consistent rule assignment",))


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
    total, in lexicographic order; a length of 0 keeps its count at 0.

    Each count steps only through the values that leave a remainder divisible
    by the gcd of the later lengths, so a branch dies only in the finite gaps
    below a Frobenius number and the cost follows the number of vectors.
    """
    m = len(lengths)
    g = [0] * (m + 1)  # g[i] = gcd(lengths[i:]), and gcd(x, 0) = x
    for i in reversed(range(m)):
        g[i] = math.gcd(lengths[i], g[i + 1])
    if total < 0 or (total % g[0] if g[0] else total):
        return []
    out = []

    def fill(i, rest, counts):
        # invariant: g[i] divides rest (rest == 0 once g[i] == 0)
        if i == m:
            out.append(counts)
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
            fill(i + 1, rest - c * length, counts + (c,))

    fill(0, total, ())
    return out


def _counts_avoiding(classes, total, barred):
    """Count vectors over the classes with total cycle length ``total`` that
    use only classes with a rule outside ``barred``."""
    lengths = [length if rules - barred else 0 for (length, _), rules in classes]
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
    """
    rules = {}  # the templates merged into (length, sign) classes
    for length, sign, rule in admissible_cycles(a):
        rules.setdefault((length, sign), set()).add(rule)
    classes = sorted(rules.items(), reverse=True)  # SignedCycleType order
    keys = [key for key, _ in classes]
    found = set()
    if not require_fixed and feasible_k(a, k, fixed_component=False):
        found.update(_counts_avoiding(classes, k, {5}))
    if 5 in rules.get((1, 1), ()) and feasible_k(a, k, fixed_component=True):
        i = keys.index((1, 1))  # the class of the fixed cycle
        for counts in _counts_avoiding(classes, k - 1, {2, 5}):
            found.add(counts[:i] + (counts[i] + 1,) + counts[i + 1 :])
    return [
        SignedCycleType(sum(((key,) * c for key, c in zip(keys, counts)), ()))
        for counts in sorted(found)
    ]

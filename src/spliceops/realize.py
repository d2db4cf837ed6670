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


def enumerate_admissible(a: ActionParams, k: int, require_fixed: bool = False):
    """All accepted signed cycle types with total length k, sorted."""
    templates = sorted(admissible_cycles(a))
    results = []

    def grow(idx, remaining, picked):
        if remaining == 0:
            t = SignedCycleType.of([(l, s) for l, s, _ in picked])
            if check_representation(a, t, require_fixed=require_fixed).accepted:
                results.append(t)
            return
        if idx == len(templates):
            return
        length = templates[idx][0]
        grow(idx + 1, remaining, picked)
        count = 1
        while length * count <= remaining:
            grow(idx + 1, remaining - length * count, picked + [templates[idx]] * count)
            count += 1

    grow(0, k, [])
    unique = sorted(set(results), key=lambda t: t.pairs)
    return unique

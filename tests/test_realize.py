"""Realization checks: admissible cycle templates, acceptance verdicts, witnesses."""

import itertools
import math
import random
import tracemalloc

import pytest

from spliceops import realize
from spliceops.errors import StructuralError
from spliceops.perm import SignedCycleType
from spliceops.realize import (
    ActionParams,
    RULE_TEXT,
    Verdict,
    admissible_cycles,
    build_witness,
    check_representation,
    enumerate_admissible,
    feasible_k,
)


def reference_check_representation(
    a: ActionParams, t: SignedCycleType, require_fixed: bool = False
) -> Verdict:
    """The recursive search that the iterative one replaced, kept as the reference."""
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

    best_failure = []

    def search(i, used2, used5, picked):
        if i == len(cycles):
            if require_fixed and not used5:
                best_failure.append("no cycle uses the fixed-component rule (5)")
                return None
            if not feasible_k(a, k, fixed_component=used5):
                if used5:
                    best_failure.append(
                        f"k-1 = {k - 1} is not a non-negative combination of n and n/gcd(p,n)"
                    )
                else:
                    best_failure.append(
                        f"k = {k} is not a non-negative combination of n, n/gcd(q,n), n/gcd(p,n)"
                    )
                return None
            return tuple(picked)
        length, sign = cycles[i]
        for rule in candidates[i]:
            if rule == 5 and used5:
                best_failure.append("rule (5) can apply to at most one component")
                continue
            if (rule == 5 and used2) or (rule == 2 and used5):
                best_failure.append("rules (5) and (2) are exclusive")
                continue
            result = search(
                i + 1, used2 or rule == 2, used5 or rule == 5, picked + [(length, sign, rule)]
            )
            if result is not None:
                return result
        return None

    assignment = search(0, False, False, [])
    if assignment is not None:
        return Verdict(True, assignment)
    seen, reasons = set(), []
    for r in best_failure:
        if r not in seen:
            seen.add(r)
            reasons.append(r)
    return Verdict(False, reasons=tuple(reasons) or ("no consistent rule assignment",))


def reference_enumerate_admissible(a: ActionParams, k: int, require_fixed: bool = False):
    """The multiset search that the output-sensitive enumerator replaced, kept
    as the reference: every multiset of templates with total length k, each
    judged by check_representation, duplicates dropped at the end."""
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
    return sorted(set(results), key=lambda t: t.pairs)


def enumeration_mismatch():
    """The first query where enumerate_admissible and the reference disagree,
    named by (n, p, q, swap, k, fixed) and the first differing type, or None.
    The grid: n <= 12, coprime p and q in [-4, 4], both conventions, both
    settings of require_fixed and k from -1 to 10."""
    for n in range(1, 13):
        for p, q in itertools.product(range(-4, 5), repeat=2):
            if math.gcd(p, q) != 1:
                continue
            for swap, fixed in itertools.product((False, True), repeat=2):
                a = ActionParams(n, p, q, swap_roles=swap)
                for k in range(-1, 11):
                    got = enumerate_admissible(a, k, require_fixed=fixed)
                    want = reference_enumerate_admissible(a, k, require_fixed=fixed)
                    if got != want:
                        first = min(set(got) ^ set(want), key=lambda t: t.pairs)
                        side = "only the reference" if first in want else "only the enumerator"
                        return (
                            f"(n, p, q, swap, k, fixed) = {(n, p, q, swap, k, fixed)}: "
                            f"first differing type {str(first) or '(empty)'!r}, listed by {side}"
                        )
    return None


class TestParams:
    def test_validation(self):
        with pytest.raises(StructuralError):
            ActionParams(0, 2, 5)
        with pytest.raises(StructuralError):
            ActionParams(10, 2, 4)

    def test_role_swap(self):
        a = ActionParams(10, 5, 2, swap_roles=True)
        assert a.role_p == 2 and a.role_q == 5


class TestAdmissible:
    def test_trivial_group(self):
        assert admissible_cycles(ActionParams(1, 2, 5)) == frozenset({(1, 1, 1)})

    def test_cyclic_order_ten(self):
        got = admissible_cycles(ActionParams(10, 2, 5))
        assert (5, -1, 4) in got  # gcd(p, n) = 2
        assert got == {(10, 1, 1), (2, 1, 2), (1, 1, 5), (5, 1, 3), (5, -1, 4)}

    def test_cyclic_order_six(self):
        for a in (ActionParams(6, 3, 2), ActionParams(6, 3, 2, swap_roles=True)):
            got = admissible_cycles(a)
            assert (6, 1, 1) in got
            assert (1, 1, 5) in got

    def test_at_most_five(self):
        rnd = random.Random(0)
        for _ in range(300):
            n = rnd.randint(1, 24)
            while True:
                p, q = rnd.randint(-8, 8), rnd.randint(-8, 8)
                if math.gcd(p, q) == 1:
                    break
            got = admissible_cycles(ActionParams(n, p, q))
            assert len(got) <= 5
            for length, sign, rule in got:
                assert rule in RULE_TEXT
                assert length >= 1 and n % length == 0


class TestFeasibleK:
    def test_zero(self):
        assert feasible_k(ActionParams(10, 2, 5), 0, fixed_component=False)

    def test_sakuma_count(self):
        assert feasible_k(ActionParams(10, 2, 5), 5, fixed_component=False)

    def test_fixed_component_count(self):
        assert feasible_k(ActionParams(6, 3, 2), 7, fixed_component=True)

    def test_infeasible(self):
        a = ActionParams(10, 3, 7)  # both gcds trivial: only multiples of 10
        assert not feasible_k(a, 5, fixed_component=False)
        assert feasible_k(a, 20, fixed_component=False)

    def test_matches_brute_force(self):
        """The closed form against the counting condition read literally: a
        table of the sums of n, n/gcd(q,n) and n/gcd(p,n) reachable up to k."""

        def reference(a, k, fixed):
            n = a.n
            gp, gq = math.gcd(abs(a.role_p), n), math.gcd(abs(a.role_q), n)
            if fixed and (gq <= 1 or k < 1):
                return False
            target, values = (k - 1, [n, n // gp]) if fixed else (k, [n, n // gq, n // gp])
            if target < 0:
                return False
            reachable = [True] + [False] * target
            for s in range(1, target + 1):
                reachable[s] = any(s >= v and reachable[s - v] for v in values)
            return reachable[target]

        rnd = random.Random(31)
        cases = 0
        while cases < 3000:
            p, q = rnd.randint(-30, 30), rnd.randint(-30, 30)
            if math.gcd(p, q) != 1:
                continue
            a = ActionParams(rnd.randint(1, 60), p, q, swap_roles=rnd.random() < 0.5)
            k, fixed = rnd.randint(-2, 300), rnd.random() < 0.5
            assert feasible_k(a, k, fixed) == reference(a, k, fixed), (a, k, fixed)
            cases += 1

    def test_memory_bounded_in_k(self):
        tracemalloc.start()
        try:
            for fixed in (False, True):
                feasible_k(ActionParams(12, 5, 6), 10**7, fixed_component=fixed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestCheckRepresentation:
    def test_sakuma_accepted(self):
        a = ActionParams(10, 2, 5)
        v = check_representation(a, SignedCycleType.parse("(5)-"))
        assert v.accepted
        assert v.assignment == ((5, -1, 4),)

    def test_sakuma_display_order_with_swap(self):
        a = ActionParams(10, 5, 2, swap_roles=True)
        assert check_representation(a, SignedCycleType.parse("(5)-")).accepted

    def test_sakuma_rejected_without_swap(self):
        a = ActionParams(10, 5, 2)
        assert not check_representation(a, SignedCycleType.parse("(5)-")).accepted

    def test_order_six_fixed_component(self):
        for a in (ActionParams(6, 3, 2), ActionParams(6, 3, 2, swap_roles=True)):
            v = check_representation(a, SignedCycleType.parse("(6)+ (1)+"), require_fixed=True)
            assert v.accepted
            assert (1, 1, 5) in v.assignment

    def test_exclusivity_rejection(self):
        a = ActionParams(10, 2, 5)
        t = SignedCycleType.of([(2, 1)] * 5 + [(1, 1)])
        v = check_representation(a, t)
        assert not v.accepted
        assert any("exclusive" in r for r in v.reasons)

    def test_unmatched_cycle_rejected(self):
        a = ActionParams(10, 2, 5)
        v = check_representation(a, SignedCycleType.of([(3, 1)]))
        assert not v.accepted
        assert "matches no admissible type" in v.reasons[0]

    def test_rule5_at_most_once(self):
        a = ActionParams(6, 3, 2)
        t = SignedCycleType.of([(1, 1), (1, 1), (6, 1)])
        assert not check_representation(a, t, require_fixed=True).accepted

    def test_matches_recursive_reference(self):
        """Every type enumerated for n <= 12, plus every multiset of up to three
        template cycles, judged under both conventions and both settings of
        require_fixed, so every kind of rejection is compared too."""
        params = [(2, 5), (3, 2), (5, 2), (3, 4), (1, 0), (2, 3), (-3, 4)]
        compared = rejected = 0
        for n in range(1, 13):
            for p, q in params:
                types, shapes = set(), set()
                for swap in (False, True):
                    a = ActionParams(n, p, q, swap_roles=swap)
                    shapes.update((l, s) for l, s, _ in admissible_cycles(a))
                    for fixed in (False, True):
                        for k in range(0, 9):
                            types.update(enumerate_admissible(a, k, require_fixed=fixed))
                for size in range(1, 4):
                    for pairs in itertools.combinations_with_replacement(sorted(shapes), size):
                        types.add(SignedCycleType.of(pairs))
                for t in sorted(types, key=lambda t: t.pairs):
                    for swap in (False, True):
                        a = ActionParams(n, p, q, swap_roles=swap)
                        for fixed in (False, True):
                            got = check_representation(a, t, require_fixed=fixed)
                            want = reference_check_representation(a, t, require_fixed=fixed)
                            assert got == want, (a, str(t), fixed)
                            assert got.text() == want.text()
                            compared += 1
                            rejected += not got.accepted
        assert compared > 1000 and rejected > 100, (compared, rejected)

    def test_many_cycles_need_no_recursion(self):
        a = ActionParams(5, 2, 3)
        t = SignedCycleType.of([(5, 1)] * 1000)
        v = check_representation(a, t)
        assert v.accepted and v.assignment == ((5, 1, 1),) * 1000
        v = check_representation(a, t, require_fixed=True)
        assert not v.accepted

    def test_accepted_implies_feasible(self):
        rnd = random.Random(1)
        for _ in range(300):
            n = rnd.randint(1, 12)
            while True:
                p, q = rnd.randint(-6, 6), rnd.randint(-6, 6)
                if math.gcd(p, q) == 1:
                    break
            a = ActionParams(n, p, q)
            templates = sorted(admissible_cycles(a))
            cycles = [rnd.choice(templates)[:2] for _ in range(rnd.randint(1, 4))]
            t = SignedCycleType.of(cycles)
            v = check_representation(a, t)
            if v.accepted:
                used5 = any(rule == 5 for _, _, rule in v.assignment)
                assert feasible_k(a, t.total, fixed_component=used5)


class TestWitness:
    def test_witness_matches_type(self):
        t = SignedCycleType.parse("(5)- (2)+ (1)+")
        w = build_witness(t)
        assert w.signed_cycle_type() == t

    def test_exhaustive_up_to_twelve(self):
        params = [(2, 5), (3, 2), (5, 2), (3, 4), (1, 0)]
        for n in range(1, 13):
            for p, q in params:
                if math.gcd(p, q) != 1:
                    continue
                a = ActionParams(n, p, q)
                for fixed in (False, True):
                    for t in enumerate_admissible(a, k=min(n + 1, 8), require_fixed=fixed):
                        w = build_witness(t)
                        assert w.signed_cycle_type() == t
                        assert n % w.order() == 0  # order divides the group order

    def test_enumeration_matches_reference(self):
        assert enumeration_mismatch() is None

    def test_enumeration_negative_control(self, monkeypatch):
        """An enumerator that lets rule (2) sit beside rule (5) must be caught
        at a located query."""
        counts = realize._counts_avoiding
        monkeypatch.setattr(
            realize, "_counts_avoiding", lambda classes, total, barred: counts(classes, total, barred - {2})
        )
        failure = enumeration_mismatch()
        assert failure is not None
        assert failure.startswith("(n, p, q, swap, k, fixed) = (") and "first differing type" in failure, failure
        assert "listed by only the enumerator" in failure, failure

    def test_enumeration_accepts_its_own_output(self):
        a = ActionParams(10, 2, 5)
        out = enumerate_admissible(a, 5)
        assert SignedCycleType.parse("(5)-") in out
        for t in out:
            assert check_representation(a, t).accepted

"""Splicing element tests: structure maps, actions, and the mechanized
associativity/equivariance checks."""

import hashlib
import random
import re

import pytest

from spliceops import harness, overlap, perm, splice, words
from spliceops.cubes import CubesElement, cube_compose, permute_cubes
from spliceops.errors import StructuralError
from spliceops.harness import (
    check_equivariance_instance,
    check_splice_instance,
    rand_disjoint_element,
    rand_overlap_element,
    rand_splice_element,
    rand_word,
    rand_word_wreath,
    run_axioms,
    run_equivariance,
    run_splice_associativity,
)
from spliceops.overlap import OverlapElement, overlap_compose, permute_overlap
from spliceops.perm import Perm, WreathElement, block_perm
from spliceops.splice import (
    AssocReport,
    act_perm,
    act_wreath,
    block_diag_wreath,
    compare_elements,
    identity_element,
    include_overlap,
    overlap_act,
    splice_act,
    splice_compose,
    splice_element,
    splice_from_json,
    splice_to_json,
    verify_associativity,
)
from spliceops.words import (
    CUBE,
    FREE_WORDS,
    GroupWord,
    conjugate,
    cube_letter,
    format_word,
    knot,
    puck,
)


def W(*letters):
    return GroupWord.of(*letters)


class TestSpliceAct:
    def test_identity_acts_trivially(self):
        f = W(knot("f"))
        assert splice_act(identity_element(), [f]) == f

    def test_arity_zero_returns_base(self):
        base = W(knot("f"), knot("g", -1))
        elem = splice_element(base, [])
        assert splice_act(elem, []) == base

    def test_two_slot_expansion(self):
        p1, p2 = W(puck("a1")), W(puck("a2"))
        base = W(knot("b"))
        f1, f2 = W(knot("f1")), W(knot("f2"))
        elem = splice_element(base, [p1, p2], witness=Perm.identity(2))
        out = splice_act(elem, [f1, f2])
        # slot 2 on top: a2 f2 a2^-1 a1 f1 a1^-1 b
        want = (
            W(puck("a2"), knot("f2"), puck("a2", -1))
            * W(puck("a1"), knot("f1"), puck("a1", -1))
            * base
        )
        assert out == want

    def test_action_equals_arity_zero_composition(self):
        rnd = random.Random(0)
        for _ in range(100):
            k = rnd.randint(1, 3)
            elem = rand_splice_element(rnd, k, "J", nonempty_base=True)
            words = [rand_word(rnd, 2) for _ in range(k)]
            plugs = [splice_element(w, []) for w in words]
            assert splice_act(elem, words) == splice_compose(elem, plugs).base


class TestSpliceElement:
    # the four messages are pinned verbatim: the witness check reads heights
    # from the inverse witness's image tuple, and must keep its wording

    @pytest.mark.parametrize(
        "constraints, witness, message",
        [
            ([(1, 3)], None, "constraint (1, 3) out of range for arity 2"),
            ([(0, 1)], None, "constraint (0, 1) out of range for arity 2"),
            ([(2, 2)], None, "constraint (2, 2) out of range for arity 2"),
            ([(1, 2), (2, 1)], None, "contradictory constraints on pair (2, 1)"),
            ([], Perm.identity(3), "witness degree must match arity"),
            ([(2, 1)], Perm.identity(2), "witness violates constraint (2, 1)"),
        ],
    )
    def test_structural_error_messages(self, constraints, witness, message):
        with pytest.raises(StructuralError) as exc:
            splice_element(GroupWord.empty(), [W(puck("a")), W(puck("b"))], constraints, witness)
        assert str(exc.value) == message

    def test_witness_check_matches_per_constraint_reference(self):
        # a witness is rejected exactly when some constraint has its low puck
        # at or above its high puck, reading heights through Perm calls
        rnd = random.Random(15)
        rejected = accepted = 0
        for _ in range(300):
            k = rnd.randint(2, 6)
            elem = rand_splice_element(rnd, k, "J")
            witness = Perm(rnd.sample(range(1, k + 1), k))
            height = witness.inverse()
            bad = [c for c in elem.constraints if height(c[0]) >= height(c[1])]
            try:
                built = splice_element(elem.base, elem.pucks, elem.constraints, witness)
            except StructuralError as exc:
                rejected += 1
                assert str(exc) in {f"witness violates constraint {c}" for c in bad}
            else:
                accepted += 1
                assert not bad and built == elem
        assert rejected and accepted


class TestCompose:
    def test_single_slot_formulas(self):
        outer = splice_element(W(knot("J0")), [W(puck("J1"))])
        inner = splice_element(W(knot("L0")), [W(puck("L1"))])
        out = splice_compose(outer, [inner])
        assert format_word(out.base) == "P.J1 K.L0 P.J1^-1 K.J0"
        assert [format_word(p) for p in out.pucks] == ["P.J1 P.L1"]

    def test_identity_both_sides(self):
        rnd = random.Random(1)
        ident = identity_element()
        for _ in range(50):
            k = rnd.randint(0, 3)
            elem = rand_splice_element(rnd, k, "J", nonempty_base=True)
            assert compare_elements(splice_compose(elem, [ident] * k), elem).ok
            assert compare_elements(splice_compose(ident, [elem]), elem).ok

    def test_constraints_inherit_blockwise(self):
        outer = splice_element(
            W(knot("J0")), [W(puck("J1")), W(puck("J2"))], [(2, 1)], Perm((2, 1))
        )
        args = [
            splice_element(GroupWord.empty(), [W(puck("a1")), W(puck("a2"))], [(1, 2)]),
            splice_element(GroupWord.empty(), [W(puck("b1"))]),
        ]
        out = splice_compose(outer, args)
        assert out.constraints == frozenset({(3, 1), (3, 2), (1, 2)})

    def test_witness_is_block_permutation(self):
        # outer slot 2 below slot 1, both inner orders trivial
        outer = splice_element(
            W(knot("J0")), [W(puck("J1")), W(puck("J2"))], [(2, 1)], Perm((2, 1))
        )
        args = [
            splice_element(GroupWord.empty(), [W(puck("a1")), W(puck("a2"))]),
            splice_element(GroupWord.empty(), [W(puck("b1"))]),
        ]
        out = splice_compose(outer, args)
        assert out.witness == Perm((3, 1, 2))

    def test_arity_mismatch(self):
        with pytest.raises(StructuralError):
            splice_compose(identity_element(), [])

    def test_stack_built_once(self, monkeypatch):
        # one conjugated stack serves the base and every slot prefix, so the
        # word products grow linearly in the arity, not quadratically
        rnd = random.Random(64)
        k = 64
        outer = rand_splice_element(rnd, k, "J", nonempty_base=True)
        args = [rand_splice_element(rnd, rnd.randint(0, 2), f"L{a}", True) for a in range(k)]
        calls = []
        mul = GroupWord.__mul__
        monkeypatch.setattr(GroupWord, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
        splice_compose(outer, args)
        assert len(calls) <= 4 * (k + sum(a.arity for a in args))

    def test_products_never_reduce_from_scratch(self, monkeypatch):
        # products and the fold walk only the seam, so nothing made by
        # composing or acting reduces raw letters; words built from letters
        # still may
        rnd = random.Random(32)
        k = 32
        outer = rand_splice_element(rnd, k, "J", nonempty_base=True)
        args = [rand_splice_element(rnd, rnd.randint(0, 2), f"L{a}", True) for a in range(k)]
        cubes = include_overlap(rand_overlap_element(rnd, 2, k))
        inputs = [rand_word(rnd, 2) for _ in range(k)]
        overlap = overlap_compose(OverlapElement.identity(1), [rand_overlap_element(rnd, 1, 3)])
        calls, inside = [], []
        reduce = words._reduce_letters

        def counted_reduce(letters):
            if inside:
                calls.append(1)
            return reduce(letters)

        def counted(fn):
            def product(*args):
                inside.append(1)
                try:
                    return fn(*args)
                finally:
                    inside.pop()

            return product

        monkeypatch.setattr(words, "_reduce_letters", counted_reduce)
        monkeypatch.setattr(GroupWord, "__mul__", counted(GroupWord.__mul__))
        monkeypatch.setattr(splice, "_fold_stack", counted(splice._fold_stack))
        splice_compose(outer, args)
        splice_compose(cubes, args)
        splice_act(outer, inputs)
        splice_act(cubes, inputs)
        overlap_act(OverlapElement.identity(1), inputs[:1])
        overlap_act(overlap, inputs[:3])
        assert calls == []
        # the counter is live: a product that reduces from scratch is counted
        monkeypatch.setattr(GroupWord, "__mul__", counted(lambda a, b: GroupWord(a.letters + b.letters)))
        GroupWord.of(puck("a")) * GroupWord.of(puck("b"))
        assert calls == [1]


class TestAssociativity:
    def test_all_identities(self):
        rep = verify_associativity(identity_element(), [identity_element()], [identity_element()])
        assert rep.ok

    def test_hand_expanded_instance(self):
        # k=1, j=1, one innermost slot: both orders must give
        # base J1 L1 M0 L1^-1 L0 J1^-1 J0 and puck J1 L1 M1
        outer = splice_element(W(knot("J0")), [W(puck("J1"))])
        mid = splice_element(W(knot("L0")), [W(puck("L1"))])
        inner = splice_element(W(knot("M0")), [W(puck("M1"))])
        lhs = splice_compose(splice_compose(outer, [mid]), [inner])
        assert format_word(lhs.base) == "P.J1 P.L1 K.M0 P.L1^-1 K.L0 P.J1^-1 K.J0"
        assert format_word(lhs.pucks[0]) == "P.J1 P.L1 P.M1"
        rep = verify_associativity(outer, [mid], [inner])
        assert rep.ok

    def test_randomized(self):
        rnd = random.Random(2)
        for _ in range(200):
            assert check_splice_instance(rnd) is None

    def test_negative_control_locates_mismatch(self):
        outer = splice_element(W(knot("J0")), [W(puck("J1"))])
        mid = splice_element(W(knot("L0")), [W(puck("L1"))])
        inner = splice_element(W(knot("M0")), [W(puck("M1"))])
        rep = verify_associativity(outer, [mid], [inner], corrupt=True)
        assert not rep.ok
        assert "base words differ" in rep.detail

    def test_differing_constraints_are_reported(self):
        e = GroupWord.empty()
        rep = compare_elements(splice_element(e, [e, e], [(1, 2)]), splice_element(e, [e, e]))
        assert rep == AssocReport(False, "constraints differ: [(1, 2)] vs []")

    def test_differing_witnesses_are_reported(self):
        e = GroupWord.empty()
        lhs = splice_element(e, [e, e], (), Perm((1, 2)))
        rep = compare_elements(lhs, splice_element(e, [e, e], (), Perm((2, 1))))
        assert rep == AssocReport(False, "witnesses differ: (1, 2) vs (2, 1)")

    def test_dropped_order_pair_is_caught(self, monkeypatch):
        # composites that lose their largest order pair once the outer arity
        # is at least 2 must fail the suite at a located trial
        constraints = splice.block_constraints

        def drop_largest(outer, arities, inners):
            pairs = constraints(outer, arities, inners)
            return pairs - {max(pairs)} if len(arities) >= 2 and pairs else pairs

        monkeypatch.setattr(splice, "block_constraints", drop_largest)
        rep = run_splice_associativity(40, 0)
        assert (rep.passes, rep.first_failure_trial) == (31, 7)
        assert rep.first_failure == "constraints differ: [] vs [(1, 3), (1, 4), (2, 3)]"

    def test_suite_runner(self):
        rep = run_splice_associativity(trials=50, seed=123)
        assert rep.ok
        bad = run_splice_associativity(trials=20, seed=123, corrupt=True)
        assert not bad.ok
        assert bad.first_failure is not None


def _without_slot_elements(gs):
    """block_diag_wreath with every slot's group element dropped."""
    w = block_diag_wreath(gs)
    return WreathElement(w.outer, w.perm, (w.outer,) * w.degree, w.group)


class TestActions:
    def test_perm_action_reindexes(self):
        elem = splice_element(
            W(knot("b")), [W(puck("p1")), W(puck("p2"))], [(1, 2)], Perm.identity(2)
        )
        tau = Perm((2, 1))
        out = act_perm(elem, tau)
        assert out.pucks == (W(puck("p2")), W(puck("p1")))
        assert out.constraints == frozenset({(2, 1)})
        assert out.witness == tau.inverse() * elem.witness

    def test_perm_action_composes(self):
        rnd = random.Random(3)
        for _ in range(100):
            k = rnd.randint(1, 3)
            elem = rand_splice_element(rnd, k, "J")
            s = Perm(rnd.sample(range(1, k + 1), k))
            t = Perm(rnd.sample(range(1, k + 1), k))
            assert compare_elements(act_perm(act_perm(elem, s), t), act_perm(elem, s * t)).ok

    def test_wreath_identity(self):
        rnd = random.Random(4)
        for _ in range(50):
            k = rnd.randint(1, 3)
            elem = rand_splice_element(rnd, k, "J")
            g = WreathElement.identity(k, FREE_WORDS)
            assert compare_elements(act_wreath(elem, g), elem).ok

    def test_wreath_transposition_example(self):
        elem = splice_element(W(knot("b")), [W(puck("p1")), W(puck("p2"))])
        g = WreathElement(
            GroupWord.empty(), Perm((2, 1)), (GroupWord.empty(), GroupWord.empty()), FREE_WORDS
        )
        out = act_wreath(elem, g)
        assert out.pucks == (W(puck("p2")), W(puck("p1")))
        assert out.witness == Perm((2, 1)) * elem.witness

    def test_wreath_is_right_action(self):
        rnd = random.Random(5)
        from spliceops.harness import rand_word_wreath

        for _ in range(100):
            k = rnd.randint(1, 3)
            elem = rand_splice_element(rnd, k, "J")
            g = rand_word_wreath(rnd, k)
            h = rand_word_wreath(rnd, k)
            assert compare_elements(act_wreath(act_wreath(elem, g), h), act_wreath(elem, g * h)).ok

    def test_wreath_inverse(self):
        rnd = random.Random(7)
        for _ in range(200):
            k = rnd.randint(1, 3)
            elem = rand_splice_element(rnd, k, "J")
            g = rand_word_wreath(rnd, k)
            assert g * g.inverse() == WreathElement.identity(k, FREE_WORDS)
            assert compare_elements(act_wreath(act_wreath(elem, g), g.inverse()), elem).ok

    def test_equivariance_randomized(self):
        rnd = random.Random(6)
        for _ in range(100):
            assert check_equivariance_instance(rnd) is None

    def test_equivariance_suite(self):
        rep = run_equivariance(trials=50, seed=99)
        assert rep.ok

    @pytest.mark.parametrize(
        "name, fault, law",
        [
            ("outer_act", lambda g, elem: elem, "inner"),  # forgets its group element
            ("block_diag_wreath", _without_slot_elements, "outer"),
        ],
    )
    def test_equivariance_negative_control(self, monkeypatch, name, fault, law):
        """A fault patched into an operation the check looks up at call time
        must fail the suite with a located counterexample."""
        monkeypatch.setattr(harness, name, fault)
        rep = run_equivariance(trials=50, seed=99)
        assert not rep.ok and rep.first_failure_trial is not None
        assert rep.first_failure.startswith(f"{law} equivariance failed: ")
        assert f"result: FAIL at trial {rep.first_failure_trial}" in rep.text()


class TestReportsAndJson:
    def test_axiom_suite_smoke(self):
        rep = run_axioms("splice", trials=30, seed=5)
        assert rep.ok
        assert "result: OK" in rep.text()

    def test_corrupted_suite_fails(self):
        rep = run_axioms("splice", trials=10, seed=5, corrupt=True)
        assert not rep.ok
        assert "counterexample" in rep.text()

    def test_every_suite_report_pinned(self):
        # The exact bytes of all nine fixed-seed reports, across refactors.
        reports = []
        for corrupt in (False, True):
            reports += [run_axioms(op, 40, 11, corrupt=corrupt) for op in ("cubes", "overlap", "splice")]
            reports.append(run_splice_associativity(40, 11, corrupt=corrupt))
        reports.append(run_equivariance(40, 11))
        assert [r.passes for r in reports] == [40, 40, 40, 40, 13, 13, 0, 2, 40]
        digest = hashlib.sha256("".join(r.text() for r in reports).encode()).hexdigest()
        assert digest == "27257aed9fb91a1551a9bd9ffff0b6cb69272e8264a945255f4956c42f3584b5"

    @pytest.mark.parametrize("trials", [0, -3])
    def test_suites_reject_zero_volume(self, trials):
        for suite in (
            lambda: run_axioms("cubes", trials, 1),
            lambda: run_splice_associativity(trials, 1),
            lambda: run_equivariance(trials, 1),
        ):
            with pytest.raises(ValueError, match="trials must be at least 1"):
                suite()

    def test_json_round_trip(self):
        rnd = random.Random(7)
        for _ in range(50):
            elem = rand_splice_element(rnd, rnd.randint(0, 3), "J")
            back = splice_from_json(splice_to_json(elem))
            assert back == elem
            assert back.witness == elem.witness

    @pytest.mark.parametrize(
        "constraints, witness, message",
        [
            ("[[1, 2], [2, 1]]", "", "contradictory constraints on pair (2, 1)"),
            ("[[1, 2]]", ', "witness": [2, 1]', "witness violates constraint (1, 2)"),
        ],
    )
    def test_json_input_is_validated(self, constraints, witness, message):
        text = f'{{"base": "e", "constraints": {constraints}, "pucks": ["P.a", "P.b"]{witness}}}'
        with pytest.raises(StructuralError) as exc:
            splice_from_json(text)
        assert str(exc.value) == message


def _reference_overlap_act(elem, ws, top_down=True):
    """The overlap action from raw letters: for each cube in height order,
    from the top down (or, as a fault, from the bottom up), its cube letter,
    the letters of its word and the inverse cube letter, reduced once."""
    heights = range(elem.arity, 0, -1) if top_down else range(1, elem.arity + 1)
    letters = []
    for h in heights:
        i = elem.witness(h) - 1
        m = elem.cubes[i].as_affine()
        letters += [cube_letter(m), *ws[i].letters, cube_letter(m.inverse())]
    return GroupWord(letters)


def overlap_act_mismatch(trials=200, top_down=True):
    """The first trial where ``overlap_act`` and the raw-letter reference
    differ, named with both words, or None."""
    rnd = random.Random(8)
    for t in range(trials):
        elem = rand_overlap_element(rnd, rnd.randint(1, 2), rnd.randint(0, 3))
        ws = [rand_word(rnd, 2) for _ in range(elem.arity)]
        got, want = overlap_act(elem, ws), _reference_overlap_act(elem, ws, top_down)
        if got != want:
            return f"trial {t}: overlap_act gives {got!r}, the reference {want!r}"
    return None


class TestOverlapInclusion:
    def test_action_agrees_with_cube_action(self):
        assert overlap_act_mismatch() is None

    def test_action_negative_control(self):
        failure = overlap_act_mismatch(top_down=False)
        assert failure is not None and failure.startswith("trial "), failure

    def test_composition_entries_agree(self):
        # identity bases make the conjugated stacks vanish, so the composite's
        # pucks are exactly the composed affine cubes; the symbolic composite
        # may carry extra declared constraints for pairs that separated
        from spliceops.harness import rand_overlap_element
        from spliceops.overlap import overlap_compose
        from spliceops.splice import include_overlap

        rnd = random.Random(9)
        for _ in range(150):
            outer = rand_overlap_element(rnd, 1, rnd.randint(1, 3))
            args = [rand_overlap_element(rnd, 1, rnd.randint(0, 2)) for _ in range(outer.arity)]
            symbolic = splice_compose(include_overlap(outer), [include_overlap(a) for a in args])
            geometric = include_overlap(overlap_compose(outer, args))
            assert symbolic.base == geometric.base
            assert symbolic.pucks == geometric.pucks
            assert geometric.constraints <= symbolic.constraints


class TestActionAxioms:
    def test_action_associativity(self):
        from spliceops.harness import rand_splice_element, rand_word

        rnd = random.Random(10)
        for _ in range(150):
            k = rnd.randint(1, 3)
            outer = rand_splice_element(rnd, k, "J", nonempty_base=True)
            mids = [rand_splice_element(rnd, rnd.randint(0, 2), f"L{a}") for a in range(k)]
            words = [rand_word(rnd, 2) for _ in range(sum(m.arity for m in mids))]
            lhs = splice_act(splice_compose(outer, mids), words)
            pos, partial = 0, []
            for m in mids:
                partial.append(splice_act(m, words[pos : pos + m.arity]))
                pos += m.arity
            assert lhs == splice_act(outer, partial)

    def test_action_symmetry(self):
        from spliceops.harness import rand_splice_element, rand_word

        rnd = random.Random(11)
        for _ in range(150):
            k = rnd.randint(1, 3)
            outer = rand_splice_element(rnd, k, "J", nonempty_base=True)
            words = [rand_word(rnd, 2) for _ in range(k)]
            sigma = Perm(rnd.sample(range(1, k + 1), k))
            lhs = splice_act(act_perm(outer, sigma), words)
            rhs = splice_act(outer, sigma.inverse().gather(words))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# structure maps that build directly, against the validating constructor


def conjugate_stack(witness, conjugators, words):
    """Running products of the conjugates c_i * w_i * c_i^-1 from the top of
    the height order (``witness`` sends heights to indices) down: entry n is
    the product over the n highest positions, entry 0 the empty word."""
    stack = [GroupWord.empty()]
    for pos in range(len(words), 0, -1):
        i = witness(pos) - 1
        stack.append(stack[-1] * conjugate(conjugators[i], words[i]))
    return stack


def _reference_splice_compose(outer, args):
    """The whole stack of running products first, then each stem as a product
    over it; explicit block offsets; every entry validated by splice_element."""
    k = outer.arity
    stack = conjugate_stack(outer.witness, outer.pucks, [a.base for a in args])
    height = outer.witness.inverse()
    pucks = [
        stack[k - height(a)] * outer.pucks[a - 1] * p for a in range(1, k + 1) for p in args[a - 1].pucks
    ]
    offsets = [0]
    for arg in args:
        offsets.append(offsets[-1] + arg.arity)
    constraints = set()
    for low, high in outer.constraints:
        for x in range(offsets[low - 1] + 1, offsets[low] + 1):
            for y in range(offsets[high - 1] + 1, offsets[high] + 1):
                constraints.add((x, y))
    for a in range(1, k + 1):
        for low, high in args[a - 1].constraints:
            constraints.add((offsets[a - 1] + low, offsets[a - 1] + high))
    witness = block_perm(outer.witness, [a.arity for a in args], [a.witness for a in args])
    return splice_element(stack[-1] * outer.base, pucks, constraints, witness)


def _reference_act_perm(elem, tau):
    tau_inv = tau.inverse()
    constraints = {(tau_inv(i), tau_inv(k)) for i, k in elem.constraints}
    return splice_element(elem.base, tau.gather(elem.pucks), constraints, tau_inv * elem.witness)


def _reference_act_wreath(elem, g):
    g0_inv, tau = g.outer.inverse(), g.perm
    tau_inv = tau.inverse()
    pucks = [g0_inv * elem.pucks[tau(a) - 1] * g.inner[a - 1] for a in range(1, g.degree + 1)]
    constraints = {(tau_inv(i), tau_inv(k)) for i, k in elem.constraints}
    return splice_element(g0_inv * elem.base * g.outer, pucks, constraints, tau_inv * elem.witness)


def _reference_include_overlap(elem):
    pucks = [W(words.cube_letter(c.as_affine())) for c in elem.cubes]
    return splice_element(GroupWord.empty(), pucks, elem.constraints, elem.witness)


def structure_map_mismatch(trials=2000):
    """None, or the first seeded trial where a structure map and its
    reference differ by ==, repr (which shows the witness) or hash."""
    rng = random.Random("direct-splice")
    for trial in range(trials):
        k = rng.randint(0, 4)
        outer = rand_splice_element(rng, k, "J", nonempty_base=True)
        args = [rand_splice_element(rng, rng.randint(0, 3), f"L{a}", True) for a in range(k)]
        tau = Perm(rng.sample(range(1, k + 1), k))
        g = rand_word_wreath(rng, k)
        cube_elem = rand_overlap_element(rng, rng.randint(1, 3), k)
        for name, got, want in (
            ("splice_compose", splice_compose(outer, args), _reference_splice_compose(outer, args)),
            ("act_perm", act_perm(outer, tau), _reference_act_perm(outer, tau)),
            ("act_wreath", act_wreath(outer, g), _reference_act_wreath(outer, g)),
            ("include_overlap", include_overlap(cube_elem), _reference_include_overlap(cube_elem)),
        ):
            if (got, repr(got), hash(got)) != (want, repr(want), hash(want)):
                extra = sorted(got.constraints - want.constraints)
                missing = sorted(want.constraints - got.constraints)
                return f"trial {trial}: {name} has extra pairs {extra}, missing pairs {missing}: {got!r}"
    return None


def test_structure_maps_match_reference():
    assert structure_map_mismatch() is None


def test_structure_map_negative_control(monkeypatch):
    """A helper that keeps no cross pair loses the declared ones."""
    keep_none = lambda outer, arities, inners: perm.block_constraints(  # noqa: E731
        outer, arities, inners, lambda x, y: False
    )
    monkeypatch.setattr(splice, "block_constraints", keep_none)
    failure = structure_map_mismatch()
    assert failure is not None
    assert re.match(r"trial \d+: splice_compose has extra pairs \[\], missing pairs \[\(", failure), failure


def fold_input(rng):
    """An outer element and arguments of a shape where the fold's seams
    cancel or merge.  Half the outers are composites of an outer of arity up
    to 16, so pucks of one block share a long stem that cancels where they
    meet in the fold; the others are images of overlapping-cubes elements,
    so the cube letter closing one conjugate merges with the next puck's."""
    dim = None
    if rng.random() < 0.5:
        k = rng.randint(1, 16)
        first = rand_splice_element(rng, k, "J", nonempty_base=True)
        mids = [rand_splice_element(rng, rng.randint(0, 2), f"L{a}", True) for a in range(k)]
        outer = splice_compose(first, mids)
    else:
        dim = rng.randint(1, 2)
        outer = include_overlap(rand_overlap_element(rng, dim, rng.randint(1, 6)))
    args = []
    for n in range(outer.arity):
        if dim is not None and rng.random() < 0.3:
            args.append(include_overlap(rand_overlap_element(rng, dim, rng.randint(0, 2))))
        else:
            args.append(rand_splice_element(rng, rng.randint(0, 2), f"M{n}", rng.random() < 0.8))
    return outer, args


def fold_mismatch(trials=300):
    """None, or the first seeded trial where ``splice_compose`` on a
    ``fold_input`` differs from the stack-then-stem reference by ==, repr or
    hash."""
    rng = random.Random("splice-fold")
    for trial in range(trials):
        outer, args = fold_input(rng)
        got, want = splice_compose(outer, args), _reference_splice_compose(outer, args)
        if (got, repr(got), hash(got)) != (want, repr(want), hash(want)):
            return f"trial {trial}: {compare_elements(got, want).detail}"
    return None


def test_fold_matches_reference_on_cancelling_seams():
    assert fold_mismatch() is None


def plain_prefix(a, b) -> int:
    """The common prefix length of two letter tuples, letter by letter."""
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return n


def test_fold_inputs_cancel_and_merge_at_seams(monkeypatch):
    """The trials reach the seams they are for: conjugators sharing a long
    prefix, which the fold's steps cancel whole, and cube letters meeting
    where two conjugators diverge.  Both are read off the fold's own steps
    over every trial; the first hundred trials merge only 75 cube pairs."""
    prefixes, cube_merges = [], []
    quotient = words.quotient_letters

    def traced(prev, c):
        n = plain_prefix(prev, c)
        prefixes.append(n)
        if n < len(prev) and n < len(c) and prev[n].kind == c[n].kind == CUBE:
            cube_merges.append((prev, c))
        return quotient(prev, c)

    monkeypatch.setattr(splice, "quotient_letters", traced)
    assert fold_mismatch() is None
    assert max(prefixes) >= 40
    assert len(cube_merges) >= 100


def test_fold_multiplies_no_words(monkeypatch):
    """The fold builds no word product: on a fixed 32-slot composite whose
    pucks share long stems, with some slots' words empty and some slots
    without pucks, every slot steps on the letter list alike."""
    rnd = random.Random(32)
    first = rand_splice_element(rnd, 8, "J", nonempty_base=True)
    outer = splice_compose(first, [rand_splice_element(rnd, 4, f"L{a}", True) for a in range(8)])
    assert outer.arity == 32
    bases = [GroupWord.empty() if n % 3 == 0 else rand_word(rnd, 3, 1) for n in range(32)]
    empty_slots = sum(not w.letters for w in bases)
    assert 0 < empty_slots < 32
    slot_pucks = [tuple(rand_word(rnd, 3) for _ in range(n % 4)) for n in range(32)]
    calls = []
    mul = GroupWord.__mul__
    monkeypatch.setattr(GroupWord, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    got, pucks = splice._fold_stack(outer.witness, outer.pucks, bases, outer.base, slot_pucks)
    assert calls == []
    monkeypatch.undo()
    stack = conjugate_stack(outer.witness, outer.pucks, bases)
    height = outer.witness.inverse()
    assert got == stack[-1] * outer.base
    assert pucks == tuple(
        stack[32 - height(a)] * outer.pucks[a - 1] * p for a in range(1, 33) for p in slot_pucks[a - 1]
    )


def late_stems(witness, conjugators, bases, base, pucks):
    """A fold that reads each slot's pucks after the slot's own conjugate has
    joined the running product: the double of the negative controls."""
    top = GroupWord.empty()
    read = [()] * len(bases)
    for i in reversed(witness.images):
        top = top * conjugate(conjugators[i - 1], bases[i - 1])
        read[i - 1] = [top * conjugators[i - 1] * p for p in pucks[i - 1]]
    return top * base, tuple(p for ps in read for p in ps)


def fold_stack_mismatch(fold=None):
    """None, or the first case where ``fold`` (by default ``_fold_stack``)
    differs from ``conjugate_stack`` in its product or a puck.  The cases are
    every subset of empty words at arities 1 to 4 (a word outside the subset
    starts with a letter of its own, so it is not empty), over seeded
    conjugators, words, bases and witnesses; about 30 % of the conjugators
    are empty and the others share a prefix, so steps cancel whole and
    partly.  Each slot's pucks are the empty word, which reads its stem
    itself, and a seeded word."""
    fold = fold or splice._fold_stack
    rnd = random.Random("fold-stack")
    case = 0
    for k in range(1, 5):
        for empty in range(2**k):
            stem = rand_word(rnd, 3, 1)
            conjugators = [
                GroupWord.empty() if rnd.random() < 0.3 else stem * rand_word(rnd, 2, 1) for _ in range(k)
            ]
            slot_words = [
                GroupWord.empty() if empty >> n & 1 else GroupWord.of(puck(f"W{n}")) * rand_word(rnd, 2)
                for n in range(k)
            ]
            witness, base = Perm(rnd.sample(range(1, k + 1), k)), rand_word(rnd, 2, 1)
            slot_pucks = [(GroupWord.empty(), rand_word(rnd, 2, 1)) for _ in range(k)]
            product, pucks = fold(witness, conjugators, slot_words, base, slot_pucks)
            stack = conjugate_stack(witness, conjugators, slot_words)
            height = witness.inverse()
            if product != stack[-1] * base:
                return f"case {case}: product differs"
            want = [
                stack[k - height(a)] * conjugators[a - 1] * p for a in range(1, k + 1) for p in slot_pucks[a - 1]
            ]
            for n, (got, expected) in enumerate(zip(pucks, want, strict=True), start=1):
                if got != expected:
                    return f"case {case}: puck {n} differs"
            case += 1
    return None


def test_fold_matches_conjugate_stack_on_every_empty_subset():
    assert fold_stack_mismatch() is None


def test_fold_stack_negative_control():
    failure = fold_stack_mismatch(late_stems)
    assert failure is not None
    assert re.match(r"case \d+: puck \d+ differs$", failure), failure


def test_fold_negative_control(monkeypatch):
    """A fold that reads each stem after the slot's own conjugate has joined
    the running product is caught at a located trial."""
    monkeypatch.setattr(splice, "_fold_stack", late_stems)
    failure = fold_mismatch()
    assert failure is not None
    assert re.match(r"trial \d+: puck \d+ differs: ", failure), failure


def test_structure_maps_skip_validation(monkeypatch):
    """No structure map or action runs a validating constructor."""
    rnd = random.Random(13)
    outer = rand_splice_element(rnd, 3, "J", nonempty_base=True)
    args = [rand_splice_element(rnd, 2, f"L{a}", True) for a in range(3)]
    tau = Perm((2, 3, 1))
    g = rand_word_wreath(rnd, 3)
    cube_outer = rand_disjoint_element(rnd, 2, 3)
    cube_args = [rand_disjoint_element(rnd, 2, 2) for _ in range(3)]
    lap_outer = rand_overlap_element(rnd, 2, 3)
    lap_args = [rand_overlap_element(rnd, 2, 2) for _ in range(3)]
    calls = []

    def counted(name, fn):
        return lambda *a, **kw: calls.append(name) or fn(*a, **kw)

    monkeypatch.setattr(splice, "splice_element", counted("splice_element", splice_element))
    monkeypatch.setattr(
        overlap, "overlap_canonical", counted("overlap_canonical", overlap.overlap_canonical)
    )
    monkeypatch.setattr(CubesElement, "__init__", counted("CubesElement", CubesElement.__init__))
    splice_compose(outer, args)
    act_perm(outer, tau)
    act_wreath(outer, g)
    include_overlap(lap_outer)
    cube_compose(cube_outer, cube_args)
    permute_cubes(cube_outer, tau)
    overlap_compose(lap_outer, lap_args)
    permute_overlap(lap_outer, tau)
    assert calls == []
    # the counters are live
    splice.identity_element()
    OverlapElement.identity(1)
    CubesElement.identity(1)
    assert calls == ["splice_element", "overlap_canonical", "CubesElement"]

"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Volumes and tolerances are
pinned here; nothing is deferred to later calibration.
"""

import random
import time

from spliceops.cli import main as cli_main
from spliceops.expr import parse_expr, print_expr
from spliceops.geom import bump, selftest, shrink
from spliceops.harness import (
    rand_cable_params,
    rand_prime_tree,
    run_axioms,
    run_equivariance,
    run_splice_associativity,
)
from spliceops.perm import SignedCycleType
from spliceops.realize import (
    ActionParams,
    admissible_cycles,
    build_witness,
    check_representation,
    enumerate_admissible,
    feasible_k,
)
from spliceops.tree import (
    ADDITIVE,
    DEGENERATE_A,
    DEGENERATE_B,
    Keychain,
    TorusLeaf,
    UNKNOT,
    canonicalize,
    check_additivity,
    complexity,
    connect_sum,
    hopf_gen,
    hyperbolic_gen,
    keychain_gen,
    load_catalogue,
    seifert_gen,
    sort_key,
    splice_graft,
)

from oracles import canonicalize_random, reference_parse_expr
from test_expr import depth2_corpus

AXIOM_TRIALS = 10_000
ASSOC_TRIALS = 10_000
EQUIVARIANCE_TRIALS = 1_000
SCHUBERT_TRIALS = 1_000
GRAFT_TRIALS = 1_000
GEOM_SAMPLES = 1_000


def test_criterion_1_operad_axiom_suites():
    t0 = time.time()
    reports = [run_axioms(operad, AXIOM_TRIALS, seed=2026) for operad in ("cubes", "overlap", "splice")]
    elapsed = time.time() - t0
    for report in reports:
        assert report.ok, report.text()
    assert elapsed < 60.0, f"axiom suites took {elapsed:.1f}s, budget is 60s"
    print(
        f"\ncriterion 1: PASS - {AXIOM_TRIALS} instances per operad "
        f"(cubes exact, overlap canonical, splice reduced words) in {elapsed:.1f}s"
    )


def test_criterion_2_mechanized_associativity():
    report = run_splice_associativity(ASSOC_TRIALS, seed=2027)
    assert report.ok, report.text()
    control = run_splice_associativity(200, seed=2027, corrupt=True)
    assert not control.ok
    assert control.first_failure is not None
    assert "differ" in control.first_failure  # mismatch is located, not just flagged
    print(
        f"criterion 2: PASS - associativity verified on {ASSOC_TRIALS} symbolic instances; "
        f"dropped-conjugator control fails with located mismatch"
    )


def test_criterion_3_equivariance():
    report = run_equivariance(EQUIVARIANCE_TRIALS, seed=2028)
    assert report.ok, report.text()
    print(
        f"criterion 3: PASS - inner and outer wreath equivariance on "
        f"{EQUIVARIANCE_TRIALS} instances"
    )


def test_criterion_4_schubert_pi0():
    rnd = random.Random("schubert:2029")
    forms = {}
    for trial in range(SCHUBERT_TRIALS):
        primes = [rand_prime_tree(rnd, 1) for _ in range(rnd.randint(1, 5))]
        results = []
        for _ in range(3):
            shuffled = primes[:]
            rnd.shuffle(shuffled)
            while len(shuffled) > 1:
                i = rnd.randrange(len(shuffled) - 1)
                shuffled[i : i + 2] = [connect_sum(shuffled[i : i + 2])]
            results.append(canonicalize(shuffled[0]))
        assert results[0] == results[1] == results[2]
        total = results[0]
        assert canonicalize(total) == total  # idempotent
        key = tuple(sorted(sort_key(p) for p in primes))
        if key in forms:
            assert forms[key] == total
        forms[key] = total
        if trial % 10 == 0:
            messy = Keychain(tuple(primes))
            assert canonicalize_random(messy, rnd) == canonicalize(messy)
    distinct = {}
    for key, form in forms.items():
        fkey = sort_key(form)
        assert distinct.setdefault(fkey, key) == key  # distinct multisets stay distinct
    print(
        f"criterion 4: PASS - {SCHUBERT_TRIALS} multisets: bracketings agree, "
        f"{len(forms)} distinct multisets gave {len(distinct)} distinct forms, "
        f"randomized rule order confluent"
    )


def test_criterion_5_complexity_additivity():
    cat = load_catalogue()
    assert complexity(UNKNOT, cat) == 0
    assert complexity(TorusLeaf(2, 3), cat) == 1
    assert complexity(parse_expr("fig8", cat), cat) == 1

    rnd = random.Random("grafts:2030")
    degenerate_b_seen = 0
    from spliceops.harness import rand_tree

    for trial in range(GRAFT_TRIALS):
        roll = rnd.random()
        if roll < 0.35:
            gen = keychain_gen(rnd.randint(2, 3))
        elif roll < 0.65:
            gen = seifert_gen(*rand_cable_params(rnd))
        elif roll < 0.92:
            gen = hyperbolic_gen(rnd.choice(sorted(cat.links)))
        else:
            gen = hopf_gen()
        if isinstance(gen, Keychain) and len(gen.kids) > 1 and trial % 5 == 0:
            # force a keychain merge: at least one child is itself a sum
            children = [connect_sum([rand_prime_tree(rnd, 1), rand_prime_tree(rnd, 1)])]
            children += [rand_tree(rnd, 1, allow_unknot=False) for _ in range(len(gen.kids) - 1)]
        else:
            children = [rand_tree(rnd, 1, allow_unknot=False) for _ in range(len(gen.kids))]
        verdict = check_additivity(gen, children, cat)
        out = splice_graft(gen, children, cat)
        total = complexity(out, cat)
        parts = sum(complexity(c, cat) for c in children)
        if verdict == ADDITIVE:
            assert total == 1 + parts
        elif verdict == DEGENERATE_A:
            assert total == parts
        else:
            assert verdict == DEGENERATE_B
            degenerate_b_seen += 1
            merged = sum(1 for c in children if isinstance(c, Keychain))
            effective = sum(
                len(c.children) if isinstance(c, Keychain) else 1 for c in children
            )
            collapse = 1 if effective <= 1 else 0
            assert total == 1 + parts - merged - collapse
    assert degenerate_b_seen >= 50
    print(
        f"criterion 5: PASS - anchors exact; {GRAFT_TRIALS} grafts with verdicts matching "
        f"recomputed complexity ({degenerate_b_seen} forced keychain merges)"
    )


def test_criterion_6_realization():
    sakuma = ActionParams(10, 2, 5)
    v = check_representation(sakuma, SignedCycleType.parse("(5)-"))
    assert v.accepted and v.assignment == ((5, -1, 4),)
    assert SignedCycleType.parse("(5)-").total == 5
    assert check_representation(
        ActionParams(10, 5, 2, swap_roles=True), SignedCycleType.parse("(5)-")
    ).accepted

    d6 = ActionParams(6, 3, 2)
    v = check_representation(d6, SignedCycleType.parse("(6)+ (1)+"), require_fixed=True)
    assert v.accepted
    assert feasible_k(d6, 7, fixed_component=True)  # k - 1 = 6 = n

    bad = check_representation(sakuma, SignedCycleType.of([(2, 1)] * 5 + [(1, 1)]))
    assert not bad.accepted
    assert any("exclusive" in r for r in bad.reasons)

    checked = 0
    for n in range(1, 13):
        for p, q in ((2, 5), (5, 2), (3, 2), (2, 3), (3, 4)):
            a = ActionParams(n, p, q)
            assert len(admissible_cycles(a)) <= 5
            for fixed in (False, True):
                for t in enumerate_admissible(a, k=min(2 * n, 10), require_fixed=fixed):
                    w = build_witness(t)
                    assert w.signed_cycle_type() == t
                    assert n % w.order() == 0
                    checked += 1
    assert checked > 100
    print(
        f"criterion 6: PASS - order-10 and order-6 examples reproduced, exclusivity "
        f"rejected, {checked} witnesses built and verified up to n=12"
    )


def test_criterion_7_geometry():
    errs = selftest(seed=2031, samples=GEOM_SAMPLES)
    assert errs["unit_norm"] <= 1e-12
    assert errs["semigroup"] <= 1e-9
    assert errs["scale_one_identity"] <= 1e-12
    assert errs["fixed_points"] <= 1e-12
    assert errs["conjugation"] <= 1e-9

    assert bump(0.0) == 0.0
    assert bump(1.0) == 1.0 and bump(1.5) == 1.0
    assert bump(-0.3) == bump(0.3) and 0.0 < bump(0.3) < 1.0

    rnd = random.Random("shrink:2032")
    for _ in range(GEOM_SAMPLES):
        x = (rnd.uniform(-2, 2),)
        v = (rnd.uniform(-1, 1),)
        _, same = shrink(1.0, x, v)
        assert same == v  # exact identity at t = 1
        if abs(x[0]) >= 1.0:
            _, out = shrink(rnd.random(), x, v)
            assert out == v  # exact identity off the support
    print(
        f"criterion 7: PASS - norms to 1e-12, semigroup/conjugation to 1e-9, "
        f"bump endpoints and shrink support exact on {GEOM_SAMPLES} samples"
    )


def test_criterion_8_cli(capsys, tmp_path):
    for text in depth2_corpus():
        tree = reference_parse_expr(text)
        assert reference_parse_expr(print_expr(tree)) == tree
        code = cli_main(["canon", text])
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert canonicalize(reference_parse_expr(out)) == reference_parse_expr(out)

    args = ["axioms", "--operad", "splice", "--trials", "200", "--seed", "77"]
    assert cli_main(args) == 0
    first = capsys.readouterr().out
    assert cli_main(args) == 0
    second = capsys.readouterr().out
    assert first == second and first.encode() == second.encode()
    print(
        f"criterion 8: PASS - {len(depth2_corpus())} depth-2 expressions round-trip; "
        f"seeded axiom reports byte-identical"
    )

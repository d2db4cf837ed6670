"""Word engine tests.

Confluence oracle: a naive rewriter that applies one randomly chosen redex at
a time until none remain, independent of the stack-based reducer.  Words are
reduced on construction, so the oracles work on raw letter tuples and compare
against ``GroupWord(letters)``.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from spliceops import splice, words
from spliceops.cubes import AffineMap, LittleCube, LittleInterval
from spliceops.errors import StructuralError
from spliceops.harness import rand_overlap_element, rand_splice_element, rand_word
from spliceops.overlap import overlap_canonical, overlap_compose
from spliceops.perm import Perm
from spliceops.splice import overlap_act, splice_compose, verify_associativity
from spliceops.words import (
    CUBE,
    GroupWord,
    conjugate,
    cube_letter,
    format_word,
    gsym,
    knot,
    parse_word,
    puck,
    reduce_word,
)

from oracles import anchored_overlap_element


def naive_random_reduce(letters: tuple, rnd: random.Random) -> tuple:
    letters = list(letters)
    while True:
        redexes = []
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if a.kind == "C" and b.kind == "C":
                redexes.append(("merge", i))
            elif a.kind == b.kind and a.name == b.name and a.exp == -b.exp and a.kind != "C":
                redexes.append(("cancel", i))
        for i, a in enumerate(letters):
            if a.kind == "C" and a.cube.is_identity():
                redexes.append(("drop", i))
        if not redexes:
            return tuple(letters)
        kind, i = rnd.choice(redexes)
        if kind == "merge":
            merged = letters[i].cube.compose(letters[i + 1].cube)
            letters[i : i + 2] = [cube_letter(merged)]
        elif kind == "cancel":
            del letters[i : i + 2]
        else:
            del letters[i]


def rand_mixed_letters(rnd, n) -> tuple:
    letters = []
    for _ in range(n):
        pick = rnd.random()
        if pick < 0.3:
            scale = Fraction(1, rnd.randint(1, 3))
            m = AffineMap([(scale, Fraction(rnd.randint(-1, 1), 4))])
            letters.append(cube_letter(m if rnd.random() < 0.7 else m.inverse()))
        else:
            mk = rnd.choice((puck, knot, gsym))
            letters.append(mk(rnd.choice("abc"), rnd.choice((1, -1))))
    return tuple(letters)


def rand_mixed_word(rnd, n):
    return GroupWord(rand_mixed_letters(rnd, n))


class TestReduce:
    def test_simple_cancellation(self):
        x = knot("x")
        assert not reduce_word(GroupWord.of(x, x.inverse()))

    def test_nested_cancellation(self):
        a, b, c = knot("a"), knot("b"), knot("c")
        w = GroupWord.of(a, b, b.inverse(), a.inverse(), c)
        assert reduce_word(w) == GroupWord.of(c)

    def test_cube_letters_merge(self):
        half = AffineMap([(Fraction(1, 2), Fraction(0))])
        third = AffineMap([(Fraction(1, 3), Fraction(1, 4))])
        w = reduce_word(GroupWord.of(cube_letter(half), cube_letter(third)))
        assert w == GroupWord.of(cube_letter(half.compose(third)))

    def test_cube_inverse_pair_vanishes(self):
        m = AffineMap([(Fraction(1, 2), Fraction(1, 4))])
        assert not reduce_word(GroupWord.of(cube_letter(m), cube_letter(m.inverse())))

    def test_idempotent(self):
        rnd = random.Random(0)
        for _ in range(200):
            w = GroupWord(rand_mixed_letters(rnd, rnd.randint(0, 8)))
            assert GroupWord(w.letters) == w
            assert reduce_word(w) is w

    def test_reduction_confluent_against_random_rewriter(self):
        rnd = random.Random(1)
        for _ in range(300):
            letters = rand_mixed_letters(rnd, rnd.randint(0, 8))
            assert naive_random_reduce(letters, rnd) == GroupWord(letters).letters

    def test_homomorphic(self):
        rnd, order = random.Random(2), random.Random(3)
        for _ in range(100):
            u = rand_mixed_letters(rnd, rnd.randint(0, 6))
            v = rand_mixed_letters(rnd, rnd.randint(0, 6))
            assert GroupWord(u) * GroupWord(v) == GroupWord(u + v)
            # construction and products share the seam walk, so check one
            # of them against the independent rewriter as well
            assert GroupWord(u + v).letters == naive_random_reduce(u + v, order)

    def test_construction_reduces(self):
        x = knot("x")
        assert not GroupWord.of(x, x.inverse())
        assert format_word(parse_word("K.x K.x^-1")) == "e"
        assert parse_word("P.a K.b K.b^-1 P.a^-1 G.c") == GroupWord.of(gsym("c"))

    def test_exponent_must_be_unit(self):
        # an exponent of 2 would print as K.a, and 0 would never cancel
        for make in (puck, knot, gsym):
            for exp in (0, 2, -2):
                with pytest.raises(StructuralError):
                    make("a", exp)

    @pytest.mark.parametrize("exp", [0, 2, -2])
    def test_raw_letter_exponent_must_be_unit(self, exp):
        # a raw P.a^2 printed as P.a and kept beside P.a, yet cancelled it
        # in a product
        bad = words.Letter(words.PUCK, "a", exp, None)
        for letters in ([bad, puck("a")], [bad], [knot("b"), bad]):
            with pytest.raises(StructuralError) as exc:
                GroupWord(letters)
            assert str(exc.value) == f"letter exponent must be 1 or -1, got {exp}"
        m = AffineMap([(Fraction(1, 2), Fraction(0))])
        with pytest.raises(StructuralError, match=f"^letter exponent must be 1 or -1, got {exp}$"):
            GroupWord.of(words.Letter(CUBE, None, exp, m))

    def test_raw_letter_kind_must_be_known(self):
        # an X.a letter would print as a word that parse_word rejects
        with pytest.raises(StructuralError) as exc:
            GroupWord.of(knot("b"), words.Letter("X", "a", 1, None))
        assert str(exc.value) == "unknown letter kind 'X'"
        with pytest.raises(StructuralError):
            parse_word("X.a")

    def test_raw_cube_letter_must_hold_a_map(self):
        # a cube letter without a map failed on an attribute of None
        with pytest.raises(StructuralError) as exc:
            GroupWord.of(knot("b"), words.Letter(CUBE, None, 1, None))
        assert str(exc.value) == "cube letter must hold an AffineMap, got None"

    def test_raw_symbol_name_must_be_a_string(self):
        # P.None printed as a word that parse_word reads back as the symbol
        # named "None"
        for name in (None, 3):
            with pytest.raises(StructuralError) as exc:
                GroupWord.of(words.Letter(words.PUCK, name, 1, None))
            assert str(exc.value) == f"symbol letter name must be a str, got {name!r}"

    @pytest.mark.parametrize("name", ["a b", "", "1a", "a.b", "a-1"])
    def test_raw_symbol_name_must_read_back(self, name):
        # P.a b printed as a word that parse_word rejects, and P. as one it
        # cannot read
        with pytest.raises(StructuralError) as exc:
            GroupWord.of(knot("b"), words.Letter(words.PUCK, name, 1, None))
        assert str(exc.value) == f"symbol letter name must match [A-Za-z_][A-Za-z0-9_']*, got {name!r}"
        with pytest.raises(StructuralError):
            parse_word(f"P.{name}")

    def test_raw_symbol_letter_carries_no_cube(self):
        # P.a with a map printed as P.a, yet was unequal to parse_word("P.a")
        m = AffineMap([(Fraction(1, 2), Fraction(0))])
        with pytest.raises(StructuralError) as exc:
            GroupWord.of(words.Letter(words.PUCK, "a", 1, m))
        assert str(exc.value) == f"symbol letter P.a must carry no cube, got {m!r}"

    def test_inverse_of_inverted_cube_letter(self):
        # a cube letter with exponent -1 is the inverse map, so its inverse
        # letter is the map itself
        m = AffineMap([(Fraction(2), Fraction(1))])
        lt = words.Letter(CUBE, None, -1, m)
        assert not GroupWord.of(lt, lt.inverse())
        assert GroupWord.of(lt.inverse()) == GroupWord.of(cube_letter(m))
        assert GroupWord.of(lt) == GroupWord.of(cube_letter(m).inverse())

    def test_cubes_never_cancel_symbols(self):
        m = cube_letter(AffineMap([(Fraction(1, 2), Fraction(0))]))
        w = reduce_word(GroupWord.of(knot("x"), m, knot("x", -1)))
        assert len(w) == 3


def reference_mul(u: GroupWord, v: GroupWord) -> GroupWord:
    """The push-based product: each letter of v in turn is pushed onto a copy
    of u's letters, cancelling inverse symbols and merging cubes at the top."""
    out = list(u.letters)
    for lt in v.letters:
        if lt.kind == "C":
            cube = lt.cube if lt.exp == 1 else lt.cube.inverse()
            if out and out[-1].kind == "C":
                cube = out[-1].cube.compose(cube)
                out.pop()
            if not cube.is_identity():
                out.append(cube_letter(cube))
            continue
        if out:
            top = out[-1]
            if top.kind == lt.kind and top.name == lt.name and top.exp == -lt.exp:
                out.pop()
                continue
        out.append(lt)
    return GroupWord._trusted(tuple(out))


def wide_splice_instance(seed: int, k: int) -> tuple:
    """(outer, mids, inners) of one associativity instance of wide_splice
    shape, with an outer of arity k."""
    rnd = random.Random(seed)
    outer = rand_splice_element(rnd, k, "J", nonempty_base=True)
    mids = [rand_splice_element(rnd, rnd.randint(0, 2), f"L{a}", True) for a in range(k)]
    inners = [rand_splice_element(rnd, rnd.randint(0, 2), f"M{n}") for m in mids for n in range(m.arity)]
    return outer, mids, inners


def splice_product_pairs(seed: int, k: int) -> list:
    """Every product made while checking one associativity instance of
    wide_splice shape: word products (conjugations, stems times pucks), the
    fold's pushes onto its letter list, and its steps prev^-1 * c from one
    conjugator to the next, as the pair (prev^-1, c)."""
    instance = wide_splice_instance(seed, k)
    pairs = []
    mul, push, quotient = GroupWord.__mul__, splice.push_letters, splice.quotient_letters

    def traced_push(acc, right):
        pairs.append((GroupWord._trusted(tuple(acc)), GroupWord._trusted(right)))
        push(acc, right)

    def traced_quotient(prev, c):
        pairs.append((GroupWord._trusted(prev).inverse(), GroupWord._trusted(c)))
        return quotient(prev, c)

    GroupWord.__mul__ = lambda a, b: pairs.append((a, b)) or mul(a, b)
    splice.push_letters, splice.quotient_letters = traced_push, traced_quotient
    try:
        assert verify_associativity(*instance).ok
    finally:
        GroupWord.__mul__ = mul
        splice.push_letters, splice.quotient_letters = push, quotient
    return pairs


def seeded_seam_pairs() -> list:
    """Pairs (u s, s^-1 v) whose seam s mixes symbols and cube letters: a few
    by hand, then seeded ones."""
    rnd = random.Random(9)
    half = cube_letter(AffineMap([(Fraction(1, 2), Fraction(0))]))
    third = cube_letter(AffineMap([(Fraction(1, 3), Fraction(1, 4))]))
    x, y = knot("x"), gsym("y")
    pairs = [
        (GroupWord.empty(), GroupWord.empty()),
        (GroupWord.of(x, half), GroupWord.empty()),
        (GroupWord.empty(), GroupWord.of(half, y)),
        (GroupWord.of(x, half, y), GroupWord.of(y.inverse(), half.inverse(), x.inverse())),
        (GroupWord.of(x, half), GroupWord.of(third, y)),
        (GroupWord.of(y, x, half), GroupWord.of(half.inverse(), x.inverse(), y)),
    ]
    for _ in range(400):
        u = rand_mixed_letters(rnd, rnd.randint(0, 4))
        s = rand_mixed_letters(rnd, rnd.randint(0, 6))
        v = rand_mixed_letters(rnd, rnd.randint(0, 4))
        s_inv = tuple(lt.inverse() for lt in reversed(s))
        pairs.append((GroupWord(u + s), GroupWord(s_inv + v)))
    return pairs


def splice_stems() -> list:
    return [pair for seed, k in ((10, 4), (11, 8), (12, 16)) for pair in splice_product_pairs(seed, k)]


def seam_corpus() -> list:
    return seeded_seam_pairs() + splice_stems()


def seam_steps(u: GroupWord, v: GroupWord, prod: GroupWord) -> tuple[int, bool]:
    """How many letter pairs the product stepped past at the seam, and whether
    it ended on a cube merge that is not the identity."""
    dropped = len(u) + len(v) - len(prod)
    return dropped // 2, dropped % 2 == 1


def mid_seam_identity_merge(u: GroupWord, v: GroupWord, prod: GroupWord) -> bool:
    """Two cubes merged to the identity and the walk went on past them."""
    steps, _ = seam_steps(u, v, prod)
    return any(u.letters[-1 - t].kind == "C" for t in range(steps - 1))


def seam_mismatch(mul, pairs) -> str | None:
    """The first pair on which ``mul`` and ``reference_mul`` disagree, located
    by its index, or None."""
    for index, (u, v) in enumerate(pairs):
        got, want = mul(u, v), reference_mul(u, v)
        if got != want:
            return f"pair {index}: {format_word(u)} * {format_word(v)} gave {format_word(got)}, want {format_word(want)}"
    return None


def stop_after_identity_merge_seam(left, right) -> tuple[int, tuple, int]:
    """A faulty seam walk that stops after a cube merge to the identity."""
    i, j = len(left), 0
    while i and j < len(right):
        x, y = left[i - 1], right[j]
        if x.kind != y.kind:
            break
        if x.kind == "C":
            cube = x.cube.compose(y.cube)
            if cube.is_identity():
                return i - 1, (), j + 1
            return i - 1, (cube_letter(cube),), j + 1
        if x.name != y.name or x.exp == y.exp:
            break
        i, j = i - 1, j + 1
    return i, (), j


def stop_after_identity_merge(u: GroupWord, v: GroupWord) -> GroupWord:
    """A faulty product on ``stop_after_identity_merge_seam``."""
    i, mid, j = stop_after_identity_merge_seam(u.letters, v.letters)
    return GroupWord._trusted(u.letters[:i] + mid + v.letters[j:])


def list_push(u: GroupWord, v: GroupWord) -> GroupWord:
    """The product through the in-place entry point: v pushed onto a list of
    u's letters."""
    acc = list(u.letters)
    words.push_letters(acc, v.letters)
    return GroupWord._trusted(tuple(acc))


def never_merge_seam(left, right) -> tuple[int, tuple, int]:
    """A faulty seam walk that stops where two cubes meet."""
    i, j = len(left), 0
    while i and j < len(right):
        x, y = left[i - 1], right[j]
        if x.kind != y.kind or x.kind == CUBE or x.name != y.name or x.exp == y.exp:
            break
        i, j = i - 1, j + 1
    return i, (), j


def seam_merges(u: GroupWord, v: GroupWord, prod: GroupWord) -> bool:
    """Two cubes merged at the seam of the product u * v."""
    steps, merged = seam_steps(u, v, prod)
    return merged or any(u.letters[-1 - t].kind == CUBE for t in range(steps))


def needs_cube_merge(letters: tuple) -> bool:
    """Reducing the raw ``letters`` must merge two cubes: cancelling symbols
    and dropping identity cubes alone leaves two cubes side by side."""
    out = []
    for lt in letters:
        if lt.kind == CUBE and lt.cube.is_identity():
            continue
        if out and lt.kind != CUBE and out[-1] == lt.inverse():
            out.pop()
        else:
            out.append(lt)
    return any(a.kind == b.kind == CUBE for a, b in zip(out, out[1:]))


def construction_corpus() -> list:
    rnd = random.Random(29)
    return [rand_mixed_letters(rnd, rnd.randint(0, 8)) for _ in range(300)]


def construction_mismatch(corpus: list) -> str | None:
    """The first raw letter tuple whose word differs from the random
    rewriter's normal form, located by its index, or None."""
    rnd = random.Random(31)
    for index, letters in enumerate(corpus):
        got, want = GroupWord(letters), GroupWord._trusted(naive_random_reduce(letters, rnd))
        if got != want:
            return f"letters {index}: gave {format_word(got)}, want {format_word(want)}"
    return None


class TestSeamWalk:
    def test_corpus_covers_every_seam(self):
        triples = [(u, v, reference_mul(u, v)) for u, v in seeded_seam_pairs()]
        assert any(u and v and not p for u, v, p in triples)  # full cancellation
        assert any(not u or not v for u, v, _ in triples)  # an empty factor
        assert any(mid_seam_identity_merge(*t) for t in triples)
        assert any(seam_steps(*t)[1] for t in triples)  # a merge ends the walk
        # the stems of deep stacks cancel long seams
        assert max(seam_steps(u, v, reference_mul(u, v))[0] for u, v in splice_stems()) > 30

    def test_product_matches_push_reference(self):
        assert seam_mismatch(GroupWord.__mul__, seam_corpus()) is None

    def test_walk_stopping_after_identity_merge_is_caught(self):
        pairs = seam_corpus()
        first = next(
            index
            for index, (u, v) in enumerate(pairs)
            if mid_seam_identity_merge(u, v, reference_mul(u, v))
        )
        failure = seam_mismatch(stop_after_identity_merge, pairs)
        assert failure is not None and failure.startswith(f"pair {first}: "), failure

    def test_list_push_matches_push_reference(self):
        assert seam_mismatch(list_push, seam_corpus()) is None

    def test_products_and_pushes_share_one_seam_walk(self, monkeypatch):
        # the faulty walk, swapped in for the shared one, reaches both
        # entry points and fails each at the same located pair
        pairs = seam_corpus()
        first = next(
            index
            for index, (u, v) in enumerate(pairs)
            if mid_seam_identity_merge(u, v, reference_mul(u, v))
        )
        monkeypatch.setattr(words, "_seam", stop_after_identity_merge_seam)
        for mul in (list_push, GroupWord.__mul__):
            failure = seam_mismatch(mul, pairs)
            assert failure is not None and failure.startswith(f"pair {first}: "), failure

    def test_construction_products_and_pushes_share_one_seam_walk(self, monkeypatch):
        # a walk that never merges cubes, swapped in for the shared one,
        # reaches construction as well as both product entry points, and
        # each fails at its first case that merges two cubes
        raw, pairs = construction_corpus(), seam_corpus()
        assert construction_mismatch(raw) is None
        first_raw = next(index for index, letters in enumerate(raw) if needs_cube_merge(letters))
        first_pair = next(
            index for index, (u, v) in enumerate(pairs) if seam_merges(u, v, reference_mul(u, v))
        )
        assert first_raw > 0 and first_pair > 0
        monkeypatch.setattr(words, "_seam", never_merge_seam)
        failure = construction_mismatch(raw)
        assert failure is not None and failure.startswith(f"letters {first_raw}: "), failure
        for mul in (list_push, GroupWord.__mul__):
            failure = seam_mismatch(mul, pairs)
            assert failure is not None and failure.startswith(f"pair {first_pair}: "), failure


def plain_prefix(a: tuple, b: tuple) -> int:
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return n


def fold_step_pairs() -> list:
    """The (prev, c) letter pairs the splice fold steps between while checking
    associativity at wide_splice shape: pucks of one block share a stem."""
    steps = []
    quotient = splice.quotient_letters
    splice.quotient_letters = lambda prev, c: steps.append((prev, c)) or quotient(prev, c)
    try:
        for seed, k in ((10, 4), (11, 8), (12, 16)):
            assert verify_associativity(*wide_splice_instance(seed, k)).ok
    finally:
        splice.quotient_letters = quotient
    return steps


def seeded_step_pairs() -> list:
    """A few pairs by hand, then seeded pairs (s x, s y) with a shared stem
    s, where x or y may be empty and the two may diverge at two cubes."""
    rnd = random.Random(23)
    half = cube_letter(AffineMap([(Fraction(1, 2), Fraction(0))]))
    third = cube_letter(AffineMap([(Fraction(1, 3), Fraction(1, 4))]))
    stem = (knot("x"), half, gsym("y"))
    pairs = [
        ((), ()),
        ((), stem),
        (stem, ()),
        (stem, stem),
        (stem, stem + (knot("z"),)),
        (stem + (puck("a", -1),), stem),
        (stem + (half, knot("z")), stem + (third, puck("a"))),
        ((third,), (half,)),
    ]
    for _ in range(300):
        s = rand_mixed_letters(rnd, rnd.randint(0, 40))
        x = rand_mixed_letters(rnd, rnd.randint(0, 3))
        y = rand_mixed_letters(rnd, rnd.randint(0, 3))
        pairs.append((GroupWord(s + x).letters, GroupWord(s + y).letters))
    return pairs


def step_corpus() -> list:
    seams = [(u.letters, v.letters) for u, v in seam_corpus()]
    return seeded_step_pairs() + fold_step_pairs() + seams


def step_mismatch(step, pairs) -> str | None:
    """The first pair (prev, c) on which ``step`` differs from the product
    prev^-1 * c, located by its index, or None."""
    for index, (prev, c) in enumerate(pairs):
        got = GroupWord._trusted(step(prev, c))
        want = GroupWord._trusted(prev).inverse() * GroupWord._trusted(c)
        if got != want:
            return f"pair {index}: {format_word(got)}, want {format_word(want)}"
    return None


def two_cubes_at_divergence(prev: tuple, c: tuple) -> bool:
    n = plain_prefix(prev, c)
    return n < len(prev) and n < len(c) and prev[n].kind == c[n].kind == CUBE


class TestQuotientStep:
    def test_corpus_covers_every_step(self):
        pairs = step_corpus()
        assert max(plain_prefix(p, c) for p, c in fold_step_pairs()) > 30  # shared stems
        assert any(0 < len(p) == plain_prefix(p, c) < len(c) for p, c in pairs)
        assert any(0 < len(c) == plain_prefix(p, c) < len(p) for p, c in pairs)
        assert any(not p or not c for p, c in pairs)
        assert sum(two_cubes_at_divergence(p, c) for p, c in pairs) > 10

    def test_common_prefix_matches_plain_walk(self):
        for prev, c in step_corpus():
            assert words.common_prefix(prev, c) == plain_prefix(prev, c)

    def test_matches_product_reference(self):
        assert step_mismatch(words.quotient_letters, step_corpus()) is None

    def test_step_leaving_two_cubes_is_caught(self):
        pairs = step_corpus()
        first = next(index for index, (p, c) in enumerate(pairs) if two_cubes_at_divergence(p, c))

        def no_merge(prev, c):
            n = plain_prefix(prev, c)
            return words.inverse_letters(prev[n:]) + c[n:]

        failure = step_mismatch(no_merge, pairs)
        assert failure is not None and failure.startswith(f"pair {first}: "), failure


class TestProductShortcuts:
    def test_empty_factor_returns_the_other_itself(self):
        e = GroupWord.empty()
        half = cube_letter(AffineMap([(Fraction(1, 2), Fraction(1, 4))]))
        symbols = GroupWord.of(knot("x"), gsym("y", -1), puck("a"))
        cubes = GroupWord.of(half)
        mixed = GroupWord.of(puck("a"), half, knot("x"))
        for w in (symbols, cubes, mixed):
            assert e * w is w
            assert w * e is w

    def test_long_shared_prefix_cancels_at_the_seam(self):
        # left ends with p^-1 and right starts with p, as where two pucks
        # with one stem meet in the splice fold; x and y share no letter with p
        rnd = random.Random(17)
        for _ in range(30):
            p = GroupWord(rand_mixed_letters(rnd, rnd.randint(70, 90)))
            while len(p) < 50:
                p = p * GroupWord(rand_mixed_letters(rnd, 20))
            x, y = rand_word(rnd, 3), rand_word(rnd, 3)
            left, right = x * p.inverse(), p * y
            prod = left * right
            assert prod == GroupWord(left.letters + right.letters) == reference_mul(left, right)
            assert seam_steps(left, right, prod)[0] >= len(p) >= 50


def reference_inverse(w: GroupWord) -> GroupWord:
    """The per-letter inversion: each letter inverted on its own, in reverse."""
    return GroupWord._trusted(tuple([lt.inverse() for lt in reversed(w.letters)]))


def inverse_corpus() -> list:
    """Seeded words mixing pool symbols, puck symbols and cube letters, then
    the composite pucks and bases of splice composites, whose stems stack
    many conjugated pucks."""
    rnd = random.Random(13)
    corpus = [GroupWord.empty()]
    corpus += [rand_mixed_word(rnd, rnd.randint(1, 10)) for _ in range(200)]
    corpus += [rand_word(rnd, 8, 1) for _ in range(100)]
    for seed, k in ((10, 4), (11, 8), (12, 16)):
        rnd = random.Random(seed)
        outer = rand_splice_element(rnd, k, "J", nonempty_base=True)
        mids = [rand_splice_element(rnd, rnd.randint(0, 2), f"L{a}", True) for a in range(k)]
        composite = splice_compose(outer, mids)
        corpus += [composite.base, *composite.pucks]
    return corpus


def inverse_mismatch(corpus: list) -> str | None:
    """The first word whose inverse differs from ``reference_inverse``, located
    by its index, or None."""
    for index, w in enumerate(corpus):
        got, want = w.inverse(), reference_inverse(w)
        if got != want:
            return f"word {index}: {format_word(w)} inverted to {format_word(got)}, want {format_word(want)}"
    return None


def first_reverse_lookup(corpus: list) -> int:
    """Index of the first word that, inverted in order, looks up the inverse
    of a symbol letter on which an earlier lookup missed."""
    missed, stale = set(), set()
    for index, w in enumerate(corpus):
        for lt in reversed(w.letters):
            if lt.kind == CUBE or lt in missed:
                continue
            if lt in stale:
                return index
            missed.add(lt)
            stale.add(lt.inverse())
    raise AssertionError("no word looks up a stored reverse pair")


class TestInverse:
    def test_corpus_mixes_every_letter_source(self):
        corpus = inverse_corpus()
        kinds = {lt.kind for w in corpus for lt in w.letters}
        assert kinds == {"P", "K", "G", "C"}
        assert any(lt.name.startswith("L") for w in corpus for lt in w.letters if lt.kind == "P")
        assert max(len(w) for w in corpus) > 10

    def test_matches_per_letter_reference(self):
        assert inverse_mismatch(inverse_corpus()) is None

    def test_word_times_inverse_is_empty(self):
        for w in inverse_corpus():
            assert not (w * w.inverse())
            assert not (w.inverse() * w)

    def test_table_is_bounded(self, monkeypatch):
        # a fresh table fills on the first pass and not on the second; it
        # stores no cube letter and at most two entries per name and kind.
        # The corpus is built first: building its splice composites looks up
        # inverses too, and those are not the w.inverse() calls under test.
        corpus = inverse_corpus()
        table = words._InverseTable()
        monkeypatch.setattr(words, "_INVERSE", table)
        for w in corpus:
            w.inverse()
        filled = dict(table)
        for w in corpus:
            w.inverse()
        assert table == filled and filled
        assert all(lt.kind != CUBE for lt in table)
        names = {(lt.kind, lt.name) for w in corpus for lt in w.letters if lt.kind != CUBE}
        assert {(lt.kind, lt.name) for lt in table} == names
        assert len(table) <= 2 * len(names)

    def test_table_storing_unnegated_letter_is_caught(self, monkeypatch):
        # the first miss on a letter answers right, but the pair stored the
        # other way keeps its exponent: the first word that looks up the
        # inverse of a letter already missed must be located
        class Unnegated(words._InverseTable):
            def __missing__(self, lt):
                inv = lt.inverse()
                if lt.kind != CUBE:
                    self[lt] = inv
                    self[inv] = inv
                return inv

        corpus = inverse_corpus()
        first = first_reverse_lookup(corpus)
        assert first > 1
        monkeypatch.setattr(words, "_INVERSE", Unnegated())
        failure = inverse_mismatch(corpus)
        assert failure is not None and failure.startswith(f"word {first}: "), failure


class TestConjugate:
    def test_empty_conjugator(self):
        w = GroupWord.of(knot("x"), knot("x", -1), knot("y"))
        assert conjugate(GroupWord.empty(), w) == GroupWord.of(knot("y"))

    def test_conjugate_of_empty(self):
        assert not conjugate(GroupWord.of(knot("a")), GroupWord.empty())

    def test_inverse_conjugation(self):
        rnd = random.Random(3)
        for _ in range(100):
            a = rand_mixed_word(rnd, 3)
            w = rand_mixed_word(rnd, 4)
            assert conjugate(a, conjugate(a.inverse(), w)) == reduce_word(w)

    def test_distributes_over_products_exhaustive(self):
        # every triple of words of length <= 3 over a compact mixed alphabet
        import itertools

        half = cube_letter(AffineMap([(Fraction(1, 2), Fraction(0))]))
        alphabet = [knot("x"), knot("x", -1), half]
        words = [GroupWord(w) for n in range(3) for w in itertools.product(alphabet, repeat=n)]
        words += [GroupWord(w) for w in itertools.product(alphabet, repeat=3)]
        for a in words:
            for u in words:
                for v in words:
                    lhs = conjugate(a, reduce_word(u) * reduce_word(v))
                    rhs = conjugate(a, u) * conjugate(a, v)
                    assert lhs == rhs

    def test_distributes_over_products_random(self):
        rnd = random.Random(4)
        for _ in range(100):
            a = rand_mixed_word(rnd, 4)
            u = rand_mixed_word(rnd, 4)
            v = rand_mixed_word(rnd, 4)
            assert conjugate(a, reduce_word(u) * reduce_word(v)) == conjugate(a, u) * conjugate(a, v)


class TestOverlapAction:
    def test_identity_cube_acts_trivially(self):
        from spliceops.overlap import OverlapElement

        f = GroupWord.of(knot("f"))
        assert overlap_act(OverlapElement.identity(1), [f]) == f

    def test_disjoint_cubes_either_order_same_word(self):
        left = LittleCube([LittleInterval(Fraction(1, 2), Fraction(-1, 2))])
        right = LittleCube([LittleInterval(Fraction(1, 2), Fraction(1, 2))])
        words = [GroupWord.of(knot("f1")), GroupWord.of(knot("f2"))]
        outs = {
            overlap_act(overlap_canonical([left, right], sigma), words)
            for sigma in (Perm.identity(2), Perm((2, 1)))
        }
        assert len(outs) == 1

    def test_stacking_order_follows_heights(self):
        full = LittleCube([LittleInterval(Fraction(1), Fraction(0))])
        words = [GroupWord.of(knot("f1")), GroupWord.of(knot("f2"))]
        out = overlap_act(overlap_canonical([full, full], Perm.identity(2)), words)
        # cube 2 is on top: its conjugate appears first; identity cubes leave bare letters
        assert out == GroupWord.of(knot("f2"), knot("f1"))

    def test_action_axiom_on_fully_constrained_families(self):
        # with every pair of cubes overlapping, the height order of composites
        # is fully constrained and the action axiom holds letter for letter
        rnd = random.Random(5)
        for _ in range(200):
            k = rnd.randint(1, 3)
            outer = anchored_overlap_element(rnd, 1, k)
            args = [anchored_overlap_element(rnd, 1, rnd.randint(1, 2)) for _ in range(k)]
            words = [rand_word(rnd, 2) for _ in range(sum(a.arity for a in args))]
            lhs = overlap_act(overlap_compose(outer, args), words)
            pos, partial = 0, []
            for a in args:
                partial.append(overlap_act(a, words[pos : pos + a.arity]))
                pos += a.arity
            rhs = overlap_act(outer, partial)
            assert lhs == rhs

    def test_identity_axiom(self):
        rnd = random.Random(6)
        for _ in range(50):
            elem = anchored_overlap_element(rnd, 1, 1)
            w = rand_word(rnd, 3)
            single = overlap_act(
                overlap_canonical([LittleCube.identity(1)], Perm.identity(1)), [w]
            )
            assert single == reduce_word(w)
            assert not overlap_act(elem, [GroupWord.empty()])

    def test_arity_mismatch(self):
        elem = rand_overlap_element(random.Random(7), 1, 2)
        with pytest.raises(StructuralError):
            overlap_act(elem, [GroupWord.empty()])


class TestTextForm:
    def test_round_trip(self):
        rnd = random.Random(8)
        for _ in range(200):
            w = rand_mixed_word(rnd, rnd.randint(0, 6))
            assert parse_word(format_word(w)) == w

    def test_empty_word(self):
        assert format_word(GroupWord.empty()) == "e"
        assert not parse_word("e")

    def test_kinds_survive(self):
        w = GroupWord.of(puck("J1"), knot("f2", -1), gsym("g0"))
        assert format_word(w) == "P.J1 K.f2^-1 G.g0"
        assert parse_word(format_word(w)) == w

    @given(st.text(alphabet="PKG.x^-1[] ", max_size=12))
    def test_parser_never_crashes_unexpectedly(self, text):
        try:
            parse_word(text)
        except StructuralError:
            pass


# ---------------------------------------------------------------------------
# hypothesis properties

_hyp_letters = st.one_of(
    st.tuples(st.sampled_from("ab"), st.sampled_from((1, -1))).map(lambda t: knot(t[0], t[1])),
    st.tuples(st.sampled_from("gh"), st.sampled_from((1, -1))).map(lambda t: gsym(t[0], t[1])),
    st.sampled_from(
        [
            cube_letter(AffineMap([(Fraction(1, 2), Fraction(0))])),
            cube_letter(AffineMap([(Fraction(2), Fraction(1, 3))])),
            cube_letter(AffineMap([(Fraction(1), Fraction(0))])),
        ]
    ),
)

hyp_letter_tuples = st.lists(_hyp_letters, max_size=10).map(tuple)
hyp_words = hyp_letter_tuples.map(GroupWord)


@given(hyp_letter_tuples)
def test_reduce_idempotent_hypothesis(letters):
    r = GroupWord(letters)
    assert GroupWord(r.letters) == r


@given(hyp_letter_tuples)
def test_inverse_law_hypothesis(letters):
    w = GroupWord(letters)
    assert not (w * w.inverse())
    assert not (w.inverse() * w)
    assert not GroupWord(letters + tuple(lt.inverse() for lt in reversed(letters)))


@given(hyp_words, hyp_words)
def test_product_matches_construction_hypothesis(u, v):
    # a product cancels only at the seam, and must agree with reducing the
    # whole concatenation from scratch; both read the seam walk, so they are
    # also checked against the push reference
    assert u * v == GroupWord(u.letters + v.letters) == reference_mul(u, v)


@given(hyp_words, hyp_words, hyp_words)
def test_multiplication_associative_hypothesis(u, v, w):
    assert (u * v) * w == u * (v * w)


_raw_letters = st.builds(
    words.Letter,
    st.sampled_from(("P", "K", "G", "C", "X")),
    st.one_of(
        st.sampled_from(("a", "b_1", "c'")),
        st.none(),
        st.integers(0, 1),
        st.text(alphabet="ab_'1 .^-[]", max_size=4),
    ),
    st.sampled_from((1, -1, 2)),
    st.sampled_from(
        (None, AffineMap([(Fraction(1, 2), Fraction(0))]), AffineMap([(Fraction(1), Fraction(0))]))
    ),
)


@given(st.lists(_raw_letters, max_size=6))
def test_accepted_raw_letters_read_back_hypothesis(letters):
    # every word that construction accepts prints as text that parses back
    # to the same word
    try:
        w = GroupWord(letters)
    except StructuralError:
        return
    assert parse_word(format_word(w)) == w
